//! Attribution runs through the public API, and the layer ladder that
//! places their cost in the workspace crates.
//!
//! The ladder replays one program at one access limit with progressively
//! more of the system switched on:
//!
//! | rung          | what runs                                             |
//! |---------------|-------------------------------------------------------|
//! | `producer`    | `Program::next_chunk` alone (`workloads`)             |
//! | `cache`       | + `SetAssocCache::access` on every reference (`sim`)  |
//! | `engine`      | `Engine::run`, `NullHandler`, attribution off (`sim`) |
//! | `attribution` | + ground-truth attribution (`sim`)                    |
//! | `full`        | `Experiment::run` with the technique (`hwpm`, `core`) |
//! | `traced`      | `full` again through the timing wrappers              |
//!
//! Rungs are interleaved round by round and each reports its median, so
//! drift on a shared machine reaches every rung alike. Differences of
//! adjacent rungs give the per-layer costs.

use std::time::{Duration, Instant};

use cachescope_core::{
    Experiment, ExperimentReport, Sampler, SamplerConfig, SearchConfig, Searcher, TechniqueConfig,
    TechniqueReport,
};
use cachescope_hwpm::Interrupt;
use cachescope_obs::ObsEvent;
use cachescope_sim::{
    Addr, CacheConfig, Engine, EngineCtx, EventChunk, Handler, NullHandler, ObjectDecl, Program,
    RunLimit, SetAssocCache, SimConfig,
};

use crate::spans::{Shared, TimedHandler, TimedProgram, HANDLER_SPANS};
use crate::stats::median;
use crate::Outcome;

/// The measurement technique of one case.
#[derive(Clone)]
pub enum Tech {
    None,
    Sampler(SamplerConfig),
    Search(SearchConfig),
}

impl Tech {
    pub fn config(&self) -> TechniqueConfig {
        match self {
            Tech::None => TechniqueConfig::None,
            Tech::Sampler(c) => TechniqueConfig::Sampling(c.clone()),
            Tech::Search(c) => TechniqueConfig::Search(c.clone()),
        }
    }

    fn handler(&self, decls: &[ObjectDecl]) -> AnyHandler {
        match self {
            Tech::None => AnyHandler::Null(NullHandler),
            Tech::Sampler(c) => AnyHandler::Sampler(Box::new(Sampler::new(c.clone(), decls))),
            Tech::Search(c) => AnyHandler::Search(Box::new(Searcher::new(c.clone(), decls))),
        }
    }
}

/// The handler `Experiment::run` would build for a technique, as one type
/// the timing wrapper can hold.
enum AnyHandler {
    Null(NullHandler),
    Sampler(Box<Sampler>),
    Search(Box<Searcher>),
}

impl AnyHandler {
    fn get(&mut self) -> &mut dyn Handler {
        match self {
            AnyHandler::Null(h) => h,
            AnyHandler::Sampler(h) => &mut **h,
            AnyHandler::Search(h) => &mut **h,
        }
    }

    fn report(&self) -> TechniqueReport {
        match self {
            AnyHandler::Null(_) => TechniqueReport::default(),
            AnyHandler::Sampler(h) => h.report(),
            AnyHandler::Search(h) => h.report().cloned().unwrap_or_default(),
        }
    }
}

impl Handler for AnyHandler {
    fn init(&mut self, ctx: &mut EngineCtx) {
        self.get().init(ctx);
    }
    fn on_interrupt(&mut self, intr: Interrupt, ctx: &mut EngineCtx) {
        self.get().on_interrupt(intr, ctx);
    }
    fn on_alloc(&mut self, base: Addr, size: u64, name: Option<&str>, ctx: &mut EngineCtx) {
        self.get().on_alloc(base, size, name, ctx);
    }
    fn on_free(&mut self, base: Addr, ctx: &mut EngineCtx) {
        self.get().on_free(base, ctx);
    }
    fn on_finish(&mut self, ctx: &mut EngineCtx) {
        self.get().on_finish(ctx);
    }
}

/// One program, technique and access limit.
pub struct Case {
    pub make: Box<dyn Fn() -> Box<dyn Program>>,
    pub tech: Tech,
    pub accesses: u64,
}

impl Case {
    fn limit(&self) -> RunLimit {
        RunLimit::AppAccesses(self.accesses)
    }

    /// One attribution run through the public API, untraced.
    pub fn run_plain(&self) -> ExperimentReport {
        self.run_on((self.make)())
    }

    /// [`Case::run_plain`] on a program made beforehand.
    pub fn run_on(&self, program: Box<dyn Program>) -> ExperimentReport {
        Experiment::new(program)
            .technique(self.tech.config())
            .limit(self.limit())
            .run()
    }

    /// The same run with the program and handler behind timing wrappers.
    pub fn run_traced(&self, program: Box<dyn Program>, rec: &Shared) -> ExperimentReport {
        let program = TimedProgram::new(program, rec);
        let decls = program.static_objects();
        let mut handler = TimedHandler::new(self.tech.handler(&decls), rec);
        let plain = Experiment::new(program)
            .limit(self.limit())
            .run_with(&mut handler);
        let mut report =
            ExperimentReport::new(plain.app, plain.stats, handler.inner.report(), 0.01);
        report.events = plain.events;
        report
    }
}

/// Deterministic results of one run, for identity checks.
pub fn fingerprint(r: &ExperimentReport) -> String {
    let s = &r.stats;
    let mut fp = format!(
        "{} app={:?} instr={:?} cycles={} instr_cycles={} intr={} unmapped={}",
        r.app, s.app, s.instr, s.cycles, s.instr_cycles, s.interrupts, s.unmapped_misses
    );
    for o in &s.objects {
        fp.push_str(&format!(" {}:{}", o.name, o.misses));
    }
    for e in &r.technique.estimates {
        fp.push_str(&format!(" est:{}:{}", e.name, e.weight));
    }
    fp
}

/// Deterministic per-run counts, summed over runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub app_refs: u64,
    pub app_misses: u64,
    pub cycles: u64,
    pub instr_cycles: u64,
    pub interrupts: u64,
    pub samples: u64,
    pub search_iterations: u64,
    /// Largest |estimated − actual| share over objects with ≥1% of
    /// actual misses, in percentage points.
    pub attr_err_pp: f64,
}

impl Counts {
    pub fn add(&mut self, r: &ExperimentReport, tech: &Tech) {
        let s = &r.stats;
        self.app_refs += s.app.accesses;
        self.app_misses += s.app.misses;
        self.cycles += s.cycles;
        self.instr_cycles += s.instr_cycles;
        self.interrupts += s.interrupts;
        if matches!(tech, Tech::Sampler(_)) {
            self.samples += r.technique.estimates.iter().map(|e| e.weight).sum::<u64>()
                + r.technique.unattributed_weight;
        }
        self.search_iterations += r
            .events
            .iter()
            .filter(|e| matches!(e, ObsEvent::SearchIteration(_)))
            .count() as u64;
        if !matches!(tech, Tech::None) {
            for row in r.rows().iter().filter(|row| row.actual_pct >= 1.0) {
                let err = (row.est_pct.unwrap_or(0.0) - row.actual_pct).abs();
                self.attr_err_pp = self.attr_err_pp.max(err);
            }
        }
    }

    /// Simulated instrumentation cycles as a share of application cycles.
    pub fn sim_overhead_pct(&self) -> f64 {
        let app = self.cycles.saturating_sub(self.instr_cycles).max(1);
        self.instr_cycles as f64 * 100.0 / app as f64
    }

    pub fn report(&self, out: &mut Outcome) {
        out.metric("sim.app_refs", self.app_refs as f64, "count");
        out.metric("sim.app_misses", self.app_misses as f64, "count");
        out.metric("sim.cycles", self.cycles as f64, "count");
        out.metric("hwpm.interrupts", self.interrupts as f64, "count");
        out.metric("core.samples", self.samples as f64, "count");
        out.metric(
            "core.search_iterations",
            self.search_iterations as f64,
            "count",
        );
        out.metric("core.sim_overhead_pct", self.sim_overhead_pct(), "%");
        out.metric("core.attr_err_pp", self.attr_err_pp, "pp");
    }
}

/// Drain the program through `next_chunk`, optionally applying every
/// reference to a cache, until `limit` references. Returns the
/// references consumed.
fn drain(program: &mut dyn Program, limit: u64, mut cache: Option<&mut SetAssocCache>) -> u64 {
    let mut buf = EventChunk::standard();
    let mut refs = 0u64;
    let mut misses = 0u64;
    while refs < limit {
        buf.reset();
        if program.next_chunk(&mut buf) == 0 {
            break;
        }
        let take = (limit - refs).min(buf.refs.len() as u64) as usize;
        if let Some(c) = cache.as_deref_mut() {
            for r in &buf.refs[..take] {
                misses += u64::from(!c.access(*r).hit);
            }
        }
        refs += take as u64;
    }
    std::hint::black_box(misses);
    refs
}

const RUNGS: [&str; 6] = [
    "ladder.producer",
    "ladder.cache",
    "ladder.engine",
    "ladder.attribution",
    "ladder.full",
    "ladder.traced",
];

/// Time one rung over every case; returns (ns, refs, reports of the
/// attribution runs).
fn rung(rung: usize, cases: &[Case], rec: &Shared) -> (f64, u64, Vec<ExperimentReport>) {
    let mut ns = 0.0;
    let mut refs = 0u64;
    let mut reports = Vec::new();
    for case in cases {
        // Made before the clock starts; the run owns and drops it.
        let mut program = (case.make)();
        rec.borrow_mut().begin(RUNGS[rung]);
        let t0 = Instant::now();
        // Every rung drops its program inside the timing, as a run does.
        let n = match rung {
            0 => {
                let n = drain(&mut program, case.accesses, None);
                drop(program);
                n
            }
            1 => {
                let mut cache = SetAssocCache::new(CacheConfig::default());
                let n = drain(&mut program, case.accesses, Some(&mut cache));
                drop(program);
                n
            }
            2 | 3 => {
                let mut engine = Engine::new(SimConfig::default());
                engine.set_attribution(rung == 3);
                let n = engine
                    .run(&mut program, &mut NullHandler, case.limit())
                    .app
                    .accesses;
                drop(program);
                n
            }
            _ => {
                let r = if rung == 4 {
                    case.run_on(program)
                } else {
                    case.run_traced(program, rec)
                };
                let n = r.stats.app.accesses;
                reports.push(r);
                n
            }
        };
        ns += t0.elapsed().as_nanos() as f64;
        rec.borrow_mut().end();
        refs += n;
    }
    (ns, refs, reports)
}

/// Run the ladder for about `budget` (at least three rounds), check that
/// the untraced and traced attribution runs agree with each other and
/// across rounds, and report the per-layer metrics. Returns the counts
/// and the [`fingerprint`]s of one round.
pub fn run(
    cases: &[Case],
    budget: Duration,
    rec: &Shared,
    out: &mut Outcome,
) -> (Counts, Vec<String>) {
    let start = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut refs = [0u64; 6];
    let mut first: Option<Vec<String>> = None;
    let mut counts = Counts::default();
    let mut round = 0;
    while round < 3 || start.elapsed() < budget {
        rec.borrow_mut().set_trace(round + 1);
        let mut fps: Vec<Vec<String>> = Vec::new();
        for (i, t) in times.iter_mut().enumerate() {
            let (ns, n, reports) = rung(i, cases, rec);
            t.push(ns);
            refs[i] = n;
            if i == 4 && round == 0 {
                for (r, c) in reports.iter().zip(cases) {
                    counts.add(r, &c.tech);
                }
            }
            if i >= 4 {
                fps.push(reports.iter().map(fingerprint).collect());
            }
        }
        out.check(fps[0] == fps[1], || {
            format!("ladder round {round}: traced and untraced runs disagree")
        });
        match &first {
            None => first = Some(fps.swap_remove(0)),
            Some(f) => out.check(*f == fps[0], || {
                format!("ladder round {round}: results differ from round 0")
            }),
        }
        round += 1;
    }
    let per_ref = |i: usize| median(&times[i]) / refs[i].max(1) as f64;
    let rounds = round as f64;

    let r = rec.borrow();
    let handler_ns: u64 = HANDLER_SPANS.iter().map(|n| r.total_ns(n)).sum();
    let handler_ns_per_round = handler_ns as f64 / rounds;
    let full_refs = refs[4].max(1) as f64;
    let produce = r.self_ns("workloads.next_chunk") as f64 / rounds / full_refs;
    let cache = per_ref(1) - per_ref(0);
    let engine = per_ref(2) - per_ref(1);
    let attribution = (median(&times[3]) - median(&times[2])) / counts.app_misses.max(1) as f64;
    let pmu = (median(&times[4]) - median(&times[3]) - handler_ns_per_round) / full_refs;
    let intr_ns = r.total_ns("core.on_interrupt") as f64 / rounds;
    let alloc_free = r.total_ns("objmap.on_alloc") + r.total_ns("objmap.on_free");
    let alloc_free_n = r.count("objmap.on_alloc") + r.count("objmap.on_free");
    drop(r);

    println!("ladder: {round} rounds");
    out.metric("ladder.producer_ns_per_ref", per_ref(0), "ns");
    out.metric("ladder.cache_ns_per_ref", per_ref(1), "ns");
    out.metric("ladder.engine_ns_per_ref", per_ref(2), "ns");
    out.metric("ladder.attribution_ns_per_ref", per_ref(3), "ns");
    out.metric("ladder.full_ns_per_ref", per_ref(4), "ns");
    out.metric("workloads.produce_ns_per_ref", produce, "ns");
    out.metric("sim.cache_ns_per_ref", cache, "ns");
    out.metric("sim.engine_ns_per_ref", engine, "ns");
    out.metric("sim.attribution_ns_per_miss", attribution, "ns");
    out.metric("hwpm.pmu_ns_per_ref", pmu, "ns");
    let per_intr = intr_ns / counts.interrupts.max(1) as f64 / 1e3;
    out.metric("core.handler_us_per_interrupt", per_intr, "us");
    out.metric(
        "core.handler_share_pct",
        handler_ns_per_round * 100.0 / median(&times[5]).max(1.0),
        "%",
    );
    out.metric(
        "objmap.alloc_free_ns",
        alloc_free as f64 / alloc_free_n.max(1) as f64,
        "ns",
    );
    out.metric(
        "obs.trace_overhead_pct",
        (median(&times[5]) / median(&times[4]).max(1.0) - 1.0) * 100.0,
        "%",
    );
    (counts, first.unwrap_or_default())
}
