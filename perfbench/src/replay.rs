//! `replay-bare`: the CLI `--replay` path.
//!
//! Before timing, mgrid (`Scale::Test`) is recorded as a binary-v2 trace
//! by an uninstrumented live run. Set-up decodes the trace with
//! `load_eager`; each job replays it with technique `none`. No PMU latch
//! is armed and no handler runs, so PMU, handler and producer changes
//! should not move this workload. mgrid is a fixed stand-in for a SPEC
//! input, so the seed does not change this workload.

use std::time::Instant;

use cachescope_sim::tracefile::load_eager;
use cachescope_sim::{
    Engine, NullHandler, Program, RecordingProgram, RunLimit, RunStats, SimConfig, TraceFormat,
    TraceProgram,
};
use cachescope_workloads::spec::{self, Scale};

use crate::ladder::{self, Case, Tech};
use crate::spans::Shared;
use crate::stats::{median, report_jobs, Scaled};
use crate::{Outcome, RunArgs};

/// Application accesses recorded and replayed per job.
const ACCESSES: u64 = 400_000;

/// Decode repetitions in set-up; the median is reported.
const SETUPS: usize = 5;

/// The deterministic part of a run's results.
fn summary(s: &RunStats) -> String {
    let mut out = format!(
        "app={:?} instr={:?} cycles={} intr={} unmapped={}",
        s.app, s.instr, s.cycles, s.interrupts, s.unmapped_misses
    );
    for o in &s.objects {
        out.push_str(&format!(" {}:{}", o.name, o.misses));
    }
    out
}

fn case(trace: &TraceProgram) -> Case {
    let trace = trace.clone();
    Case {
        make: Box::new(move || Box::new(trace.clone())),
        tech: Tech::None,
        accesses: ACCESSES,
    }
}

pub fn run(args: &RunArgs, rec: &Shared) -> Outcome {
    let mut out = Outcome::default();
    let limit = RunLimit::AppAccesses(ACCESSES);

    // Record the trace (benchmark preparation, not timed).
    let mut recorder =
        RecordingProgram::with_format(spec::mgrid(Scale::Test), Vec::new(), TraceFormat::Bin);
    let live = Engine::new(SimConfig::default()).run(&mut recorder, &mut NullHandler, limit);
    let bytes = recorder.into_writer();
    let live = summary(&live);

    // Set-up: decode the trace.
    let mut setups = Scaled::default();
    let mut decoded = None;
    for _ in 0..SETUPS {
        rec.borrow_mut().begin("tracefile.load_eager");
        decoded = Some(setups.time(|| load_eager(&bytes[..])));
        rec.borrow_mut().end();
    }
    let trace = match decoded {
        Some(Ok(t)) => t,
        Some(Err(e)) => {
            out.check(false, || format!("recorded trace does not decode: {e}"));
            return out;
        }
        None => unreachable!("set-up runs at least once"),
    };
    let case = case(&trace);

    if args.trace {
        let events = count_events(trace.clone());
        out.metric(
            "tracefile.decode_ns_per_event",
            median(setups.raw_ms()) * 1e6 / events.max(1) as f64,
            "ns",
        );
        out.metric("tracefile.trace_bytes", bytes.len() as f64, "count");
        let report = case.run_plain();
        out.check(summary(&report.stats) == live, || {
            "replayed run differs from the live run".into()
        });
        let (counts, _) = ladder::run(&[case], args.budget(), rec, &mut out);
        counts.report(&mut out);
        return out;
    }

    let start = Instant::now();
    let mut jobs = Scaled::default();
    let mut refs = 0u64;
    while jobs.len() < 20 || start.elapsed() < args.budget() {
        let program = trace.clone();
        let report = jobs.time(|| {
            cachescope_core::Experiment::new(program)
                .technique(Tech::None.config())
                .limit(limit)
                .run()
        });
        let n = jobs.len();
        out.check(summary(&report.stats) == live, || {
            format!("replay {n}: stats differ from the live run")
        });
        refs += report.stats.app.accesses;
    }
    println!("trace_bytes: {}", bytes.len());
    report_jobs(&mut out, &jobs, refs as f64 / jobs.len() as f64, &setups);
    out
}

/// Events in a decoded trace.
fn count_events(mut program: TraceProgram) -> u64 {
    let mut n = 0;
    while program.next_event().is_some() {
        n += 1;
    }
    n
}
