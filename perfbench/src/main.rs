//! cachescope benchmark: end-to-end metrics per workload (untraced run)
//! and per-layer metrics from a separate traced run.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <live-attrib|replay-bare|serve-open|fuzz-cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints the host and its core count, one human-readable line
//! per metric, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output
//! check makes `correct` false and the exit code 1.
//!
//! Scratch files (daemon and campaign caches, recorded traces) live in
//! `.perfbench_out/work-<pid>/` under the working directory and are removed
//! before exit; a traced run leaves its spans in
//! `.perfbench_out/spans-<workload>-s<seed>.jsonl`.

mod fuzz;
mod ladder;
mod live;
mod replay;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

/// One measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (jobs, sessions, sweeps) and how many of them
    /// failed, were refused or produced output that failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failed check.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record one operation and whether its output checks passed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a failed check on an operation already counted.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    /// Check `ok` for one operation; on failure keep `msg`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.problem(msg());
        }
    }

    /// The per-layer error rate, counted the same way on every workload.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Settings shared by every workload.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this process (removed at exit).
    pub work: PathBuf,
}

impl RunArgs {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const WORKLOADS: [&str; 4] = ["live-attrib", "replay-bare", "serve-open", "fuzz-cold"];

/// The end-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("refs_per_s", "1/s"),
    ("job_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer the workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.produce_ns_per_ref", "ns"),
    ("sim.cache_ns_per_ref", "ns"),
    ("sim.engine_ns_per_ref", "ns"),
    ("sim.attribution_ns_per_miss", "ns"),
    ("hwpm.pmu_ns_per_ref", "ns"),
    ("core.handler_us_per_interrupt", "us"),
    ("core.handler_share_pct", "%"),
    ("objmap.alloc_free_ns", "ns"),
    ("ladder.producer_ns_per_ref", "ns"),
    ("ladder.cache_ns_per_ref", "ns"),
    ("ladder.engine_ns_per_ref", "ns"),
    ("ladder.attribution_ns_per_ref", "ns"),
    ("ladder.full_ns_per_ref", "ns"),
    ("tracefile.decode_ns_per_event", "ns"),
    ("tracefile.trace_bytes", "count"),
    ("serve.session_p50_ms", "ms"),
    ("serve.session_p95_ms", "ms"),
    ("serve.sessions_per_s", "1/s"),
    ("serve.handshake_us", "us"),
    ("serve.upload_us", "us"),
    ("serve.report_wait_us", "us"),
    ("serve.ingest_ns_per_byte", "ns"),
    ("serve.simulate_ms_per_session", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.busy_frac", "ratio"),
    ("serve.dedup_hits", "count"),
    ("serve.sim_starts", "count"),
    ("serve.repeat_share", "ratio"),
    ("fuzzgen.generate_ms", "ms"),
    ("check.prevalidate_ms", "ms"),
    ("analyze.bounds_ms", "ms"),
    ("campaign.cell_ms", "ms"),
    ("campaign.warm_ms_per_cell", "ms"),
    ("campaign.cold_cache_hits", "count"),
    ("fuzzgen.findings", "count"),
    ("fuzzgen.bounds_violations", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("sim.app_refs", "count"),
    ("sim.app_misses", "count"),
    ("sim.cycles", "count"),
    ("hwpm.interrupts", "count"),
    ("core.samples", "count"),
    ("core.search_iterations", "count"),
    ("core.sim_overhead_pct", "%"),
    ("core.attr_err_pp", "pp"),
    ("error_rate", "ratio"),
    ("serve.open_sessions", "count"),
    ("serve.closed_sessions", "count"),
];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn host_line() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("host: {host}  cpu: {cpu}  nproc: {nproc}")
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number; an infinite latency (a failed session) prints as the
/// largest finite value.
fn json_number(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else {
        format!("{:?}", v.clamp(f64::MIN, f64::MAX))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = get("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed: u64 = get("--seed")
        .unwrap_or_else(|| "1".to_string())
        .parse()
        .unwrap_or_else(|_| usage("--seed takes a whole number"));
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| "10".to_string())
        .parse()
        .unwrap_or_else(|_| usage("--seconds takes a number"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => usage(&format!("--trace takes 0 or 1, not {other:?}")),
    };

    let out_dir = PathBuf::from(".perfbench_out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: creating {}: {e}", work.display());
        std::process::exit(1);
    }
    let run = RunArgs {
        seed,
        seconds,
        trace,
        work: work.clone(),
    };

    println!("{}", host_line());
    println!(
        "workload: {workload}  seed: {seed}  seconds: {seconds}  trace: {}",
        u8::from(trace)
    );
    let recorder = spans::Recorder::shared(trace);
    let mut out = match workload.as_str() {
        "live-attrib" => live::run(&run, &recorder),
        "replay-bare" => replay::run(&run, &recorder),
        "serve-open" => serve::run(&run, &recorder),
        "fuzz-cold" => fuzz::run(&run, &recorder),
        _ => unreachable!("workload validated above"),
    };
    if trace {
        let rate = out.error_rate();
        out.metric("error_rate", rate, "ratio");
        let path = out_dir.join(format!("spans-{workload}-s{seed}.jsonl"));
        match recorder.borrow().write_jsonl(&path) {
            Ok(n) => println!("spans: {n} written to {}", path.display()),
            Err(e) => out.problem(format!("writing spans to {}: {e}", path.display())),
        }
    } else {
        out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    let _ = std::fs::remove_dir_all(&work);
    // Leaves nothing behind when no spans were written.
    let _ = std::fs::remove_dir(&out_dir);

    // Report exactly the declared set, in declared order.
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in declared {
        match out.metrics.iter().position(|m| m.name == name) {
            Some(i) => metrics.push(out.metrics.swap_remove(i)),
            None if trace => metrics.push(Metric {
                name,
                value: 0.0,
                unit,
            }),
            None => out.problem(format!("metric {name} was not measured")),
        }
    }
    for m in &out.metrics {
        println!("(undeclared metric {} = {})", m.name, m.value);
    }
    out.metrics = metrics;

    for m in &out.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    println!(
        "checks: {} of {} operations failed",
        out.failed, out.attempted
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
