//! Evaluation harness: shared reference data and helpers for the binaries
//! that regenerate each table and figure of the paper.
//!
//! One binary per experiment (see DESIGN.md's experiment index):
//!
//! | binary           | reproduces |
//! |------------------|-----------|
//! | `table1`         | Table 1 — actual vs sampling vs 10-way search |
//! | `table2`         | Table 2 — 2-way vs 10-way search |
//! | `fig3`           | Figure 3 — % increase in misses from instrumentation |
//! | `fig4`           | Figure 4 — % slowdown from instrumentation |
//! | `fig5`           | Figure 5 — applu per-array misses over time |
//! | `prime_sampling` | Section 3.1 — resonant vs prime sampling periods |
//! | `fig2_ablation`  | Figure 2 — greedy search vs priority-queue search |
//!
//! Run with `cargo run --release -p cachescope-bench --bin <name>`.

pub mod overhead;
pub mod paper;
pub mod results_json;

/// The worker cap for this invocation: an explicit `--jobs N` (or
/// `--jobs=N`) argument wins, then the `CACHESCOPE_JOBS` environment
/// variable, then available parallelism — uniform across every bench
/// binary and the campaign engine.
pub fn worker_cap_from_args() -> usize {
    cachescope_campaign::worker_cap(cachescope_campaign::parse_jobs_flag(std::env::args()))
}

/// Run `jobs` on the campaign engine's bounded work-stealing pool
/// (capped by [`worker_cap_from_args`]) and return results in submission
/// order. Each job runs under `catch_unwind`, so one panicking job never
/// aborts the others mid-flight: every remaining job still completes,
/// and only then does this panic — naming each failing job's index and
/// message instead of poisoning the sweep with an opaque unwind.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let results = cachescope_campaign::run_isolated(jobs, worker_cap_from_args());
    let failures: Vec<String> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|e| format!("job {i}: {e}")))
        .collect();
    if !failures.is_empty() {
        // check:allow(the bench harness aborts loudly on worker panics)
        panic!(
            "{} of {} parallel jobs panicked ({})",
            failures.len(),
            results.len(),
            failures.join("; ")
        );
    }
    results.into_iter().filter_map(|r| r.ok()).collect()
}

/// Format `v` as the paper prints percentages (one decimal).
pub fn pct(v: f64) -> String {
    format!("{v:.1}")
}

/// Format an optional rank.
pub fn rank(r: Option<usize>) -> String {
    r.map_or_else(|| "-".into(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_parallel(jobs);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "job 3: boom from job 3")]
    fn run_parallel_names_the_failing_job() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("boom from job {i}");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        run_parallel(jobs);
    }
}
