//! `live-attrib`: the paper's use case, run live.
//!
//! One job is mcf (`Scale::Test`) under the miss sampler (an overflow
//! interrupt every 2,000 misses), then applu under the 10-way n-way
//! search, both with ground-truth attribution on and a fixed count of
//! application accesses. The analogue programs are fixed stand-ins for
//! SPEC inputs and take no seed, so the seed does not change this
//! workload.

use std::time::Instant;

use cachescope_campaign::fnv1a64;
use cachescope_core::{SamplerConfig, SearchConfig};
use cachescope_workloads::spec::{self, Scale};
use cachescope_workloads::spec2000;

use crate::ladder::{self, fingerprint, Case, Counts, Tech};
use crate::spans::Shared;
use crate::stats::{report_jobs, Scaled};
use crate::{Outcome, RunArgs};

/// Application accesses per program per job.
const ACCESSES: u64 = 250_000;

/// Search measurement interval, in virtual cycles: short enough that a
/// job runs many search iterations.
const SEARCH_INTERVAL: u64 = 500000;

/// Set-up repetitions; the median is reported.
const SETUPS: usize = 5;

pub fn cases() -> Vec<Case> {
    vec![
        Case {
            make: Box::new(|| Box::new(spec2000::mcf::mcf(Scale::Test))),
            tech: Tech::Sampler(SamplerConfig::fixed(2_000)),
            accesses: ACCESSES,
        },
        Case {
            make: Box::new(|| Box::new(spec::applu(Scale::Test))),
            tech: Tech::Search(SearchConfig {
                interval: SEARCH_INTERVAL,
                ..SearchConfig::default()
            }),
            accesses: ACCESSES,
        },
    ]
}

pub fn run(args: &RunArgs, rec: &Shared) -> Outcome {
    let mut out = Outcome::default();
    let cases = cases();

    // Set-up: build both programs and run one job, from cold.
    let mut setups = Scaled::default();
    let mut reference: Option<Vec<String>> = None;
    for _ in 0..SETUPS {
        let fps: Vec<String> =
            setups.time(|| cases.iter().map(|c| fingerprint(&c.run_plain())).collect());
        reference.get_or_insert(fps);
    }
    let reference = reference.unwrap_or_default();
    println!(
        "results digest: {:016x}",
        fnv1a64(reference.join("\n").as_bytes())
    );

    if args.trace {
        let (counts, fps) = ladder::run(&cases, args.budget(), rec, &mut out);
        out.check(fps == reference, || {
            "traced ladder results differ from the set-up run".into()
        });
        counts.report(&mut out);
        return out;
    }

    let start = Instant::now();
    let mut jobs = Scaled::default();
    let mut refs = 0u64;
    let mut counts = Counts::default();
    while jobs.len() < 20 || start.elapsed() < args.budget() {
        let reports: Vec<_> = jobs.time(|| cases.iter().map(Case::run_plain).collect());
        let fps: Vec<String> = reports.iter().map(fingerprint).collect();
        let n = jobs.len();
        out.check(fps == reference, || {
            format!("job {n}: simulated results differ from the set-up run")
        });
        refs += reports.iter().map(|r| r.stats.app.accesses).sum::<u64>();
        if counts.app_refs == 0 {
            for (r, c) in reports.iter().zip(&cases) {
                counts.add(r, &c.tech);
            }
        }
    }
    println!(
        "sim_overhead_pct: {:.4}  attr_err_pp: {:.4}",
        counts.sim_overhead_pct(),
        counts.attr_err_pp
    );
    report_jobs(&mut out, &jobs, refs as f64 / jobs.len() as f64, &setups);
    out
}
