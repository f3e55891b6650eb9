//! Shared sweep for the perturbation (Figure 3) and cost (Figure 4)
//! studies: every application run uninstrumented, with the 10-way search,
//! and with sampling at four frequencies — always for the same number of
//! application references, as the paper holds application work constant.

use cachescope_core::{Experiment, SamplerConfig, TechniqueConfig};
use cachescope_sim::{Program, RunLimit, RunStats};
use cachescope_workloads::spec::{self, Scale};

use crate::run_parallel;

/// Sampling periods shown in Figures 3 and 4.
pub const SAMPLE_PERIODS: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// All instrumented runs of one application, plus its baseline.
pub struct AppOverheads {
    pub app: String,
    pub baseline: RunStats,
    /// `(label, stats)` per instrumented configuration, in display order:
    /// search first, then sampling by increasing period.
    pub runs: Vec<(String, RunStats)>,
}

impl AppOverheads {
    /// Figure 3's metric for run `i`: percent increase in total cache
    /// misses over the baseline.
    pub fn miss_increase_pct(&self, i: usize) -> f64 {
        let base = self.baseline.total_misses() as f64;
        (self.runs[i].1.total_misses() as f64 - base) / base * 100.0
    }

    /// Figure 4's metric for run `i`: percent slowdown in virtual cycles
    /// over the baseline.
    pub fn slowdown_pct(&self, i: usize) -> f64 {
        let base = self.baseline.cycles as f64;
        (self.runs[i].1.cycles as f64 - base) / base * 100.0
    }
}

/// Run the full sweep: 7 apps x (baseline + search + 4 sampling rates),
/// each for `app_cycles` of application work (instrumentation cost
/// excluded from the budget, so every run does identical app work).
pub fn sweep(app_cycles: u64) -> Vec<AppOverheads> {
    type Job = Box<dyn FnOnce() -> (String, String, RunStats) + Send>;
    let mut jobs: Vec<Job> = Vec::new();
    for w in spec::all(Scale::Paper) {
        let app = w.name().to_string();
        let configs: Vec<(String, TechniqueConfig)> =
            std::iter::once(("baseline".to_string(), TechniqueConfig::None))
                .chain(std::iter::once((
                    "search".to_string(),
                    TechniqueConfig::Search(cachescope_campaign::search_config_auto(&app)),
                )))
                .chain(SAMPLE_PERIODS.iter().map(|&p| {
                    (
                        format!("sample({p})"),
                        TechniqueConfig::Sampling(SamplerConfig::fixed(p)),
                    )
                }))
                .collect();
        for (label, tech) in configs {
            let w = w.clone();
            let app = app.clone();
            jobs.push(Box::new(move || {
                let stats = Experiment::new(w)
                    .technique(tech)
                    .limit(RunLimit::AppCycles(app_cycles))
                    .run()
                    .stats;
                (app, label, stats)
            }));
        }
    }
    let results = run_parallel(jobs);

    let mut out: Vec<AppOverheads> = Vec::new();
    for (app, label, stats) in results {
        if label == "baseline" {
            out.push(AppOverheads {
                app,
                baseline: stats,
                runs: Vec::new(),
            });
        } else {
            let entry = out
                .iter_mut()
                .find(|a| a.app == app)
                // check:allow(the job list always schedules the baseline first)
                .expect("baseline job precedes instrumented jobs");
            entry.runs.push((label, stats));
        }
    }
    out
}
