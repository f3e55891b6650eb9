//! `fuzz-cold`: the fuzz differential sweep, cold.
//!
//! One job is the fuzz differential sweep of a fixed block of 16 generated
//! scenarios × 4 techniques × 5 fault levels, run cold: every sweep gets
//! a fresh, empty result-cache directory, so every cell simulates. The
//! block is fixed (seeds 0..16, the shape of the `fuzz_study` block), so
//! the seed does not change this workload: the cost of a 16-scenario
//! block varies threefold from one block to the next (measured over eight
//! blocks), so a seeded block would measure the block rather than the
//! program.
//!
//! The block runs as four `run_differential` sweeps of four scenarios
//! each, in turn, and the job time is the sum of the four sweeps' median
//! scaled times: four times the samples of whole-block sweeps in the same
//! run, which the run-to-run spread needed. Each sweep has one worker,
//! because with two on a 2-core host a neighbour taking either core
//! stalls the sweep in a way the single-threaded reference kernel
//! ([`Scaled`]) does not track.
//!
//! A sweep writes a cache file and a manifest checkpoint per cell. Left
//! alone, that writeback, the journal and the discards of deleted caches
//! pile up over a run and slow later sweeps, by an amount that differs
//! from run to run: on a 2-core VM with an ext4 root mounted `discard`,
//! the spread of ten runs' median block times was 14–26% without the
//! flush below and 4–7% with it. So after each sweep, outside its timing,
//! its cache is deleted and the file system is flushed (`syncfs`): every
//! sweep starts from the same clean state and pays for its own writes.
//!
//! Every sweep must report zero static-bound violations and zero cache
//! hits, and render the same verdict as the first sweep of its part of
//! the block. The traced run also times the block's stages on their own
//! and a warm rerun of every sweep against the cache it filled.
//!
//! The campaign engine writes its manifests under the working directory,
//! so the sweeps run with the working directory set to this process's
//! scratch directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cachescope_fuzzgen::{
    run_differential, scenario_bounds, technique_config, DifferentialConfig, DifferentialReport,
    Verdict,
};
use cachescope_obs::Obs;
use cachescope_workloads::fuzz::{FuzzWorkload, Scenario};

use crate::ladder::{self, Case, Tech};
use crate::spans::Shared;
use crate::stats::{median, report_job_ms, Scaled};
use crate::{Outcome, RunArgs};

/// Scenarios per block.
const SCENARIOS: u64 = 16;
/// Sweeps the block is run as.
const PARTS: u64 = 4;
/// Access budget of every scenario and cell.
const BUDGET_REFS: u64 = 20_000;
/// Campaign workers.
const JOBS: usize = 1;
/// Set-up repetitions; the median is reported.
const SETUPS: usize = 3;

/// The sweep over `seeds` scenarios from `seed_base`.
fn config(cache_dir: PathBuf, seed_base: u64, seeds: u64) -> DifferentialConfig {
    DifferentialConfig {
        seed_base,
        seeds,
        budget_refs: BUDGET_REFS,
        jobs: Some(JOBS),
        cache_dir: Some(cache_dir),
    }
}

fn verdict(cfg: &DifferentialConfig, report: &DifferentialReport) -> String {
    Verdict::new(cfg, report, &[]).to_json(&[]).render()
}

/// Generate and pre-validate every scenario of the block (the stages a
/// sweep runs before its cells). Returns the scenarios.
fn prepare(cfg: &DifferentialConfig, rec: &Shared, out: &mut Outcome) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for seed in cfg.seed_range() {
        rec.borrow_mut().begin("fuzzgen.generate");
        let scenario = Scenario::generate(seed, cfg.budget_refs);
        rec.borrow_mut().end();
        rec.borrow_mut().begin("check.prevalidate");
        let diags = cachescope_check::fuzz::check_scenario_default(&scenario, &scenario.name);
        rec.borrow_mut().end();
        let clean = !diags
            .iter()
            .any(|d| d.severity == cachescope_check::Severity::Error);
        if !clean {
            out.problem(format!("scenario {} fails pre-validation", scenario.name));
        }
        scenarios.push(scenario);
    }
    scenarios
}

/// One sweep, recorded as a `span` span. Returns its rendered verdict and
/// report, or counts a failed operation.
fn sweep(
    cfg: &DifferentialConfig,
    rec: &Shared,
    out: &mut Outcome,
    span: &'static str,
) -> Option<(String, DifferentialReport)> {
    let mut obs = Obs::disabled();
    rec.borrow_mut().begin(span);
    let result = run_differential(cfg, &mut obs);
    rec.borrow_mut().end();
    match result {
        Ok(report) => Some((verdict(cfg, &report), report)),
        Err(e) => {
            out.check(false, || format!("sweep failed: {e}"));
            None
        }
    }
}

extern "C" {
    fn syncfs(fd: i32) -> i32;
}

/// Flush the file system holding `dir`: its dirty pages and its journal.
fn sync_fs(dir: &Path) {
    use std::os::fd::AsRawFd;
    if let Ok(d) = std::fs::File::open(dir) {
        // SAFETY: `d` is an open descriptor for the duration of the call.
        unsafe { syncfs(d.as_raw_fd()) };
    }
}

/// Run `f` with the working directory set to `dir`, then restore it.
fn in_dir<T>(dir: &Path, f: impl FnOnce() -> T) -> T {
    let back = std::env::current_dir().ok();
    let moved = std::env::set_current_dir(dir).is_ok();
    let result = f();
    if let (true, Some(back)) = (moved, back) {
        let _ = std::env::set_current_dir(back);
    }
    result
}

pub fn run(args: &RunArgs, rec: &Shared) -> Outcome {
    let work = std::fs::canonicalize(&args.work).unwrap_or_else(|_| args.work.clone());
    in_dir(&work, || run_in(args, &work, rec))
}

fn run_in(args: &RunArgs, work: &Path, rec: &Shared) -> Outcome {
    let mut out = Outcome::default();
    let fresh = |k: usize| {
        let dir = work.join(format!("fuzz-cache-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    // Set-up: generate and pre-validate the scenario block.
    let mut setups = Scaled::default();
    let mut scenarios = Vec::new();
    for _ in 0..SETUPS {
        scenarios = setups.time(|| prepare(&config(fresh(0), 0, SCENARIOS), rec, &mut out));
    }

    let start = Instant::now();
    let budget = if args.trace {
        args.budget() / 2
    } else {
        args.budget()
    };
    let per_part = SCENARIOS / PARTS;
    // First verdict, findings and the sweeps' indices in `jobs`, per part.
    let mut first: Vec<Option<String>> = vec![None; PARTS as usize];
    let mut part_findings = vec![0u64; PARTS as usize];
    let mut part_sweeps: Vec<Vec<usize>> = vec![Vec::new(); PARTS as usize];
    let mut jobs = Scaled::default();
    let mut cells = 0u64;
    let mut violations = 0u64;
    let mut cold_hits = 0u64;
    let mut warm_ms_per_cell = Vec::new();
    let mut k = 0;
    'rounds: while k == 0 || start.elapsed() < budget {
        for part in 0..PARTS as usize {
            k += 1;
            let cfg = config(fresh(k), part as u64 * per_part, per_part);
            let cold = jobs.time(|| sweep(&cfg, rec, &mut out, "fuzz.cold_sweep"));
            let Some((v, report)) = cold else {
                break 'rounds;
            };
            part_sweeps[part].push(jobs.len() - 1);
            cells += report.cells as u64;
            part_findings[part] = report.findings.len() as u64;
            violations += report.bounds_violations.len() as u64;
            cold_hits += report.cache_hits as u64;
            let same = first[part].get_or_insert_with(|| v.clone()) == &v;
            let clean = report.bounds_violations.is_empty() && report.cache_hits == 0;
            out.check(same && clean, || {
                format!(
                    "sweep {k}: verdict same as first: {same}, bounds violations: {}, cold cache hits: {}",
                    report.bounds_violations.len(),
                    report.cache_hits
                )
            });
            if args.trace {
                // The warm rerun against the cache the cold sweep filled.
                let t0 = Instant::now();
                if let Some((wv, warm)) = sweep(&cfg, rec, &mut out, "fuzz.warm_sweep") {
                    let wsecs = t0.elapsed().as_secs_f64();
                    let all_hits = warm.cache_hits == warm.cells;
                    out.check(all_hits && wv == v, || {
                        format!(
                            "warm rerun {k}: {}/{} cache hits, verdict same: {}",
                            warm.cache_hits,
                            warm.cells,
                            wv == v
                        )
                    });
                    warm_ms_per_cell.push(wsecs * 1e3 / warm.cells.max(1) as f64);
                }
            }
            if let Some(dir) = &cfg.cache_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            sync_fs(work);
        }
    }
    let sweeps = jobs.len();
    let findings: u64 = part_findings.iter().sum();
    println!(
        "sweeps: {sweeps}  cells: {cells}  findings per block: {findings}  \
         bounds violations: {violations}  cold cache hits: {cold_hits}"
    );
    // A block's time: the sum over its parts of the part's median sweep.
    let block_ms = |samples: &[f64]| -> f64 {
        part_sweeps
            .iter()
            .map(|idx| median(&idx.iter().map(|&i| samples[i]).collect::<Vec<_>>()))
            .sum()
    };
    let cells_per_block = (cells as f64 * PARTS as f64 / sweeps.max(1) as f64).max(1.0);

    if !args.trace {
        let block = block_ms(&jobs.scaled_samples());
        report_job_ms(
            &mut out,
            jobs.raw_ms(),
            block,
            cells_per_block * BUDGET_REFS as f64,
            &setups,
        );
        return out;
    }

    // Stage times of the block, and the static bounds its sweeps check.
    rec.borrow_mut().begin("analyze.bounds");
    let t0 = Instant::now();
    for s in &scenarios {
        if let Err(e) = scenario_bounds(s) {
            out.problem(format!("static bounds for {}: {e}", s.name));
        }
    }
    let bounds_ms = t0.elapsed().as_secs_f64() * 1e3;
    rec.borrow_mut().end();
    let r = rec.borrow();
    let per_setup = |name: &str| r.total_ns(name) as f64 / 1e6 / SETUPS as f64;
    let generate_ms = per_setup("fuzzgen.generate");
    let prevalidate_ms = per_setup("check.prevalidate");
    drop(r);
    let sweep_ms = block_ms(jobs.raw_ms());
    let cell_ms = (sweep_ms - generate_ms - prevalidate_ms - bounds_ms) / cells_per_block;

    out.metric("fuzzgen.generate_ms", generate_ms, "ms");
    out.metric("check.prevalidate_ms", prevalidate_ms, "ms");
    out.metric("analyze.bounds_ms", bounds_ms, "ms");
    out.metric("campaign.cell_ms", cell_ms, "ms");
    out.metric("campaign.warm_ms_per_cell", median(&warm_ms_per_cell), "ms");
    out.metric("campaign.cold_cache_hits", cold_hits as f64, "count");
    out.metric("fuzzgen.findings", findings as f64, "count");
    out.metric("fuzzgen.bounds_violations", violations as f64, "count");

    // The simulation layers, on the first scenarios under the plain sampler.
    let tech = match technique_config("sample", BUDGET_REFS) {
        Some(cachescope_core::TechniqueConfig::Sampling(c)) => Tech::Sampler(c),
        _ => Tech::None,
    };
    let cases: Vec<Case> = scenarios
        .into_iter()
        .take(4)
        .filter(|s| FuzzWorkload::new(s.clone()).is_ok())
        .map(|s| Case {
            make: Box::new(move || Box::new(FuzzWorkload::new(s.clone()).expect("checked above"))),
            tech: tech.clone(),
            accesses: BUDGET_REFS,
        })
        .collect();
    let remaining = args.budget().saturating_sub(start.elapsed());
    let (counts, _) = ladder::run(&cases, remaining.max(Duration::from_secs(1)), rec, &mut out);
    counts.report(&mut out);
    out
}
