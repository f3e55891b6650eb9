//! `cachescope fuzz` — the adversarial fuzzing / differential
//! verification flywheel.
//!
//! ```text
//! cachescope fuzz [--smoke] [--seeds N] [--seed-base S] [--budget-refs M]
//!                 [--minimize] [--json FILE] [--golden-dir DIR]
//!                 [--cache-dir DIR] [--jobs N] [--metrics]
//! ```
//!
//! Generates `N` seeded scenarios, proves each clean under the static
//! checkers, sweeps every scenario through the technique × fault matrix
//! as one cached campaign, cross-checks every cell's ground truth
//! against the static miss-bound oracle (a `CS-A004` violation is an
//! engine bug and fails the run), replays the committed golden
//! reproducers, and renders a `fuzz_verdict` JSON. With `--minimize`,
//! every *new* silent inversion is delta-debugged down and committed to
//! the golden directory so the next run knows it; bounds-violating
//! scenarios are delta-debugged too, but their reproducers land under
//! `results/` — they witness engine bugs, not technique regressions, so
//! they must never join the replayed golden set.
//!
//! Exit codes: `0` clean, `1` new silent inversions, bounds violations
//! or golden replay failures, `2` usage errors.

use cachescope::cli::{parse_num, value};
use cachescope::fuzzgen::{
    golden, minimize, minimize_violation, run_differential, DifferentialConfig, Golden, Property,
    Provenance, Verdict,
};
use cachescope::obs::Obs;
use cachescope::workloads::fuzz::Scenario;

const DEFAULT_GOLDEN_DIR: &str = "goldens/fuzz";

fn usage() -> ! {
    eprintln!(
        "usage: cachescope fuzz [options]\n\
         \x20 --smoke             the CI seed block (seeds 0..8, 20k refs)\n\
         \x20 --seeds N           scenarios to generate          [default 8]\n\
         \x20 --seed-base S       first generator seed           [default 0]\n\
         \x20 --budget-refs M     access budget per scenario     [default 20000]\n\
         \x20 --minimize          delta-debug new silent inversions and\n\
         \x20                     commit golden reproducers\n\
         \x20 --json FILE         write the fuzz_verdict JSON\n\
         \x20 --golden-dir DIR    golden reproducers     [default goldens/fuzz]\n\
         \x20 --cache-dir DIR     campaign result cache override\n\
         \x20 --jobs N            campaign worker cap\n\
         \x20 --metrics           print the run's metrics registry"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

pub fn run(args: &[String]) -> ! {
    let mut cfg = DifferentialConfig::smoke();
    let mut do_minimize = false;
    let mut json_out: Option<String> = None;
    let mut golden_dir = DEFAULT_GOLDEN_DIR.to_string();
    let mut show_metrics = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => cfg = DifferentialConfig::smoke(),
            "--seeds" => cfg.seeds = parse_num(&value(&mut it, "--seeds"), "seed count"),
            "--seed-base" => cfg.seed_base = parse_num(&value(&mut it, "--seed-base"), "seed base"),
            "--budget-refs" => {
                cfg.budget_refs = parse_num(&value(&mut it, "--budget-refs"), "ref budget")
            }
            "--minimize" => do_minimize = true,
            "--json" => json_out = Some(value(&mut it, "--json")),
            "--golden-dir" => golden_dir = value(&mut it, "--golden-dir"),
            "--cache-dir" => cfg.cache_dir = Some(value(&mut it, "--cache-dir").into()),
            "--jobs" => cfg.jobs = Some(parse_num(&value(&mut it, "--jobs"), "jobs")),
            "--metrics" => show_metrics = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
    }

    let golden_dir = std::path::PathBuf::from(golden_dir);
    let mut goldens = golden::load_dir(&golden_dir).unwrap_or_else(|e| fail(&e));

    let mut obs = Obs::new();
    println!(
        "fuzz: sweeping seeds {}..{} at {} refs ({} goldens on file)",
        cfg.seed_base,
        cfg.seed_base + cfg.seeds,
        cfg.budget_refs,
        goldens.len()
    );
    let report = run_differential(&cfg, &mut obs).unwrap_or_else(|e| fail(&e));
    println!(
        "fuzz: {} scenarios x {} cells, {} cache hits; {} finding(s), {} silent",
        report.scenarios,
        report.cells / report.scenarios.max(1) as usize,
        report.cache_hits,
        report.findings.len(),
        report.silent_findings().count()
    );
    for v in &report.bounds_violations {
        println!(
            "fuzz: BOUNDS VIOLATION (CS-A004) {} under {}@{}: {}",
            v.scenario, v.technique, v.level, v.message
        );
    }

    if do_minimize {
        let new: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.silent && !goldens.iter().any(|g| g.matches_finding(f)))
            .cloned()
            .collect();
        for f in &new {
            println!(
                "fuzz: minimizing {} under {}@{} ...",
                f.scenario, f.technique, f.level
            );
            let prop = Property::named(&f.technique, &f.level).unwrap_or_else(|e| fail(&e));
            let scenario = Scenario::generate(f.seed, f.budget_refs);
            let outcome = minimize(&scenario, &prop, &mut obs).unwrap_or_else(|e| fail(&e));
            let name = format!("min-{}-{}-s{}", f.technique, f.level, f.seed);
            let g = Golden::from_minimized(
                &name,
                &prop,
                &outcome,
                Some(Provenance {
                    seed: f.seed,
                    budget_refs: f.budget_refs,
                }),
            );
            let path = g.save(&golden_dir).unwrap_or_else(|e| fail(&e));
            println!(
                "fuzz: {} steps -> {} refs, committed {}",
                outcome.steps,
                outcome.scenario.budget_refs,
                path.display()
            );
            goldens.push(g);
        }

        // Bounds violations witness engine bugs, not technique
        // regressions: shrink each one for the bug report, but write
        // the reproducer under results/ — a scenario file in the golden
        // directory would join the replayed CI set, and there is no
        // verdict to replay for a broken engine.
        let mut seen = std::collections::HashSet::new();
        for v in &report.bounds_violations {
            if !seen.insert((v.scenario.clone(), v.technique.clone(), v.level.clone())) {
                continue;
            }
            println!(
                "fuzz: minimizing bounds violation {} under {}@{} ...",
                v.scenario, v.technique, v.level
            );
            let prop = Property::named(&v.technique, &v.level).unwrap_or_else(|e| fail(&e));
            let scenario = Scenario::generate(v.seed, v.budget_refs);
            let (min, steps) =
                minimize_violation(&scenario, &prop, &mut obs).unwrap_or_else(|e| fail(&e));
            std::fs::create_dir_all("results").unwrap_or_else(|e| fail(&e.to_string()));
            let path = format!(
                "results/bounds-violation-{}-{}-s{}.json",
                v.technique, v.level, v.seed
            );
            let mut text = min.to_json().render();
            text.push('\n');
            std::fs::write(&path, text).unwrap_or_else(|e| fail(&e.to_string()));
            println!(
                "fuzz: {} steps -> {} refs, reproducer written to {}",
                steps, min.budget_refs, path
            );
        }
    }

    let mut replayed = Vec::new();
    for g in &goldens {
        let pass = g.replay().unwrap_or_else(|e| fail(&e));
        println!(
            "fuzz: golden {} ({}@{}): {}",
            g.name,
            g.technique,
            g.level,
            if pass {
                "reproduced"
            } else {
                "FAILED to reproduce"
            }
        );
        replayed.push((g.clone(), pass));
    }

    let verdict = Verdict::new(&cfg, &report, &replayed);
    let new_silent = verdict.new_silent(&goldens).len();
    let golden_failures = verdict.golden_failures();
    for f in verdict.new_silent(&goldens) {
        println!(
            "fuzz: NEW silent inversion: {} {}@{} ({} inversions vs {} fault-free, 0 degraded)",
            f.scenario, f.technique, f.level, f.inversions, f.baseline_inversions
        );
    }

    if let Some(path) = &json_out {
        let mut text = verdict.to_json(&goldens).render();
        text.push('\n');
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("(verdict written to {path})");
    }

    if show_metrics {
        println!("metrics:");
        print!("{}", obs.metrics);
    }

    let bounds_violations = verdict.bounds_violations.len();
    if new_silent > 0 || golden_failures > 0 || bounds_violations > 0 {
        println!(
            "fuzz: FAIL ({new_silent} new silent inversion(s), \
             {golden_failures} golden replay failure(s), \
             {bounds_violations} static-bounds violation(s))"
        );
        std::process::exit(1);
    }
    println!(
        "fuzz: clean (no unflagged top-3 inversions beyond committed goldens, \
         all ground truth within static bounds)"
    );
    std::process::exit(0);
}
