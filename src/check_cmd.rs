//! `cachescope check` — static verification of inputs and the repo.
//!
//! ```text
//! cachescope check [inputs] [options]
//!
//! inputs (repeatable; --all selects everything below):
//!   --trace FILE      verify a recorded trace (text or binary, by magic)
//!   --campaign FILE   verify a campaign spec (strict parse + expansion
//!                     + per-cell PMU legality)
//!   --workload NAME   verify a registry workload's event stream and
//!                     chunk encoding at test scale
//!   --timeline FILE   verify a phase-timeline JSONL (monotonic windows)
//!   --spans FILE      verify a span-event JSONL (balanced open/close,
//!                     non-negative durations)
//!   --wire FILE       verify a captured serve wire-stream dump
//!                     (framing, handshake version)
//!   --fuzz FILE       verify a fuzz artifact: a fuzz_verdict report or
//!                     a fuzz_golden reproducer (embedded scenarios get
//!                     the full lifecycle/chunk passes)
//!   --bounds NAME     run the static bounds oracle over a registry
//!                     workload: provable pathologies surface as
//!                     CS-A001..A003 warnings, a provably
//!                     unattributable stream as a CS-A005 error
//!   --self-lint       lint the repo's own sources (no-panic library
//!                     code, seed-only determinism)
//!   --all             every campaigns/*.json, every registry workload
//!                     (stream checks and static bounds), every
//!                     results/*.timeline.jsonl,
//!                     results/*.spans.jsonl and results/*.wire.bin,
//!                     every goldens/fuzz/*.json and any
//!                     results/fuzz_verdict.json, and the self-lint
//!
//! options:
//!   --root DIR        repo root for --all and --self-lint  [default .]
//!   --json            emit diagnostics as JSON lines (obs event objects)
//!   --deny-warnings   exit nonzero on warnings too
//!
//! exit status: 0 clean, 1 diagnostics found, 2 usage error.
//! ```

use std::path::{Path, PathBuf};

use cachescope::cli::value;
use cachescope::workloads::spec::Scale;
use cachescope_check::{selflint, CheckReport};

fn usage() -> ! {
    eprintln!(
        "usage: cachescope check [--all] [--trace FILE]... [--campaign FILE]...\n\
         \x20                       [--workload NAME]... [--timeline FILE]...\n\
         \x20                       [--spans FILE]... [--wire FILE]... [--fuzz FILE]...\n\
         \x20                       [--bounds NAME]... [--self-lint] [--root DIR]\n\
         \x20                       [--json] [--deny-warnings]"
    );
    std::process::exit(2);
}

pub fn run(args: &[String]) -> ! {
    let mut traces: Vec<String> = Vec::new();
    let mut campaigns: Vec<String> = Vec::new();
    let mut workloads: Vec<String> = Vec::new();
    let mut timelines: Vec<String> = Vec::new();
    let mut spans: Vec<String> = Vec::new();
    let mut wires: Vec<String> = Vec::new();
    let mut fuzzes: Vec<String> = Vec::new();
    let mut bounds: Vec<String> = Vec::new();
    let mut self_lint = false;
    let mut all = false;
    let mut json = false;
    let mut deny_warnings = false;
    let mut root = PathBuf::from(".");

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => traces.push(value(&mut it, "--trace")),
            "--campaign" => campaigns.push(value(&mut it, "--campaign")),
            "--workload" => workloads.push(value(&mut it, "--workload")),
            "--timeline" => timelines.push(value(&mut it, "--timeline")),
            "--spans" => spans.push(value(&mut it, "--spans")),
            "--wire" => wires.push(value(&mut it, "--wire")),
            "--fuzz" => fuzzes.push(value(&mut it, "--fuzz")),
            "--bounds" => bounds.push(value(&mut it, "--bounds")),
            "--self-lint" => self_lint = true,
            "--all" => all = true,
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--root" => root = PathBuf::from(value(&mut it, "--root")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
    }

    if all {
        self_lint = true;
        for name in cachescope::campaign::registry::SPEC95 {
            workloads.push(name.to_string());
            bounds.push(name.to_string());
        }
        for name in cachescope::campaign::registry::SPEC2000 {
            workloads.push(name.to_string());
            bounds.push(name.to_string());
        }
        let dir = root.join("campaigns");
        let mut found = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&dir) {
            for entry in rd.filter_map(|e| e.ok()) {
                let path = entry.path();
                if path.extension().is_some_and(|x| x == "json") {
                    found.push(path.display().to_string());
                }
            }
        }
        found.sort();
        if found.is_empty() {
            eprintln!("check: no campaign specs under {}", dir.display());
        }
        campaigns.extend(found);
        // Committed profile artifacts: results/*.timeline.jsonl,
        // results/*.spans.jsonl and results/*.wire.bin (absent until a
        // profile run or a wire capture saved some).
        let results = root.join("results");
        let mut found_t = Vec::new();
        let mut found_s = Vec::new();
        let mut found_w = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&results) {
            for entry in rd.filter_map(|e| e.ok()) {
                let path = entry.path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.ends_with(".timeline.jsonl") {
                    found_t.push(path.display().to_string());
                } else if name.ends_with(".spans.jsonl") {
                    found_s.push(path.display().to_string());
                } else if name.ends_with(".wire.bin") {
                    found_w.push(path.display().to_string());
                }
            }
        }
        found_t.sort();
        found_s.sort();
        found_w.sort();
        timelines.extend(found_t);
        spans.extend(found_s);
        wires.extend(found_w);
        // Committed fuzz artifacts: golden reproducers plus the latest
        // verdict report, when one has been saved.
        let mut found_f = Vec::new();
        if let Ok(rd) = std::fs::read_dir(root.join("goldens/fuzz")) {
            for entry in rd.filter_map(|e| e.ok()) {
                let path = entry.path();
                if path.extension().is_some_and(|x| x == "json") {
                    found_f.push(path.display().to_string());
                }
            }
        }
        found_f.sort();
        let verdict = results.join("fuzz_verdict.json");
        if verdict.is_file() {
            found_f.push(verdict.display().to_string());
        }
        fuzzes.extend(found_f);
    }

    if traces.is_empty()
        && campaigns.is_empty()
        && workloads.is_empty()
        && timelines.is_empty()
        && spans.is_empty()
        && wires.is_empty()
        && fuzzes.is_empty()
        && bounds.is_empty()
        && !self_lint
    {
        eprintln!("check: nothing to check (pass inputs or --all)");
        usage();
    }

    let mut report = CheckReport::default();
    for path in &traces {
        report.absorb(cachescope_check::trace::check_trace_path(Path::new(path)));
    }
    for path in &campaigns {
        report.absorb(cachescope_check::campaign::check_campaign_path(Path::new(
            path,
        )));
    }
    for name in &workloads {
        report.absorb(cachescope_check::workload::check_workload(
            name,
            Scale::Test,
        ));
    }
    for path in &timelines {
        report.absorb(cachescope_check::profile::check_timeline_path(Path::new(
            path,
        )));
    }
    for path in &spans {
        report.absorb(cachescope_check::profile::check_spans_path(Path::new(path)));
    }
    for path in &wires {
        report.absorb(cachescope_check::wire::check_wire_path(Path::new(path)));
    }
    for path in &fuzzes {
        report.absorb(cachescope_check::fuzz::check_fuzz_file(path));
    }
    for name in &bounds {
        // A bounded prefix: spec workload streams are infinite, and the
        // provable pathologies stabilize well within it.
        let limit = cachescope::analyze::AnalysisLimit::Accesses(500_000);
        let source = format!("workload:{name}");
        match cachescope_check::bounds::bounds_for_workload(name, Scale::Test, limit) {
            Ok(b) => {
                let mut diags = cachescope_check::bounds::pathology_diagnostics(&b, &source);
                diags.extend(cachescope_check::bounds::unattributable(&b, &source));
                report.absorb(diags);
            }
            Err(e) => report.absorb(vec![cachescope_check::Diagnostic::error(
                "CS-S006", source, e,
            )]),
        }
    }
    if self_lint {
        report.absorb(selflint::lint_repo(&root));
    }

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    std::process::exit(if report.has_failures(deny_warnings) {
        1
    } else {
        0
    });
}
