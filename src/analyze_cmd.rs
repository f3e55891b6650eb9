//! `cachescope analyze` — the static attribution oracle as a CLI.
//!
//! ```text
//! cachescope analyze <app>... | --all [options]
//!
//! Computes provable per-object miss bounds for registry workloads by
//! abstract interpretation — no simulation runs. Spec workload streams
//! are infinite, so analysis always carries a run limit, exactly like a
//! real run.
//!
//! options:
//!   --refs N        analyze an exact N-access prefix    [default 2000000]
//!                   (the bounds-exact regime: RunLimit::AppAccesses)
//!   --misses N      analyze under an app-miss budget (the regime of
//!                   `cachescope <app> --misses N`); min bounds widen
//!   --paper-scale   paper-scale phase durations
//!   --l1 KiB        model an L1 filter in front of the monitored cache
//!   --json FILE     append one bounds-report JSON object per app (JSONL)
//!   --json-dir DIR  write DIR/<app>.bounds.json per app
//!
//! exit status: 0 analyzed, 1 unknown workload or write failure, 2 usage.
//! ```

use cachescope::analyze::{AnalysisLimit, AnalyzeConfig};
use cachescope::campaign::registry;
use cachescope::cli::{parse_num, value};
use cachescope::workloads::spec::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: cachescope analyze <app>... | --all\n\
         \x20 [--refs N | --misses N] [--paper-scale] [--l1 KiB]\n\
         \x20 [--json FILE] [--json-dir DIR]\n\
         apps: tomcatv swim su2cor mgrid applu compress ijpeg mcf art equake\n\
         \x20     fuzz:<seed>:<budget>"
    );
    std::process::exit(2);
}

pub fn run(args: &[String]) -> ! {
    let mut apps: Vec<String> = Vec::new();
    let mut all = false;
    let mut refs: Option<u64> = None;
    let mut misses: Option<u64> = None;
    let mut scale = Scale::Test;
    let mut l1_kib: Option<u64> = None;
    let mut json_out: Option<String> = None;
    let mut json_dir: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--refs" => refs = Some(parse_num(&value(&mut it, "--refs"), "access count")),
            "--misses" => misses = Some(parse_num(&value(&mut it, "--misses"), "miss count")),
            "--paper-scale" => scale = Scale::Paper,
            "--l1" => l1_kib = Some(parse_num(&value(&mut it, "--l1"), "L1 size (KiB)")),
            "--json" => json_out = Some(value(&mut it, "--json")),
            "--json-dir" => json_dir = Some(value(&mut it, "--json-dir")),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option: {other}");
                usage();
            }
            app => apps.push(app.to_string()),
        }
    }

    if all {
        for name in registry::SPEC95.iter().chain(registry::SPEC2000.iter()) {
            apps.push(name.to_string());
        }
    }
    if apps.is_empty() {
        eprintln!("analyze: nothing to analyze (pass apps or --all)");
        usage();
    }
    let limit = match (refs, misses) {
        (Some(_), Some(_)) => {
            eprintln!("--refs and --misses are mutually exclusive");
            usage();
        }
        (Some(n), None) => AnalysisLimit::Accesses(n),
        (None, Some(n)) => AnalysisLimit::Misses(n),
        (None, None) => AnalysisLimit::Accesses(2_000_000),
    };

    let mut jsonl = String::new();
    for app in &apps {
        let mut program = registry::instantiate(app, scale).unwrap_or_else(|e| {
            eprintln!("analyze: {e}");
            std::process::exit(1);
        });
        let cfg = AnalyzeConfig {
            l1: l1_kib.is_some(),
            limit,
            ..AnalyzeConfig::default()
        };
        let bounds = cachescope::analyze::analyze_program(&mut *program, &cfg);
        print!("{}", bounds.render_human());
        let mut line = bounds.to_json().render();
        line.push('\n');
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{app}.bounds.json");
            std::fs::write(&path, &line).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("(bounds written to {path})");
        }
        jsonl.push_str(&line);
    }
    if let Some(path) = &json_out {
        std::fs::write(path, &jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("(bounds written to {path}: {} report(s))", apps.len());
    }
    std::process::exit(0);
}
