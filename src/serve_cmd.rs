//! `cachescope serve` / `cachescope submit` — the daemon and its client.
//!
//! ```text
//! cachescope serve [--unix PATH] [--tcp ADDR] [--max-sessions N]
//!                  [--byte-budget BYTES] [--jobs N] [--cache-dir DIR]
//!                  [--events-out FILE] [--drain-timeout SECS]
//!                  [--analyze-reject]
//!
//!   Runs the streaming attribution daemon until SIGTERM/SIGINT, then
//!   drains: in-flight sessions finish (up to --drain-timeout), new
//!   ones are refused. At least one of --unix / --tcp is required.
//!   With --analyze-reject, a provably unattributable stream (every
//!   access outside every declared object, CS-A005) is refused at
//!   ingest instead of simulated into an empty report.
//!
//! cachescope submit (--unix PATH | --tcp ADDR) --trace FILE
//!                   [--technique T] [--misses N] [--counters K]
//!                   [--interval C] [--chunk BYTES] [--json FILE]
//!                   [--retries N] [--retry-backoff-ms MS]
//! cachescope submit (--unix PATH | --tcp ADDR) --status
//!
//!   Streams a recorded binary trace to a running daemon and prints the
//!   report (or writes it with --json, byte-identical to the batch
//!   pipeline's --json output). --status prints the daemon's status
//!   snapshot instead. Typed retryable refusals (`busy`, `draining`)
//!   are retried up to --retries times on a deterministic bounded
//!   exponential backoff (--retry-backoff-ms doubled per attempt, no
//!   jitter); non-retryable refusals fail immediately.
//!
//! exit status: 0 report served / status ok, 1 session rejected,
//!              2 usage error, 3 transport failure.
//! ```

use std::path::PathBuf;
use std::time::Duration;

use cachescope::cli::{parse_num, value};
use cachescope::serve::{
    query_status, submit_bytes_with_retry, Addr, Daemon, RetryPolicy, ServeConfig, SessionConfig,
    SubmitOutcome,
};

fn serve_usage() -> ! {
    eprintln!(
        "usage: cachescope serve [--unix PATH] [--tcp ADDR] [--max-sessions N]\n\
         \x20                       [--byte-budget BYTES] [--jobs N] [--cache-dir DIR]\n\
         \x20                       [--events-out FILE] [--drain-timeout SECS]\n\
         \x20                       [--analyze-reject]\n\
         (at least one of --unix / --tcp)"
    );
    std::process::exit(2);
}

fn submit_usage() -> ! {
    eprintln!(
        "usage: cachescope submit (--unix PATH | --tcp ADDR) --trace FILE\n\
         \x20                        [--technique T] [--misses N] [--counters K]\n\
         \x20                        [--interval C] [--chunk BYTES] [--json FILE]\n\
         \x20                        [--retries N] [--retry-backoff-ms MS]\n\
         or:    cachescope submit (--unix PATH | --tcp ADDR) --status"
    );
    std::process::exit(2);
}

/// `cachescope serve ...`
pub fn run_serve(args: &[String]) -> ! {
    let mut config = ServeConfig::default();
    let mut drain_timeout = 30u64;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--unix" => config.unix = Some(PathBuf::from(value(&mut it, "--unix"))),
            "--tcp" => config.tcp = Some(value(&mut it, "--tcp")),
            "--max-sessions" => {
                config.max_sessions = parse_num(&value(&mut it, "--max-sessions"), "session count")
            }
            "--byte-budget" => {
                config.byte_budget = parse_num(&value(&mut it, "--byte-budget"), "byte budget")
            }
            "--jobs" => config.workers = Some(parse_num(&value(&mut it, "--jobs"), "worker count")),
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value(&mut it, "--cache-dir"))),
            "--events-out" => {
                config.events_path = Some(PathBuf::from(value(&mut it, "--events-out")))
            }
            "--drain-timeout" => {
                drain_timeout = parse_num(&value(&mut it, "--drain-timeout"), "seconds")
            }
            "--analyze-reject" => config.analyze_reject = true,
            "--help" | "-h" => serve_usage(),
            other => {
                eprintln!("unknown serve option: {other}");
                serve_usage();
            }
        }
    }
    if config.unix.is_none() && config.tcp.is_none() {
        eprintln!("serve: need at least one of --unix / --tcp");
        serve_usage();
    }

    let daemon = match Daemon::start(config.clone()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve: failed to start: {e}");
            std::process::exit(3);
        }
    };
    if let Some(path) = &config.unix {
        eprintln!("serve: listening on unix socket {}", path.display());
    }
    if let Some(addr) = daemon.tcp_addr() {
        eprintln!("serve: listening on tcp {addr}");
    }
    eprintln!(
        "serve: max {} sessions, {} byte budget per session; SIGTERM/SIGINT drains",
        config.max_sessions, config.byte_budget
    );
    let summary = daemon.run_until_signal(Duration::from_secs(drain_timeout));
    eprintln!(
        "serve: drained — {} served, {} rejected, {} unfinished, {} pool jobs abandoned",
        summary.served, summary.rejected, summary.unfinished_sessions, summary.pool.abandoned
    );
    std::process::exit(0);
}

/// `cachescope submit ...`
pub fn run_submit(args: &[String]) -> ! {
    let mut addr: Option<Addr> = None;
    let mut trace: Option<PathBuf> = None;
    let mut config = SessionConfig::default();
    let mut chunk = 0usize;
    let mut json_out: Option<PathBuf> = None;
    let mut status = false;
    let mut policy = RetryPolicy {
        retries: 0,
        backoff_ms: 100,
    };

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--unix" => addr = Some(Addr::Unix(PathBuf::from(value(&mut it, "--unix")))),
            "--tcp" => addr = Some(Addr::Tcp(value(&mut it, "--tcp"))),
            "--trace" => trace = Some(PathBuf::from(value(&mut it, "--trace"))),
            "--technique" => config.technique_spec = value(&mut it, "--technique"),
            "--misses" => config.misses = parse_num(&value(&mut it, "--misses"), "miss count"),
            "--counters" => config.counters = parse_num(&value(&mut it, "--counters"), "counters"),
            "--interval" => config.interval = parse_num(&value(&mut it, "--interval"), "interval"),
            "--chunk" => chunk = parse_num(&value(&mut it, "--chunk"), "chunk size"),
            "--json" => json_out = Some(PathBuf::from(value(&mut it, "--json"))),
            "--retries" => policy.retries = parse_num(&value(&mut it, "--retries"), "retry count"),
            "--retry-backoff-ms" => {
                policy.backoff_ms =
                    parse_num(&value(&mut it, "--retry-backoff-ms"), "retry backoff")
            }
            "--status" => status = true,
            "--help" | "-h" => submit_usage(),
            other => {
                eprintln!("unknown submit option: {other}");
                submit_usage();
            }
        }
    }
    let addr = addr.unwrap_or_else(|| {
        eprintln!("submit: need --unix PATH or --tcp ADDR");
        submit_usage();
    });

    if status {
        match query_status(&addr) {
            Ok(snapshot) => {
                println!("{}", snapshot.render());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("submit: status query failed: {e}");
                std::process::exit(3);
            }
        }
    }

    let trace = trace.unwrap_or_else(|| {
        eprintln!("submit: need --trace FILE (or --status)");
        submit_usage();
    });
    let trace_bytes = match std::fs::read(&trace) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("submit: cannot read {}: {e}", trace.display());
            std::process::exit(3);
        }
    };
    match submit_bytes_with_retry(&addr, &trace_bytes, &config, chunk, policy) {
        Ok(result) if result.attempts > 1 => {
            eprintln!(
                "submit: succeeded note — {} attempt(s) used",
                result.attempts
            );
            finish_submit(result.outcome, json_out);
        }
        Ok(result) => finish_submit(result.outcome, json_out),
        Err(e) => {
            eprintln!("submit: {e}");
            std::process::exit(3);
        }
    }
}

fn finish_submit(outcome: SubmitOutcome, json_out: Option<PathBuf>) -> ! {
    match outcome {
        SubmitOutcome::Report(report) => {
            match json_out {
                Some(path) => {
                    // Same shape as the batch pipeline's --json file:
                    // the report body plus a trailing newline.
                    let body = format!("{report}\n");
                    if let Err(e) = std::fs::write(&path, body) {
                        eprintln!("submit: cannot write {}: {e}", path.display());
                        std::process::exit(3);
                    }
                    eprintln!("submit: report written to {}", path.display());
                }
                None => println!("{report}"),
            }
            std::process::exit(0);
        }
        SubmitOutcome::Rejected(r) => {
            eprintln!(
                "submit: rejected [{}] {}{}",
                r.code,
                r.message,
                if r.retryable { " (retryable)" } else { "" }
            );
            std::process::exit(1);
        }
    }
}
