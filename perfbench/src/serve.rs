//! `serve-open`: the `cachescope serve` daemon, in process on loopback.
//!
//! One generator process drives the daemon over at most two connections
//! (one per core of the reference host). Every session streams a
//! seeded 40k-reference binary-v2 trace whose working set fits in the
//! cache, so most simulated accesses hit. One session in eight repeats
//! the trace of an earlier session, so in-flight dedup and the disk
//! cache are used.
//!
//! * Open loop: sessions are due at a fixed rate, each within ±5 ms of
//!   its slot; each is timed from its due time, so a stall also charges
//!   the sessions queued behind it, and the generator's lag behind the
//!   schedule is reported. Without the jitter, arrivals every 25 ms lock
//!   in phase with the daemon's accept poll (a 20 ms sleep after each
//!   empty accept), so a run's median accept wait would be set by the
//!   phase of its first arrival. The jitter pattern is fixed, so every
//!   run meets the same schedule.
//! * Closed loop: each connection sends its next session when the last
//!   one is answered; completions per second measure capacity.
//!
//! Every served report must be byte-identical to the batch `Experiment`
//! JSON for the same trace and configuration. A refused or failed
//! session counts as failed and as missing any latency limit.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cachescope_check::wire::FrameType;
use cachescope_core::export::report_to_json;
use cachescope_core::{Experiment, TechniqueConfig};
use cachescope_serve::wire::{recv_frame, send_frame, FrameDecoder, Recv};
use cachescope_serve::{
    submit_bytes, Addr, Daemon, ServeConfig, SessionConfig, SessionStream, SubmitOutcome,
    PROTOCOL_VERSION,
};
use cachescope_sim::tracefile::load_eager;
use cachescope_sim::{
    Event, MemRef, ObjectDecl, Program, RecordingProgram, RunLimit, TraceFormat, TraceProgram,
};

use crate::ladder::{self, Case, Tech};
use crate::spans::Shared;
use crate::stats::{median, quantile, Scaled};
use crate::{Outcome, RunArgs};

/// Application references per session trace.
const TRACE_REFS: u64 = 40_000;
/// Client connections (the reference host has two cores).
const CONNECTIONS: usize = 2;
/// Open-loop arrival rate, sessions per second.
const OPEN_RATE: f64 = 40.0;
/// Largest offset of an open-loop arrival from its slot, in ms.
const JITTER_MS: f64 = 5.0;
/// Fewest open-loop sessions per run, so at least ten lie beyond p95.
const MIN_OPEN: usize = 200;
/// Closed-loop sessions per run.
const CLOSED: usize = 320;
/// Closed-loop completions per capacity window.
const WINDOW: usize = 16;
/// Every `REPEAT_EVERY`-th session repeats an earlier session's trace.
const REPEAT_EVERY: usize = 8;
/// `Data` frame payload size.
const CHUNK: usize = 64 * 1024;
/// Daemon starts in set-up; the median is reported.
const SETUPS: usize = 9;

fn session_config() -> SessionConfig {
    SessionConfig {
        technique_spec: "sampling:100".to_string(),
        misses: u64::MAX,
        counters: 10,
        interval: 25_000_000,
    }
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The trace seed of session `index` in `phase`: one session in eight
/// reuses the seed of the session four places earlier.
fn trace_seed(run_seed: u64, phase: u64, index: usize) -> u64 {
    let index = if index % REPEAT_EVERY == REPEAT_EVERY - 1 {
        index - REPEAT_EVERY / 2
    } else {
        index
    };
    mix(mix(run_seed ^ (phase << 56)) ^ index as u64)
}

/// Open-loop due times, in ns from the start of the phase: slot `i` at
/// `i / OPEN_RATE` seconds, offset by a fixed pseudo-random amount within
/// ±[`JITTER_MS`].
fn open_schedule(n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let u = (mix(i as u64) >> 11) as f64 / (1u64 << 53) as f64;
            let ms = i as f64 * 1e3 / OPEN_RATE + (2.0 * u - 1.0) * JITTER_MS;
            (ms.max(0.0) * 1e6) as u64
        })
        .collect()
}

/// A seeded binary-v2 trace: three globals that fit in the cache, mixed
/// reads and writes, and a compute block every 64 references.
fn make_trace(seed: u64) -> Vec<u8> {
    const FIELD: (u64, u64) = (0x100_000, 256 * 1024);
    const INDEX: (u64, u64) = (0x200_000, 32 * 1024);
    const SCRATCH: (u64, u64) = (0x300_000, 8 * 1024);
    let objects = vec![
        ObjectDecl::global("field", FIELD.0, FIELD.1),
        ObjectDecl::global("index", INDEX.0, INDEX.1),
        ObjectDecl::global("scratch", SCRATCH.0, SCRATCH.1),
    ];
    let mut events = Vec::with_capacity(TRACE_REFS as usize * 65 / 64 + 1);
    let mut x = mix(seed) | 1;
    for i in 0..TRACE_REFS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (base, span) = match x % 10 {
            0..=5 => FIELD,
            6..=8 => INDEX,
            _ => SCRATCH,
        };
        let addr = base + (x >> 8) % (span - 8);
        events.push(Event::Access(if x.is_multiple_of(3) {
            MemRef::write(addr, 8)
        } else {
            MemRef::read(addr, 8)
        }));
        if i % 64 == 0 {
            events.push(Event::Compute(40 + (x >> 40) % 80));
        }
    }
    let program = TraceProgram::new(format!("serve-{seed:016x}"), objects, events);
    let mut rec = RecordingProgram::with_format(program, Vec::new(), TraceFormat::Bin);
    while rec.next_event().is_some() {}
    rec.into_writer()
}

/// The batch pipeline's report for a trace: `cachescope - --replay
/// <trace> --json` with the session's technique and bounds.
fn batch_report(trace: &[u8], cfg: &SessionConfig) -> Result<String, String> {
    let program = load_eager(trace).map_err(|e| e.to_string())?;
    let technique = cfg.technique().map_err(|r| r.message)?;
    let report = Experiment::new(program)
        .technique(technique)
        .counters(cfg.counters)
        .limit(RunLimit::AppMisses(cfg.misses))
        .run();
    Ok(report_to_json(&report).render())
}

/// Client-side phase times of one session, in ns since the phase origin.
#[derive(Clone, Copy, Default)]
struct Phases {
    connect: u64,
    acked: u64,
    uploaded: u64,
    answered: u64,
}

/// One session through the wire protocol with phase timing: connect,
/// Hello and ack (handshake), Data and End (upload), then the report.
fn timed_session(
    addr: &str,
    trace: &[u8],
    cfg: &SessionConfig,
    origin: Instant,
) -> Result<(String, Phases), String> {
    let ns = || origin.elapsed().as_nanos() as u64;
    let mut p = Phases {
        connect: ns(),
        ..Phases::default()
    };
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut dec = FrameDecoder::new();
    let mut hello = PROTOCOL_VERSION.to_le_bytes().to_vec();
    hello.extend_from_slice(cfg.to_json().render().as_bytes());
    send_frame(&mut stream, FrameType::Hello, &hello).map_err(|e| format!("hello: {e}"))?;
    let ack = recv(&mut stream, &mut dec)?;
    if ack.kind != FrameType::HelloAck {
        return Err(format!("expected hello-ack, got {}", ack.kind.name()));
    }
    p.acked = ns();
    for piece in trace.chunks(CHUNK) {
        send_frame(&mut stream, FrameType::Data, piece).map_err(|e| format!("data: {e}"))?;
    }
    send_frame(&mut stream, FrameType::End, b"").map_err(|e| format!("end: {e}"))?;
    p.uploaded = ns();
    let reply = recv(&mut stream, &mut dec)?;
    p.answered = ns();
    match reply.kind {
        FrameType::Report => String::from_utf8(reply.payload)
            .map(|r| (r, p))
            .map_err(|_| "report is not utf-8".to_string()),
        other => Err(format!(
            "expected report, got {}: {}",
            other.name(),
            String::from_utf8_lossy(&reply.payload)
        )),
    }
}

fn recv<S: Read + Write>(
    stream: &mut S,
    dec: &mut FrameDecoder,
) -> Result<cachescope_serve::Frame, String> {
    let mut never = || false;
    match recv_frame(stream, dec, &mut never) {
        Ok(Recv::Frame(f)) => Ok(f),
        Ok(other) => Err(format!("connection ended: {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// One session through the public client.
fn plain_session(addr: &str, trace: &[u8], cfg: &SessionConfig) -> Result<String, String> {
    match submit_bytes(&Addr::Tcp(addr.to_string()), trace, cfg, CHUNK) {
        Ok(SubmitOutcome::Report(r)) => Ok(r),
        Ok(SubmitOutcome::Rejected(r)) => Err(format!("refused: {} {}", r.code, r.message)),
        Err(e) => Err(e.to_string()),
    }
}

/// What one session produced.
struct Served {
    seed: u64,
    /// Due (open loop) or start (closed loop) time, ns since the origin.
    due: u64,
    /// When the session was sent and when its answer arrived.
    started: u64,
    done: u64,
    result: Result<String, String>,
    /// Client-side phases, in traced runs.
    phases: Option<Phases>,
}

impl Served {
    /// Latency from the due time; a failed session misses any limit.
    fn latency_ms(&self) -> f64 {
        match self.result {
            Ok(_) => ms(self.done - self.due),
            Err(_) => f64::INFINITY,
        }
    }
}

/// Traces generated ahead of the connections that send them.
const PREFETCH: usize = 4;

/// Run one session per seed over [`CONNECTIONS`] connections. With a
/// schedule, session `i` is due `schedule[i]` ns after the phase starts
/// (open loop); without one each connection sends as soon as its last
/// session is answered (closed loop). A generator thread encodes the
/// traces a few sessions ahead, so neither memory nor the connections
/// wait on all of them.
fn drive(
    addr: &str,
    seeds: &[u64],
    schedule: Option<&[u64]>,
    timed: bool,
    origin: Instant,
) -> Vec<Served> {
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, Vec<u8>)>(PREFETCH);
    let rx = Mutex::new(rx);
    let served = Mutex::new(Vec::with_capacity(seeds.len()));
    let cfg = session_config();
    let now = || origin.elapsed().as_nanos() as u64;
    let phase_start = now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, &seed) in seeds.iter().enumerate() {
                if tx.send((i, make_trace(seed))).is_err() {
                    break;
                }
            }
        });
        for _ in 0..CONNECTIONS {
            s.spawn(|| loop {
                let next = rx.lock().expect("no connection thread panics").recv();
                let Ok((i, trace)) = next else {
                    break;
                };
                let due = match schedule {
                    Some(offsets) => {
                        let due = phase_start + offsets[i];
                        let t = now();
                        if due > t {
                            std::thread::sleep(Duration::from_nanos(due - t));
                        }
                        due
                    }
                    None => now(),
                };
                let started = now();
                let (result, phases) = if timed {
                    match timed_session(addr, &trace, &cfg, origin) {
                        Ok((r, p)) => (Ok(r), Some(p)),
                        Err(e) => (Err(e), None),
                    }
                } else {
                    (plain_session(addr, &trace, &cfg), None)
                };
                let done = now();
                served
                    .lock()
                    .expect("no connection thread panics")
                    .push(Served {
                        seed: seeds[i],
                        due,
                        started,
                        done,
                        result,
                        phases,
                    });
            });
        }
    });
    served.into_inner().expect("no connection thread panics")
}

/// Start a daemon on a fresh cache directory (timed into `setups`), then
/// check that it answers a warm-up session. Returns it and its address.
fn start_daemon(
    args: &RunArgs,
    n: usize,
    setups: &mut Scaled,
    out: &mut Outcome,
) -> Option<(Daemon, String)> {
    let cache_dir = args.work.join(format!("serve-cache-{n}"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let started = setups.time(|| {
        Daemon::start(ServeConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            cache_dir: Some(cache_dir),
            ..ServeConfig::default()
        })
    });
    let daemon = match started {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("daemon failed to start: {e}"));
            return None;
        }
    };
    let Some(addr) = daemon.tcp_addr().map(|a| a.to_string()) else {
        out.check(false, || "daemon has no tcp address".into());
        return None;
    };
    let warmup = make_trace(trace_seed(args.seed, 9, n));
    let first = plain_session(&addr, &warmup, &session_config());
    out.check(first.is_ok(), || {
        format!("warm-up session failed: {first:?}")
    });
    Some((daemon, addr))
}

/// Compare every served report with the batch report for its trace.
fn check_reports(sessions: &[Served], out: &mut Outcome, what: &str) {
    let cfg = session_config();
    let mut batch: std::collections::HashMap<u64, Result<String, String>> =
        std::collections::HashMap::new();
    for s in sessions {
        match &s.result {
            Err(e) => out.check(false, || format!("{what} session failed: {e}")),
            Ok(report) => {
                let want = batch
                    .entry(s.seed)
                    .or_insert_with(|| batch_report(&make_trace(s.seed), &cfg));
                let same = matches!(want, Ok(w) if w == report);
                out.check(same, || {
                    format!(
                        "{what} session {:016x}: served report differs from batch",
                        s.seed
                    )
                });
            }
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run(args: &RunArgs, rec: &Shared) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: start a daemon; the last of the daemons started is the one
    // measured.
    let mut setups = Scaled::default();
    let mut current: Option<(Daemon, String)> = None;
    for n in 0..SETUPS {
        if let Some((prev, _)) = current.take() {
            prev.shutdown(Duration::from_secs(10));
        }
        current = start_daemon(args, n, &mut setups, &mut out);
        if current.is_none() {
            return out;
        }
    }
    let Some((daemon, addr)) = current else {
        return out;
    };

    let open_n = MIN_OPEN.max((args.seconds * 0.6 * OPEN_RATE) as usize);
    let open_seeds: Vec<u64> = (0..open_n).map(|i| trace_seed(args.seed, 1, i)).collect();
    let closed_seeds: Vec<u64> = (0..CLOSED).map(|i| trace_seed(args.seed, 2, i)).collect();
    let origin = rec.borrow().origin();

    rec.borrow_mut().begin("serve.open_loop");
    let schedule = open_schedule(open_n);
    let open = drive(&addr, &open_seeds, Some(&schedule), args.trace, origin);
    let open_ns = rec.borrow_mut().end();
    rec.borrow_mut().begin("serve.closed_loop");
    let t0 = Instant::now();
    let closed = drive(&addr, &closed_seeds, None, args.trace, origin);
    let closed_s = t0.elapsed().as_secs_f64();
    rec.borrow_mut().end();

    let status = daemon.status();
    let stat = |k: &str| status.get(k).and_then(|j| j.as_u64()).unwrap_or(0);
    let (dedup_hits, sim_starts) = (stat("dedup_hits"), stat("sim_starts"));
    daemon.shutdown(Duration::from_secs(30));

    let latencies: Vec<f64> = open.iter().map(Served::latency_ms).collect();
    let lags: Vec<f64> = open.iter().map(|s| ms(s.started - s.due)).collect();
    let busy_ns: u64 = open.iter().map(|s| s.done - s.started).sum();
    let closed_ok = closed.iter().filter(|s| s.result.is_ok()).count();
    let repeats = open_n / REPEAT_EVERY + CLOSED / REPEAT_EVERY;

    check_reports(&open, &mut out, "open-loop");
    check_reports(&closed, &mut out, "closed-loop");
    println!(
        "open loop: {} sessions at {OPEN_RATE}/s  closed loop: {} sessions  repeated traces: {repeats}  \
         dedup hits: {dedup_hits}  simulations: {sim_starts}  generator lag p95: {:.3} ms",
        open.len(),
        closed.len(),
        quantile(&lags, 0.95)
    );

    // Capacity per window of WINDOW consecutive closed-loop completions.
    let mut done: Vec<u64> = closed
        .iter()
        .filter(|s| s.result.is_ok())
        .map(|s| s.done)
        .collect();
    done.sort_unstable();
    let windows: Vec<f64> = done
        .windows(WINDOW + 1)
        .step_by(WINDOW)
        .map(|w| ms(w[WINDOW] - w[0]))
        .collect();
    let window_ms = median(&windows);
    println!(
        "closed loop: {closed_ok} sessions in {closed_s:.3} s; open loop latency p10/p50/p95: \
         {:.3}/{:.3}/{:.3} ms",
        quantile(&latencies, 0.1),
        median(&latencies),
        quantile(&latencies, 0.95)
    );

    if !args.trace {
        let refs = (WINDOW as u64 * TRACE_REFS) as f64;
        out.metric("refs_per_s", refs / (window_ms / 1e3), "1/s");
        out.metric("job_ms", median(&latencies), "ms");
        out.metric("setup_s", setups.scaled_ms() / 1e3, "s");
        return out;
    }

    // Client-side phases, recorded as spans of each session.
    let mut handshake = Vec::new();
    let mut upload = Vec::new();
    let mut wait = Vec::new();
    {
        let mut r = rec.borrow_mut();
        for (i, s) in open.iter().chain(&closed).enumerate() {
            if let (Some(p), Ok(_)) = (s.phases, &s.result) {
                r.record_remote("serve.handshake", i as u64 + 1, p.connect, p.acked);
                r.record_remote("serve.upload", i as u64 + 1, p.acked, p.uploaded);
                r.record_remote("serve.report_wait", i as u64 + 1, p.uploaded, p.answered);
                handshake.push((p.acked - p.connect) as f64 / 1e3);
                upload.push((p.uploaded - p.acked) as f64 / 1e3);
                wait.push((p.answered - p.uploaded) as f64 / 1e3);
            }
        }
    }

    // Offline: ingest and simulate the same traces without the daemon.
    let cfg = session_config();
    let sample: Vec<Vec<u8>> = open_seeds.iter().take(32).map(|&s| make_trace(s)).collect();
    let (mut ingest_ns, mut ingest_bytes) = (0u64, 0u64);
    let mut simulate_ms = Vec::new();
    let mut programs = Vec::new();
    for trace in &sample {
        rec.borrow_mut().begin("serve.ingest");
        let t0 = Instant::now();
        let mut stream = SessionStream::new();
        let fed = trace
            .chunks(CHUNK)
            .try_for_each(|piece| stream.feed(piece, u64::MAX));
        let finished = fed.and_then(|()| stream.finish());
        ingest_ns += t0.elapsed().as_nanos() as u64;
        rec.borrow_mut().end();
        ingest_bytes += trace.len() as u64;
        let Ok(fin) = finished else {
            out.check(false, || "offline ingest refused a served trace".into());
            continue;
        };
        let program = fin.into_program();
        programs.push(program.clone());
        rec.borrow_mut().begin("serve.simulate");
        let t0 = Instant::now();
        let report = Experiment::new(program)
            .technique(cfg.technique().unwrap_or(TechniqueConfig::None))
            .counters(cfg.counters)
            .limit(RunLimit::AppMisses(cfg.misses))
            .run();
        simulate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.borrow_mut().end();
        std::hint::black_box(report_to_json(&report));
    }

    out.metric("serve.session_p50_ms", median(&latencies), "ms");
    out.metric("serve.session_p95_ms", quantile(&latencies, 0.95), "ms");
    out.metric("serve.sessions_per_s", closed_ok as f64 / closed_s, "1/s");
    out.metric("serve.handshake_us", median(&handshake), "us");
    out.metric("serve.upload_us", median(&upload), "us");
    out.metric("serve.report_wait_us", median(&wait), "us");
    out.metric(
        "serve.ingest_ns_per_byte",
        ingest_ns as f64 / ingest_bytes.max(1) as f64,
        "ns",
    );
    out.metric("serve.simulate_ms_per_session", median(&simulate_ms), "ms");
    out.metric("serve.gen_lag_ms", quantile(&lags, 0.95), "ms");
    out.metric(
        "serve.busy_frac",
        busy_ns as f64 / (CONNECTIONS as f64 * open_ns.max(1) as f64),
        "ratio",
    );
    out.metric("serve.dedup_hits", dedup_hits as f64, "count");
    out.metric("serve.sim_starts", sim_starts as f64, "count");
    out.metric(
        "serve.repeat_share",
        repeats as f64 / (open_n + CLOSED) as f64,
        "ratio",
    );
    out.metric("serve.open_sessions", open.len() as f64, "count");
    out.metric("serve.closed_sessions", closed.len() as f64, "count");

    // The simulation layers, on the first few session traces.
    let technique = match cfg.technique() {
        Ok(TechniqueConfig::Sampling(c)) => Tech::Sampler(c),
        _ => Tech::None,
    };
    let cases: Vec<Case> = programs
        .into_iter()
        .take(4)
        .map(|p| Case {
            make: Box::new(move || Box::new(p.clone())),
            tech: technique.clone(),
            accesses: TRACE_REFS,
        })
        .collect();
    let (counts, _) = ladder::run(&cases, args.budget() / 2, rec, &mut out);
    counts.report(&mut out);
    out
}
