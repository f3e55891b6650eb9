//! The long-running attribution daemon.
//!
//! [`Daemon::start`] binds unix and/or TCP listeners and serves framed
//! sessions (see [`crate::wire`]): each accepted connection runs the
//! `Hello → Data… → End → Report|Reject` state machine on its own
//! thread, while attribution simulations execute on a bounded
//! [`Pool`]. Cross-cutting daemon state lives in one shared structure:
//!
//! * **Admission control** — at most `max_sessions` concurrent
//!   sessions; excess `Hello`s get a retryable `busy` rejection, and a
//!   draining daemon answers `draining` instead of hanging clients.
//! * **Dedup** — sessions are content-addressed (trace-byte hash +
//!   canonical configuration). A session identical to one currently
//!   simulating piggybacks on that run; one identical to a cached past
//!   run is served from the campaign [`ResultCache`] without
//!   simulating. Lookups and registry updates happen under one lock,
//!   so two simultaneous identical submissions cannot both miss.
//! * **Observability** — every lifecycle step emits a typed
//!   [`ObsEvent`] into an [`Obs`] sink (deriving the `serve.*` metrics,
//!   including the p50/p95/p99 session-latency histogram) and,
//!   optionally, onto a JSONL event feed.
//! * **Graceful drain** — [`Daemon::shutdown`] finishes in-flight
//!   sessions up to a deadline, refuses new ones, drains the pool, and
//!   accounts for anything the deadline cut off.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cachescope_campaign::{
    panic_message, stable_hash, worker_cap, CacheLookup, Pool, PoolShutdown, ResultCache,
};
use cachescope_check::wire::{check_hello_version, FrameType};
use cachescope_core::export::report_to_json;
use cachescope_core::Experiment;
use cachescope_obs::{events_to_jsonl, Json, Obs, ObsEvent};
use cachescope_sim::RunLimit;

use crate::session::{FinishedStream, Refusal, SessionConfig, SessionStream};
use crate::wire::{recv_frame, send_frame, FrameDecoder, Recv, RecvError};

/// How a daemon is configured. `Default` serves nothing — set at least
/// one of `unix` / `tcp`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to bind (removed and re-created).
    pub unix: Option<PathBuf>,
    /// TCP address to bind (e.g. `127.0.0.1:0` for an ephemeral port).
    pub tcp: Option<String>,
    /// Concurrent-session ceiling; excess sessions get `busy`.
    pub max_sessions: usize,
    /// Per-session raw-trace byte ceiling.
    pub byte_budget: u64,
    /// Attribution worker threads (`None`: the shared `--jobs` default).
    pub workers: Option<usize>,
    /// Content-addressed report cache directory (`None` disables disk
    /// dedup; in-flight dedup still applies).
    pub cache_dir: Option<PathBuf>,
    /// JSONL event-feed path (`None` keeps events in memory only).
    pub events_path: Option<PathBuf>,
    /// Refuse provably unattributable streams (`CS-A005`) before
    /// simulating them: the static analyzer walks the decoded trace at
    /// ingest, and a stream whose every access resolves to no declared
    /// or allocated object is rejected instead of paying for a
    /// simulation that can only produce an empty report. Opt-in — the
    /// default path answers every admissible stream with a report,
    /// byte-identical to the batch pipeline.
    pub analyze_reject: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            unix: None,
            tcp: None,
            max_sessions: 8,
            byte_budget: 64 * 1024 * 1024,
            workers: None,
            cache_dir: None,
            events_path: None,
            analyze_reject: false,
        }
    }
}

/// What [`Daemon::shutdown`] observed.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Sessions that received a `Report`.
    pub served: u64,
    /// Sessions and connections refused (any `Reject`).
    pub rejected: u64,
    /// Sessions still active when the drain deadline expired.
    pub unfinished_sessions: usize,
    /// The worker pool's own drain accounting.
    pub pool: PoolShutdown,
}

/// Lock, recovering from poisoning (conn threads run under their own
/// error handling; shared state stays coherent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The obs sink plus its optional JSONL feed.
struct ObsState {
    obs: Obs,
    writer: Option<std::io::BufWriter<std::fs::File>>,
}

/// One in-flight simulation, awaited by every identical session.
struct Inflight {
    done: Mutex<Option<Result<String, Refusal>>>,
    cv: Condvar,
}

struct Shared {
    config: ServeConfig,
    draining: AtomicBool,
    stop: AtomicBool,
    next_id: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    active: Mutex<usize>,
    active_cv: Condvar,
    inflight: Mutex<HashMap<String, Arc<Inflight>>>,
    cache: Option<ResultCache>,
    pool: Pool,
    obs: Mutex<ObsState>,
}

impl Shared {
    fn emit(&self, ev: ObsEvent) {
        let mut st = lock(&self.obs);
        st.obs.emit(ev);
        // Draining the in-memory event vec on every emit bounds a
        // long-lived daemon's footprint; only the feed keeps the events.
        let events = st.obs.take_events();
        if let Some(w) = st.writer.as_mut() {
            let _ = w.write_all(events_to_jsonl(&events).as_bytes());
            let _ = w.flush();
        }
    }

    fn status_json(&self) -> Json {
        let active = *lock(&self.active) as u64;
        let st = lock(&self.obs);
        let m = &st.obs.metrics;
        Json::obj(vec![
            (
                "protocol_version",
                Json::Uint(u64::from(crate::wire::PROTOCOL_VERSION)),
            ),
            ("active", Json::Uint(active)),
            ("max_sessions", Json::Uint(self.config.max_sessions as u64)),
            ("draining", Json::Bool(self.draining.load(Ordering::SeqCst))),
            ("sessions", Json::Uint(m.counter("serve.sessions"))),
            ("served", Json::Uint(m.counter("serve.sessions_served"))),
            ("rejected", Json::Uint(m.counter("serve.rejects"))),
            ("sim_starts", Json::Uint(m.counter("serve.sim_starts"))),
            ("dedup_hits", Json::Uint(m.counter("serve.dedup_hits"))),
        ])
    }
}

/// Execute one attribution run: the exact pipeline the batch CLI
/// drives, so a served report is byte-identical to the equivalent
/// `cachescope - --replay <trace> --json` output.
fn run_attribution(fin: FinishedStream, cfg: &SessionConfig) -> Result<Json, Refusal> {
    let technique = cfg.technique()?;
    let report = Experiment::new(fin.into_program())
        .technique(technique)
        .counters(cfg.counters)
        .limit(RunLimit::AppMisses(cfg.misses))
        .run();
    Ok(report_to_json(&report))
}

/// How a finished stream resolves to a report.
enum Resolution {
    /// First of its content hash: simulate on the pool.
    Fresh(Arc<Inflight>),
    /// An identical session is simulating right now: await it.
    Inflight(Arc<Inflight>),
    /// An identical past run is on disk: serve it as-is.
    Disk(String),
}

fn resolve(
    shared: &Arc<Shared>,
    key: &str,
    ident: &Json,
    fin: FinishedStream,
    cfg: SessionConfig,
) -> Resolution {
    let mut map = lock(&shared.inflight);
    if let Some(slot) = map.get(key) {
        return Resolution::Inflight(Arc::clone(slot));
    }
    if let Some(cache) = &shared.cache {
        if let CacheLookup::Hit(report) = cache.load_keyed(key, ident) {
            return Resolution::Disk(report.render());
        }
    }
    let slot = Arc::new(Inflight {
        done: Mutex::new(None),
        cv: Condvar::new(),
    });
    map.insert(key.to_string(), Arc::clone(&slot));
    drop(map);

    let job_shared = Arc::clone(shared);
    let job_slot = Arc::clone(&slot);
    let job_key = key.to_string();
    let job_ident = ident.clone();
    let submitted = shared.pool.submit(move || {
        let outcome =
            match std::panic::catch_unwind(AssertUnwindSafe(|| run_attribution(fin, &cfg))) {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(refusal)) => Err(refusal),
                Err(payload) => Err(Refusal::new(
                    "sim_failed",
                    format!("attribution panicked: {}", panic_message(payload)),
                    false,
                )),
            };
        // Store to disk *before* the registry entry disappears, under
        // the registry lock: a concurrent identical session therefore
        // always sees either the in-flight slot or the disk entry,
        // never neither.
        let mut map = lock(&job_shared.inflight);
        let rendered = match outcome {
            Ok(report) => {
                if let Some(cache) = &job_shared.cache {
                    let _ = cache.store_keyed(&job_key, &job_ident, &report);
                }
                Ok(report.render())
            }
            Err(r) => Err(r),
        };
        map.remove(&job_key);
        *lock(&job_slot.done) = Some(rendered);
        job_slot.cv.notify_all();
    });
    if submitted.is_err() {
        // Pool already draining: fail the slot so no one blocks on it.
        let mut map = lock(&shared.inflight);
        map.remove(key);
        *lock(&slot.done) = Some(Err(Refusal::new(
            "draining",
            "daemon is shutting down".to_string(),
            true,
        )));
        slot.cv.notify_all();
    }
    Resolution::Fresh(slot)
}

/// Await an in-flight slot, bailing out if the daemon stops.
fn await_slot(shared: &Shared, slot: &Inflight) -> Result<String, Refusal> {
    let mut done = lock(&slot.done);
    loop {
        if let Some(outcome) = done.clone() {
            return outcome;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return Err(Refusal::new(
                "draining",
                "daemon stopped before the simulation finished".to_string(),
                true,
            ));
        }
        let (guard, _) = slot
            .cv
            .wait_timeout(done, Duration::from_millis(200))
            .unwrap_or_else(|e| e.into_inner());
        done = guard;
    }
}

/// Refuse session `id` (0 before one is assigned): count it, emit the
/// event, and send the `Reject` frame if the socket still works.
fn reject<S: Write>(shared: &Shared, stream: &mut S, id: u64, refusal: &Refusal) {
    shared.rejected.fetch_add(1, Ordering::SeqCst);
    shared.emit(ObsEvent::SessionReject {
        id,
        code: refusal.code.clone(),
        reason: refusal.message.clone(),
    });
    let _ = send_frame(
        stream,
        FrameType::Reject,
        refusal.to_json().render().as_bytes(),
    );
}

/// Serve one connection end to end. Runs on its own thread; every exit
/// path accounts the session and replies when the socket still works.
fn handle_conn<S: Read + Write>(shared: &Arc<Shared>, mut stream: S, peer: &str) {
    let mut dec = FrameDecoder::new();
    let stop_flag = Arc::clone(shared);
    let mut abort = move || stop_flag.stop.load(Ordering::SeqCst);

    // Pre-session: accept Status probes until a Hello opens a session.
    let hello = loop {
        match recv_frame(&mut stream, &mut dec, &mut abort) {
            Ok(Recv::Frame(f)) if f.kind == FrameType::Status => {
                let _ = send_frame(
                    &mut stream,
                    FrameType::StatusReport,
                    shared.status_json().render().as_bytes(),
                );
            }
            Ok(Recv::Frame(f)) if f.kind == FrameType::Hello => break f,
            Ok(Recv::Frame(f)) => {
                let refusal = Refusal::new(
                    "protocol",
                    format!("expected hello or status, got {}", f.kind.name()),
                    false,
                );
                return reject(shared, &mut stream, 0, &refusal);
            }
            Ok(Recv::Closed) | Ok(Recv::Aborted) => return,
            Err(RecvError::Bad(d)) => {
                let refusal = Refusal::new(d.code, d.message, false);
                return reject(shared, &mut stream, 0, &refusal);
            }
            Err(RecvError::Io(_)) => return,
        }
    };

    // Handshake: version, then configuration.
    let config = match check_hello_version(&hello.payload, peer) {
        Ok(_) => SessionConfig::from_json(&hello.payload[2..]),
        Err(d) => Err(Refusal::new(d.code, d.message, false)),
    };
    let config = match config {
        Ok(c) => c,
        Err(refusal) => return reject(shared, &mut stream, 0, &refusal),
    };

    // Admission.
    if shared.draining.load(Ordering::SeqCst) {
        let refusal = Refusal::new("draining", "daemon is draining; retry later", true);
        return reject(shared, &mut stream, 0, &refusal);
    }
    let admitted = {
        let mut active = lock(&shared.active);
        if *active >= shared.config.max_sessions {
            false
        } else {
            *active += 1;
            true
        }
    };
    if !admitted {
        let refusal = Refusal::new(
            "busy",
            format!(
                "{} sessions active (limit {}); retry later",
                shared.config.max_sessions, shared.config.max_sessions
            ),
            true,
        );
        return reject(shared, &mut stream, 0, &refusal);
    }

    let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
    let started = Instant::now();
    shared.emit(ObsEvent::SessionStart {
        id,
        peer: peer.to_string(),
    });
    let ack = Json::obj(vec![
        ("id", Json::Uint(id)),
        (
            "version",
            Json::Uint(u64::from(crate::wire::PROTOCOL_VERSION)),
        ),
    ]);
    let _ = send_frame(&mut stream, FrameType::HelloAck, ack.render().as_bytes());

    // Session body: stream Data frames into the incremental ingest.
    let outcome = session_body(shared, &mut stream, &mut dec, &mut abort, id, &config);

    {
        let mut active = lock(&shared.active);
        *active -= 1;
        shared.active_cv.notify_all();
    }

    match outcome {
        Ok((report, bytes, events)) => {
            let sent = send_frame(&mut stream, FrameType::Report, report.as_bytes());
            if sent.is_ok() {
                shared.served.fetch_add(1, Ordering::SeqCst);
                shared.emit(ObsEvent::SessionEnd {
                    id,
                    bytes,
                    events,
                    ms: started.elapsed().as_millis() as u64,
                });
            }
        }
        Err(Some(refusal)) => reject(shared, &mut stream, id, &refusal),
        Err(None) => {} // peer vanished; nothing to answer
    }
}

/// The `CS-A005` fast-reject: abstract-interpret the decoded trace
/// under the session's own miss budget; a stream with traffic but no
/// access resolving to any declared or allocated object is provably
/// unattributable — the simulation it would buy can only produce an
/// empty report, so refuse before paying for it.
fn unattributable_refusal(fin: &FinishedStream, config: &SessionConfig) -> Option<Refusal> {
    let mut a = cachescope_analyze::Analyzer::new(
        fin.name.clone(),
        cachescope_analyze::AnalyzeConfig {
            limit: cachescope_analyze::AnalysisLimit::Misses(config.misses),
            ..Default::default()
        },
    );
    for d in &fin.objects {
        a.declare_static(d);
    }
    for e in &fin.events {
        if a.at_limit() {
            break;
        }
        a.event(e);
    }
    let source = fin.name.clone();
    cachescope_check::bounds::unattributable(&a.finish(), &source).map(|d| {
        Refusal::new(
            "unattributable",
            format!("{} ({})", d.message, d.code),
            false,
        )
    })
}

/// The Data/End loop for an admitted session. `Err(None)` means the
/// peer disappeared mid-stream (nothing to reply to); `Err(Some)` is a
/// refusal to send.
fn session_body<S: Read + Write>(
    shared: &Arc<Shared>,
    stream: &mut S,
    dec: &mut FrameDecoder,
    abort: &mut dyn FnMut() -> bool,
    id: u64,
    config: &SessionConfig,
) -> Result<(String, u64, u64), Option<Refusal>> {
    let mut ingest = SessionStream::new();
    loop {
        match recv_frame(stream, dec, abort) {
            Ok(Recv::Frame(f)) => match f.kind {
                FrameType::Data => {
                    ingest
                        .feed(&f.payload, shared.config.byte_budget)
                        .map_err(Some)?;
                }
                FrameType::End => break,
                other => {
                    return Err(Some(Refusal::new(
                        "protocol",
                        format!("expected data or end, got {}", other.name()),
                        false,
                    )))
                }
            },
            Ok(Recv::Closed) => return Err(None),
            Ok(Recv::Aborted) => {
                return Err(Some(Refusal::new(
                    "draining",
                    "daemon stopped mid-stream".to_string(),
                    true,
                )))
            }
            Err(RecvError::Bad(d)) => return Err(Some(Refusal::new(d.code, d.message, false))),
            Err(RecvError::Io(_)) => return Err(None),
        }
    }

    let fin = ingest.finish().map_err(Some)?;
    if shared.config.analyze_reject {
        if let Some(refusal) = unattributable_refusal(&fin, config) {
            return Err(Some(refusal));
        }
    }
    let (bytes, events) = (fin.bytes, fin.events.len() as u64);
    let canonical = config.canonical().map_err(Some)?;
    let key = stable_hash(&format!("{}|{}", fin.trace_digest, canonical.render()));
    let ident = Json::obj(vec![
        ("trace", Json::str(fin.trace_digest.clone())),
        ("config", canonical),
    ]);

    let report = match resolve(shared, &key, &ident, fin, config.clone()) {
        Resolution::Fresh(slot) => {
            shared.emit(ObsEvent::SessionSimStart {
                id,
                hash: key.clone(),
            });
            await_slot(shared, &slot).map_err(Some)?
        }
        Resolution::Inflight(slot) => {
            shared.emit(ObsEvent::SessionDedup {
                id,
                hash: key.clone(),
                source: "inflight",
            });
            await_slot(shared, &slot).map_err(Some)?
        }
        Resolution::Disk(report) => {
            shared.emit(ObsEvent::SessionDedup {
                id,
                hash: key.clone(),
                source: "disk",
            });
            report
        }
    };
    Ok((report, bytes, events))
}

/// A bound listener accepting framed connections.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// Per-connection socket timeouts: reads wake every 200 ms so the
/// connection notices a drain; writes give a stalled client 5 s.
const READ_TIMEOUT: Duration = Duration::from_millis(200);
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// What a connection thread needs of an accepted socket.
trait Socket: Read + Write + Send + 'static {
    fn set_timeouts(&self, read: Duration, write: Duration) -> std::io::Result<()>;
}

impl Socket for UnixStream {
    fn set_timeouts(&self, read: Duration, write: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(read))?;
        self.set_write_timeout(Some(write))
    }
}

impl Socket for TcpStream {
    fn set_timeouts(&self, read: Duration, write: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(read))?;
        self.set_write_timeout(Some(write))
    }
}

/// Start `socket`'s connection thread.
fn spawn_conn<S: Socket>(shared: &Arc<Shared>, socket: S, peer: String) -> JoinHandle<()> {
    let _ = socket.set_timeouts(READ_TIMEOUT, WRITE_TIMEOUT);
    let shared = Arc::clone(shared);
    std::thread::spawn(move || handle_conn(&shared, socket, &peer))
}

fn accept_loop(shared: Arc<Shared>, listener: Listener, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    while !shared.stop.load(Ordering::SeqCst) {
        let accepted = match &listener {
            Listener::Unix(l) => l
                .accept()
                .map(|(s, _)| spawn_conn(&shared, s, "unix".into())),
            Listener::Tcp(l) => l
                .accept()
                .map(|(s, peer)| spawn_conn(&shared, s, peer.to_string())),
        };
        match accepted {
            Ok(handle) => {
                // Reap finished connections so a long-lived daemon holds
                // one handle per live connection, not one per session.
                let mut conns = lock(&conns);
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            // Nothing pending (`WouldBlock`) or a failed accept.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// A running daemon: listeners, connection threads, worker pool.
pub struct Daemon {
    shared: Arc<Shared>,
    accepts: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    tcp_addr: Option<std::net::SocketAddr>,
    unix_path: Option<PathBuf>,
    finished: bool,
}

impl Daemon {
    /// Bind listeners and start serving.
    pub fn start(config: ServeConfig) -> std::io::Result<Daemon> {
        if config.unix.is_none() && config.tcp.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "serve: need at least one of a unix path or a tcp address",
            ));
        }
        let mut listeners = Vec::new();
        let mut unix_path = None;
        let mut tcp_addr = None;
        if let Some(path) = &config.unix {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            unix_path = Some(path.clone());
            listeners.push(Listener::Unix(l));
        }
        if let Some(addr) = &config.tcp {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            tcp_addr = Some(l.local_addr()?);
            listeners.push(Listener::Tcp(l));
        }
        let writer = match &config.events_path {
            Some(path) => {
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                Some(std::io::BufWriter::new(std::fs::File::create(path)?))
            }
            None => None,
        };
        let cache = config.cache_dir.as_ref().map(ResultCache::new);
        let workers = worker_cap(config.workers);
        let shared = Arc::new(Shared {
            config,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            active: Mutex::new(0),
            active_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            cache,
            pool: Pool::new(workers),
            obs: Mutex::new(ObsState {
                obs: Obs::new(),
                writer,
            }),
        });
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accepts = listeners
            .into_iter()
            .map(|l| {
                let shared = Arc::clone(&shared);
                let conns = Arc::clone(&conns);
                std::thread::spawn(move || accept_loop(shared, l, conns))
            })
            .collect();
        Ok(Daemon {
            shared,
            accepts,
            conns,
            tcp_addr,
            unix_path,
            finished: false,
        })
    }

    /// The bound TCP address (useful with `tcp: "127.0.0.1:0"`).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp_addr
    }

    /// The daemon's live status snapshot (same JSON as a `Status` frame).
    pub fn status(&self) -> Json {
        self.shared.status_json()
    }

    /// Stop admitting sessions; in-flight ones continue.
    pub fn begin_drain(&self) {
        if !self.shared.draining.swap(true, Ordering::SeqCst) {
            let active = *lock(&self.shared.active) as u64;
            self.shared.emit(ObsEvent::ServeDrain { active });
        }
    }

    /// Drain and stop: finish in-flight sessions up to `deadline`,
    /// refuse new ones, drain the pool, flush the event feed.
    pub fn shutdown(mut self, deadline: Duration) -> ServeSummary {
        self.finished = true;
        self.begin_drain();
        let start = Instant::now();

        // Wait for in-flight sessions to finish.
        let unfinished_sessions = {
            let mut active = lock(&self.shared.active);
            while *active > 0 && start.elapsed() < deadline {
                let left = deadline.saturating_sub(start.elapsed());
                let (guard, _) = self
                    .shared
                    .active_cv
                    .wait_timeout(active, left)
                    .unwrap_or_else(|e| e.into_inner());
                active = guard;
            }
            *active
        };

        let pool = self.shared.pool.shutdown(
            deadline
                .saturating_sub(start.elapsed())
                .max(Duration::from_millis(50)),
        );

        // Fail any slots whose jobs were abandoned so no waiter hangs.
        {
            let mut map = lock(&self.shared.inflight);
            for (_, slot) in map.drain() {
                let mut done = lock(&slot.done);
                if done.is_none() {
                    *done = Some(Err(Refusal::new(
                        "draining",
                        "daemon stopped before the simulation ran".to_string(),
                        true,
                    )));
                    slot.cv.notify_all();
                }
            }
        }

        self.shared.stop.store(true, Ordering::SeqCst);
        for h in self.accepts.drain(..) {
            let _ = h.join();
        }
        for h in lock(&self.conns).drain(..) {
            let _ = h.join();
        }
        self.shared.emit(ObsEvent::ServeStop {
            served: self.shared.served.load(Ordering::SeqCst),
            rejected: self.shared.rejected.load(Ordering::SeqCst),
        });
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        ServeSummary {
            served: self.shared.served.load(Ordering::SeqCst),
            rejected: self.shared.rejected.load(Ordering::SeqCst),
            unfinished_sessions,
            pool,
        }
    }

    /// Serve until SIGTERM/SIGINT, then drain with `drain_deadline`.
    pub fn run_until_signal(self, drain_deadline: Duration) -> ServeSummary {
        crate::signal::install_term_latch();
        while !crate::signal::term_requested() {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.shutdown(drain_deadline)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.finished {
            // An abandoned daemon still stops its threads.
            self.shared.stop.store(true, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{submit_bytes, Addr, SubmitOutcome};
    use cachescope_sim::tracefile::{RecordingProgram, TraceFormat};
    use cachescope_sim::{Event, MemRef, ObjectDecl, Program, TraceProgram};

    #[test]
    fn finished_connection_threads_are_reaped() {
        let daemon = Daemon::start(ServeConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = Addr::Tcp(daemon.tcp_addr().unwrap().to_string());
        let events = (0..256)
            .map(|i| Event::Access(MemRef::read(0x1000 + 64 * (i % 64), 8)))
            .collect();
        let objects = vec![ObjectDecl::global("a", 0x1000, 4096)];
        let program = TraceProgram::new("t".to_string(), objects, events);
        let mut rec = RecordingProgram::with_format(program, Vec::new(), TraceFormat::Bin);
        while rec.next_event().is_some() {}
        let trace = rec.into_writer();
        let cfg = SessionConfig {
            technique_spec: "sampling:50".to_string(),
            misses: 1_000,
            counters: 4,
            interval: 25_000_000,
        };
        for _ in 0..8 {
            let outcome = submit_bytes(&addr, &trace, &cfg, 0).unwrap();
            assert!(matches!(outcome, SubmitOutcome::Report(_)));
        }
        // Each accept drops the handles of finished connections: what is
        // left is the last session's and at most one still winding down.
        let held = lock(&daemon.conns).len();
        assert!(held <= 2, "{held} connection handles held after 8 sessions");
        assert_eq!(daemon.shutdown(Duration::from_secs(5)).served, 8);
    }
}
