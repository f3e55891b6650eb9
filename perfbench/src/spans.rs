//! In-memory span recorder and the timing wrappers that feed it.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! [`TimedProgram`] around `Program::next_chunk` (the `workloads` layer),
//! [`TimedHandler`] around every `Handler` callback (the `core` techniques
//! and the `objmap` updates they make), and explicit `begin`/`end` pairs
//! around calls into the other crates. Spans stay in memory and are
//! written as JSONL once, when the run ends. A disabled recorder records
//! nothing and the wrappers are not used at all.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use cachescope_hwpm::Interrupt;
use cachescope_sim::{Addr, EngineCtx, Event, EventChunk, Handler, ObjectDecl, Program};

/// Most spans kept individually; beyond this only the per-name totals grow.
const MAX_SPANS: usize = 400_000;

pub type Shared = Rc<RefCell<Recorder>>;

#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u32,
    /// Enclosing span id, 0 at the root.
    pub parent: u32,
    /// Request id shared by the spans of one operation.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Total {
    count: u64,
    ns: u64,
    child_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    dropped: u64,
    next_id: u32,
    /// Open spans: (id, name, start, child time so far).
    stack: Vec<(u32, &'static str, u64, u64)>,
    trace: u64,
    totals: HashMap<&'static str, Total>,
}

impl Recorder {
    pub fn shared(enabled: bool) -> Shared {
        Rc::new(RefCell::new(Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            next_id: 1,
            stack: Vec::new(),
            trace: 0,
            totals: HashMap::new(),
        }))
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Mark the operation the following spans belong to.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let now = self.now_ns();
        self.stack.push((id, name, now, 0));
    }

    /// Close the innermost open span and return its duration in ns.
    pub fn end(&mut self) -> u64 {
        let Some((id, name, start, child)) = self.stack.pop() else {
            return 0;
        };
        let end = self.now_ns();
        self.close(id, name, start, end, child);
        end - start
    }

    /// Record a finished span as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.close(id, name, start_ns, end_ns, 0);
    }

    /// Record a span timed on another thread, under the given trace id.
    pub fn record_remote(&mut self, name: &'static str, trace: u64, start_ns: u64, end_ns: u64) {
        let saved = self.trace;
        self.trace = trace;
        self.record(name, start_ns, end_ns);
        self.trace = saved;
    }

    fn close(&mut self, id: u32, name: &'static str, start: u64, end: u64, child: u64) {
        let dur = end.saturating_sub(start);
        if let Some(parent) = self.stack.last_mut() {
            parent.3 += dur;
        }
        let parent = self.stack.last().map_or(0, |p| p.0);
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.ns += dur;
        t.child_ns += child;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(SpanRec {
                id,
                parent,
                trace: self.trace,
                name,
                start_ns: start,
                end_ns: end,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Total duration of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.ns)
    }

    /// Duration of `name` spans minus the time their child spans cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.totals
            .get(name)
            .map_or(0, |t| t.ns.saturating_sub(t.child_ns))
    }

    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.count)
    }

    /// Write every kept span as one JSON object per line, plus a final
    /// line with the per-name totals. Returns the number of span lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        let mut names: Vec<_> = self.totals.iter().collect();
        names.sort_by_key(|(n, _)| **n);
        let totals: Vec<String> = names
            .iter()
            .map(|(n, t)| {
                format!(
                    "\"{n}\":{{\"count\":{},\"ns\":{},\"self_ns\":{}}}",
                    t.count,
                    t.ns,
                    t.ns.saturating_sub(t.child_ns)
                )
            })
            .collect();
        writeln!(
            w,
            "{{\"type\":\"totals\",\"dropped\":{},\"spans\":{{{}}}}}",
            self.dropped,
            totals.join(",")
        )?;
        w.flush()?;
        Ok(self.spans.len())
    }
}

/// A `Program` whose `next_chunk` calls are recorded as
/// `workloads.next_chunk` spans.
pub struct TimedProgram<P: Program> {
    pub inner: P,
    rec: Shared,
}

impl<P: Program> TimedProgram<P> {
    pub fn new(inner: P, rec: &Shared) -> Self {
        TimedProgram {
            inner,
            rec: Rc::clone(rec),
        }
    }
}

impl<P: Program> Program for TimedProgram<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.inner.static_objects()
    }

    fn next_event(&mut self) -> Option<Event> {
        self.inner.next_event()
    }

    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        let t0 = self.rec.borrow().now_ns();
        let n = self.inner.next_chunk(buf);
        let mut rec = self.rec.borrow_mut();
        let t1 = rec.now_ns();
        rec.record("workloads.next_chunk", t0, t1);
        n
    }
}

/// A `Handler` whose callbacks are recorded as spans: interrupts as
/// `core.on_interrupt`, allocator events (object-map updates) as
/// `objmap.on_alloc` / `objmap.on_free`, and set-up and tear-down as
/// `core.init_finish`.
pub struct TimedHandler<H: Handler> {
    pub inner: H,
    rec: Shared,
}

impl<H: Handler> TimedHandler<H> {
    pub fn new(inner: H, rec: &Shared) -> Self {
        TimedHandler {
            inner,
            rec: Rc::clone(rec),
        }
    }

    fn timed(&mut self, name: &'static str, f: impl FnOnce(&mut H)) {
        let t0 = self.rec.borrow().now_ns();
        f(&mut self.inner);
        let mut rec = self.rec.borrow_mut();
        let t1 = rec.now_ns();
        rec.record(name, t0, t1);
    }
}

impl<H: Handler> Handler for TimedHandler<H> {
    fn init(&mut self, ctx: &mut EngineCtx) {
        self.timed("core.init_finish", |h| h.init(ctx));
    }

    fn on_interrupt(&mut self, intr: Interrupt, ctx: &mut EngineCtx) {
        self.timed("core.on_interrupt", |h| h.on_interrupt(intr, ctx));
    }

    fn on_alloc(&mut self, base: Addr, size: u64, name: Option<&str>, ctx: &mut EngineCtx) {
        self.timed("objmap.on_alloc", |h| h.on_alloc(base, size, name, ctx));
    }

    fn on_free(&mut self, base: Addr, ctx: &mut EngineCtx) {
        self.timed("objmap.on_free", |h| h.on_free(base, ctx));
    }

    fn on_finish(&mut self, ctx: &mut EngineCtx) {
        self.timed("core.init_finish", |h| h.on_finish(ctx));
    }
}

/// Every handler span name, for summing handler self time.
pub const HANDLER_SPANS: [&str; 4] = [
    "core.init_finish",
    "core.on_interrupt",
    "objmap.on_alloc",
    "objmap.on_free",
];
