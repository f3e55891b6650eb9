//! Reference-trace recording and replay.
//!
//! The paper's substrate is ATOM binary rewriting: instrument once, then
//! feed the reference stream to the simulator. This module provides the
//! equivalent capture/replay workflow: wrap any [`Program`] in a
//! [`RecordingProgram`] to tee its event stream to a writer, and replay
//! the file later with [`TraceReader`] — which is itself a `Program`, so
//! a recorded trace can drive any experiment, bit-identically.
//!
//! Two on-disk formats exist behind the same interfaces, selected by
//! [`TraceFormat`] when recording and auto-detected by magic on replay.
//!
//! **Text (v1)** is line-oriented (deterministic, diffable, no external
//! dependencies):
//!
//! ```text
//! cachescope-trace 1
//! N <program name>
//! O <base-hex> <size> <object name>       (one per static object)
//! A <addr-hex> <size> <R|W>               (memory access)
//! C <cycles>                              (compute block)
//! M <base-hex> <size> [name]              (heap allocation)
//! F <base-hex>                            (heap free)
//! P <id>                                  (phase marker)
//! ```
//!
//! **Binary (v2)** trades diffability for decode speed: after the magic
//! `cstrace2` and a header (program name, static objects), the body is a
//! stream of fixed-width 16-byte little-endian records:
//!
//! ```text
//! Access : [tag=1][kind 0=R/1=W][pad 2][size u32][addr u64]
//! Compute: [tag=2][pad 7]               [cycles u64]
//! Alloc  : [tag=3][has_name][len u16][pad 4][base u64] + size u64 + name
//! Free   : [tag=4][pad 7]               [base u64]
//! Phase  : [tag=5][pad 3][id u32][pad 8]
//! ```
//!
//! Only `Alloc` carries a variable tail (8-byte size + name bytes); the
//! hot record — `Access` — is always one aligned 16-byte word, so replay
//! decodes records in place from the read buffer. One decoder reads the
//! format; [`BinTraceReader`] drives it from a `BufRead` and
//! [`BinStreamDecoder`] from bytes pushed off a socket. Replaying a
//! recorded trace in either format produces results bit-identical to the
//! live program.

use std::io::{self, BufRead, Write};

use crate::memref::{AccessKind, MemRef};
use crate::program::{Event, EventChunk, ObjectDecl, Program};

const MAGIC: &str = "cachescope-trace 1";
const BIN_MAGIC: &[u8; 8] = b"cstrace2";

/// On-disk trace encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Line-oriented text (v1): diffable, the historical default.
    #[default]
    Text,
    /// Fixed-width binary records (v2): compact and fast to replay.
    Bin,
}

/// Serialise one event as a trace line.
fn write_event<W: Write>(w: &mut W, ev: &Event) -> io::Result<()> {
    match ev {
        Event::Access(r) => {
            let kind = match r.kind {
                AccessKind::Read => 'R',
                AccessKind::Write => 'W',
            };
            writeln!(w, "A {:x} {} {}", r.addr, r.size, kind)
        }
        Event::Compute(c) => writeln!(w, "C {c}"),
        Event::Alloc { base, size, name } => match name {
            Some(n) => writeln!(w, "M {base:x} {size} {n}"),
            None => writeln!(w, "M {base:x} {size}"),
        },
        Event::Free { base } => writeln!(w, "F {base:x}"),
        Event::Phase(p) => writeln!(w, "P {p}"),
    }
}

/// Serialise one event as a fixed-width binary record.
fn write_bin_event<W: Write>(w: &mut W, ev: &Event) -> io::Result<()> {
    let mut rec = [0u8; 16];
    match ev {
        Event::Access(r) => {
            rec[0] = 1;
            rec[1] = u8::from(r.kind == AccessKind::Write);
            rec[4..8].copy_from_slice(&r.size.to_le_bytes());
            rec[8..16].copy_from_slice(&r.addr.to_le_bytes());
            w.write_all(&rec)
        }
        Event::Compute(c) => {
            rec[0] = 2;
            rec[8..16].copy_from_slice(&c.to_le_bytes());
            w.write_all(&rec)
        }
        Event::Alloc { base, size, name } => {
            rec[0] = 3;
            rec[1] = u8::from(name.is_some());
            let nb = name.as_deref().unwrap_or("").as_bytes();
            // check:allow(names come from in-repo workloads, far below 64 KiB)
            let len = u16::try_from(nb.len()).expect("alloc name too long for binary trace");
            rec[2..4].copy_from_slice(&len.to_le_bytes());
            rec[8..16].copy_from_slice(&base.to_le_bytes());
            w.write_all(&rec)?;
            w.write_all(&size.to_le_bytes())?;
            w.write_all(nb)
        }
        Event::Free { base } => {
            rec[0] = 4;
            rec[8..16].copy_from_slice(&base.to_le_bytes());
            w.write_all(&rec)
        }
        Event::Phase(p) => {
            rec[0] = 5;
            rec[4..8].copy_from_slice(&p.to_le_bytes());
            w.write_all(&rec)
        }
    }
}

/// Wraps a program and tees every event it produces to a writer.
pub struct RecordingProgram<P: Program, W: Write> {
    inner: P,
    out: W,
    format: TraceFormat,
    header_written: bool,
}

impl<P: Program, W: Write> RecordingProgram<P, W> {
    /// Record in the historical text format.
    pub fn new(inner: P, out: W) -> Self {
        Self::with_format(inner, out, TraceFormat::Text)
    }

    /// Record in the given on-disk format.
    pub fn with_format(inner: P, out: W, format: TraceFormat) -> Self {
        RecordingProgram {
            inner,
            out,
            format,
            header_written: false,
        }
    }

    /// Finish recording and recover the writer.
    pub fn into_writer(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    fn write_header(&mut self) {
        let mut emit = || -> io::Result<()> {
            match self.format {
                TraceFormat::Text => {
                    writeln!(self.out, "{MAGIC}")?;
                    writeln!(self.out, "N {}", self.inner.name())?;
                    for o in self.inner.static_objects() {
                        writeln!(self.out, "O {:x} {} {}", o.base, o.size, o.name)?;
                    }
                }
                TraceFormat::Bin => {
                    self.out.write_all(BIN_MAGIC)?;
                    let nb = self.inner.name().as_bytes().to_vec();
                    // check:allow(names come from in-repo workloads, far below 64 KiB)
                    let len = u16::try_from(nb.len()).expect("program name too long");
                    self.out.write_all(&len.to_le_bytes())?;
                    self.out.write_all(&nb)?;
                    let objects = self.inner.static_objects();
                    // check:allow(object counts are bounded by workload size, far below u32::MAX)
                    let count = u32::try_from(objects.len()).expect("too many objects");
                    self.out.write_all(&count.to_le_bytes())?;
                    for o in objects {
                        self.out.write_all(&o.base.to_le_bytes())?;
                        self.out.write_all(&o.size.to_le_bytes())?;
                        let ob = o.name.as_bytes();
                        // check:allow(names come from in-repo workloads, far below 64 KiB)
                        let ol = u16::try_from(ob.len()).expect("object name too long");
                        self.out.write_all(&ol.to_le_bytes())?;
                        self.out.write_all(ob)?;
                    }
                }
            }
            Ok(())
        };
        // check:allow(recording sinks are in-memory or local files; the Program trait is infallible)
        emit().expect("trace header write failed");
        self.header_written = true;
    }

    fn write_one(&mut self, ev: &Event) {
        match self.format {
            TraceFormat::Text => write_event(&mut self.out, ev),
            TraceFormat::Bin => write_bin_event(&mut self.out, ev),
        }
        // check:allow(recording sinks are in-memory or local files; the Program trait is infallible)
        .expect("trace event write failed");
    }
}

impl<P: Program, W: Write> Program for RecordingProgram<P, W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.inner.static_objects()
    }

    fn next_event(&mut self) -> Option<Event> {
        if !self.header_written {
            self.write_header();
        }
        let ev = self.inner.next_event()?;
        self.write_one(&ev);
        Some(ev)
    }

    /// Chunked recording: pull a chunk from the wrapped program, then
    /// serialise it in flattened (original) event order. Keeps recorded
    /// runs on the inner program's native chunk path.
    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        if !self.header_written {
            self.write_header();
        }
        let n = self.inner.next_chunk(buf);
        for ev in buf.to_events() {
            self.write_one(&ev);
        }
        n
    }
}

/// Streams a recorded text (v1) trace back as a [`Program`].
///
/// [`TraceReader::new`] parses the whole header — magic, name and the
/// contiguous `O` lines — so [`Program::static_objects`] is complete
/// before the first event is pulled. Body errors never panic:
/// [`TraceReader::try_next_event`] returns them typed, and the
/// infallible [`Program::next_event`] path stashes the first error
/// (readable via [`TraceReader::error`]) and reports end-of-program.
pub struct TraceReader<R: BufRead> {
    name: String,
    objects: Vec<ObjectDecl>,
    lines: io::Lines<R>,
    /// The first body line, read while looking for the header's end.
    pending: Option<String>,
    line_no: usize,
    error: Option<TraceError>,
}

/// What class of trace defect a [`TraceError`] reports. Stable across
/// formats so tooling (the `check` subsystem's trace verifier) can map
/// reader failures to diagnostic codes without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The input does not start with a known trace magic.
    BadMagic,
    /// The header (name, static objects) ended mid-field.
    TruncatedHeader,
    /// A body record ended mid-field (torn 16-byte word, missing alloc
    /// tail, line cut mid-token).
    TruncatedRecord,
    /// A body record decoded but its contents are not legal (unknown
    /// tag, unparsable field, bad UTF-8 name).
    MalformedRecord,
    /// The underlying reader failed.
    Io,
}

impl TraceErrorKind {
    /// Short human tag (`bad_magic`, `truncated_record`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceErrorKind::BadMagic => "bad_magic",
            TraceErrorKind::TruncatedHeader => "truncated_header",
            TraceErrorKind::TruncatedRecord => "truncated_record",
            TraceErrorKind::MalformedRecord => "malformed_record",
            TraceErrorKind::Io => "io",
        }
    }
}

/// A malformed or truncated trace. `line` is 1-based for the text
/// format and 0 for binary traces, whose messages end with the byte
/// offset of the header or record at fault instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    pub line: usize,
    pub kind: TraceErrorKind,
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "trace: {}", self.message)
        }
    }
}

impl std::error::Error for TraceError {}

impl<R: BufRead> TraceReader<R> {
    /// Parse the header (magic, name, static objects); the body streams
    /// lazily through [`Program::next_event`].
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut tr = TraceReader {
            name: String::new(),
            objects: Vec::new(),
            lines: reader.lines(),
            pending: None,
            line_no: 0,
            error: None,
        };
        let magic = tr.next_line()?.unwrap_or_default();
        if magic != MAGIC {
            return Err(TraceError {
                line: 1,
                kind: TraceErrorKind::BadMagic,
                message: format!("bad magic {magic:?}"),
            });
        }
        let name_line = tr.next_line()?.unwrap_or_default();
        tr.name = name_line
            .strip_prefix("N ")
            .ok_or(TraceError {
                line: tr.line_no,
                kind: TraceErrorKind::TruncatedHeader,
                message: "expected program name (N ...)".into(),
            })?
            .to_string();
        // Static objects are the contiguous `O` lines after the name; the
        // first body line is held back for the first pull.
        while let Some(line) = tr.next_line()? {
            let Some(rest) = line.strip_prefix("O ") else {
                tr.line_no -= 1;
                tr.pending = Some(line);
                break;
            };
            let err = |m: String| TraceError {
                line: tr.line_no,
                kind: TraceErrorKind::MalformedRecord,
                message: m,
            };
            let mut p = rest.splitn(3, ' ');
            let base = u64::from_str_radix(p.next().unwrap_or(""), 16)
                .map_err(|e| err(format!("bad object base: {e}")))?;
            let size: u64 = p
                .next()
                .unwrap_or("")
                .parse()
                .map_err(|e| err(format!("bad object size: {e}")))?;
            let name = p.next().unwrap_or("").to_string();
            tr.objects.push(ObjectDecl::global(name, base, size));
        }
        Ok(tr)
    }

    /// The first body error encountered, if the stream ended on one.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Take the stashed body error (leaving the reader error-free).
    pub fn take_error(&mut self) -> Option<TraceError> {
        self.error.take()
    }

    /// 1-based number of the last line consumed.
    pub fn line(&self) -> usize {
        self.line_no
    }

    fn next_line(&mut self) -> Result<Option<String>, TraceError> {
        self.line_no += 1;
        match self.pending.take().map(Ok).or_else(|| self.lines.next()) {
            None => Ok(None),
            Some(Ok(l)) => Ok(Some(l)),
            Some(Err(e)) => Err(TraceError {
                line: self.line_no,
                kind: TraceErrorKind::Io,
                message: e.to_string(),
            }),
        }
    }

    /// Fallible event pull: `Ok(None)` at clean end-of-trace, `Err` on a
    /// malformed line or I/O failure. Unlike [`Program::next_event`] this
    /// surfaces the error instead of stashing it.
    pub fn try_next_event(&mut self) -> Result<Option<Event>, TraceError> {
        while let Some(line) = self.next_line()? {
            if let Some(ev) = Self::parse_event(&line, self.line_no)? {
                return Ok(Some(ev));
            }
        }
        Ok(None)
    }

    fn parse_event(line: &str, line_no: usize) -> Result<Option<Event>, TraceError> {
        let err = |m: String| TraceError {
            line: line_no,
            kind: TraceErrorKind::MalformedRecord,
            message: m,
        };
        let mut parts = line.split_whitespace();
        let Some(tag) = parts.next() else {
            return Ok(None); // blank line
        };
        let ev = match tag {
            "A" => {
                let addr = u64::from_str_radix(
                    parts.next().ok_or_else(|| err("A: missing addr".into()))?,
                    16,
                )
                .map_err(|e| err(format!("A: bad addr: {e}")))?;
                let size: u32 = parts
                    .next()
                    .ok_or_else(|| err("A: missing size".into()))?
                    .parse()
                    .map_err(|e| err(format!("A: bad size: {e}")))?;
                let kind = match parts.next() {
                    Some("R") => AccessKind::Read,
                    Some("W") => AccessKind::Write,
                    other => return Err(err(format!("A: bad kind {other:?}"))),
                };
                Event::Access(MemRef { addr, size, kind })
            }
            "C" => Event::Compute(
                parts
                    .next()
                    .ok_or_else(|| err("C: missing cycles".into()))?
                    .parse()
                    .map_err(|e| err(format!("C: bad cycles: {e}")))?,
            ),
            "M" => {
                let base = u64::from_str_radix(
                    parts.next().ok_or_else(|| err("M: missing base".into()))?,
                    16,
                )
                .map_err(|e| err(format!("M: bad base: {e}")))?;
                let size: u64 = parts
                    .next()
                    .ok_or_else(|| err("M: missing size".into()))?
                    .parse()
                    .map_err(|e| err(format!("M: bad size: {e}")))?;
                let rest: Vec<&str> = parts.collect();
                let name = if rest.is_empty() {
                    None
                } else {
                    Some(rest.join(" "))
                };
                Event::Alloc { base, size, name }
            }
            "F" => Event::Free {
                base: u64::from_str_radix(
                    parts.next().ok_or_else(|| err("F: missing base".into()))?,
                    16,
                )
                .map_err(|e| err(format!("F: bad base: {e}")))?,
            },
            "P" => Event::Phase(
                parts
                    .next()
                    .ok_or_else(|| err("P: missing id".into()))?
                    .parse()
                    .map_err(|e| err(format!("P: bad id: {e}")))?,
            ),
            "O" => return Err(err("O: static object after the body began".into())),
            other => return Err(err(format!("unknown tag {other:?}"))),
        };
        Ok(Some(ev))
    }
}

impl<R: BufRead> Program for TraceReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.objects.clone()
    }

    fn next_event(&mut self) -> Option<Event> {
        if self.error.is_some() {
            return None;
        }
        match self.try_next_event() {
            Ok(ev) => ev,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

// --- The binary (v2) decoder ----------------------------------------------
//
// `decode_bin_header` and `decode_bin_record` are the only code that
// reads cstrace2 bytes. They work on a byte slice and never do I/O. Two
// drivers feed them: `BinTraceReader` decodes in place from a `BufRead`'s
// buffer (files, `--replay`, `check --trace`), and `BinStreamDecoder`
// from bytes pushed as they arrive (the serve daemon's sockets).

/// One decode step over a byte slice. `Ok(Some((value, len)))`: the
/// item decoded from the first `len` bytes. `Ok(None)`: the slice ends
/// inside the item, so more bytes are needed. A step looks at no byte
/// past its item, and an error found on a prefix is the error for every
/// longer input, so the result never depends on how the stream was split.
type Decoded<T> = Result<Option<(T, usize)>, TraceError>;

/// The fewest bytes a static object's header entry can take: base,
/// size and name length.
const MIN_OBJECT_BYTES: usize = 18;

/// Build a binary-trace error (binary errors report byte offsets, so
/// `line` is always 0).
fn bin_err(kind: TraceErrorKind, offset: u64, m: String) -> TraceError {
    TraceError {
        line: 0,
        kind,
        message: format!("{m} (byte offset {offset})"),
    }
}

/// The error for a stream that ends `left` bytes into the header, or
/// into the record at `offset`.
fn bin_truncated(offset: u64, left: usize, in_header: bool) -> TraceError {
    let (kind, place) = match in_header {
        true => (TraceErrorKind::TruncatedHeader, "inside the header"),
        false => (TraceErrorKind::TruncatedRecord, "mid-record"),
    };
    let m = format!("stream ended {place} ({left} trailing bytes)");
    bin_err(kind, offset, m)
}

/// The fixed-width field at `*at`, if `b` holds it; advances `*at`.
fn take_n<const N: usize>(b: &[u8], at: &mut usize) -> Option<[u8; N]> {
    let s = *b.get(*at..)?.first_chunk::<N>()?;
    *at += N;
    Some(s)
}

/// A u16-length-prefixed UTF-8 string of the header.
fn take_str(b: &[u8], at: &mut usize) -> Result<Option<String>, TraceError> {
    let Some(len) = take_n(b, at).map(u16::from_le_bytes) else {
        return Ok(None);
    };
    let Some(s) = b.get(*at..*at + usize::from(len)) else {
        return Ok(None);
    };
    *at += s.len();
    String::from_utf8(s.to_vec()).map(Some).map_err(|e| {
        let m = format!("bad utf-8 header string: {e}");
        bin_err(TraceErrorKind::MalformedRecord, *at as u64, m)
    })
}

/// Decode the header (magic, program name, static objects) at the front
/// of `b`. The header always starts the stream, so `_offset` is 0; it is
/// taken only to share [`pull`] with [`decode_bin_record`].
fn decode_bin_header(b: &[u8], _offset: u64) -> Decoded<(String, Vec<ObjectDecl>)> {
    // A prefix that already disagrees with the magic need not wait for
    // all eight bytes.
    if let Some(i) = b.iter().zip(BIN_MAGIC).position(|(x, m)| x != m) {
        let m = format!("bad magic {:?}", &b[..=i]);
        return Err(bin_err(TraceErrorKind::BadMagic, 0, m));
    }
    let mut at = BIN_MAGIC.len();
    let Some(name) = take_str(b, &mut at)? else {
        return Ok(None);
    };
    let Some(count) = take_n(b, &mut at).map(u32::from_le_bytes) else {
        return Ok(None);
    };
    // Reserve no more objects than the bytes at hand can hold: the count
    // comes from the input and may be hostile.
    let fit = b.len().saturating_sub(at) / MIN_OBJECT_BYTES;
    let mut objects = Vec::with_capacity(fit.min(count as usize));
    for _ in 0..count {
        let (Some(base), Some(size)) = (take_n(b, &mut at), take_n(b, &mut at)) else {
            return Ok(None);
        };
        let Some(oname) = take_str(b, &mut at)? else {
            return Ok(None);
        };
        let (base, size) = (u64::from_le_bytes(base), u64::from_le_bytes(size));
        objects.push(ObjectDecl::global(oname, base, size));
    }
    Ok(Some(((name, objects), at)))
}

/// Decode the body record at the front of `b`, which starts at stream
/// byte `offset` (errors report that offset).
#[inline]
fn decode_bin_record(b: &[u8], offset: u64) -> Decoded<Event> {
    let Some(&[tag, flag, n0, n1, m0, m1, m2, m3, word @ ..]) = b.first_chunk::<16>() else {
        return Ok(None);
    };
    let mid = u32::from_le_bytes([m0, m1, m2, m3]);
    let word = u64::from_le_bytes(word);
    let ev = match tag {
        1 if flag != 0 => Event::Access(MemRef::write(word, mid)),
        1 => Event::Access(MemRef::read(word, mid)),
        2 => Event::Compute(word),
        3 => {
            let len = 24 + usize::from(u16::from_le_bytes([n0, n1]));
            let Some((size, name)) = b.get(16..len).and_then(<[u8]>::split_first_chunk::<8>) else {
                return Ok(None);
            };
            let name = match flag {
                0 => None,
                _ => Some(String::from_utf8(name.to_vec()).map_err(|e| {
                    let m = format!("bad utf-8 alloc name: {e}");
                    bin_err(TraceErrorKind::MalformedRecord, offset, m)
                })?),
            };
            let size = u64::from_le_bytes(*size);
            let alloc = Event::Alloc {
                base: word,
                size,
                name,
            };
            return Ok(Some((alloc, len)));
        }
        4 => Event::Free { base: word },
        5 => Event::Phase(mid),
        t => {
            let m = format!("unknown record tag {t}");
            return Err(bin_err(TraceErrorKind::MalformedRecord, offset, m));
        }
    };
    Ok(Some((ev, 16)))
}

/// Decode items at stream `*offset` from `reader` with `decode`, handing
/// each to `sink` until it returns `false` or the stream ends. Complete
/// items decode in place from the read buffer. The bytes of one that
/// straddles the buffer's edge are copied into `carry`, which grows by
/// at most its own length per refill, so the copy stays within twice the
/// item. At the end of the stream, a partial item's bytes are left in
/// `carry`.
fn pull<R: BufRead, T>(
    reader: &mut R,
    carry: &mut Vec<u8>,
    offset: &mut u64,
    decode: impl Fn(&[u8], u64) -> Decoded<T>,
    mut sink: impl FnMut(T) -> bool,
) -> Result<(), TraceError> {
    loop {
        let avail = reader
            .fill_buf()
            .map_err(|e| bin_err(TraceErrorKind::Io, *offset, format!("read error: {e}")))?;
        if avail.is_empty() {
            return Ok(());
        }
        // Decode in place from the read buffer, or, while an item
        // straddles its edge, from `carry` grown by the next bytes.
        let held = carry.len();
        if held > 0 {
            carry.extend_from_slice(&avail[..avail.len().min(held.max(16))]);
        }
        let bytes = if held > 0 { &carry[..] } else { avail };
        let (mut used, mut more) = (0, true);
        while more && (held == 0 || used == 0) {
            let Some((item, len)) = decode(&bytes[used..], *offset + used as u64)? else {
                break;
            };
            used += len;
            more = sink(item);
        }
        *offset += used as u64;
        let took = match (held, used) {
            (0, _) if more => {
                carry.extend_from_slice(&avail[used..]);
                avail.len()
            }
            (0, _) => used,
            (_, 0) => carry.len() - held,
            _ => {
                carry.clear();
                used - held
            }
        };
        reader.consume(took);
        if !more {
            return Ok(());
        }
    }
}

/// The `BufRead` driver: streams a binary (v2) trace back as a
/// [`Program`].
///
/// The header is parsed eagerly; body records decode lazily, in place
/// from the reader's buffer. Only a header or record that straddles the
/// buffer's edge is copied, so replaying an in-memory trace copies
/// nothing, and [`Program::next_chunk`] decodes straight into the chunk.
pub struct BinTraceReader<R: BufRead> {
    name: String,
    objects: Vec<ObjectDecl>,
    reader: R,
    /// The bytes of a record that straddles the read buffer's edge.
    carry: Vec<u8>,
    /// Stream offset of the first byte not yet decoded.
    offset: u64,
    error: Option<TraceError>,
}

impl<R: BufRead> BinTraceReader<R> {
    /// Parse the binary header; fails on a bad magic or truncated header.
    pub fn new(mut reader: R) -> Result<Self, TraceError> {
        let (mut carry, mut offset, mut header) = (Vec::new(), 0, None);
        let keep = |h| {
            header = Some(h);
            false
        };
        pull(
            &mut reader,
            &mut carry,
            &mut offset,
            decode_bin_header,
            keep,
        )?;
        let Some((name, objects)) = header else {
            return Err(bin_truncated(0, carry.len(), true));
        };
        Ok(BinTraceReader {
            name,
            objects,
            reader,
            carry,
            offset,
            error: None,
        })
    }

    /// The first body error encountered, if the stream ended on one.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Take the stashed body error (leaving the reader error-free).
    pub fn take_error(&mut self) -> Option<TraceError> {
        self.error.take()
    }

    /// Hand decoded records to `sink` until it returns `false`, the
    /// stream ends, or an error is stashed. A stream that ends
    /// mid-record is a [`TraceErrorKind::TruncatedRecord`] error, not a
    /// clean end.
    fn drive(&mut self, sink: impl FnMut(Event) -> bool) {
        if self.error.is_some() {
            return;
        }
        let (carry, offset) = (&mut self.carry, &mut self.offset);
        let end = pull(&mut self.reader, carry, offset, decode_bin_record, sink);
        self.error = match end {
            Err(e) => Some(e),
            // The sink only stops on a record boundary: leftover bytes
            // mean the stream ended mid-record.
            Ok(()) if !carry.is_empty() => Some(bin_truncated(*offset, carry.len(), false)),
            Ok(()) => None,
        };
    }
}

impl<R: BufRead> Program for BinTraceReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.objects.clone()
    }

    /// Stashes the first error (readable via [`BinTraceReader::error`])
    /// and reports end-of-program.
    fn next_event(&mut self) -> Option<Event> {
        let mut next = None;
        self.drive(|ev| {
            next = Some(ev);
            false
        });
        next
    }

    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        if !buf.is_full() {
            self.drive(|ev| {
                buf.push_event(ev);
                !buf.is_full()
            });
        }
        buf.len()
    }
}

/// The push driver: decodes a binary (v2) trace from bytes handed to it
/// as they arrive, for sockets, where a record routinely arrives split
/// across reads and "no bytes yet" is not end-of-stream.
///
/// Callers [`push`](Self::push) whatever the transport delivered (any
/// slicing, down to one byte at a time) and drain complete events with
/// [`next_event`](Self::next_event), which returns `Ok(None)` when the
/// buffered bytes end mid-record; decoding resumes there on the next
/// push. Only [`finish`](Self::finish) turns a dangling partial header
/// or record into a `TruncatedHeader` / `TruncatedRecord` error. The
/// serve daemon's ingest is the primary user; it shares its decoder with
/// [`BinTraceReader`], so a stream accepted here replays identically
/// from disk and a refused one fails there with the same error.
#[derive(Debug, Default)]
pub struct BinStreamDecoder {
    buf: Vec<u8>,
    /// Read position within `buf` (consumed bytes are compacted away
    /// periodically, not on every event).
    pos: usize,
    /// Total bytes consumed off the front of the stream so far.
    consumed: u64,
    /// Header fields, once fully parsed.
    header: Option<(String, Vec<ObjectDecl>)>,
    error: Option<TraceError>,
}

impl BinStreamDecoder {
    pub fn new() -> Self {
        BinStreamDecoder::default()
    }

    /// Append newly-arrived stream bytes. Accepts any slicing.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates the buffer.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Program name and static objects, once the header has decoded.
    pub fn header(&self) -> Option<(&str, &[ObjectDecl])> {
        self.header
            .as_ref()
            .map(|(n, o)| (n.as_str(), o.as_slice()))
    }

    /// Total bytes consumed (header plus completed records).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The first decode error encountered, if any. Once set, the decoder
    /// is stuck: further pushes are ignored by `next_event`.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Decode the next complete event, if the buffer holds one.
    /// `Ok(None)` means "need more bytes" — never an error; a stream cut
    /// mid-record only errors through [`finish`](Self::finish).
    pub fn next_event(&mut self) -> Result<Option<Event>, TraceError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let step = self.step();
        if let Err(e) = &step {
            self.error = Some(e.clone());
        }
        step
    }

    fn step(&mut self) -> Result<Option<Event>, TraceError> {
        if self.header.is_none() {
            let Some((header, len)) = decode_bin_header(&self.buf[self.pos..], 0)? else {
                return Ok(None);
            };
            self.header = Some(header);
            self.advance(len);
        }
        let Some((ev, len)) = decode_bin_record(&self.buf[self.pos..], self.consumed)? else {
            return Ok(None);
        };
        self.advance(len);
        Ok(Some(ev))
    }

    fn advance(&mut self, len: usize) {
        self.pos += len;
        self.consumed += len as u64;
    }

    /// Declare end-of-stream. Clean only when no partial record (or
    /// partial header) is left dangling in the buffer.
    pub fn finish(&self) -> Result<(), TraceError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let left = self.buf.len() - self.pos;
        if left == 0 && self.header.is_some() {
            return Ok(());
        }
        Err(bin_truncated(self.consumed, left, self.header.is_none()))
    }
}

/// A trace reader for either on-disk format, detected by magic.
pub enum AnyTraceReader<R: BufRead> {
    Text(TraceReader<R>),
    Bin(BinTraceReader<R>),
}

impl<R: BufRead> AnyTraceReader<R> {
    /// Sniff the magic without consuming input and open the matching
    /// reader.
    pub fn open(mut reader: R) -> Result<Self, TraceError> {
        let is_bin = reader
            .fill_buf()
            .map_err(|e| TraceError {
                line: 0,
                kind: TraceErrorKind::Io,
                message: format!("trace read error: {e}"),
            })?
            .starts_with(BIN_MAGIC);
        if is_bin {
            Ok(AnyTraceReader::Bin(BinTraceReader::new(reader)?))
        } else {
            Ok(AnyTraceReader::Text(TraceReader::new(reader)?))
        }
    }

    /// The first body error encountered, if the stream ended on one.
    pub fn error(&self) -> Option<&TraceError> {
        match self {
            AnyTraceReader::Text(t) => t.error(),
            AnyTraceReader::Bin(b) => b.error(),
        }
    }

    /// Take the stashed body error (leaving the reader error-free).
    pub fn take_error(&mut self) -> Option<TraceError> {
        match self {
            AnyTraceReader::Text(t) => t.take_error(),
            AnyTraceReader::Bin(b) => b.take_error(),
        }
    }
}

impl<R: BufRead> Program for AnyTraceReader<R> {
    fn name(&self) -> &str {
        match self {
            AnyTraceReader::Text(t) => t.name(),
            AnyTraceReader::Bin(b) => b.name(),
        }
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        match self {
            AnyTraceReader::Text(t) => t.static_objects(),
            AnyTraceReader::Bin(b) => b.static_objects(),
        }
    }

    fn next_event(&mut self) -> Option<Event> {
        match self {
            AnyTraceReader::Text(t) => t.next_event(),
            AnyTraceReader::Bin(b) => b.next_event(),
        }
    }

    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        match self {
            AnyTraceReader::Text(t) => t.next_chunk(buf),
            AnyTraceReader::Bin(b) => b.next_chunk(buf),
        }
    }
}

/// Materialise an entire trace (either format, detected by magic) into a
/// [`crate::program::TraceProgram`] (objects and events fully parsed up
/// front). Use for small traces and tests; use [`TraceReader`] /
/// [`BinTraceReader`] (or [`AnyTraceReader`]) to stream large ones.
pub fn load_eager<R: BufRead>(reader: R) -> Result<crate::program::TraceProgram, TraceError> {
    let mut tr = AnyTraceReader::open(reader)?;
    let mut events = Vec::new();
    match &mut tr {
        AnyTraceReader::Text(t) => events.extend(std::iter::from_fn(|| t.next_event())),
        AnyTraceReader::Bin(b) => b.drive(|ev| {
            events.push(ev);
            true
        }),
    }
    // The infallible Program pull stashes body errors; surface them.
    if let Some(e) = tr.take_error() {
        return Err(e);
    }
    Ok(crate::program::TraceProgram::new(
        tr.name().to_string(),
        tr.static_objects(),
        events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::{Engine, NullHandler, RunLimit};
    use crate::program::TraceProgram;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Phase(0),
            Event::Compute(100),
            Event::Access(MemRef::read(0x1000_0000, 8)),
            Event::Access(MemRef::write(0x1000_0040, 4)),
            Event::Alloc {
                base: 0x1_4100_0000,
                size: 4096,
                name: Some("tree node".into()),
            },
            Event::Access(MemRef::read(0x1_4100_0080, 8)),
            Event::Alloc {
                base: 0x1_4200_0000,
                size: 64,
                name: None,
            },
            Event::Free {
                base: 0x1_4100_0000,
            },
            Event::Compute(7),
        ]
    }

    fn sample_program() -> TraceProgram {
        TraceProgram::new(
            "roundtrip",
            vec![
                ObjectDecl::global("A", 0x1000_0000, 64),
                ObjectDecl::global("B C", 0x1000_0040, 64),
            ],
            sample_events(),
        )
    }

    fn record_to_string(p: impl Program) -> String {
        let mut rec = RecordingProgram::new(p, Vec::new());
        while rec.next_event().is_some() {}
        String::from_utf8(rec.into_writer()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let text = record_to_string(sample_program());
        assert!(text.starts_with(MAGIC));
        let replayed = load_eager(text.as_bytes()).expect("parse");
        assert_eq!(replayed.name(), "roundtrip");
        assert_eq!(replayed.static_objects(), sample_program().static_objects());
        let mut a = replayed;
        let mut b = TraceProgram::new("x", vec![], sample_events());
        loop {
            let ea = a.next_event();
            let eb = b.next_event();
            assert_eq!(ea, eb);
            if ea.is_none() {
                break;
            }
        }
    }

    #[test]
    fn replay_produces_identical_simulation_results() {
        let text = record_to_string(sample_program());
        let mut original = sample_program();
        let mut replayed = load_eager(text.as_bytes()).unwrap();
        let s1 = Engine::new(SimConfig::default()).run(
            &mut original,
            &mut NullHandler,
            RunLimit::Exhausted,
        );
        let s2 = Engine::new(SimConfig::default()).run(
            &mut replayed,
            &mut NullHandler,
            RunLimit::Exhausted,
        );
        assert_eq!(s1.app, s2.app);
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.unmapped_misses, s2.unmapped_misses);
        assert_eq!(s1.objects.len(), s2.objects.len());
        for (a, b) in s1.objects.iter().zip(&s2.objects) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.misses, b.misses);
        }
    }

    #[test]
    fn names_with_spaces_survive() {
        let text = record_to_string(sample_program());
        let replayed = load_eager(text.as_bytes()).unwrap();
        assert!(replayed.static_objects().iter().any(|o| o.name == "B C"));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = load_eager("not a trace\n".as_bytes()).unwrap_err();
        assert!(err.message.contains("bad magic"), "{err}");
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let text = format!("{MAGIC}\nN x\nA zz 8 R\n");
        let err = load_eager(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::MalformedRecord);
        assert_eq!(err.line, 3, "error names the offending line");
        assert!(err.message.contains("bad addr"), "{err}");
    }

    #[test]
    fn streaming_reader_stashes_body_errors() {
        let text = format!("{MAGIC}\nN x\nC 5\nQ bogus\nC 6\n");
        let mut tr = TraceReader::new(text.as_bytes()).unwrap();
        assert_eq!(tr.next_event(), Some(Event::Compute(5)));
        assert_eq!(tr.next_event(), None, "stream stops at the bad line");
        assert_eq!(tr.next_event(), None, "and stays stopped");
        let err = tr.take_error().expect("error was stashed");
        assert_eq!(err.kind, TraceErrorKind::MalformedRecord);
        assert_eq!(err.line, 4);
    }

    #[test]
    fn object_line_after_the_body_began_is_malformed() {
        let text = format!("{MAGIC}\nN x\nO 10 8 a\nC 5\nO 20 8 b\n");
        let mut tr = TraceReader::new(text.as_bytes()).unwrap();
        assert_eq!(tr.static_objects().len(), 1);
        assert_eq!(tr.next_event(), Some(Event::Compute(5)));
        assert_eq!(
            tr.line(),
            4,
            "the held-back first body line keeps its number"
        );
        assert_eq!(tr.next_event(), None);
        let err = tr.take_error().expect("error was stashed");
        assert_eq!(err.kind, TraceErrorKind::MalformedRecord);
        assert_eq!(err.line, 5);
    }

    #[test]
    fn bin_torn_record_is_a_typed_error_not_eof() {
        let bin = record_to_bin(sample_program());
        // Cut the final record in half: the old reader treated this as a
        // clean EOF and silently dropped the data.
        let torn = &bin[..bin.len() - 8];
        let err = load_eager(torn).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::TruncatedRecord);
        assert!(err.message.contains("mid-record"), "{err}");
    }

    #[test]
    fn streaming_reader_works_without_eager_load() {
        let text = record_to_string(sample_program());
        let mut tr = TraceReader::new(text.as_bytes()).unwrap();
        assert_eq!(
            tr.static_objects().len(),
            2,
            "objects parsed with the header"
        );
        let mut count = 0;
        while tr.next_event().is_some() {
            count += 1;
        }
        assert_eq!(count, sample_events().len());
    }

    fn record_to_bin(p: impl Program) -> Vec<u8> {
        let mut rec = RecordingProgram::with_format(p, Vec::new(), TraceFormat::Bin);
        while rec.next_event().is_some() {}
        rec.into_writer()
    }

    #[test]
    fn bin_roundtrip_preserves_everything() {
        let bin = record_to_bin(sample_program());
        assert!(bin.starts_with(BIN_MAGIC));
        let mut replayed = BinTraceReader::new(&bin[..]).expect("parse header");
        assert_eq!(replayed.name(), "roundtrip");
        assert_eq!(replayed.static_objects(), sample_program().static_objects());
        let mut b = TraceProgram::new("x", vec![], sample_events());
        loop {
            let ea = replayed.next_event();
            let eb = b.next_event();
            assert_eq!(ea, eb);
            if ea.is_none() {
                break;
            }
        }
    }

    #[test]
    fn bin_and_text_replays_match_the_live_run_exactly() {
        let text = record_to_string(sample_program());
        let bin = record_to_bin(sample_program());
        let run = |p: &mut dyn Program| {
            Engine::new(SimConfig::default()).run(p, &mut NullHandler, RunLimit::Exhausted)
        };
        let live = run(&mut sample_program());
        let from_text = run(&mut load_eager(text.as_bytes()).unwrap());
        let from_bin = run(&mut load_eager(&bin[..]).unwrap());
        for replay in [&from_text, &from_bin] {
            assert_eq!(live.app, replay.app);
            assert_eq!(live.cycles, replay.cycles);
            assert_eq!(live.unmapped_misses, replay.unmapped_misses);
            assert_eq!(live.objects.len(), replay.objects.len());
            for (a, b) in live.objects.iter().zip(&replay.objects) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.misses, b.misses);
            }
        }
    }

    #[test]
    fn auto_detect_opens_both_formats() {
        let text = record_to_string(sample_program());
        let bin = record_to_bin(sample_program());
        assert!(matches!(
            AnyTraceReader::open(text.as_bytes()).unwrap(),
            AnyTraceReader::Text(_)
        ));
        assert!(matches!(
            AnyTraceReader::open(&bin[..]).unwrap(),
            AnyTraceReader::Bin(_)
        ));
    }

    /// A `BufRead` that reveals the underlying bytes at most `step` at a
    /// time: models a socket delivering a record split across reads.
    struct Dribble<'a> {
        data: &'a [u8],
        at: usize,
        step: usize,
    }

    impl std::io::Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len() - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    impl BufRead for Dribble<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            let n = self.step.min(self.data.len() - self.at);
            Ok(&self.data[self.at..self.at + n])
        }
        fn consume(&mut self, amt: usize) {
            self.at += amt;
        }
    }

    #[test]
    fn reader_resumes_across_split_reads() {
        // Every record boundary lands mid-read for steps 1..=3: the
        // reader must resume, never mistake a short read for a torn
        // record. Both the event path and the chunked path are checked.
        let bin = record_to_bin(sample_program());
        let want = sample_events();
        for step in 1..=3usize {
            let mut tr = BinTraceReader::new(Dribble {
                data: &bin,
                at: 0,
                step,
            })
            .expect("header survives split reads");
            assert_eq!(tr.static_objects().len(), 2);
            let mut got = Vec::new();
            while let Some(ev) = tr.next_event() {
                got.push(ev);
            }
            assert!(tr.error().is_none(), "step {step}: {:?}", tr.error());
            assert_eq!(got, want, "step {step}");

            let mut tr = BinTraceReader::new(Dribble {
                data: &bin,
                at: 0,
                step,
            })
            .unwrap();
            let mut chunked = Vec::new();
            let mut chunk = crate::program::EventChunk::with_capacity(4);
            loop {
                chunk.reset();
                if tr.next_chunk(&mut chunk) == 0 {
                    break;
                }
                chunked.extend(chunk.to_events());
            }
            assert!(
                tr.error().is_none(),
                "chunked step {step}: {:?}",
                tr.error()
            );
            assert_eq!(chunked, want, "chunked step {step}");
        }
    }

    #[test]
    fn stream_decoder_handles_one_to_three_bytes_at_a_time() {
        let bin = record_to_bin(sample_program());
        let want = sample_events();
        for step in 1..=3usize {
            let mut dec = BinStreamDecoder::new();
            let mut got = Vec::new();
            for piece in bin.chunks(step) {
                dec.push(piece);
                while let Some(ev) = dec.next_event().expect("clean trace") {
                    got.push(ev);
                }
            }
            dec.finish().expect("no dangling partial record");
            assert_eq!(dec.consumed(), bin.len() as u64, "step {step}");
            let (name, objects) = dec.header().expect("header parsed");
            assert_eq!(name, "roundtrip");
            assert_eq!(objects.len(), 2);
            assert_eq!(got, want, "step {step}");
        }
    }

    #[test]
    fn stream_decoder_mid_record_is_need_more_until_finish() {
        let bin = record_to_bin(sample_program());
        let torn = &bin[..bin.len() - 8];
        let mut dec = BinStreamDecoder::new();
        dec.push(torn);
        while dec.next_event().expect("records decode").is_some() {}
        // Mid-record is not an error while the stream may continue...
        let err = dec.finish().expect_err("...but is one at end-of-stream");
        assert_eq!(err.kind, TraceErrorKind::TruncatedRecord);
        // ...and pushing the rest resumes cleanly.
        dec.push(&bin[bin.len() - 8..]);
        assert!(dec.next_event().expect("resumed").is_some());
        dec.finish().expect("now complete");
    }

    #[test]
    fn stream_decoder_rejects_bad_magic_early() {
        let mut dec = BinStreamDecoder::new();
        dec.push(b"css"); // already disagrees with "cstrace2"
        let err = dec.next_event().expect_err("mismatching prefix");
        assert_eq!(err.kind, TraceErrorKind::BadMagic);
    }

    #[test]
    fn stream_decoder_reports_unknown_tag_and_stays_stuck() {
        let mut bin = record_to_bin(TraceProgram::new(
            "t",
            vec![],
            vec![Event::Compute(1), Event::Compute(2)],
        ));
        let body = bin.len() - 32;
        bin[body] = 0xEE;
        let mut dec = BinStreamDecoder::new();
        dec.push(&bin);
        let err = dec.next_event().expect_err("unknown tag");
        assert_eq!(err.kind, TraceErrorKind::MalformedRecord);
        assert!(err.message.contains("unknown record tag 238"), "{err}");
        assert!(dec.next_event().is_err(), "decoder stays stuck");
        assert!(dec.finish().is_err());
    }

    /// What a driver made of a stream: header, events, and the error it
    /// ended on.
    type Decode = (
        Option<(String, Vec<ObjectDecl>)>,
        Vec<Event>,
        Option<TraceError>,
    );

    /// Decode through the `BufRead` driver, three events per chunk.
    fn pull_all(reader: impl BufRead) -> Decode {
        let mut tr = match BinTraceReader::new(reader) {
            Ok(tr) => tr,
            Err(e) => return (None, Vec::new(), Some(e)),
        };
        let (mut events, mut chunk) = (Vec::new(), EventChunk::with_capacity(3));
        while tr.next_chunk(&mut chunk) > 0 {
            events.extend(chunk.to_events());
            chunk.reset();
        }
        let header = (tr.name().to_string(), tr.static_objects());
        (Some(header), events, tr.take_error())
    }

    /// Decode through the push driver, `step` bytes per push.
    fn push_all(bytes: &[u8], step: usize) -> Decode {
        let mut dec = BinStreamDecoder::new();
        let mut events = Vec::new();
        let mut error = None;
        'feed: for piece in bytes.chunks(step) {
            dec.push(piece);
            loop {
                match dec.next_event() {
                    Ok(Some(ev)) => events.push(ev),
                    Ok(None) => break,
                    Err(e) => {
                        error = Some(e);
                        break 'feed;
                    }
                }
            }
        }
        let error = error.or_else(|| dec.finish().err());
        let header = dec.header().map(|(n, o)| (n.to_string(), o.to_vec()));
        (header, events, error)
    }

    #[test]
    fn both_drivers_agree_at_every_split() {
        use std::io::Read;
        use TraceErrorKind::*;
        let clean = record_to_bin(sample_program());
        let (_, header_len) = decode_bin_header(&clean, 0).unwrap().unwrap();
        // The first Alloc ("tree node") is the fifth record.
        let alloc = header_len + 4 * 16;
        assert_eq!(clean[alloc], 3);
        let corrupt = |at: usize, byte: u8| {
            let mut b = clean.clone();
            b[at] = byte;
            b
        };
        let mut hostile = BIN_MAGIC.to_vec();
        hostile.extend(1u16.to_le_bytes());
        hostile.push(b'x');
        hostile.extend(u32::MAX.to_le_bytes());
        hostile.extend([0u8; 4]);
        let cases: Vec<(&str, Vec<u8>, Option<TraceErrorKind>)> = vec![
            ("clean", clean.clone(), None),
            (
                "bad tag",
                corrupt(header_len + 16, 0xEE),
                Some(MalformedRecord),
            ),
            (
                "torn record",
                clean[..clean.len() - 8].to_vec(),
                Some(TruncatedRecord),
            ),
            (
                "truncated alloc tail",
                clean[..alloc + 20].to_vec(),
                Some(TruncatedRecord),
            ),
            (
                "bad utf-8 alloc name",
                corrupt(alloc + 24, 0xFF),
                Some(MalformedRecord),
            ),
            (
                "bad utf-8 program name",
                corrupt(10, 0xFF),
                Some(MalformedRecord),
            ),
            (
                "truncated header",
                clean[..header_len - 3].to_vec(),
                Some(TruncatedHeader),
            ),
            ("hostile object count", hostile, Some(TruncatedHeader)),
            ("bad magic", b"cstraceX\0\0".to_vec(), Some(BadMagic)),
        ];
        for (what, bytes, kind) in &cases {
            let want = push_all(bytes, 1);
            assert_eq!(want.2.as_ref().map(|e| e.kind), *kind, "{what}: {want:?}");
            for step in [2, 3, usize::MAX] {
                assert_eq!(push_all(bytes, step), want, "{what}: push {step}");
            }
            let tiny = io::BufReader::with_capacity(1, &bytes[..]);
            assert_eq!(pull_all(tiny), want, "{what}: 1-byte BufReader");
            for split in 0..=bytes.len() {
                let (head, tail) = bytes.split_at(split);
                assert_eq!(pull_all(head.chain(tail)), want, "{what}: split {split}");
            }
        }
        let (header, events, _) = push_all(&clean, 1);
        assert_eq!(header.unwrap().1, sample_program().static_objects());
        assert_eq!(events, sample_events());
    }

    #[test]
    fn bin_records_are_fixed_width() {
        // Header for an unnamed program with no objects: magic + u16 len
        // + u32 count; then two 16-byte records.
        let p = TraceProgram::new(
            "",
            vec![],
            vec![Event::Access(MemRef::read(0x1234, 8)), Event::Compute(99)],
        );
        let bin = record_to_bin(p);
        assert_eq!(bin.len(), 8 + 2 + 4 + 16 + 16);
    }
}
