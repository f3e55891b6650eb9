//! Fuzz-ish property tests: corrupted traces never panic the reader or
//! the checker — every byte-level mutation lands as a typed diagnostic
//! (or decodes cleanly), never as an abort. Deterministic: mutations are
//! drawn from a fixed-seed xorshift generator, so a failure reproduces
//! exactly from the iteration number.

use cachescope_check::trace;
use cachescope_serve::SessionStream;
use cachescope_sim::tracefile::{load_eager, RecordingProgram, TraceErrorKind, TraceFormat};
use cachescope_sim::{Event, MemRef, ObjectDecl, Program, TraceProgram};

/// Minimal xorshift64* — no external RNG crates in this workspace.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn sample_program() -> TraceProgram {
    let mut events = Vec::new();
    for i in 0..64u64 {
        events.push(Event::Alloc {
            base: 0x10_000 + i * 0x100,
            size: 64,
            name: Some(format!("blk{i}")),
        });
        events.push(Event::Access(MemRef::read(0x10_000 + i * 0x100, 8)));
        events.push(Event::Compute(10));
        events.push(Event::Free {
            base: 0x10_000 + i * 0x100,
        });
        events.push(Event::Phase((i % 4) as u32));
    }
    TraceProgram::new(
        "fuzz",
        vec![
            ObjectDecl::global("A", 0x1000, 256),
            ObjectDecl::global("B", 0x2000, 512),
        ],
        events,
    )
}

fn bin_trace() -> Vec<u8> {
    let mut rec = RecordingProgram::with_format(sample_program(), Vec::new(), TraceFormat::Bin);
    while rec.next_event().is_some() {}
    rec.into_writer()
}

fn text_trace() -> Vec<u8> {
    let mut rec = RecordingProgram::new(sample_program(), Vec::new());
    while rec.next_event().is_some() {}
    rec.into_writer()
}

/// Exercise one corrupted input end to end: the eager loader must return
/// (Ok or Err, never panic) and the checker must produce a plain list of
/// diagnostics.
fn must_not_panic(bytes: &[u8], what: &str) {
    let _ = load_eager(std::io::BufReader::new(bytes));
    let _ = trace::check_trace(bytes, what);
}

#[test]
fn mutated_binary_traces_never_panic() {
    let clean = bin_trace();
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    for iter in 0..400 {
        let mut bytes = clean.clone();
        // 1-8 random byte mutations anywhere in the stream (header,
        // object table, records, alloc tails).
        for _ in 0..(1 + rng.below(8)) {
            let at = rng.below(bytes.len());
            bytes[at] = (rng.next() & 0xFF) as u8;
        }
        must_not_panic(&bytes, &format!("fuzz-bin-{iter}"));
    }
}

#[test]
fn truncated_binary_traces_never_panic() {
    let clean = bin_trace();
    let mut rng = Rng(0x5EED_CAFE_F00D_0002);
    for iter in 0..200 {
        let cut = rng.below(clean.len());
        must_not_panic(&clean[..cut], &format!("fuzz-cut-{iter}"));
    }
}

#[test]
fn mutated_text_traces_never_panic() {
    let clean = text_trace();
    let mut rng = Rng(0x5EED_CAFE_F00D_0003);
    for iter in 0..200 {
        let mut bytes = clean.clone();
        for _ in 0..(1 + rng.below(6)) {
            let at = rng.below(bytes.len());
            bytes[at] = (rng.next() & 0xFF) as u8;
        }
        must_not_panic(&bytes, &format!("fuzz-text-{iter}"));
    }
}

#[test]
fn pure_garbage_never_panics() {
    let mut rng = Rng(0x5EED_CAFE_F00D_0004);
    for iter in 0..200 {
        let len = rng.below(4096);
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = (rng.next() & 0xFF) as u8;
        }
        must_not_panic(&bytes, &format!("fuzz-garbage-{iter}"));
    }
    // Garbage that starts with a valid magic exercises the body decoders.
    for (magic, tag) in [
        (&b"cstrace2"[..], "bin"),
        (&b"cachescope-trace 1\n"[..], "text"),
    ] {
        for iter in 0..100 {
            let len = rng.below(2048);
            let mut bytes = magic.to_vec();
            for _ in 0..len {
                bytes.push((rng.next() & 0xFF) as u8);
            }
            must_not_panic(&bytes, &format!("fuzz-{tag}-magic-{iter}"));
        }
    }
}

/// A 19-byte binary header that claims `u32::MAX` static objects and then
/// ends: the object table must not be reserved from the claimed count.
fn hostile_count_header() -> Vec<u8> {
    let mut bytes = b"cstrace2".to_vec();
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.push(b'x');
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 4]);
    assert_eq!(bytes.len(), 19);
    bytes
}

#[test]
fn hostile_object_count_is_a_truncated_header_everywhere() {
    let bytes = hostile_count_header();
    let diags = trace::check_trace(&bytes[..], "hostile");
    let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["CS-T002"]);
    let err = load_eager(&bytes[..]).expect_err("the header is cut short");
    assert_eq!(err.kind, TraceErrorKind::TruncatedHeader);
    let mut session = SessionStream::new();
    session
        .feed(&bytes, u64::MAX)
        .expect("a short header waits for more");
    let refusal = session
        .finish()
        .expect_err("the stream ended in the header");
    assert_eq!(refusal.code, "CS-T002");
}
