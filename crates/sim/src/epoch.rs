//! Epoch-versioned extent index: the shared resolve structure behind
//! ground truth, the symbol table, and the heap map.
//!
//! The engine resolves an object for *every* application cache miss, so
//! attribution throughput is bounded by how fast "which live extent
//! contains this address?" can be answered. Alloc churn and resolve
//! traffic have very different shapes — churn is bursty (an alloc/free
//! event, then thousands of misses against a stable heap) while resolves
//! are continuous — so the index keeps two representations and lets the
//! workload pick:
//!
//! * a `BTreeMap` of live extents, O(log n) insert/remove, used directly
//!   for resolves during churn-heavy epochs;
//! * a flat sorted `(base, end, id)` snapshot, rebuilt lazily once the
//!   churn quiets down, resolved with a branchless binary search (or a
//!   straight containment scan for tiny registries).
//!
//! [`EpochIndex::insert`] is the one admission rule for object extents,
//! shared by ground truth, the techniques' object map and the static
//! analyzer, so all three agree on which objects exist:
//!
//! * extents are keyed by base;
//! * an insert fails with [`ExtentOverlap`] when its range intersects a
//!   live extent or it shares a live extent's base;
//! * the first declaration wins — a rejected insert changes nothing;
//! * a zero-size extent is registered (it claims its base) but never
//!   resolves.
//!
//! Every mutation bumps an **epoch** counter. Callers that memoise
//! resolves (through [`ExtentMemo`]) tag entries with the epoch at fill
//! time; a tag mismatch is a miss, so one integer compare invalidates
//! every stale memo at once — no clearing, no per-entry bookkeeping on
//! the alloc path.

use std::collections::BTreeMap;

use crate::Addr;

/// An insert was rejected because the extent overlaps a live one.
///
/// Carries both extents so callers can surface an exact diagnostic
/// (base/end are exclusive-end byte ranges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentOverlap {
    /// Base of the rejected extent.
    pub base: Addr,
    /// End (exclusive) of the rejected extent.
    pub end: Addr,
    /// Base of the live extent it collides with.
    pub other_base: Addr,
    /// End (exclusive) of the live extent it collides with.
    pub other_end: Addr,
}

impl std::fmt::Display for ExtentOverlap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "extent {:#x}..{:#x} overlaps live extent {:#x}..{:#x}",
            self.base, self.end, self.other_base, self.other_end
        )
    }
}

impl std::error::Error for ExtentOverlap {}

/// Registries this small resolve faster with a straight containment scan
/// than with binary search's data-dependent branches.
const LINEAR_SCAN_MAX: usize = 16;

/// How many resolves must land in a dirty epoch before the flat snapshot
/// is rebuilt. Below the threshold the index answers from the tree, so a
/// churn phase (alloc/free every few events) never pays the O(n) rebuild;
/// above it the epoch has quieted down and one rebuild amortizes over a
/// long run of cache-friendly flat probes.
const REBUILD_AFTER: u32 = 64;

/// Epoch-versioned map from live extents to object ids.
#[derive(Debug, Default, Clone)]
pub struct EpochIndex {
    /// Live extents: base → (end, id). The mutation-side representation.
    map: BTreeMap<Addr, (Addr, u32)>,
    /// Flat sorted `(base, end, id)` copy of `map`; the resolve-side
    /// representation, valid when `!dirty`.
    snapshot: Vec<(Addr, Addr, u32)>,
    dirty: bool,
    epoch: u64,
    /// Resolves since the last mutation; drives the deferred rebuild.
    resolves_since_churn: u32,
}

impl EpochIndex {
    /// An empty index at epoch zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Materialize the flat snapshot now and reset the epoch, for an
    /// index that is complete and will not be mutated again (a symbol
    /// table): every later resolve reads the flat array.
    pub fn freeze(&mut self) {
        self.rebuild();
        self.epoch = 0;
    }

    /// Number of live extents.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no extents are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The current epoch. Bumped by every successful insert/remove;
    /// memo entries tagged with an older epoch are stale.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The admission rule in the module docs: would an insert of
    /// `[base, end)` succeed? Fails if the range overlaps an extent
    /// already live or `base` is a live extent's base.
    pub fn admits(&self, base: Addr, end: Addr) -> Result<(), ExtentOverlap> {
        debug_assert!(end >= base, "inverted extent {base:#x}..{end:#x}");
        let below = self
            .map
            .range(..base)
            .next_back()
            .filter(|(_, &(e, _))| e > base);
        let above = self
            .map
            .range(base..)
            .next()
            .filter(|(&b, _)| end > b || b == base);
        match below.or(above) {
            Some((&b, &(e, _))) => Err(ExtentOverlap {
                base,
                end,
                other_base: b,
                other_end: e,
            }),
            None => Ok(()),
        }
    }

    /// Insert a live extent if [`EpochIndex::admits`] it; a rejected
    /// insert mutates nothing. Zero-sized extents are accepted and never
    /// resolve.
    pub fn insert(&mut self, base: Addr, end: Addr, id: u32) -> Result<(), ExtentOverlap> {
        self.admits(base, end)?;
        self.map.insert(base, (end, id));
        self.churn();
        Ok(())
    }

    /// Remove the extent based at `base`, returning `(end, id)` if one
    /// was live there.
    pub fn remove(&mut self, base: Addr) -> Option<(Addr, u32)> {
        let removed = self.map.remove(&base);
        if removed.is_some() {
            self.churn();
        }
        removed
    }

    #[inline]
    fn churn(&mut self) {
        self.epoch += 1;
        self.dirty = true;
        self.resolves_since_churn = 0;
    }

    fn rebuild(&mut self) {
        self.snapshot.clear();
        self.snapshot
            .extend(self.map.iter().map(|(&b, &(e, id))| (b, e, id)));
        self.dirty = false;
    }

    /// Resolve `addr` to the containing live extent.
    ///
    /// Churn-free epochs go through the flat snapshot (linear scan for
    /// tiny registries, else binary search); during a churn phase the
    /// tree answers directly and the snapshot rebuild is deferred until
    /// [`REBUILD_AFTER`] resolves land without an intervening mutation.
    #[inline]
    pub fn resolve(&mut self, addr: Addr) -> Option<(Addr, Addr, u32)> {
        if self.dirty {
            if self.resolves_since_churn < REBUILD_AFTER {
                self.resolves_since_churn += 1;
                let (&b, &(e, id)) = self.map.range(..=addr).next_back()?;
                return (addr < e).then_some((b, e, id));
            }
            self.rebuild();
        }
        if self.snapshot.len() <= LINEAR_SCAN_MAX {
            // Extents are disjoint: the first containing one is the only
            // one.
            for &(b, e, id) in &self.snapshot {
                if addr >= b && addr < e {
                    return Some((b, e, id));
                }
            }
            return None;
        }
        let i = self.snapshot.partition_point(|&(b, _, _)| b <= addr);
        let &(b, e, id) = self.snapshot.get(i.wrapping_sub(1))?;
        (addr < e).then_some((b, e, id))
    }

    /// The live extents as a flat sorted slice, rebuilding if dirty.
    pub fn sorted(&mut self) -> &[(Addr, Addr, u32)] {
        if self.dirty {
            self.rebuild();
        }
        &self.snapshot
    }

    /// The flat snapshot *without* a rebuild — exact only for an index
    /// that has not been mutated since construction or the last
    /// [`EpochIndex::sorted`] call (e.g. a frozen symbol table). Callers
    /// that mutate must use [`EpochIndex::sorted`].
    pub fn frozen_sorted(&self) -> &[(Addr, Addr, u32)] {
        debug_assert!(!self.dirty, "frozen_sorted on a dirty index");
        &self.snapshot
    }

    /// Iterate live extents in base order (tree-side; no rebuild).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Addr, u32)> + '_ {
        self.map.iter().map(|(&b, &(e, id))| (b, e, id))
    }

    /// The smallest base and largest end over all live extents, in
    /// O(log n). (Extents are disjoint, so the highest-based extent also
    /// carries the largest end.)
    pub fn extent(&self) -> Option<(Addr, Addr)> {
        let (&lo, _) = self.map.first_key_value()?;
        let (_, &(hi, _)) = self.map.last_key_value()?;
        Some((lo, hi))
    }
}

/// Slots in a resolve memo. 32 entries at 4 KiB granularity give a
/// 128 KiB aliasing period — enough that an ABAB interleave of two hot
/// objects keeps both cached instead of thrashing a single entry.
const MEMO_SLOTS: usize = 32;

/// One memo slot: an extent, the epoch it was resolved at, and what the
/// caller stored with it. The default entry is inert at any epoch: no
/// address lies in the empty range `[0, 0)`.
#[derive(Debug, Clone, Default)]
struct MemoEntry<T> {
    base: Addr,
    end: Addr,
    epoch: u64,
    value: T,
}

/// Direct-mapped memo of recent resolves, tagged with the index epoch.
///
/// Ground truth stores the object id (`T = u32`); the object map stores
/// the id plus the simulated accesses its walk made, so a hit replays
/// them. Two-level: `recent` (a slot index, so a hit never clones) catches
/// streaming misses through one object; the direct-mapped array (slotted
/// by 4 KiB address region) catches interleaved hot objects. Entries
/// carry the epoch at fill time, so any alloc/free invalidates the whole
/// memo with zero work — the tag compare fails.
#[derive(Debug, Clone)]
pub struct ExtentMemo<T> {
    slots: [MemoEntry<T>; MEMO_SLOTS],
    recent: usize,
}

impl<T: Default> Default for ExtentMemo<T> {
    fn default() -> Self {
        ExtentMemo {
            slots: std::array::from_fn(|_| MemoEntry::default()),
            recent: 0,
        }
    }
}

impl<T: Default> ExtentMemo<T> {
    /// A cold memo.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T> ExtentMemo<T> {
    #[inline]
    fn slot(addr: Addr) -> usize {
        (((addr >> 12) ^ (addr >> 17)) as usize) & (MEMO_SLOTS - 1)
    }

    /// The value stored for `addr` if a live-epoch entry covers it.
    #[inline]
    pub fn lookup(&mut self, addr: Addr, epoch: u64) -> Option<&T> {
        for s in [self.recent, Self::slot(addr)] {
            let e = &self.slots[s];
            if e.epoch == epoch && addr >= e.base && addr < e.end {
                self.recent = s;
                return Some(&self.slots[s].value);
            }
        }
        None
    }

    /// Record a resolve of `addr` to extent `[base, end)` at `epoch`.
    /// The slot is keyed by the *resolved address* (not the extent base),
    /// so a large object occupies one slot per 4 KiB region it is
    /// actually missed in.
    #[inline]
    pub fn fill(&mut self, addr: Addr, base: Addr, end: Addr, value: T, epoch: u64) {
        let s = Self::slot(addr);
        self.slots[s] = MemoEntry {
            base,
            end,
            epoch,
            value,
        };
        self.recent = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    #[test]
    fn empty_index_resolves_nothing() {
        let mut idx = EpochIndex::new();
        assert_eq!(idx.resolve(0), None);
        assert_eq!(idx.resolve(u64::MAX), None);
        assert!(idx.is_empty());
    }

    #[test]
    fn insert_resolve_remove_roundtrip_with_boundaries() {
        let mut idx = EpochIndex::new();
        idx.insert(0x1000, 0x1100, 7).unwrap();
        assert_eq!(idx.resolve(0x0fff), None);
        assert_eq!(idx.resolve(0x1000), Some((0x1000, 0x1100, 7)));
        assert_eq!(idx.resolve(0x10ff), Some((0x1000, 0x1100, 7)));
        assert_eq!(idx.resolve(0x1100), None, "end is exclusive");
        assert_eq!(idx.remove(0x1000), Some((0x1100, 7)));
        assert_eq!(idx.resolve(0x1000), None, "freed gap");
        assert_eq!(idx.remove(0x1000), None);
    }

    #[test]
    fn epoch_bumps_on_every_mutation_and_only_then() {
        let mut idx = EpochIndex::new();
        assert_eq!(idx.epoch(), 0);
        idx.insert(0x1000, 0x1100, 0).unwrap();
        assert_eq!(idx.epoch(), 1);
        idx.resolve(0x1000);
        idx.resolve(0x2000);
        assert_eq!(idx.epoch(), 1, "resolves do not bump the epoch");
        idx.remove(0x1000);
        assert_eq!(idx.epoch(), 2);
        // A rejected insert mutates nothing and must not bump.
        idx.insert(0x2000, 0x2100, 1).unwrap();
        assert!(idx.insert(0x2080, 0x2180, 2).is_err());
        assert_eq!(idx.epoch(), 3);
    }

    #[test]
    fn overlap_rejection_reports_both_extents() {
        let mut idx = EpochIndex::new();
        idx.insert(0x1000, 0x1100, 0).unwrap();
        // Overlap from below.
        let e = idx.insert(0x0f80, 0x1080, 1).unwrap_err();
        assert_eq!((e.other_base, e.other_end), (0x1000, 0x1100));
        // Overlap from above (prev extent spills into the new base).
        let e = idx.insert(0x10c0, 0x1200, 1).unwrap_err();
        assert_eq!((e.other_base, e.other_end), (0x1000, 0x1100));
        // Exact duplicate base.
        assert!(idx.insert(0x1000, 0x1040, 1).is_err());
        // Adjacent extents (end == next base) are fine.
        idx.insert(0x1100, 0x1200, 1).unwrap();
        idx.insert(0x0f00, 0x1000, 2).unwrap();
        assert_eq!(idx.len(), 3);
        let msg = format!("{}", idx.insert(0x1000, 0x1001, 9).unwrap_err());
        assert!(msg.contains("overlaps live extent"), "{msg}");
    }

    #[test]
    fn freeze_builds_a_clean_snapshot_where_the_first_declaration_wins() {
        let mut idx = EpochIndex::new();
        for (base, end, id) in [
            (0x3000, 0x3100, 2),
            (0x1000, 0x1100, 0),
            (0x2000, 0x2100, 1),
            (0x10f0, 0x1200, 3),
        ] {
            let _ = idx.insert(base, end, id);
        }
        idx.freeze();
        assert_eq!(
            idx.frozen_sorted(),
            &[
                (0x1000, 0x1100, 0),
                (0x2000, 0x2100, 1),
                (0x3000, 0x3100, 2)
            ],
            "the overlapping loser is skipped"
        );
        assert_eq!(idx.epoch(), 0);
    }

    #[test]
    fn zero_size_extents_claim_their_base_but_never_resolve() {
        let mut idx = EpochIndex::new();
        idx.insert(0x1000, 0x1100, 0).unwrap();
        // A zero-size extent at a live base is rejected, and the live
        // extent keeps resolving.
        let e = idx.insert(0x1000, 0x1000, 1).unwrap_err();
        assert_eq!((e.other_base, e.other_end), (0x1000, 0x1100));
        assert_eq!(idx.resolve(0x1000), Some((0x1000, 0x1100, 0)));
        // A zero-size extent on its own is registered but never resolves,
        // and a later extent at its base loses.
        idx.insert(0x2000, 0x2000, 2).unwrap();
        assert_eq!(idx.resolve(0x2000), None);
        assert!(idx.insert(0x2000, 0x2100, 3).is_err());
        assert!(idx.insert(0x1f00, 0x2100, 3).is_err(), "spans its base");
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.remove(0x2000), Some((0x2000, 2)));
        idx.insert(0x2000, 0x2100, 3).unwrap();
        assert_eq!(idx.resolve(0x2000), Some((0x2000, 0x2100, 3)));
    }

    #[test]
    fn resolve_is_exact_across_the_linear_to_binary_threshold() {
        // Straddle LINEAR_SCAN_MAX so both resolve strategies are hit.
        for n in [1usize, 2, LINEAR_SCAN_MAX, LINEAR_SCAN_MAX + 1, 64] {
            let mut idx = EpochIndex::new();
            for k in 0..n {
                let base = 0x1_0000 + (k as u64) * 0x200;
                idx.insert(base, base + 0x100, k as u32).unwrap();
            }
            for k in 0..n {
                let base = 0x1_0000 + (k as u64) * 0x200;
                assert_eq!(idx.resolve(base), Some((base, base + 0x100, k as u32)));
                assert_eq!(
                    idx.resolve(base + 0xff),
                    Some((base, base + 0x100, k as u32))
                );
                assert_eq!(idx.resolve(base + 0x100), None, "gap between extents");
            }
        }
    }

    #[test]
    fn deferred_rebuild_answers_from_the_tree_during_churn() {
        let mut idx = EpochIndex::new();
        for k in 0..100u64 {
            idx.insert(k * 0x1000, k * 0x1000 + 0x800, k as u32)
                .unwrap();
            // Fewer resolves than REBUILD_AFTER between mutations: the
            // index stays on the tree path, and answers stay exact.
            assert_eq!(
                idx.resolve(k * 0x1000 + 0x10),
                Some((k * 0x1000, k * 0x1000 + 0x800, k as u32))
            );
            assert_eq!(idx.resolve(k * 0x1000 + 0x800), None);
        }
        // Quiet epoch: enough resolves to trigger the rebuild, answers
        // unchanged.
        for _ in 0..(REBUILD_AFTER + 8) {
            assert_eq!(idx.resolve(0x10), Some((0, 0x800, 0)));
        }
        assert_eq!(idx.sorted().len(), 100);
    }

    #[test]
    fn memo_hits_only_within_the_fill_epoch() {
        let mut idx = EpochIndex::new();
        let mut memo = ExtentMemo::<u32>::new();
        idx.insert(0x1000, 0x2000, 3).unwrap();
        let ep = idx.epoch();
        assert_eq!(memo.lookup(0x1800, ep), None, "cold memo");
        let (b, e, id) = idx.resolve(0x1800).unwrap();
        memo.fill(0x1800, b, e, id, ep);
        assert_eq!(memo.lookup(0x1810, ep), Some(&3));
        // Any mutation bumps the epoch; every memo entry goes stale at
        // once.
        idx.remove(0x1000);
        assert_eq!(memo.lookup(0x1810, idx.epoch()), None);
    }

    #[test]
    fn memo_keeps_interleaved_hot_objects_resident() {
        let mut memo = ExtentMemo::<u32>::new();
        // Two objects far enough apart to land in different slots.
        let a = (0x1_0000u64, 0x1_8000u64, 1u32);
        let b = (0x9_0000u64, 0x9_8000u64, 2u32);
        memo.fill(a.0, a.0, a.1, a.2, 5);
        memo.fill(b.0, b.0, b.1, b.2, 5);
        // ABAB interleave: both stay resident (the one-entry memo this
        // replaces would miss on every alternation).
        for _ in 0..4 {
            assert_eq!(memo.lookup(a.0 + 8, 5), Some(&1));
            assert_eq!(memo.lookup(b.0 + 8, 5), Some(&2));
        }
    }

    /// The satellite property test: randomized alloc/free/lookup
    /// interleavings cross-checked against a naive `BTreeMap` oracle,
    /// including lookups landing exactly on extent boundaries and in
    /// freed gaps. Seeded, so it never flakes.
    #[test]
    fn randomized_churn_matches_btreemap_oracle() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xEF0C ^ seed);
            let mut idx = EpochIndex::new();
            let mut oracle: BTreeMap<Addr, (Addr, u32)> = BTreeMap::new();
            let mut next_id = 0u32;
            // Small address universe so overlaps, reuses and adjacency
            // are all common.
            let slot_base = |s: u64| 0x4_0000 + s * 0x100;
            for step in 0..4_000u32 {
                let op = rng.next_u64() % 10;
                if op < 3 {
                    // Alloc: 0..=4 slots starting at a random slot.
                    let s = rng.next_u64() % 64;
                    let len = rng.next_u64() % 5;
                    let (base, end) = (slot_base(s), slot_base(s + len));
                    let oracle_overlap = oracle.contains_key(&base)
                        || oracle
                            .range(..end)
                            .next_back()
                            .is_some_and(|(_, &(e, _))| e > base);
                    match idx.insert(base, end, next_id) {
                        Ok(()) => {
                            assert!(!oracle_overlap, "oracle saw an overlap at {base:#x}");
                            oracle.insert(base, (end, next_id));
                            next_id += 1;
                        }
                        Err(o) => {
                            assert!(oracle_overlap, "index rejected a clean insert: {o}");
                        }
                    }
                } else if op < 5 {
                    // Free a random (maybe dead) slot base.
                    let base = slot_base(rng.next_u64() % 68);
                    assert_eq!(
                        idx.remove(base),
                        oracle.remove(&base),
                        "remove {base:#x} at step {step}"
                    );
                } else {
                    // Lookup: bias toward boundaries of a random slot.
                    let s = rng.next_u64() % 68;
                    let addr = match rng.next_u64() % 4 {
                        0 => slot_base(s),                          // exact base
                        1 => slot_base(s + 1) - 1,                  // last byte
                        2 => slot_base(s + 1),                      // one past end
                        _ => slot_base(s) + rng.next_u64() % 0x100, // interior
                    };
                    let want = oracle
                        .range(..=addr)
                        .next_back()
                        .and_then(|(&b, &(e, id))| (addr < e).then_some((b, e, id)));
                    assert_eq!(idx.resolve(addr), want, "resolve {addr:#x} at step {step}");
                }
                assert_eq!(idx.len(), oracle.len());
            }
            // Drain everything: freed gaps resolve to nothing.
            let bases: Vec<Addr> = oracle.keys().copied().collect();
            for base in bases {
                let (end, _) = oracle.remove(&base).unwrap();
                assert!(idx.remove(base).is_some());
                assert_eq!(idx.resolve(base), None);
                assert_eq!(idx.resolve(end - 1), None);
            }
            assert!(idx.is_empty());
        }
    }
}
