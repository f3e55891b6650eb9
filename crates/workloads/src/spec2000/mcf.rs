//! `181.mcf` analogue — minimum-cost network flow.
//!
//! The SPEC2000 member the paper's future-work section is really about:
//! an application that "makes extensive use of dynamically allocated
//! memory". The real mcf spends its time chasing pointers through a
//! network whose basket/tree nodes are allocated and freed continuously.
//!
//! This analogue keeps a pool of live heap blocks, all allocated from the
//! same site (`tree_node`), and *churns* them throughout execution: every
//! `CHURN_PERIOD` planned misses the oldest block is freed and a fresh one
//! allocated at a new address. That exercises:
//!
//! * the engine's live ground-truth tracking,
//! * every technique's `on_alloc`/`on_free` path and the red-black heap
//!   tree's rebalancing under sustained insert/delete load,
//! * the allocation-site aggregation extension (section 5): per-block
//!   sample counts are meaningless, but the `tree_node` site collectively
//!   causes ~20% of all misses.

use std::collections::VecDeque;

use cachescope_sim::rng::SmallRng;
use cachescope_sim::{AddressSpace, Event, EventChunk, MemRef, ObjectDecl, Program};

use crate::spec::Scale;
use crate::{LINE, MIB};

/// Designed long-run miss shares (the `tree_node` share is the whole
/// allocation site, spread over every live block).
pub const ACTUAL: [(&str, f64); 5] = [
    ("arcs", 55.0),
    ("tree_node (site)", 20.0),
    ("nodes", 15.0),
    ("dummy_arcs", 4.0),
    ("stack", 6.0),
];

/// Live tree-node pool size.
pub const POOL: usize = 512;

/// Bytes per tree-node block.
pub const NODE_BYTES: u64 = 8 * 1024;

/// Planned misses between churn operations (one free + one alloc) at
/// paper scale.
pub const CHURN_PERIOD: u64 = 2_000;

/// The mcf analogue: a bespoke [`Program`] with continuous heap churn
/// (~19,600 misses/Mcycle — mcf is memory-bound).
#[derive(Debug, Clone)]
pub struct Mcf {
    /// Measurement-aware allocation (the paper's section 5 allocator):
    /// tree nodes are placed in a compact fixed arena and freed slots are
    /// reused immediately, keeping the site contiguous so instrumentation
    /// can treat it as a unit.
    compact: bool,
    /// Free slot bases within the compact arena (LIFO).
    free_slots: Vec<u64>,
    // Static arrays.
    nodes_base: u64,
    dummy_base: u64,
    stack_base: u64,
    arcs_base: u64,
    // Sequential sweep cursors (line offsets).
    nodes_cur: u64,
    dummy_cur: u64,
    stack_cur: u64,
    arcs_cur: u64,
    // Churning pool: live block bases, oldest first.
    live: VecDeque<u64>,
    /// Bump cursor for fresh block addresses within the churn window.
    next_block: u64,
    churn_lo: u64,
    churn_hi: u64,
    churn_period: u64,
    rng: SmallRng,
    pending: VecDeque<Event>,
    planned: u64,
}

const NODES_SIZE: u64 = 4 * MIB;
const DUMMY_SIZE: u64 = 2 * MIB;
const STACK_SIZE: u64 = 4 * MIB;
const ARCS_SIZE: u64 = 16 * MIB;

impl Mcf {
    pub fn new(scale: Scale) -> Self {
        Self::build(scale, false)
    }

    /// mcf with the measurement-aware allocator of the paper's section 5:
    /// "replacing the standard memory allocation functions with
    /// specialized ones that arrange memory for measurement". Tree nodes
    /// live in a compact arena (pool + 8 spare slots) and freed slots are
    /// reused at once, so the `tree_node` site stays contiguous.
    pub fn with_measurement_allocator(scale: Scale) -> Self {
        Self::build(scale, true)
    }

    fn build(scale: Scale, compact: bool) -> Self {
        let mut aspace = AddressSpace::new(LINE);
        let nodes_base = aspace.alloc_static(NODES_SIZE);
        let dummy_base = aspace.alloc_static(DUMMY_SIZE);
        let stack_base = 0x3000_0000;
        let arcs_base = aspace.alloc_heap(ARCS_SIZE);
        // Standard allocator: a generous churn window — blocks cycle
        // through it and addresses are only reused long after they were
        // freed. Measurement-aware allocator: a compact arena of
        // POOL + 8 slots.
        let window_slots: u64 = if compact { POOL as u64 + 8 } else { 64 * 1024 };
        let churn_lo = aspace.alloc_heap(window_slots * NODE_BYTES);
        let churn_hi = churn_lo + window_slots * NODE_BYTES;

        let mut pending = VecDeque::new();
        pending.push_back(Event::Alloc {
            base: arcs_base,
            size: ARCS_SIZE,
            name: Some("arcs".into()),
        });
        let mut live = VecDeque::with_capacity(POOL);
        let mut next_block = churn_lo;
        for _ in 0..POOL {
            pending.push_back(Event::Alloc {
                base: next_block,
                size: NODE_BYTES,
                name: Some("tree_node".into()),
            });
            live.push_back(next_block);
            next_block += NODE_BYTES;
        }

        let free_slots: Vec<u64> = if compact {
            (POOL as u64..window_slots)
                .map(|k| churn_lo + k * NODE_BYTES)
                .rev()
                .collect()
        } else {
            Vec::new()
        };

        Mcf {
            compact,
            free_slots,
            nodes_base,
            dummy_base,
            stack_base,
            arcs_base,
            nodes_cur: 0,
            dummy_cur: 0,
            stack_cur: 0,
            arcs_cur: 0,
            live,
            next_block,
            churn_lo,
            churn_hi,
            churn_period: scale.misses(CHURN_PERIOD).min(CHURN_PERIOD),
            rng: SmallRng::seed_from_u64(0x3CF0),
            pending,
            planned: 0,
        }
    }

    fn sweep(base: u64, cur: &mut u64, size: u64) -> u64 {
        let a = base + *cur;
        *cur += LINE;
        if *cur >= size {
            *cur = 0;
        }
        a
    }

    fn churn(&mut self) {
        // check:allow(churn only runs once the live pool is primed)
        let old = self.live.pop_front().expect("pool never empty");
        self.pending.push_back(Event::Free { base: old });
        if self.compact {
            // Measurement-aware allocator: hand the freed slot straight
            // back out (after one spare), keeping the site compact.
            self.free_slots.insert(0, old);
            // check:allow(the arena is sized with spare slots at construction)
            let slot = self.free_slots.pop().expect("arena has spare slots");
            self.pending.push_back(Event::Alloc {
                base: slot,
                size: NODE_BYTES,
                name: Some("tree_node".into()),
            });
            self.live.push_back(slot);
            return;
        }
        if self.next_block + NODE_BYTES > self.churn_hi {
            self.next_block = self.churn_lo;
        }
        // Skip addresses still live (possible after wrap-around).
        while self.live.contains(&self.next_block) {
            self.next_block += NODE_BYTES;
            if self.next_block + NODE_BYTES > self.churn_hi {
                self.next_block = self.churn_lo;
            }
        }
        self.pending.push_back(Event::Alloc {
            base: self.next_block,
            size: NODE_BYTES,
            name: Some("tree_node".into()),
        });
        self.live.push_back(self.next_block);
        self.next_block += NODE_BYTES;
    }

    fn plan_access(&mut self) -> u64 {
        let x: f64 = self.rng.random();
        if x < 0.55 {
            Self::sweep(self.arcs_base, &mut self.arcs_cur, ARCS_SIZE)
        } else if x < 0.75 {
            // A random line of a random live tree node (pointer chasing).
            let block = self.live[self.rng.random_range(0..self.live.len())];
            let line = self.rng.random_range(0..NODE_BYTES / LINE);
            block + line * LINE
        } else if x < 0.90 {
            Self::sweep(self.nodes_base, &mut self.nodes_cur, NODES_SIZE)
        } else if x < 0.94 {
            Self::sweep(self.dummy_base, &mut self.dummy_cur, DUMMY_SIZE)
        } else {
            Self::sweep(self.stack_base, &mut self.stack_cur, STACK_SIZE)
        }
    }
}

impl Program for Mcf {
    fn name(&self) -> &str {
        "mcf"
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        vec![
            ObjectDecl::global("nodes", self.nodes_base, NODES_SIZE),
            ObjectDecl::global("dummy_arcs", self.dummy_base, DUMMY_SIZE),
        ]
    }

    fn next_event(&mut self) -> Option<Event> {
        if let Some(ev) = self.pending.pop_front() {
            return Some(ev);
        }
        self.planned += 1;
        if self.planned.is_multiple_of(self.churn_period) {
            self.churn();
        }
        let addr = self.plan_access();
        // mcf is memory-bound: no compute between accesses.
        Some(Event::Access(MemRef::read(addr, 8)))
    }

    // Native chunk fill: identical per-slot logic to `next_event` (drain
    // pending allocator events, then plan one access, churning every
    // `churn_period` planned misses *before* the access is planned), with
    // accesses pushed straight into the dense run. The churn's Free/Alloc
    // land in `pending` and are emitted before the following access —
    // exactly the scalar interleaving. mcf never terminates, so the chunk
    // always fills.
    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        while !buf.is_full() {
            if let Some(ev) = self.pending.pop_front() {
                buf.push_event(ev);
                continue;
            }
            self.planned += 1;
            if self.planned.is_multiple_of(self.churn_period) {
                self.churn();
            }
            let addr = self.plan_access();
            buf.push_ref(MemRef::read(addr, 8));
        }
        buf.len()
    }
}

/// Build the mcf analogue.
pub fn mcf(scale: Scale) -> Mcf {
    Mcf::new(scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_sim::{Engine, NullHandler, RunLimit, SimConfig};

    fn run(misses: u64) -> cachescope_sim::RunStats {
        let mut w = mcf(Scale::Test);
        let mut e = Engine::new(SimConfig::default());
        e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(misses))
    }

    #[test]
    fn shares_match_design() {
        let stats = run(400_000);
        let total = stats.app.misses as f64;
        let share = |pred: &dyn Fn(&str) -> bool| -> f64 {
            stats
                .objects
                .iter()
                .filter(|o| pred(&o.name))
                .map(|o| o.misses)
                .sum::<u64>() as f64
                / total
                * 100.0
        };
        assert!((share(&|n| n == "arcs") - 55.0).abs() < 1.5);
        assert!((share(&|n| n == "tree_node") - 20.0).abs() < 1.5);
        assert!((share(&|n| n == "nodes") - 15.0).abs() < 1.5);
        assert!((share(&|n| n == "dummy_arcs") - 4.0).abs() < 1.0);
        let stack = stats.unmapped_misses as f64 / total * 100.0;
        assert!((stack - 6.0).abs() < 1.0, "stack {stack:.1}");
    }

    #[test]
    fn miss_rate_is_memory_bound() {
        let stats = run(100_000);
        // ~51 cycles per miss -> ~19,600 misses/Mcycle.
        assert!(
            (stats.misses_per_mcycle() - 19_600.0).abs() < 700.0,
            "{}",
            stats.misses_per_mcycle()
        );
    }

    #[test]
    fn churn_allocates_and_frees_continuously() {
        let stats = run(300_000);
        // Pool of 512 plus arcs, plus one alloc per churn period.
        let heap_objects = stats
            .objects
            .iter()
            .filter(|o| o.name == "tree_node")
            .count();
        assert!(
            heap_objects > POOL + 100,
            "expected churn beyond the initial pool, got {heap_objects}"
        );
    }

    #[test]
    fn deterministic() {
        let mut a = mcf(Scale::Test);
        let mut b = mcf(Scale::Test);
        for _ in 0..50_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn chunked_stream_matches_scalar_stream() {
        // Long enough to cross several churn periods, so the Free/Alloc
        // interleaving around churn boundaries is covered.
        let mut scalar = mcf(Scale::Test);
        let mut chunked = mcf(Scale::Test);
        let mut chunk = EventChunk::with_capacity(333);
        let mut replayed = 0usize;
        while replayed < 60_000 {
            chunk.reset();
            assert!(chunked.next_chunk(&mut chunk) > 0);
            for ev in chunk.to_events() {
                assert_eq!(Some(ev), scalar.next_event());
                replayed += 1;
            }
        }
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;
    use cachescope_sim::{Engine, NullHandler, Program, RunLimit, SimConfig};

    #[test]
    fn compact_variant_matches_design_shares_too() {
        let mut w = Mcf::with_measurement_allocator(Scale::Test);
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(400_000));
        let total = stats.app.misses as f64;
        let site: u64 = stats
            .objects
            .iter()
            .filter(|o| o.name == "tree_node")
            .map(|o| o.misses)
            .sum();
        assert!((site as f64 / total * 100.0 - 20.0).abs() < 2.0);
    }

    #[test]
    fn compact_blocks_stay_within_the_arena() {
        let mut w = Mcf::with_measurement_allocator(Scale::Test);
        let arena_span = (POOL as u64 + 8) * NODE_BYTES;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut events = 0;
        while events < 500_000 {
            match w.next_event() {
                Some(Event::Alloc { base, size, name }) if name.as_deref() == Some("tree_node") => {
                    lo = lo.min(base);
                    hi = hi.max(base + size);
                }
                Some(_) => {}
                None => break,
            }
            events += 1;
        }
        assert!(
            hi - lo <= arena_span,
            "site span {} vs arena {}",
            hi - lo,
            arena_span
        );
    }

    #[test]
    fn compact_variant_is_deterministic() {
        let mut a = Mcf::with_measurement_allocator(Scale::Test);
        let mut b = Mcf::with_measurement_allocator(Scale::Test);
        for _ in 0..50_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }
}
