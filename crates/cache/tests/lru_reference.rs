//! Randomized test: `LruCache` agrees with a simple reference model on
//! every hit, every victim's writeback address, and every `flush_dirty`
//! list in order.
//!
//! Deterministically seeded (the workspace builds offline with no property
//! -testing dependency), so every run exercises the same traces.

use grcache::{CacheConfig, Lookup, LruCache};

/// SplitMix64 — a tiny deterministic generator for test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One set of the reference: its physical ways and a most-recent-first
/// list of the filled way indices.
#[derive(Clone)]
struct RefSet {
    ways: Vec<Option<(u64, bool)>>,
    recency: Vec<usize>,
}

/// An obviously-correct LRU cache that also tracks physical way placement:
/// a fill takes the first free way and an eviction reuses the LRU's way, so
/// `flush_dirty` (sets ascending, then ways ascending) has one right order.
struct Reference {
    sets: Vec<RefSet>,
    set_mask: u64,
}

impl Reference {
    fn new(cfg: CacheConfig) -> Self {
        let set = RefSet { ways: vec![None; cfg.ways], recency: Vec::new() };
        Reference { sets: vec![set; cfg.sets()], set_mask: cfg.sets() as u64 - 1 }
    }

    /// Returns `(hit, writeback)` like [`LruCache::access`].
    fn access(&mut self, block: u64, write: bool) -> (bool, Option<u64>) {
        let set = &mut self.sets[(block & self.set_mask) as usize];
        let slot = set.ways.iter().position(|w| matches!(w, Some((b, _)) if *b == block));
        if let Some(way) = slot {
            if let Some((_, dirty)) = &mut set.ways[way] {
                *dirty |= write;
            }
            set.recency.retain(|&w| w != way);
            set.recency.insert(0, way);
            return (true, None);
        }
        let (way, writeback) = match set.ways.iter().position(Option::is_none) {
            Some(free) => (free, None),
            None => {
                let lru = set.recency.pop().expect("full set has an LRU way");
                let (victim, dirty) = set.ways[lru].expect("filled way");
                (lru, dirty.then_some(victim))
            }
        };
        set.ways[way] = Some((block, write));
        set.recency.insert(0, way);
        (false, writeback)
    }

    fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for (block, dirty) in set.ways.iter_mut().flatten() {
                if *dirty {
                    out.push(*block);
                    *dirty = false;
                }
            }
        }
        out
    }
}

/// Every geometry `RenderCaches::new()` builds (vertex index, vertex, HiZ,
/// Z, stencil, render target, other, texture L1/L2/L3), as `(KB, ways)`.
const RENDER_GEOMETRIES: [(u64, usize); 10] = [
    (1, 16),
    (16, 128),
    (12, 24),
    (32, 32),
    (16, 16),
    (24, 24),
    (8, 8),
    (16, 8),
    (64, 16),
    (384, 48),
];

/// Draws a locality-biased block stream: most accesses reuse a recent
/// block at a log-uniform reuse distance (so hits land at every LRU depth
/// and re-order sets), the rest touch fresh blocks from a footprint of four
/// cache capacities (so sets fill and evict). `base` offsets every block,
/// so tags use the high address bits too.
struct Traffic {
    rng: Rng,
    history: Vec<u64>,
    footprint: u64,
    base: u64,
}

impl Traffic {
    fn next(&mut self) -> u64 {
        let n = self.history.len() as u64;
        let block = if n > 0 && self.rng.below(3) != 0 {
            let span = 1u64 << self.rng.below(u64::from(n.ilog2()) + 1);
            self.history[(n - 1 - self.rng.below(span.min(n))) as usize]
        } else {
            self.base.wrapping_add(self.rng.below(self.footprint))
        };
        self.history.push(block);
        block
    }
}

/// Runs `cases` traces on `cfg`; returns how many mid-trace flushes ran.
fn check_geometry(cfg: CacheConfig, rng: &mut Rng, cases: u32) -> u32 {
    let blocks = cfg.blocks() as u64;
    let mut mid_flushes = 0;
    for case in 0..cases {
        let mut traffic = Traffic {
            rng: Rng(rng.next()),
            history: Vec::new(),
            footprint: 4 * blocks,
            base: if case == 0 { 0 } else { rng.next() },
        };
        let mut dut = LruCache::new(cfg);
        let mut reference = Reference::new(cfg);
        let (mut hits, mut writebacks, mut flushed) = (0u64, 0u64, 0u64);
        let len = 6 * blocks + 1_000;
        for i in 0..len {
            let block = traffic.next();
            let write = rng.below(3) == 0;
            let expected = reference.access(block, write);
            let got = dut.access(block, write);
            match (expected, got) {
                ((true, _), Lookup::Hit) => hits += 1,
                ((false, wb_e), Lookup::Miss { writeback: wb_g }) => {
                    assert_eq!(wb_e, wb_g, "{cfg:?} case {case}: writeback mismatch at access {i}");
                    writebacks += u64::from(wb_g.is_some());
                }
                (e, g) => panic!(
                    "{cfg:?} case {case} access {i} ({block}, write={write}): \
                     expected {e:?}, got {g:?}"
                ),
            }
            // Mid-trace flushes: the drained order must match, and the
            // cleaned lines must not write back again.
            if rng.below(4 * blocks + 64) == 0 {
                let want = reference.flush_dirty();
                flushed += want.len() as u64;
                mid_flushes += 1;
                assert_eq!(dut.flush_dirty(), want, "{cfg:?} case {case}: flush at access {i}");
            }
        }
        let want = reference.flush_dirty();
        flushed += want.len() as u64;
        assert_eq!(dut.flush_dirty(), want, "{cfg:?} case {case}: final flush");
        assert!(dut.flush_dirty().is_empty());
        assert_eq!(dut.hits(), hits);
        assert_eq!(dut.hits() + dut.misses(), len);
        // The generator must exercise what the comparison is for.
        assert!(hits > len / 4, "{cfg:?} case {case}: only {hits} hits of {len}");
        assert!(writebacks > 0, "{cfg:?} case {case}: no dirty evictions");
        assert!(flushed > 0, "{cfg:?} case {case}: nothing flushed");
    }
    mid_flushes
}

#[test]
fn lru_cache_matches_reference_on_every_render_geometry() {
    let mut rng = Rng(0x1_0b5e55ed);
    for (kb, ways) in RENDER_GEOMETRIES {
        let mid_flushes = check_geometry(CacheConfig::kb(kb, ways), &mut rng, 3);
        assert!(mid_flushes > 0, "{kb} KB / {ways}-way: no mid-trace flush");
    }
}

#[test]
fn lru_cache_matches_reference_on_small_geometries() {
    let mut rng = Rng(0x5eed_cafe);
    // 4 sets x 4 ways, 2 x 2, 1 x 1, and one fully associative 8-way set.
    for (blocks, ways) in [(16, 4), (4, 2), (1, 1), (8, 8)] {
        let mid_flushes =
            check_geometry(CacheConfig { size_bytes: blocks * 64, ways }, &mut rng, 32);
        assert!(mid_flushes > 0, "{blocks} blocks / {ways}-way: no mid-trace flush");
    }
}
