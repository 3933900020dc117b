//! A plain write-back, write-allocate, true-LRU set-associative cache.
//!
//! This is the building block for the small per-stream render caches. The
//! interesting replacement behaviour in this reproduction lives in the LLC
//! ([`crate::llc`]), not here; but every synthesized frame pushes every raw
//! pipeline access through one or more of these caches, so the layout is
//! built for a fast probe:
//!
//! * tags and dirty bits are stored as separate arrays, one slot per way;
//! * a fill always takes the first free way and nothing ever invalidates a
//!   line, so a set's valid ways are the prefix `0..filled`, and the probe
//!   compares tags over that prefix alone (no valid bit, no sentinel tag:
//!   any `u64` block is a legal address);
//! * recency is a per-set doubly linked list of way indices (head = most
//!   recently used, tail = least), so a hit, a fill and an eviction are each
//!   O(1) instead of re-aging every way.

use crate::CacheConfig;

/// Outcome of a [`LruCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The block was present.
    Hit,
    /// The block was absent and has been filled. If filling displaced a
    /// dirty block, `writeback` carries its block address.
    Miss {
        /// Block address of a displaced dirty block, if any.
        writeback: Option<u64>,
    },
}

/// Most associativity a set supports: way indices are `u8` links.
const MAX_WAYS: usize = 256;

/// Per-set bookkeeping: the filled-prefix length and the ends of the
/// recency list. `head`/`tail` are meaningless while `filled == 0`.
#[derive(Debug, Clone, Copy, Default)]
struct SetState {
    filled: u16,
    /// Most recently used way.
    head: u8,
    /// Least recently used way: the next victim once the set is full.
    tail: u8,
}

/// Write-back, write-allocate, true-LRU set-associative cache.
///
/// # Example
///
/// ```
/// use grcache::{CacheConfig, Lookup, LruCache};
///
/// let mut c = LruCache::new(CacheConfig::kb(1, 16));
/// assert_eq!(c.access(7, true), Lookup::Miss { writeback: None });
/// assert_eq!(c.access(7, false), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    cfg: CacheConfig,
    set_mask: u64,
    set_bits: u32,
    /// Way `w` of set `s` lives at index `s * ways + w` of the four arrays.
    tags: Vec<u64>,
    dirty: Vec<bool>,
    /// Recency-list neighbour towards the head (more recently used).
    prev: Vec<u8>,
    /// Recency-list neighbour towards the tail (less recently used).
    next: Vec<u8>,
    sets: Vec<SetState>,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.ways` is in `1..=256` and `cfg.size_bytes` gives
    /// a power-of-two set count of at least one. [`CacheConfig::kb`]
    /// checks the set count, but a struct literal skips it, and the set
    /// index is a mask: any other count would leave sets unreachable.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            (1..=MAX_WAYS).contains(&cfg.ways),
            "CacheConfig.ways must be in 1..={MAX_WAYS}, got {}",
            cfg.ways
        );
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "CacheConfig.size_bytes {} with {} ways gives {sets} sets; \
             the set count must be a power of two",
            cfg.size_bytes,
            cfg.ways
        );
        let blocks = cfg.blocks();
        LruCache {
            cfg,
            set_mask: sets as u64 - 1,
            set_bits: cfg.set_bits(),
            tags: vec![0; blocks],
            dirty: vec![false; blocks],
            prev: vec![0; blocks],
            next: vec![0; blocks],
            sets: vec![SetState::default(); sets],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up `block`; on a miss the block is filled (write-allocate).
    /// Stores mark the block dirty; displacing a dirty block reports a
    /// writeback.
    pub fn access(&mut self, block: u64, write: bool) -> Lookup {
        // `CacheConfig::map` with the mask and shift hoisted out of the
        // access path.
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_bits;
        let base = set * self.cfg.ways;
        let state = self.sets[set];
        let filled = usize::from(state.filled);

        if let Some(way) = probe(&self.tags[base..base + filled], tag) {
            self.dirty[base + way] |= write;
            self.touch(set, way);
            self.hits += 1;
            return Lookup::Hit;
        }

        self.misses += 1;
        if filled < self.cfg.ways {
            // Fill the first free way: the valid ways stay a prefix.
            self.tags[base + filled] = tag;
            self.dirty[base + filled] = write;
            self.push_front(set, filled);
            self.sets[set].filled += 1;
            return Lookup::Miss { writeback: None };
        }

        // Full set: the list tail is the least recently used way. Its
        // address is rebuilt through the same map/unmap pair the LLC's
        // writeback path uses, so the stored tag and the set index always
        // recompose to the original block.
        let way = usize::from(state.tail);
        let slot = base + way;
        let writeback = self.dirty[slot].then(|| self.cfg.unmap(set, self.tags[slot]));
        self.tags[slot] = tag;
        self.dirty[slot] = write;
        self.touch(set, way);
        Lookup::Miss { writeback }
    }

    /// Moves a filled `way` of `set` to the head of its recency list.
    fn touch(&mut self, set: usize, way: usize) {
        let state = self.sets[set];
        if usize::from(state.head) == way {
            return;
        }
        // Unlink: `way` is not the head, so it has a predecessor.
        let base = set * self.cfg.ways;
        let (before, after) = (self.prev[base + way], self.next[base + way]);
        self.next[base + usize::from(before)] = after;
        if usize::from(state.tail) == way {
            self.sets[set].tail = before;
        } else {
            self.prev[base + usize::from(after)] = before;
        }
        self.push_front(set, way);
    }

    /// Links an unlinked `way` of `set` in as the most recently used.
    fn push_front(&mut self, set: usize, way: usize) {
        let base = set * self.cfg.ways;
        let state = &mut self.sets[set];
        // `way < ways <= MAX_WAYS`, so the index fits the `u8` links.
        let w = way as u8;
        if state.filled == 0 {
            state.tail = w;
        } else {
            self.next[base + way] = state.head;
            self.prev[base + usize::from(state.head)] = w;
        }
        state.head = w;
    }

    /// Drains every dirty block, returning their block addresses in set
    /// order, then way order within a set. Used at end-of-frame to flush
    /// pending writebacks into the LLC trace.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for (set, state) in self.sets.iter().enumerate() {
            let base = set * self.cfg.ways;
            let filled = usize::from(state.filled);
            for (dirty, &tag) in
                self.dirty[base..base + filled].iter_mut().zip(&self.tags[base..base + filled])
            {
                if *dirty {
                    out.push(self.cfg.unmap(set, tag));
                    *dirty = false;
                }
            }
        }
        out
    }
}

/// The tag probe over a set's filled prefix: the way holding `tag`, if any.
/// Every slot it reads is valid, so there is no valid bit to test and no
/// sentinel tag to exclude. Tags within a set are distinct.
#[inline]
fn probe(tags: &[u64], tag: u64) -> Option<usize> {
    tags.iter().position(|&t| t == tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LruCache {
        // 2 sets x 2 ways.
        LruCache::new(CacheConfig { size_bytes: 4 * 64, ways: 2 })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(matches!(c.access(0, false), Lookup::Miss { .. }));
        assert_eq!(c.access(0, false), Lookup::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even block addresses).
        c.access(0, false);
        c.access(2, false);
        c.access(0, false); // 0 is now MRU; 2 is LRU
        c.access(4, false); // evicts 2
        assert_eq!(c.access(0, false), Lookup::Hit);
        assert!(matches!(c.access(2, false), Lookup::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, true);
        c.access(2, false);
        // Filling block 4 evicts block 0, which is dirty.
        match c.access(4, false) {
            Lookup::Miss { writeback: Some(addr) } => assert_eq!(addr, 0),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
    }

    #[test]
    fn clean_eviction_reports_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(2, false);
        assert_eq!(c.access(4, false), Lookup::Miss { writeback: None });
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // hit, makes dirty
        c.access(2, false);
        match c.access(4, false) {
            Lookup::Miss { writeback: Some(0) } => {}
            other => panic!("expected writeback of block 0, got {other:?}"),
        }
    }

    #[test]
    fn flush_dirty_returns_and_clears() {
        let mut c = tiny();
        c.access(0, true);
        c.access(1, true);
        c.access(2, false);
        let mut dirty = c.flush_dirty();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 1]);
        assert!(c.flush_dirty().is_empty());
    }

    /// Under random mixed traffic on a multi-set geometry, every address
    /// the cache reports — eviction writebacks and end-of-frame flushes —
    /// reconstructs to a block that was actually written: the stored tag
    /// and set index round-trip through the shared map/unmap math.
    #[test]
    fn writebacks_reconstruct_previously_written_blocks() {
        use std::collections::HashSet;
        let mut c = LruCache::new(CacheConfig::kb(16, 16)); // 16 sets x 16 ways
        let mut written = HashSet::new();
        let mut x = 0x243F6A8885A308D3u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = x % 4096;
            let write = x.is_multiple_of(3);
            if write {
                written.insert(block);
            }
            if let Lookup::Miss { writeback: Some(wb) } = c.access(block, write) {
                assert!(written.contains(&wb), "writeback of never-written block {wb}");
            }
        }
        let flushed = c.flush_dirty();
        assert!(!flushed.is_empty(), "random write traffic left no dirty blocks");
        for wb in flushed {
            assert!(written.contains(&wb), "flush of never-written block {wb}");
        }
    }

    #[test]
    #[should_panic(expected = "gives 3 sets; the set count must be a power of two")]
    fn three_set_geometry_is_rejected() {
        // 768 B / (64 B x 4 ways) = 3 sets; a mask of 2 would never reach set 1.
        LruCache::new(CacheConfig { size_bytes: 768, ways: 4 });
    }

    #[test]
    #[should_panic(expected = "CacheConfig.ways must be in 1..=256, got 300")]
    fn more_than_256_ways_is_rejected() {
        LruCache::new(CacheConfig { size_bytes: 300 * 64, ways: 300 });
    }

    #[test]
    #[should_panic(expected = "CacheConfig.ways must be in 1..=256, got 0")]
    fn zero_ways_is_rejected() {
        LruCache::new(CacheConfig { size_bytes: 1024, ways: 0 });
    }

    #[test]
    fn widest_set_is_true_lru() {
        // One fully associative 256-way set: way indices use the whole u8.
        let mut c = LruCache::new(CacheConfig { size_bytes: 256 * 64, ways: 256 });
        for b in 0..256 {
            c.access(b, b == 1);
        }
        assert_eq!(c.access(0, false), Lookup::Hit); // 1 is now LRU
        assert_eq!(c.access(256, false), Lookup::Miss { writeback: Some(1) });
        assert_eq!(c.access(257, false), Lookup::Miss { writeback: None }); // evicts 2
        assert_eq!(c.access(0, false), Lookup::Hit);
        assert!(matches!(c.access(2, false), Lookup::Miss { .. }));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0, false); // set 0
        c.access(1, false); // set 1
        assert_eq!(c.access(0, false), Lookup::Hit);
        assert_eq!(c.access(1, false), Lookup::Hit);
    }
}
