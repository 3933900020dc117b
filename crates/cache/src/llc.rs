//! The banked, non-inclusive/non-exclusive LLC simulator.
//!
//! This is the offline LLC model of the paper: it digests the LLC load/store
//! access trace produced by the render-cache hierarchy and executes a
//! pluggable replacement [`Policy`]. A miss always fills the requested block
//! (unless the policy bypasses the access, as with uncached displayable
//! color); an eviction never invalidates the internal render caches.
//!
//! The simulator sits in the middle of the streaming pipeline: it pulls
//! from any [`AccessSource`] ([`Llc::run_source`]) — a materialized trace,
//! a chunked disk reader, or the renderer emitting band by band — and
//! pushes events into one composable [`LlcObserver`] chosen at
//! construction. The default [`NullObserver`] instantiation carries zero
//! per-access instrumentation branches.
//!
//! # The replay core
//!
//! Every access runs the same three phases, one access at a time: a *map*
//! phase computes the access's `(bank, set, tag)` coordinates
//! (`map_access`), a *probe* compares the tag against the packed mirror
//! (`probe_scalar`), and a *retire* phase applies the hit, bypass,
//! victim, and fill logic (`retire`). [`Llc::access`], [`Llc::run_trace`]
//! and [`Llc::run_source`] all run this one loop on every host, so
//! streamed, materialized and access-by-access replays are bit-identical:
//! same stats, same memory-log order, same characterization.

use std::io;

use grtrace::{Access, AccessSource, Chunk, StreamId, Trace};

use crate::{
    AccessInfo, Block, CharTracker, LlcConfig, LlcGeometry, LlcObserver, LlcStats, MemoryLog,
    NullObserver, Policy, SetSnapshot,
};

/// The tag probe: bit `w` of the result is set iff `tags[w] == tag`. Every
/// way's equality bit is OR-folded into the mask, so the loop is branchless,
/// never mispredicts, and vectorizes. Callers AND the result with the set's
/// validity mask; the probe itself never consults it.
#[inline]
fn probe_scalar(tags: &[u64], tag: u64) -> u64 {
    let mut eq = 0u64;
    for (i, &t) in tags.iter().enumerate() {
        eq |= u64::from(t == tag) << i;
    }
    eq
}

/// One access decomposed for the retire phase: the mapped coordinates from
/// `map_access` plus the probe's match mask.
#[derive(Debug)]
struct Slot {
    /// Block address of the access.
    block: u64,
    /// Tag to match against the mirror.
    tag: u64,
    /// Belady next-use annotation (`u64::MAX` when unannotated).
    next_use: u64,
    /// Validity bitmask of the set, as read during the map phase.
    vmask: u64,
    /// Way-match mask: probe result ANDed with `vmask`.
    hit_mask: u64,
    /// Bank index.
    bank: usize,
    /// Set index within the bank.
    set_in_bank: usize,
    /// Flat set index across banks.
    set_idx: usize,
    /// Index of the set's first tag word in the flat mirror.
    base: usize,
    /// Graphics stream of the access.
    stream: StreamId,
    /// `true` for a store.
    write: bool,
}

/// Outcome of one LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The block was resident.
    Hit,
    /// The block was filled; `dirty_eviction` is `true` when a dirty block
    /// was displaced to memory.
    Miss {
        /// Whether the fill displaced a dirty block.
        dirty_eviction: bool,
    },
    /// The access went around the LLC (straight to memory).
    Bypass,
}

/// A banked last-level cache executing a replacement policy `P`.
///
/// # Data layout
///
/// The probe — the only work every access pays — runs over a packed probe
/// mirror: one `u64` tag word per way (`tags`) plus one validity bitmask
/// `u64` per set (`valid`). A 16-way set's tag words span two cache
/// lines, against the six lines of [`Block`] structs an
/// array-of-structs probe walks, and the compare is branchless: every
/// way's equality bit is OR-folded into a match mask, which vectorizes
/// and never mispredicts. Free-way selection on the miss path is a
/// single bit-scan of the inverted validity mask. The authoritative
/// per-way state stays in one flat [`Block`] array, so the policy
/// callbacks receive the stable `&mut [Block]` set slice with no
/// per-access marshalling — the adapter is the mirror itself, which the
/// simulator rewrites only on fills (the sole event that changes a way's
/// tag or validity).
///
/// # Example
///
/// ```
/// use grcache::{Llc, LlcConfig, AccessInfo, Block, FillInfo, Policy};
/// use grtrace::{Access, StreamId};
///
/// /// Evict way 0 always — a deliberately bad policy for the example.
/// struct Way0;
/// impl Policy for Way0 {
///     fn name(&self) -> &str { "WAY0" }
///     fn state_bits_per_block(&self) -> u32 { 0 }
///     fn on_hit(&mut self, _: &AccessInfo, _: &mut [Block], _: usize) {}
///     fn choose_victim(&mut self, _: &AccessInfo, _: &mut [Block]) -> usize { 0 }
///     fn on_fill(&mut self, _: &AccessInfo, _: &mut [Block], _: usize) -> FillInfo {
///         FillInfo::default()
///     }
/// }
///
/// let mut llc = Llc::new(LlcConfig::mb(8), Way0);
/// llc.access(&Access::load(0, StreamId::Texture));
/// llc.access(&Access::load(0, StreamId::Texture));
/// assert_eq!(llc.stats().total_hits(), 1);
/// ```
#[derive(Debug)]
pub struct Llc<P, O = NullObserver> {
    cfg: LlcConfig,
    /// Precomputed mapping constants — keeps the division in
    /// [`LlcConfig::sets_per_bank`] out of the per-access path.
    geo: LlcGeometry,
    policy: P,
    observer: O,
    /// Per-way tag words, probed before anything else is touched. A
    /// probe mirror of `blocks`, rewritten on fills only.
    tags: Vec<u64>,
    /// One validity bitmask per set (bit `w` = way `w` holds a block).
    valid: Vec<u64>,
    /// Authoritative per-way state — the policy-facing view.
    blocks: Vec<Block>,
    stats: LlcStats,
    seq: u64,
}

impl<P: Policy> Llc<P, NullObserver> {
    /// Creates an empty LLC running `policy` with no instrumentation — the
    /// zero-overhead configuration every plain miss sweep uses.
    pub fn new(cfg: LlcConfig, policy: P) -> Self {
        Llc::with_observer(cfg, policy, NullObserver)
    }

    /// Enables the characterization tracker (Figures 6, 7, 9 bookkeeping).
    pub fn with_characterization(self) -> Llc<P, CharTracker> {
        let chars = CharTracker::new(&self.cfg);
        self.replace_observer(chars)
    }

    /// Records every DRAM-bound transfer (miss fills and writebacks) so a
    /// memory timing model can replay them.
    pub fn with_memory_log(self) -> Llc<P, MemoryLog> {
        self.replace_observer(MemoryLog::new())
    }
}

impl<P: Policy, O: LlcObserver> Llc<P, O> {
    /// Creates an empty LLC running `policy` with `observer` attached as
    /// the event sink. Compose observers with tuples and `Option`s, e.g.
    /// `(Option<CharTracker>, Option<MemoryLog>)` for runtime-selected
    /// instrumentation.
    ///
    /// # Panics
    ///
    /// Panics if the configured associativity exceeds 64 ways (the per-set
    /// validity bitmask is a single `u64` word) or the geometry fails
    /// [`LlcConfig::validate`].
    pub fn with_observer(cfg: LlcConfig, policy: P, observer: O) -> Self {
        assert!(cfg.ways <= 64, "set bitmasks support at most 64 ways");
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Llc {
            cfg,
            geo: cfg.geometry(),
            policy,
            observer,
            tags: vec![0; cfg.total_blocks()],
            valid: vec![0; cfg.total_sets()],
            blocks: vec![Block::default(); cfg.total_blocks()],
            stats: LlcStats::new(),
            seq: 0,
        }
    }

    /// Swaps the observer type before any access has been serviced.
    fn replace_observer<O2: LlcObserver>(self, observer: O2) -> Llc<P, O2> {
        debug_assert_eq!(self.seq, 0, "observers must be attached before the first access");
        Llc {
            cfg: self.cfg,
            geo: self.geo,
            policy: self.policy,
            observer,
            tags: self.tags,
            valid: self.valid,
            blocks: self.blocks,
            stats: self.stats,
            seq: self.seq,
        }
    }

    /// The recorded DRAM-bound transfers, if an attached observer keeps
    /// them (see [`MemoryLog`]): `(block, is_write)` in issue order.
    pub fn memory_log(&self) -> Option<&[(u64, bool)]> {
        self.observer.memory_log()
    }

    /// The LLC geometry.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// The policy, for inspection.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The attached observer, for inspection.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The attached observer, mutably: to drain one that holds work still
    /// pending when the replay ends.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Characterization report, if an attached observer builds one (see
    /// [`CharTracker`]).
    pub fn characterization(&self) -> Option<&crate::CharReport> {
        self.observer.char_report()
    }

    /// Services one access with no next-use annotation.
    pub fn access(&mut self, access: &Access) -> AccessResult {
        self.access_annotated(access, u64::MAX)
    }

    /// Services one access carrying the trace position of the *next* access
    /// to the same block (`u64::MAX` if never; only Belady's policy uses it).
    pub fn access_annotated(&mut self, access: &Access, next_use: u64) -> AccessResult {
        // The paper's LLC is 16-way in every configuration; routing the
        // dominant associativity through a const-generic body gives the
        // probe and fill paths compile-time trip counts (full unroll, no
        // bounds checks). The branch is on a loop-invariant field, so the
        // predictor never misses it.
        if self.cfg.ways == 16 {
            self.access_one::<16>(access, next_use)
        } else {
            self.access_one::<0>(access, next_use)
        }
    }

    /// The plain per-access path, specialized per associativity (`WAYS` is
    /// the compile-time way count, or 0 for any associativity): map, probe,
    /// retire.
    #[inline(always)]
    fn access_one<const WAYS: usize>(&mut self, access: &Access, next_use: u64) -> AccessResult {
        let ways = if WAYS > 0 { WAYS } else { self.cfg.ways };
        let mut slot = self.map_access(access, next_use, ways);
        let base = slot.base;
        // SAFETY: `base + ways <= tags.len()` for every mapped slot (see
        // `map_access`).
        let tags = unsafe { self.tags.get_unchecked(base..base + ways) };
        slot.hit_mask = probe_scalar(tags, slot.tag) & slot.vmask;
        self.retire::<WAYS>(&slot)
    }

    /// The map phase: decomposes one access into a probe [`Slot`]. Pure
    /// reads — the slot captures the validity mask as of now, which stays
    /// exact until a fill to the same set.
    ///
    /// Every slot it returns satisfies the invariant the unchecked indexing
    /// in the probe and retire phases relies on: `map` masks `set` into
    /// `[0, sets_per_bank)` and `bank` into `[0, banks)`, so `set_idx <
    /// valid.len()` and `base + ways <= tags.len() == blocks.len()`. The
    /// bounds checks this elides sit on the hottest path in the repository.
    #[inline(always)]
    fn map_access(&self, access: &Access, next_use: u64, ways: usize) -> Slot {
        let block = access.block();
        let (bank, set, tag) = self.geo.map(block);
        let set_idx = self.geo.set_index(bank, set);
        let base = set_idx * ways;
        debug_assert!(set_idx < self.valid.len());
        debug_assert!(base + ways <= self.tags.len());
        Slot {
            block,
            tag,
            next_use,
            // SAFETY: `set_idx < valid.len()` (see above).
            vmask: unsafe { *self.valid.get_unchecked(set_idx) },
            hit_mask: 0,
            bank,
            set_in_bank: set,
            set_idx,
            base,
            stream: access.stream(),
            write: access.write(),
        }
    }

    /// The retire phase: consumes one probed [`Slot`] — statistics, policy
    /// callbacks, observer events, and the fill's mirror rewrite. The
    /// slot's `hit_mask` and `vmask` must reflect the mirror as of this
    /// call.
    #[inline(always)]
    fn retire<const WAYS: usize>(&mut self, slot: &Slot) -> AccessResult {
        let ways = if WAYS > 0 { WAYS } else { self.cfg.ways };
        let set_idx = slot.set_idx;
        let base = slot.base;
        let info = AccessInfo {
            seq: self.seq,
            block: slot.block,
            bank: slot.bank,
            set_in_bank: slot.set_in_bank,
            stream: slot.stream,
            class: slot.stream.policy_class(),
            write: slot.write,
            is_sample: self.cfg.is_sample_set(slot.set_in_bank),
            next_use: slot.next_use,
        };
        self.seq += 1;
        let next_use = slot.next_use;
        let vmask = slot.vmask;
        let hit_mask = slot.hit_mask;

        if hit_mask != 0 {
            let way = hit_mask.trailing_zeros() as usize;
            self.stats.record_hit(info.stream);
            // SAFETY: the slot came from `map_access`, so `base + ways <=
            // blocks.len()`; `hit_mask` only carries equality bits below
            // `ways`, so its lowest set bit indexes inside the set.
            let set_blocks = unsafe { self.blocks.get_unchecked_mut(base..base + ways) };
            let hit_block = unsafe { set_blocks.get_unchecked_mut(way) };
            hit_block.dirty |= info.write;
            hit_block.next_use = next_use;
            self.observer.observe_hit(&info, way);
            self.policy.on_hit(&info, set_blocks, way);
            if O::WANTS_SET_STATE {
                self.observer.observe_set_state(
                    &info,
                    SetSnapshot {
                        tags: &self.tags[base..base + ways],
                        valid_mask: self.valid[set_idx],
                        blocks: &self.blocks[base..base + ways],
                        touched_way: way,
                        hit: true,
                    },
                );
            }
            return AccessResult::Hit;
        }

        self.stats.record_miss(info.stream);

        if self.policy.should_bypass(&info) {
            if info.write {
                self.stats.bypassed_writes += 1;
            } else {
                self.stats.bypassed_reads += 1;
            }
            self.observer.observe_bypass(&info);
            return AccessResult::Bypass;
        }

        // Fill the first free way (one bit-scan of the inverted validity
        // mask), else ask the policy for a victim.
        let free = (!vmask).trailing_zeros() as usize;
        // SAFETY: `base + ways <= blocks.len()` (see the hit path).
        let set_blocks = unsafe { self.blocks.get_unchecked_mut(base..base + ways) };
        let mut dirty_eviction = false;
        let way = if free < ways {
            free
        } else {
            let victim = self.policy.choose_victim(&info, set_blocks);
            debug_assert!(victim < ways, "victim out of range");
            self.policy.on_evict(&info, set_blocks, victim);
            self.stats.evictions += 1;
            dirty_eviction = set_blocks[victim].dirty;
            if dirty_eviction {
                self.stats.writebacks += 1;
            }
            // A writeback goes to the *victim's* address, rebuilt from
            // its tag and the shared (bank, set); the rebuild is only
            // paid when the attached observer declares it needs it.
            let victim_block = if O::NEEDS_VICTIM_ADDR {
                self.geo.unmap(info.bank, info.set_in_bank, self.tags[base + victim])
            } else {
                0
            };
            self.observer.observe_evict(&info, victim, victim_block, dirty_eviction);
            victim
        };

        // Install the block, let the policy initialize its state, then
        // refresh the probe mirror — a fill is the only event that changes
        // a way's tag or validity.
        set_blocks[way] = Block { valid: true, dirty: info.write, meta: 0, next_use };
        let fill = self.policy.on_fill(&info, set_blocks, way);
        self.tags[base + way] = slot.tag;
        self.valid[set_idx] |= 1 << way;
        self.stats.record_fill(info.class, fill.distant);
        self.observer.observe_fill(&info, way);
        if O::WANTS_SET_STATE {
            self.observer.observe_set_state(
                &info,
                SetSnapshot {
                    tags: &self.tags[base..base + ways],
                    valid_mask: self.valid[set_idx],
                    blocks: &self.blocks[base..base + ways],
                    touched_way: way,
                    hit: false,
                },
            );
        }
        AccessResult::Miss { dirty_eviction }
    }

    /// Flips one bit of the probe-mirror tag word currently holding
    /// `block`, returning `true` if the block was resident. **Test-only
    /// fault injection**: this desynchronizes the packed mirror from the
    /// authoritative [`Block`] array exactly the way a buggy fill-path
    /// refactor would, so the differential harness can prove it detects
    /// and shrinks such bugs. Never call it outside a checking harness.
    #[doc(hidden)]
    pub fn corrupt_mirror_tag_for_test(&mut self, block: u64) -> bool {
        let (bank, set, tag) = self.geo.map(block);
        let set_idx = self.geo.set_index(bank, set);
        let base = set_idx * self.cfg.ways;
        let vmask = self.valid[set_idx];
        for way in 0..self.cfg.ways {
            if vmask >> way & 1 == 1 && self.tags[base + way] == tag {
                self.tags[base + way] ^= 1;
                return true;
            }
        }
        false
    }

    /// Replays one access slice through the plain per-access loop.
    fn run_slice<const WAYS: usize>(&mut self, accesses: &[Access], next_uses: Option<&[u64]>) {
        match next_uses {
            Some(nu) => {
                for (a, &next) in accesses.iter().zip(nu) {
                    self.access_one::<WAYS>(a, next);
                }
            }
            None => {
                for a in accesses {
                    self.access_one::<WAYS>(a, u64::MAX);
                }
            }
        }
    }

    /// Routes a slice replay through the dominant-associativity
    /// const-generic body (see [`Llc::access_annotated`]).
    fn dispatch_slice(&mut self, accesses: &[Access], next_uses: Option<&[u64]>) {
        if self.cfg.ways == 16 {
            self.run_slice::<16>(accesses, next_uses)
        } else {
            self.run_slice::<0>(accesses, next_uses)
        }
    }

    /// Replays a whole trace. When `next_uses` is provided it must have one
    /// entry per access (see [`crate::annotate_next_use`]).
    ///
    /// # Panics
    ///
    /// Panics if `next_uses` is provided with a length different from the
    /// trace.
    pub fn run_trace(&mut self, trace: &Trace, next_uses: Option<&[u64]>) {
        if let Some(nu) = next_uses {
            assert_eq!(nu.len(), trace.len(), "annotation length mismatch");
        }
        self.dispatch_slice(trace.accesses(), next_uses);
    }

    /// Drains an [`AccessSource`] through the LLC, chunk by chunk, and
    /// returns the number of accesses serviced. Each chunk runs through
    /// the same slice driver as [`Llc::run_trace`], so streamed and
    /// materialized replays are bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from disk-backed sources; in-memory and
    /// synthesized sources never fail.
    pub fn run_source<S: AccessSource>(&mut self, source: &mut S) -> io::Result<u64> {
        let mut serviced = 0u64;
        while source.advance()? {
            let Chunk { accesses, next_uses } = source.chunk();
            serviced += accesses.len() as u64;
            if let Some(nu) = next_uses {
                debug_assert_eq!(nu.len(), accesses.len(), "annotation length mismatch");
            }
            self.dispatch_slice(accesses, next_uses);
        }
        Ok(serviced)
    }

    /// Consumes the LLC, returning `(stats, policy)`.
    pub fn into_parts(self) -> (LlcStats, P) {
        (self.stats, self.policy)
    }

    /// Consumes the LLC, returning the attached observer.
    pub fn into_observer(self) -> O {
        self.observer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FillInfo;

    /// LRU-by-sequence policy for testing the simulator plumbing.
    struct TestLru {
        tick: u32,
    }

    impl Policy for TestLru {
        fn name(&self) -> &str {
            "TEST-LRU"
        }
        fn state_bits_per_block(&self) -> u32 {
            32
        }
        fn on_hit(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) {
            set[way].meta = self.tick;
            self.tick += 1;
        }
        fn choose_victim(&mut self, _a: &AccessInfo, set: &mut [Block]) -> usize {
            set.iter().enumerate().min_by_key(|(_, b)| b.meta).map(|(i, _)| i).unwrap()
        }
        fn on_fill(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
            set[way].meta = self.tick;
            self.tick += 1;
            FillInfo::rrip(2, 3)
        }
    }

    fn small_llc() -> Llc<TestLru> {
        // 4 banks x 2 sets x 2 ways = 16 blocks = 1 KB.
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        Llc::new(cfg, TestLru { tick: 0 })
    }

    /// Block addresses that land in bank 0, set 0 of `small_llc`.
    fn conflicting_blocks(n: u64) -> Vec<u64> {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        (0..10_000u64)
            .filter(|&b| {
                let (bank, set, _) = cfg.map(b);
                (bank, set) == (0, 0)
            })
            .take(n as usize)
            .collect()
    }

    /// 768 sets over four banks is 192 per bank: the index mask would
    /// reach only 128 of them, so construction refuses the geometry.
    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_are_rejected() {
        let cfg = LlcConfig { size_bytes: 768 * 16 * 64, ways: 16, banks: 4, sample_period: 64 };
        assert_eq!(cfg.total_sets(), 768);
        Llc::new(cfg, TestLru { tick: 0 });
    }

    #[test]
    fn fill_then_hit() {
        let mut llc = small_llc();
        let a = Access::load(0, StreamId::Texture);
        assert!(matches!(llc.access(&a), AccessResult::Miss { .. }));
        assert_eq!(llc.access(&a), AccessResult::Hit);
        assert_eq!(llc.stats().hits(StreamId::Texture), 1);
        assert_eq!(llc.stats().misses(StreamId::Texture), 1);
    }

    #[test]
    fn capacity_eviction_uses_policy() {
        let mut llc = small_llc();
        for b in conflicting_blocks(3) {
            llc.access(&Access::load(b * 64, StreamId::Z));
        }
        // Block 0 was LRU and must be gone; block 8 and 16 resident.
        assert!(matches!(llc.access(&Access::load(0, StreamId::Z)), AccessResult::Miss { .. }));
        assert_eq!(llc.stats().evictions, 2); // block 0 evicted, then block 8
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut llc = small_llc();
        let blocks = conflicting_blocks(3);
        llc.access(&Access::store(blocks[0] * 64, StreamId::RenderTarget));
        llc.access(&Access::load(blocks[1] * 64, StreamId::RenderTarget));
        match llc.access(&Access::load(blocks[2] * 64, StreamId::RenderTarget)) {
            AccessResult::Miss { dirty_eviction } => assert!(dirty_eviction),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(llc.stats().writebacks, 1);
    }

    #[test]
    fn writeback_logs_victim_address() {
        let mut llc = small_llc().with_memory_log();
        let blocks = conflicting_blocks(3);
        // Dirty the first two blocks (filling both ways of the set), then
        // force an eviction with a third conflicting load.
        llc.access(&Access::store(blocks[0] * 64, StreamId::RenderTarget));
        llc.access(&Access::store(blocks[1] * 64, StreamId::RenderTarget));
        llc.access(&Access::load(blocks[2] * 64, StreamId::RenderTarget));
        let writebacks: Vec<u64> =
            llc.memory_log().unwrap().iter().filter(|(_, write)| *write).map(|(b, _)| *b).collect();
        // TestLru evicts blocks[0]; the logged writeback must carry the
        // victim's own address, not the incoming block's.
        assert_eq!(writebacks, vec![blocks[0]]);
        assert_ne!(blocks[0], blocks[2]);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut llc = small_llc();
        let blocks = conflicting_blocks(3);
        llc.access(&Access::load(blocks[0] * 64, StreamId::Z));
        llc.access(&Access::store(blocks[0] * 64, StreamId::Z)); // hit, dirties
        llc.access(&Access::load(blocks[1] * 64, StreamId::Z));
        llc.access(&Access::load(blocks[2] * 64, StreamId::Z)); // evicts block 0
        assert_eq!(llc.stats().writebacks, 1);
    }

    #[test]
    fn characterization_hooks_fire() {
        let mut llc = small_llc().with_characterization();
        llc.access(&Access::store(0, StreamId::RenderTarget));
        llc.access(&Access::load(0, StreamId::Texture));
        let report = llc.characterization().unwrap();
        assert_eq!(report.rt_produced, 1);
        assert_eq!(report.rt_consumed, 1);
    }

    /// Evicts the way whose next use lies farthest ahead — a policy whose
    /// decisions depend on the next-use annotation.
    struct TestFarthest;
    impl Policy for TestFarthest {
        fn name(&self) -> &str {
            "TEST-FARTHEST"
        }
        fn state_bits_per_block(&self) -> u32 {
            0
        }
        fn on_hit(&mut self, _a: &AccessInfo, _s: &mut [Block], _w: usize) {}
        fn choose_victim(&mut self, _a: &AccessInfo, set: &mut [Block]) -> usize {
            set.iter().enumerate().max_by_key(|(_, b)| b.next_use).map(|(i, _)| i).unwrap()
        }
        fn on_fill(&mut self, _a: &AccessInfo, _s: &mut [Block], _w: usize) -> FillInfo {
            FillInfo::default()
        }
    }

    /// Replays `t` access by access through [`Llc::access_annotated`] and
    /// as one slice through [`Llc::run_trace`], asserting identical stats
    /// and memory logs.
    fn assert_slice_matches_manual<P: Policy>(
        cfg: LlcConfig,
        policy: impl Fn() -> P,
        t: &Trace,
        next_uses: Option<&[u64]>,
    ) {
        let mut manual = Llc::new(cfg, policy()).with_memory_log();
        for (i, acc) in t.iter().enumerate() {
            manual.access_annotated(acc, next_uses.map_or(u64::MAX, |nu| nu[i]));
        }
        assert!(manual.stats().evictions > 0, "trace must exercise the victim path");
        let mut llc = Llc::new(cfg, policy()).with_memory_log();
        llc.run_trace(t, next_uses);
        let what = format!("ways={} annotated={}", cfg.ways, next_uses.is_some());
        assert_eq!(llc.stats(), manual.stats(), "{what}");
        assert_eq!(llc.memory_log(), manual.memory_log(), "{what}");
    }

    /// A slice replay matches access-by-access replay at 2 and at the
    /// paper's 16 ways, annotated and unannotated.
    #[test]
    fn run_trace_matches_manual_replay() {
        // 4 banks x 2 sets x 16 ways = 8 KB: tiny enough to evict.
        let sixteen = LlcConfig { size_bytes: 8192, ways: 16, banks: 4, sample_period: 2 };
        let t = conflict_trace(4_000);
        let nu = crate::annotate_next_use(t.accesses());
        for cfg in [small_llc().config(), sixteen] {
            for next_uses in [None, Some(nu.as_slice())] {
                assert_slice_matches_manual(cfg, || TestLru { tick: 0 }, &t, next_uses);
                assert_slice_matches_manual(cfg, || TestFarthest, &t, next_uses);
            }
        }
    }

    #[test]
    #[should_panic(expected = "annotation length mismatch")]
    fn run_trace_rejects_bad_annotations() {
        let mut t = Trace::new("t", 0);
        t.push(Access::load(0, StreamId::Z));
        small_llc().run_trace(&t, Some(&[]));
    }

    #[test]
    fn sample_set_flag_follows_config() {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        assert!(cfg.is_sample_set(0));
        assert!(!cfg.is_sample_set(1));
    }

    #[test]
    fn run_source_matches_run_trace() {
        let mut t = Trace::new("t", 0);
        for i in 0..500u64 {
            t.push(Access::load((i % 23) * 64, StreamId::Texture));
        }
        let mut a = small_llc();
        a.run_trace(&t, None);
        let mut b = small_llc();
        let n = b.run_source(&mut t.source()).unwrap();
        assert_eq!(n, 500);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn run_source_carries_annotations() {
        let mut t = Trace::new("t", 0);
        for i in 0..100u64 {
            t.push(Access::load((i % 5) * 64, StreamId::Z));
        }
        let nu = crate::annotate_next_use(t.accesses());
        let mut a = small_llc();
        a.run_trace(&t, Some(&nu));
        let mut b = small_llc();
        b.run_source(&mut t.source_annotated(&nu)).unwrap();
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn streamed_memory_log_is_bit_identical() {
        let mut t = Trace::new("t", 0);
        for i in 0..300u64 {
            let addr = ((i * 7) % 40) * 64;
            t.push(if i % 3 == 0 {
                Access::store(addr, StreamId::RenderTarget)
            } else {
                Access::load(addr, StreamId::Texture)
            });
        }
        let mut a = small_llc().with_memory_log();
        a.run_trace(&t, None);
        let mut b = small_llc().with_memory_log();
        b.run_source(&mut t.source()).unwrap();
        assert_eq!(a.memory_log(), b.memory_log());
        assert!(!a.memory_log().unwrap().is_empty());
    }

    #[test]
    fn invariant_observer_passes_clean_replay() {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        let obs = crate::InvariantObserver::new(&cfg, 32);
        let mut llc = Llc::with_observer(cfg, TestLru { tick: 0 }, obs);
        for i in 0..500u64 {
            let addr = ((i * 13) % 40) * 64;
            if i % 4 == 0 {
                llc.access(&Access::store(addr, StreamId::RenderTarget));
            } else {
                llc.access(&Access::load(addr, StreamId::Texture));
            }
        }
        assert_eq!(llc.observer().checked(), 500);
    }

    /// A policy whose metadata overruns its declared one-bit budget.
    struct MetaHog;
    impl Policy for MetaHog {
        fn name(&self) -> &str {
            "META-HOG"
        }
        fn state_bits_per_block(&self) -> u32 {
            1
        }
        fn on_hit(&mut self, _a: &AccessInfo, _s: &mut [Block], _w: usize) {}
        fn choose_victim(&mut self, _a: &AccessInfo, _s: &mut [Block]) -> usize {
            0
        }
        fn on_fill(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
            set[way].meta = 5; // needs 3 bits, declared 1
            FillInfo::default()
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the declared")]
    fn invariant_observer_catches_meta_overrun() {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        let obs = crate::InvariantObserver::new(&cfg, 1);
        let mut llc = Llc::with_observer(cfg, MetaHog, obs);
        llc.access(&Access::load(0, StreamId::Texture));
    }

    #[test]
    fn mirror_fault_injector_flips_resident_tag_only() {
        let mut llc = small_llc();
        llc.access(&Access::load(0, StreamId::Texture));
        assert!(!llc.corrupt_mirror_tag_for_test(999_999));
        assert!(llc.corrupt_mirror_tag_for_test(0));
        // The mirror no longer matches block 0: the re-access misses.
        assert!(matches!(
            llc.access(&Access::load(0, StreamId::Texture)),
            AccessResult::Miss { .. }
        ));
    }

    /// A conflict-heavy mixed trace: same-set bursts plus spread traffic.
    fn conflict_trace(len: u64) -> Trace {
        let blocks = conflicting_blocks(6);
        let mut t = Trace::new("conflicts", 0);
        for i in 0..len {
            let addr =
                if i % 3 == 0 { blocks[(i % 5) as usize] * 64 } else { ((i * 13) % 397) * 64 };
            t.push(if i % 4 == 0 {
                Access::store(addr, StreamId::RenderTarget)
            } else {
                Access::load(addr, StreamId::Texture)
            });
        }
        t
    }

    /// Full-width 64-way sets exercise every bit of the match mask.
    #[test]
    fn full_width_mask_has_no_truncation() {
        let tags: Vec<u64> = (0..64).map(|i| u64::from(i % 2 == 0)).collect();
        assert_eq!(probe_scalar(&tags, 1), 0x5555_5555_5555_5555);
        assert_eq!(probe_scalar(&tags, 9), 0);
    }

    #[test]
    fn composed_observer_collects_both_sinks() {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        let obs = (CharTracker::new(&cfg), MemoryLog::new());
        let mut llc = Llc::with_observer(cfg, TestLru { tick: 0 }, obs);
        llc.access(&Access::store(0, StreamId::RenderTarget));
        llc.access(&Access::load(0, StreamId::Texture));
        assert_eq!(llc.characterization().unwrap().rt_consumed, 1);
        assert_eq!(llc.memory_log().unwrap().len(), 1); // the fill
    }
}
