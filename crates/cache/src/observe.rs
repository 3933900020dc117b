//! Composable LLC observers — the *sinks* of the streaming pipeline.
//!
//! The LLC simulator is generic over one [`LlcObserver`] chosen at
//! construction. Observers are notified of hits, fills, evictions, and
//! bypasses and accumulate whatever instrumentation they exist for; the
//! default [`NullObserver`] compiles every notification away, so the
//! plain-statistics hot path carries **zero per-access observer branches**
//! (the old design tested two `Option` fields on every access).
//!
//! Provided observers:
//!
//! * [`NullObserver`] — nothing (the default),
//! * [`MemoryLog`] — records every DRAM-bound transfer, for tests and
//!   tools that inspect the log (`grgpu::time_frame` times one),
//! * [`InvariantObserver`] — asserts the simulator's structural
//!   invariants after every hit and fill,
//! * [`crate::CharTracker`] — the paper's characterization instrumentation
//!   (Figures 6, 7, 9) implements the trait directly.
//!
//! The observer a timed replay attaches, `grgpu::DramFeed`, lives with the
//! timing model: it pushes each transfer into the DDR3 scheduler as the
//! LLC emits it, in [`MemoryLog`]'s order, and records nothing.
//!
//! Observers compose: a 2-tuple `(A, B)` notifies both members, and
//! `Option<O>` selects an observer at runtime (`None` costs one
//! predictable branch per event). The runner combines these to build
//! exactly the instrumentation a run asks for.

use crate::chartrack::CharTracker;
use crate::policy::AccessInfo;
use crate::{Block, CharReport, LlcConfig, LlcGeometry};

/// A read-only snapshot of one set's post-event state, handed to observers
/// that opt in via [`LlcObserver::WANTS_SET_STATE`]. The simulator emits it
/// after the policy callback of every hit and fill — the two events that
/// mutate per-set state — so a checking observer can validate structural
/// invariants without access to the simulator's private arrays.
#[derive(Debug, Clone, Copy)]
pub struct SetSnapshot<'a> {
    /// The probe mirror's per-way tag words for this set.
    pub tags: &'a [u64],
    /// The probe mirror's validity bitmask (bit `w` = way `w` valid).
    pub valid_mask: u64,
    /// The authoritative policy-facing per-way state.
    pub blocks: &'a [Block],
    /// The way the event touched (the hit way or the filled way).
    pub touched_way: usize,
    /// `true` for a hit, `false` for a fill.
    pub hit: bool,
}

/// Receives notifications about every LLC event.
///
/// All methods default to no-ops so observers implement only what they
/// need. The contract mirrors the simulator's event order per access:
/// `observe_hit` *or* (`observe_bypass` | [`observe_evict`](Self::observe_evict)?
/// then `observe_fill`). An eviction notification always precedes the fill
/// that displaces the victim.
pub trait LlcObserver {
    /// Whether this observer needs the victim's rebuilt block address in
    /// [`LlcObserver::observe_evict`]. Reconstructing it costs an
    /// [`crate::LlcGeometry::unmap`] per eviction, so the simulator skips
    /// the computation entirely when no observer asks for it.
    const NEEDS_VICTIM_ADDR: bool = false;

    /// The access hit way `way` of its set.
    #[inline]
    fn observe_hit(&mut self, info: &AccessInfo, way: usize) {
        let _ = (info, way);
    }

    /// The access missed and went around the LLC straight to memory.
    #[inline]
    fn observe_bypass(&mut self, info: &AccessInfo) {
        let _ = info;
    }

    /// A valid block in way `victim_way` is about to be displaced.
    /// `victim_block` is the victim's block address when
    /// [`LlcObserver::NEEDS_VICTIM_ADDR`] is set (0 otherwise); `dirty` is
    /// whether the displacement writes the victim back to memory.
    #[inline]
    fn observe_evict(
        &mut self,
        info: &AccessInfo,
        victim_way: usize,
        victim_block: u64,
        dirty: bool,
    ) {
        let _ = (info, victim_way, victim_block, dirty);
    }

    /// The missing block was installed in way `way`.
    #[inline]
    fn observe_fill(&mut self, info: &AccessInfo, way: usize) {
        let _ = (info, way);
    }

    /// Whether this observer wants a [`SetSnapshot`] after every hit and
    /// fill. Taking the snapshot re-borrows the touched set's mirror and
    /// block slices, so the simulator skips it entirely (the flag is a
    /// compile-time constant) unless an attached observer opts in.
    const WANTS_SET_STATE: bool = false;

    /// Post-event snapshot of the touched set. Emitted after the policy's
    /// `on_hit` / `on_fill` callback returns, and only when
    /// [`LlcObserver::WANTS_SET_STATE`] is set.
    #[inline]
    fn observe_set_state(&mut self, info: &AccessInfo, snap: SetSnapshot<'_>) {
        let _ = (info, snap);
    }

    /// The recorded DRAM-bound transfers, if this observer keeps them.
    fn memory_log(&self) -> Option<&[(u64, bool)]> {
        None
    }

    /// The characterization report, if this observer builds one.
    fn char_report(&self) -> Option<&CharReport> {
        None
    }
}

/// The default observer: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl LlcObserver for NullObserver {}

/// Structural-invariant checker for the packed probe mirror.
///
/// Attached under `GR_CHECK=1`, it validates after every hit and fill that
/// the simulator's two views of a set — the packed tag/validity mirror and
/// the authoritative [`Block`] array — agree:
///
/// * the touched way's mirror tag unmaps to the accessed block address,
/// * every validity-mask bit matches the corresponding `Block::valid`,
/// * set occupancy is monotonic: a fill grows it by exactly one until the
///   set is full, a hit never changes it,
/// * policy metadata stays inside the policy's declared
///   [`crate::Policy::state_bits_per_block`] budget,
/// * a dirty block is always valid, and a write hit leaves the block dirty.
///
/// Violations panic with the offending access's sequence number, so a
/// differential-fuzz harness can shrink the trace around it.
#[derive(Debug, Clone)]
pub struct InvariantObserver {
    geo: LlcGeometry,
    /// `2^state_bits`, or `None` when the policy's budget is ≥ 32 bits
    /// (the whole `meta` word is fair game).
    meta_limit: Option<u64>,
    /// Tracked per-set occupancy (fills into free ways only ever grow it).
    occupancy: Vec<u8>,
    checked: u64,
}

impl InvariantObserver {
    /// Creates a checker for an LLC with geometry `cfg` running a policy
    /// that declared `state_bits` metadata bits per block.
    pub fn new(cfg: &LlcConfig, state_bits: u32) -> Self {
        InvariantObserver {
            geo: cfg.geometry(),
            meta_limit: (state_bits < 32).then(|| 1u64 << state_bits),
            occupancy: vec![0; cfg.total_sets()],
            checked: 0,
        }
    }

    /// How many snapshots have been validated.
    pub fn checked(&self) -> u64 {
        self.checked
    }
}

impl LlcObserver for InvariantObserver {
    const WANTS_SET_STATE: bool = true;

    fn observe_set_state(&mut self, info: &AccessInfo, snap: SetSnapshot<'_>) {
        self.checked += 1;
        let ways = snap.blocks.len();
        let way = snap.touched_way;
        let seq = info.seq;

        // Mirror/Block agreement on the touched way: valid, and its mirror
        // tag rebuilds the accessed block address.
        assert!(
            snap.valid_mask >> way & 1 == 1,
            "seq {seq}: touched way {way} not valid in mirror mask {:#x}",
            snap.valid_mask
        );
        assert!(snap.blocks[way].valid, "seq {seq}: touched way {way} invalid in Block array");
        let mirrored = self.geo.unmap(info.bank, info.set_in_bank, snap.tags[way]);
        assert_eq!(
            mirrored, info.block,
            "seq {seq}: mirror tag of way {way} unmaps to {mirrored:#x}, accessed {:#x}",
            info.block
        );

        // Validity-bitmask consistency and metadata budget across the set,
        // folded into per-way masks and compared once; only a mismatch
        // walks the set again, to name the first failing way.
        let limit = self.meta_limit.unwrap_or(u64::MAX);
        let (mut valid, mut dirty_invalid, mut over) = (0u64, 0u64, 0u64);
        for (w, b) in snap.blocks.iter().enumerate() {
            valid |= u64::from(b.valid) << w;
            dirty_invalid |= u64::from(b.dirty & !b.valid) << w;
            over |= u64::from(b.valid & (u64::from(b.meta) >= limit)) << w;
        }
        if (valid ^ snap.valid_mask) & (u64::MAX >> (64 - ways)) | dirty_invalid | over != 0 {
            for (w, b) in snap.blocks.iter().enumerate() {
                assert_eq!(
                    snap.valid_mask >> w & 1 == 1,
                    b.valid,
                    "seq {seq}: validity mask bit {w} disagrees with Block::valid"
                );
                assert!(!b.dirty || b.valid, "seq {seq}: way {w} dirty but invalid");
                assert!(
                    !b.valid || u64::from(b.meta) < limit,
                    "seq {seq}: way {w} meta {:#x} exceeds the declared {limit}-value budget",
                    b.meta
                );
            }
            unreachable!("seq {seq}: the folded set check and the walk disagree");
        }

        // Monotonic occupancy: hits preserve it, fills grow it by one until
        // the set is full.
        let set_idx = self.geo.set_index(info.bank, info.set_in_bank);
        let pop = snap.valid_mask.count_ones() as u8;
        let expected = if snap.hit {
            self.occupancy[set_idx]
        } else {
            (self.occupancy[set_idx] + 1).min(ways as u8)
        };
        assert_eq!(
            pop,
            expected,
            "seq {seq}: set {set_idx} occupancy {pop} (expected {expected} after {})",
            if snap.hit { "hit" } else { "fill" }
        );
        self.occupancy[set_idx] = pop;

        // A write that touched the block must leave it dirty.
        if info.write {
            assert!(snap.blocks[way].dirty, "seq {seq}: write left way {way} clean");
        }
    }
}

/// Records every memory-bound transfer — demand-miss fills
/// (`write = false`) and dirty-eviction writebacks (`write = true`) — in
/// issue order, so a DRAM timing model can replay them.
#[derive(Debug, Clone, Default)]
pub struct MemoryLog {
    entries: Vec<(u64, bool)>,
}

impl MemoryLog {
    /// An empty log.
    pub fn new() -> Self {
        MemoryLog::default()
    }

    /// The recorded `(block, is_write)` transfers in issue order.
    pub fn entries(&self) -> &[(u64, bool)] {
        &self.entries
    }

    /// Consumes the log, returning the transfers.
    pub fn into_entries(self) -> Vec<(u64, bool)> {
        self.entries
    }
}

impl LlcObserver for MemoryLog {
    /// Writebacks are logged against the *victim's* address, which must be
    /// rebuilt from its stored tag.
    const NEEDS_VICTIM_ADDR: bool = true;

    #[inline]
    fn observe_bypass(&mut self, info: &AccessInfo) {
        self.entries.push((info.block, info.write));
    }

    #[inline]
    fn observe_evict(&mut self, _info: &AccessInfo, _way: usize, victim_block: u64, dirty: bool) {
        if dirty {
            self.entries.push((victim_block, true));
        }
    }

    #[inline]
    fn observe_fill(&mut self, info: &AccessInfo, _way: usize) {
        self.entries.push((info.block, false));
    }

    fn memory_log(&self) -> Option<&[(u64, bool)]> {
        Some(&self.entries)
    }
}

impl LlcObserver for CharTracker {
    #[inline]
    fn observe_hit(&mut self, info: &AccessInfo, way: usize) {
        self.on_hit(info.class, info.write, info.bank, info.set_in_bank, way);
    }

    #[inline]
    fn observe_evict(&mut self, info: &AccessInfo, victim_way: usize, _block: u64, _dirty: bool) {
        self.on_evict(info.bank, info.set_in_bank, victim_way);
    }

    #[inline]
    fn observe_fill(&mut self, info: &AccessInfo, way: usize) {
        self.on_fill(info.class, info.bank, info.set_in_bank, way);
    }

    fn char_report(&self) -> Option<&CharReport> {
        Some(self.report())
    }
}

/// Composition: both members observe every event, `A` first.
impl<A: LlcObserver, B: LlcObserver> LlcObserver for (A, B) {
    const NEEDS_VICTIM_ADDR: bool = A::NEEDS_VICTIM_ADDR || B::NEEDS_VICTIM_ADDR;
    const WANTS_SET_STATE: bool = A::WANTS_SET_STATE || B::WANTS_SET_STATE;

    #[inline]
    fn observe_set_state(&mut self, info: &AccessInfo, snap: SetSnapshot<'_>) {
        self.0.observe_set_state(info, snap);
        self.1.observe_set_state(info, snap);
    }

    #[inline]
    fn observe_hit(&mut self, info: &AccessInfo, way: usize) {
        self.0.observe_hit(info, way);
        self.1.observe_hit(info, way);
    }

    #[inline]
    fn observe_bypass(&mut self, info: &AccessInfo) {
        self.0.observe_bypass(info);
        self.1.observe_bypass(info);
    }

    #[inline]
    fn observe_evict(
        &mut self,
        info: &AccessInfo,
        victim_way: usize,
        victim_block: u64,
        dirty: bool,
    ) {
        self.0.observe_evict(info, victim_way, victim_block, dirty);
        self.1.observe_evict(info, victim_way, victim_block, dirty);
    }

    #[inline]
    fn observe_fill(&mut self, info: &AccessInfo, way: usize) {
        self.0.observe_fill(info, way);
        self.1.observe_fill(info, way);
    }

    fn memory_log(&self) -> Option<&[(u64, bool)]> {
        self.0.memory_log().or_else(|| self.1.memory_log())
    }

    fn char_report(&self) -> Option<&CharReport> {
        self.0.char_report().or_else(|| self.1.char_report())
    }
}

/// Runtime selection: `None` observes nothing. The victim address is
/// computed whenever `O` would need it (the `None` case wastes the unmap,
/// but runtime-optional observers are only used on instrumented runs).
impl<O: LlcObserver> LlcObserver for Option<O> {
    const NEEDS_VICTIM_ADDR: bool = O::NEEDS_VICTIM_ADDR;
    const WANTS_SET_STATE: bool = O::WANTS_SET_STATE;

    #[inline]
    fn observe_set_state(&mut self, info: &AccessInfo, snap: SetSnapshot<'_>) {
        if let Some(o) = self {
            o.observe_set_state(info, snap);
        }
    }

    #[inline]
    fn observe_hit(&mut self, info: &AccessInfo, way: usize) {
        if let Some(o) = self {
            o.observe_hit(info, way);
        }
    }

    #[inline]
    fn observe_bypass(&mut self, info: &AccessInfo) {
        if let Some(o) = self {
            o.observe_bypass(info);
        }
    }

    #[inline]
    fn observe_evict(
        &mut self,
        info: &AccessInfo,
        victim_way: usize,
        victim_block: u64,
        dirty: bool,
    ) {
        if let Some(o) = self {
            o.observe_evict(info, victim_way, victim_block, dirty);
        }
    }

    #[inline]
    fn observe_fill(&mut self, info: &AccessInfo, way: usize) {
        if let Some(o) = self {
            o.observe_fill(info, way);
        }
    }

    fn memory_log(&self) -> Option<&[(u64, bool)]> {
        self.as_ref().and_then(LlcObserver::memory_log)
    }

    fn char_report(&self) -> Option<&CharReport> {
        self.as_ref().and_then(LlcObserver::char_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtrace::{PolicyClass, StreamId};

    fn info(block: u64, write: bool) -> AccessInfo {
        AccessInfo {
            seq: 0,
            block,
            bank: 0,
            set_in_bank: 0,
            stream: StreamId::Texture,
            class: PolicyClass::Tex,
            write,
            is_sample: false,
            next_use: u64::MAX,
        }
    }

    #[test]
    fn null_observer_reports_nothing() {
        let o = NullObserver;
        assert!(o.memory_log().is_none());
        assert!(o.char_report().is_none());
        const { assert!(!NullObserver::NEEDS_VICTIM_ADDR) };
    }

    #[test]
    fn memory_log_orders_writeback_before_fill() {
        let mut log = MemoryLog::new();
        log.observe_evict(&info(5, false), 0, 99, true);
        log.observe_fill(&info(5, false), 0);
        assert_eq!(log.entries(), &[(99, true), (5, false)]);
    }

    #[test]
    fn memory_log_skips_clean_evictions() {
        let mut log = MemoryLog::new();
        log.observe_evict(&info(5, false), 0, 99, false);
        assert!(log.entries().is_empty());
    }

    #[test]
    fn memory_log_records_bypasses_with_write_flag() {
        let mut log = MemoryLog::new();
        log.observe_bypass(&info(7, true));
        log.observe_bypass(&info(8, false));
        assert_eq!(log.into_entries(), vec![(7, true), (8, false)]);
    }

    #[test]
    fn tuple_composes_flags_and_reports() {
        type Combo = (Option<CharTracker>, Option<MemoryLog>);
        const { assert!(Combo::NEEDS_VICTIM_ADDR) };
        const { assert!(!<(NullObserver, NullObserver)>::NEEDS_VICTIM_ADDR) };

        let mut combo: Combo = (None, Some(MemoryLog::new()));
        combo.observe_fill(&info(3, false), 0);
        assert_eq!(combo.memory_log(), Some(&[(3u64, false)][..]));
        assert!(combo.char_report().is_none());
    }

    /// Checks a two-way set just after block 0 was filled into way 0, as a
    /// fresh [`InvariantObserver`] sees it, once `edit` has changed its
    /// ways and validity mask.
    fn check_fill(edit: impl FnOnce(&mut [Block; 2], &mut u64)) {
        // Block 0 maps to bank 0, set 0, tag 0 in every geometry.
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        let (mut blocks, mut valid_mask) = ([Block::default(); 2], 0b01);
        blocks[0].valid = true;
        edit(&mut blocks, &mut valid_mask);
        let snap =
            SetSnapshot { tags: &[0, 0], valid_mask, blocks: &blocks, touched_way: 0, hit: false };
        InvariantObserver::new(&cfg, 2).observe_set_state(&info(0, false), snap);
    }

    #[test]
    fn invariant_observer_accepts_a_consistent_fill() {
        check_fill(|_, _| {});
        check_fill(|blocks, _| blocks[0].meta = 3);
    }

    #[test]
    #[should_panic(expected = "seq 0: validity mask bit 1 disagrees with Block::valid")]
    fn invariant_observer_catches_mask_block_disagreement() {
        check_fill(|blocks, _| blocks[1].valid = true);
    }

    #[test]
    #[should_panic(expected = "seq 0: way 1 dirty but invalid")]
    fn invariant_observer_catches_dirty_invalid_way() {
        check_fill(|blocks, _| blocks[1].dirty = true);
    }

    #[test]
    #[should_panic(expected = "seq 0: way 1 meta 0x4 exceeds the declared 4-value budget")]
    fn invariant_observer_catches_meta_overrun_on_an_untouched_way() {
        check_fill(|blocks, mask| (blocks[1], *mask) = (Block { meta: 4, ..blocks[0] }, 0b11));
    }

    #[test]
    #[should_panic(expected = "seq 0: set 0 occupancy 2 (expected 1 after fill)")]
    fn invariant_observer_catches_occupancy_jump() {
        check_fill(|blocks, mask| (blocks[1], *mask) = (blocks[0], 0b11));
    }

    #[test]
    fn optional_none_observes_nothing() {
        let mut o: Option<MemoryLog> = None;
        o.observe_fill(&info(1, false), 0);
        assert!(o.memory_log().is_none());
    }
}
