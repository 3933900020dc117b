//! Property test: the SoA set storage behaves exactly like the
//! array-of-structs layout it replaced.
//!
//! `ReferenceLlc` below is the old algorithm, kept as an executable
//! specification: a linear probe over the valid ways' tags in way order,
//! first-invalid-way fill, policy callbacks on the set slice in place. The
//! production [`grcache::Llc`] must produce the same per-access outcome and
//! the same DRAM-bound transfer log on randomized access sequences, for
//! policies that exercise every callback — including set-wide `meta`
//! mutation in `choose_victim` (RRIP-style aging) and bypass decisions.

use grcache::{AccessInfo, AccessResult, Block, FillInfo, Llc, LlcConfig, Policy};
use grtrace::{Access, StreamId};

/// The pre-SoA LLC algorithm over plain per-way storage: a linear probe
/// over `(valid, tag)` pairs, first-invalid-way fill, policy callbacks on
/// the set slice in place. (Tags live in a parallel array because the
/// production [`Block`] no longer carries one.)
struct ReferenceLlc<P> {
    cfg: LlcConfig,
    policy: P,
    blocks: Vec<Block>,
    tags: Vec<u64>,
    memory_log: Vec<(u64, bool)>,
    seq: u64,
}

impl<P: Policy> ReferenceLlc<P> {
    fn new(cfg: LlcConfig, policy: P) -> Self {
        ReferenceLlc {
            cfg,
            policy,
            blocks: vec![Block::default(); cfg.total_blocks()],
            tags: vec![0; cfg.total_blocks()],
            memory_log: Vec::new(),
            seq: 0,
        }
    }

    fn access_annotated(&mut self, access: &Access, next_use: u64) -> AccessResult {
        let geo = self.cfg.geometry();
        let block = access.block();
        let (bank, set, tag) = geo.map(block);
        let info = AccessInfo {
            seq: self.seq,
            block,
            bank,
            set_in_bank: set,
            stream: access.stream(),
            class: access.stream().policy_class(),
            write: access.write(),
            is_sample: self.cfg.is_sample_set(set),
            next_use,
        };
        self.seq += 1;

        let base = geo.set_base(bank, set);
        let ways = self.cfg.ways;
        let set_tags = &mut self.tags[base..base + ways];
        let set_blocks = &mut self.blocks[base..base + ways];

        if let Some(way) =
            set_blocks.iter().zip(set_tags.iter()).position(|(b, &t)| b.valid && t == tag)
        {
            set_blocks[way].dirty |= info.write;
            set_blocks[way].next_use = next_use;
            self.policy.on_hit(&info, set_blocks, way);
            return AccessResult::Hit;
        }

        if self.policy.should_bypass(&info) {
            self.memory_log.push((info.block, info.write));
            return AccessResult::Bypass;
        }

        let mut dirty_eviction = false;
        let way = match set_blocks.iter().position(|b| !b.valid) {
            Some(free) => free,
            None => {
                let victim = self.policy.choose_victim(&info, set_blocks);
                self.policy.on_evict(&info, set_blocks, victim);
                dirty_eviction = set_blocks[victim].dirty;
                if dirty_eviction {
                    self.memory_log.push((geo.unmap(bank, set, set_tags[victim]), true));
                }
                victim
            }
        };

        set_blocks[way] = Block { valid: true, dirty: info.write, meta: 0, next_use };
        set_tags[way] = tag;
        self.policy.on_fill(&info, set_blocks, way);
        self.memory_log.push((info.block, false));
        AccessResult::Miss { dirty_eviction }
    }
}

/// RRIP-style test policy: ages `meta` across the whole set inside
/// `choose_victim` (the loop RRIP policies use), so a layout bug in the
/// gather/scatter adapter that loses cross-way `meta` writes is caught.
#[derive(Clone, PartialEq, Eq, Debug)]
struct AgingRrip {
    fills: u64,
}

impl Policy for AgingRrip {
    fn name(&self) -> &str {
        "TEST-AGING-RRIP"
    }
    fn state_bits_per_block(&self) -> u32 {
        2
    }
    fn on_hit(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) {
        set[way].meta = 0;
    }
    fn choose_victim(&mut self, _a: &AccessInfo, set: &mut [Block]) -> usize {
        loop {
            if let Some(way) = set.iter().position(|b| b.meta >= 3) {
                return way;
            }
            for b in set.iter_mut() {
                b.meta += 1;
            }
        }
    }
    fn on_fill(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        self.fills += 1;
        set[way].meta = 2;
        FillInfo::rrip(2, 3)
    }
}

/// Bypassing test policy: sends render-target stores around the LLC on
/// non-sample sets and victimizes by the `next_use`/`dirty` fields the
/// simulator (not the policy) maintains — so it notices if the gathered
/// view ever carries stale non-`meta` state.
#[derive(Clone, PartialEq, Eq, Debug)]
struct BypassingFarthest {
    bypasses: u64,
}

impl Policy for BypassingFarthest {
    fn name(&self) -> &str {
        "TEST-BYPASS-FARTHEST"
    }
    fn state_bits_per_block(&self) -> u32 {
        0
    }
    fn should_bypass(&mut self, a: &AccessInfo) -> bool {
        let bypass = a.write && a.stream == StreamId::RenderTarget && !a.is_sample;
        self.bypasses += u64::from(bypass);
        bypass
    }
    fn on_hit(&mut self, _a: &AccessInfo, _set: &mut [Block], _way: usize) {}
    fn choose_victim(&mut self, _a: &AccessInfo, set: &mut [Block]) -> usize {
        set.iter()
            .enumerate()
            .max_by_key(|(i, b)| (b.next_use, !b.dirty, *i))
            .map(|(i, _)| i)
            .expect("set is non-empty")
    }
    fn on_fill(&mut self, _a: &AccessInfo, _set: &mut [Block], _way: usize) -> FillInfo {
        FillInfo::default()
    }
}

/// SplitMix64 — the repo's seedable test RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const STREAMS: [StreamId; 5] =
    [StreamId::Texture, StreamId::Z, StreamId::RenderTarget, StreamId::Vertex, StreamId::Display];

/// Replays a randomized sequence through both models and checks every
/// per-access outcome plus the full DRAM transfer logs.
fn check_equivalence<P: Policy + Clone + PartialEq + std::fmt::Debug>(
    cfg: LlcConfig,
    policy: P,
    seed: u64,
    accesses: usize,
    block_pool: u64,
) {
    let mut rng = SplitMix64(seed);
    let mut soa = Llc::with_observer(cfg, policy.clone(), grcache::MemoryLog::new());
    let mut aos = ReferenceLlc::new(cfg, policy);
    for i in 0..accesses {
        let addr = (rng.next() % block_pool) * 64;
        let stream = STREAMS[(rng.next() % STREAMS.len() as u64) as usize];
        let write = rng.next().is_multiple_of(4);
        let access = if write { Access::store(addr, stream) } else { Access::load(addr, stream) };
        // Synthetic next-use annotations: arbitrary but identical for both
        // models, with a sprinkling of "never reused" sentinels.
        let next_use = if rng.next().is_multiple_of(8) { u64::MAX } else { rng.next() % 10_000 };
        let got = soa.access_annotated(&access, next_use);
        let want = aos.access_annotated(&access, next_use);
        assert_eq!(got, want, "outcome diverged at access {i} (seed {seed})");
    }
    assert_eq!(
        soa.memory_log().expect("memory log attached"),
        &aos.memory_log[..],
        "DRAM transfer logs diverged (seed {seed})"
    );
    let (stats, soa_policy) = soa.into_parts();
    assert_eq!(soa_policy, aos.policy, "policy state diverged (seed {seed})");
    assert!(stats.total_hits() > 0, "degenerate sequence: no hits (seed {seed})");
    assert!(stats.evictions > 0, "degenerate sequence: no evictions (seed {seed})");
}

fn small_cfg() -> LlcConfig {
    // 4 banks x 2 sets x 4 ways = 32 blocks: small enough that a modest
    // block pool forces constant evictions.
    LlcConfig { size_bytes: 2048, ways: 4, banks: 4, sample_period: 2 }
}

#[test]
fn aging_policy_matches_reference_layout() {
    for seed in 1..=8 {
        check_equivalence(small_cfg(), AgingRrip { fills: 0 }, seed, 4_000, 96);
    }
}

#[test]
fn bypassing_policy_matches_reference_layout() {
    for seed in 101..=108 {
        check_equivalence(small_cfg(), BypassingFarthest { bypasses: 0 }, seed, 4_000, 96);
    }
}

#[test]
fn paper_geometry_matches_reference_layout() {
    // The real 16-way geometry at a small capacity, fewer iterations.
    let cfg = LlcConfig { size_bytes: 64 * 1024, ways: 16, banks: 4, sample_period: 64 };
    check_equivalence(cfg, AgingRrip { fills: 0 }, 42, 20_000, 2_048);
    check_equivalence(cfg, BypassingFarthest { bypasses: 0 }, 43, 20_000, 2_048);
}
