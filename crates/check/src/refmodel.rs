//! The naive reference LLC: a Vec-of-structs cache model with none of the
//! fast path's packed-mirror machinery.
//!
//! [`RefLlc`] drives any [`Policy`] through the exact event order the
//! production [`grcache::Llc`] uses (probe, hit bookkeeping, bypass check,
//! free-way pick, victim/evict, install, fill) but keeps its state in the
//! most obvious possible form: one full block address per way, probed by
//! linear scan. There is no tag folding, no validity bitmask, no probe
//! mirror — so a bug in any of those fast-path structures shows up as a
//! divergence between the two models on the same trace.

use grcache::{AccessInfo, AccessResult, Block, LlcConfig, LlcGeometry, LlcStats, Policy};
use grtrace::{Access, PolicyClass, StreamId};

/// One set of the reference model: the policy-facing [`Block`] array plus
/// the full block address resident in each way.
#[derive(Debug, Clone)]
struct RefSet {
    addrs: Vec<u64>,
    blocks: Vec<Block>,
}

/// Per-stream statistics kept by the reference model, mirroring what
/// [`LlcStats`] counts — re-counted independently so the comparison covers
/// the production stats plumbing too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefStats {
    /// Hits per stream index ([`StreamId::index`]).
    pub hits: [u64; 9],
    /// Misses per stream index (bypasses included, as in the fast path).
    pub misses: [u64; 9],
    /// Fills per policy class index.
    pub fills: [u64; 4],
    /// Fills whose reported insertion RRPV was the distant value.
    pub distant_fills: [u64; 4],
    /// Read accesses that bypassed the LLC.
    pub bypassed_reads: u64,
    /// Write accesses that bypassed the LLC.
    pub bypassed_writes: u64,
    /// Dirty blocks displaced to memory.
    pub writebacks: u64,
    /// Valid blocks displaced (dirty or clean).
    pub evictions: u64,
}

impl RefStats {
    /// Compares against the production [`LlcStats`], returning the first
    /// mismatching counter as an error message.
    pub fn matches(&self, fast: &LlcStats) -> Result<(), String> {
        for s in StreamId::ALL {
            if self.hits[s.index()] != fast.hits(s) {
                return Err(format!(
                    "{} hits: reference {} vs fast {}",
                    s.label(),
                    self.hits[s.index()],
                    fast.hits(s)
                ));
            }
            if self.misses[s.index()] != fast.misses(s) {
                return Err(format!(
                    "{} misses: reference {} vs fast {}",
                    s.label(),
                    self.misses[s.index()],
                    fast.misses(s)
                ));
            }
        }
        for class in PolicyClass::ALL {
            if self.fills[class.index()] != fast.fills(class) {
                return Err(format!(
                    "{class:?} fills: reference {} vs fast {}",
                    self.fills[class.index()],
                    fast.fills(class)
                ));
            }
            if self.distant_fills[class.index()] != fast.distant_fills(class) {
                return Err(format!(
                    "{class:?} distant fills: reference {} vs fast {}",
                    self.distant_fills[class.index()],
                    fast.distant_fills(class)
                ));
            }
        }
        let pairs = [
            ("bypassed reads", self.bypassed_reads, fast.bypassed_reads),
            ("bypassed writes", self.bypassed_writes, fast.bypassed_writes),
            ("writebacks", self.writebacks, fast.writebacks),
            ("evictions", self.evictions, fast.evictions),
        ];
        for (what, ours, theirs) in pairs {
            if ours != theirs {
                return Err(format!("{what}: reference {ours} vs fast {theirs}"));
            }
        }
        Ok(())
    }
}

/// The reference LLC: same geometry, same policy protocol, naive storage.
#[derive(Debug)]
pub struct RefLlc<P> {
    cfg: LlcConfig,
    geo: LlcGeometry,
    policy: P,
    sets: Vec<RefSet>,
    stats: RefStats,
    seq: u64,
}

impl<P: Policy> RefLlc<P> {
    /// Creates an empty reference cache running `policy`.
    pub fn new(cfg: LlcConfig, policy: P) -> Self {
        let empty = RefSet { addrs: vec![0; cfg.ways], blocks: vec![Block::default(); cfg.ways] };
        RefLlc {
            cfg,
            geo: cfg.geometry(),
            policy,
            sets: vec![empty; cfg.total_sets()],
            stats: RefStats::default(),
            seq: 0,
        }
    }

    /// The accumulated reference statistics.
    pub fn stats(&self) -> &RefStats {
        &self.stats
    }

    /// The policy, for inspection.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Services one access, replicating the production event order:
    /// probe; on a hit record, mark dirty, update next-use, `on_hit`; on a
    /// miss record, consult `should_bypass`, pick the first free way or ask
    /// for a victim (`choose_victim` then `on_evict`), install the block
    /// zeroed, then `on_fill`.
    pub fn access(&mut self, access: &Access, next_use: u64) -> AccessResult {
        let block = access.block();
        let (bank, set_in_bank, _tag) = self.geo.map(block);
        let info = AccessInfo {
            seq: self.seq,
            block,
            bank,
            set_in_bank,
            stream: access.stream(),
            class: access.stream().policy_class(),
            write: access.write(),
            is_sample: self.cfg.is_sample_set(set_in_bank),
            next_use,
        };
        self.seq += 1;

        let ways = self.cfg.ways;
        let set = &mut self.sets[bank * self.cfg.sets_per_bank() + set_in_bank];

        // Naive probe: linear scan over full block addresses.
        let resident = (0..ways).find(|&w| set.blocks[w].valid && set.addrs[w] == block);
        if let Some(way) = resident {
            self.stats.hits[info.stream.index()] += 1;
            set.blocks[way].dirty |= info.write;
            set.blocks[way].next_use = next_use;
            self.policy.on_hit(&info, &mut set.blocks, way);
            return AccessResult::Hit;
        }

        self.stats.misses[info.stream.index()] += 1;

        if self.policy.should_bypass(&info) {
            if info.write {
                self.stats.bypassed_writes += 1;
            } else {
                self.stats.bypassed_reads += 1;
            }
            return AccessResult::Bypass;
        }

        let mut dirty_eviction = false;
        let way = match (0..ways).find(|&w| !set.blocks[w].valid) {
            Some(free) => free,
            None => {
                let victim = self.policy.choose_victim(&info, &mut set.blocks);
                assert!(victim < ways, "reference victim out of range");
                self.policy.on_evict(&info, &mut set.blocks, victim);
                self.stats.evictions += 1;
                dirty_eviction = set.blocks[victim].dirty;
                if dirty_eviction {
                    self.stats.writebacks += 1;
                }
                victim
            }
        };

        set.blocks[way] = Block { valid: true, dirty: info.write, meta: 0, next_use };
        set.addrs[way] = block;
        let fill = self.policy.on_fill(&info, &mut set.blocks, way);
        self.stats.fills[info.class.index()] += 1;
        if fill.distant {
            self.stats.distant_fills[info.class.index()] += 1;
        }
        AccessResult::Miss { dirty_eviction }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grcache::Llc;
    use grsynth::{AppProfile, Scale};
    use gspc::registry;

    /// The reference model must agree with the production LLC access by
    /// access on a real synthesized frame, for a policy with eviction
    /// training (SHiP exercises `on_evict`) and one with bypasses.
    #[test]
    fn reference_matches_fast_path_on_synthesized_frame() {
        let app = &AppProfile::all()[0];
        let trace = grsynth::generate_frame(app, 0, Scale::Tiny);
        let cfg = LlcConfig { size_bytes: 256 * 1024, ways: 16, banks: 4, sample_period: 64 };
        for name in ["SHiP-mem", "GSPC+UCD", "DRRIP"] {
            let mut fast = Llc::new(cfg, registry::create(name, &cfg).unwrap());
            let mut reference = RefLlc::new(cfg, registry::create(name, &cfg).unwrap());
            for (i, a) in trace.iter().enumerate() {
                let f = fast.access(a);
                let r = reference.access(a, u64::MAX);
                assert_eq!(f, r, "{name} diverged at access {i}");
            }
            reference.stats().matches(fast.stats()).expect(name);
        }
    }
}
