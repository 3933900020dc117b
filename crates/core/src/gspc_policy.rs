//! GSPC: the paper's final policy, with dynamic render-target management.

use grcache::{AccessInfo, Block, FillInfo, LlcConfig, Policy};

use crate::tse::TseCore;
use crate::{GspcCounters, DEFAULT_T};

/// Graphics stream-aware probabilistic caching (Table 5): GSPZTC+TSE plus a
/// dynamic mechanism for the render-target blocks.
///
/// Two extra per-bank counters estimate the probability that a render
/// target is consumed as a texture through the LLC: `PROD` counts render
/// targets filled into sample sets, `CONS` counts sample-set render targets
/// consumed by the texture sampler. A non-sample render-target fill is then
/// inserted at:
///
/// * RRPV 3 when `PROD > 16·CONS` (consumption probability below 1/16),
/// * RRPV 2 when `16·CONS ≥ PROD > 8·CONS`,
/// * RRPV 0 otherwise (probability at least 1/8 — amplify it by giving
///   render targets the highest protection).
///
/// The thresholds are small because they are detected from SRRIP-managed
/// samples, which understate the reuse the protected non-samples will see.
///
/// On top of two-bit DRRIP, GSPC costs two state bits per block and eight
/// 8-bit plus one 7-bit counters per bank — under 0.5 % of the LLC data
/// array (see [`crate::overhead`]).
#[derive(Debug, Clone)]
pub struct Gspc {
    core: TseCore,
}

impl Gspc {
    /// Creates the policy with the default threshold `t = 8`.
    pub fn new(cfg: &LlcConfig) -> Self {
        Self::with_threshold(cfg, DEFAULT_T)
    }

    /// Creates the policy with an explicit threshold parameter.
    ///
    /// # Panics
    ///
    /// Panics unless `t` is a power of two.
    pub fn with_threshold(cfg: &LlcConfig, t: u32) -> Self {
        Gspc { core: TseCore::new(cfg, t, true) }
    }

    /// The per-bank counter files (for inspection).
    pub fn counters(&self) -> &[GspcCounters] {
        &self.core.banks
    }
}

impl Policy for Gspc {
    fn name(&self) -> &str {
        "GSPC"
    }

    fn state_bits_per_block(&self) -> u32 {
        2 + 2 // RRPV + epoch/RT state
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        self.core.on_hit(a, set, way);
    }

    fn choose_victim(&mut self, _a: &AccessInfo, set: &mut [Block]) -> usize {
        self.core.choose_victim(set)
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        self.core.on_fill(a, set, way)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtrace::StreamId;

    fn cfg() -> LlcConfig {
        LlcConfig::mb(8)
    }

    fn info(stream: StreamId, is_sample: bool) -> AccessInfo {
        AccessInfo {
            seq: 0,
            block: 0,
            bank: 0,
            set_in_bank: if is_sample { 0 } else { 5 },
            stream,
            class: stream.policy_class(),
            write: false,
            is_sample,
            next_use: u64::MAX,
        }
    }

    fn one_way_set() -> Vec<Block> {
        vec![Block { valid: true, ..Block::default() }]
    }

    #[test]
    fn sample_rt_fill_increments_prod() {
        let mut p = Gspc::new(&cfg());
        let mut set = one_way_set();
        p.on_fill(&info(StreamId::RenderTarget, true), &mut set, 0);
        assert_eq!(p.counters()[0].prod.get(), 1);
        assert_eq!(p.counters()[0].cons.get(), 0);
    }

    #[test]
    fn sample_rt_consumption_increments_cons() {
        let mut p = Gspc::new(&cfg());
        let mut set = one_way_set();
        p.on_fill(&info(StreamId::RenderTarget, true), &mut set, 0);
        p.on_hit(&info(StreamId::Texture, true), &mut set, 0);
        assert_eq!(p.counters()[0].cons.get(), 1);
        // The consumption also begins a texture life (FILL(0)).
        assert_eq!(p.counters()[0].fill_tex[0].get(), 1);
    }

    #[test]
    fn blending_hit_does_not_count_prod_or_cons() {
        let mut p = Gspc::new(&cfg());
        let mut set = one_way_set();
        p.on_fill(&info(StreamId::RenderTarget, true), &mut set, 0);
        p.on_hit(&info(StreamId::RenderTarget, true), &mut set, 0);
        assert_eq!(p.counters()[0].prod.get(), 1);
        assert_eq!(p.counters()[0].cons.get(), 0);
    }

    #[test]
    fn table5_rt_insertion_tiers() {
        let mut p = Gspc::new(&cfg());
        let mut set = one_way_set();
        // PROD=20, CONS=1: 20 > 16 -> distant.
        {
            let c = &mut p.core.banks[0];
            for _ in 0..20 {
                c.prod.inc();
            }
            c.cons.inc();
        }
        let fi = p.on_fill(&info(StreamId::RenderTarget, false), &mut set, 0);
        assert_eq!(fi.rrpv, Some(3));
        // PROD=12, CONS=1: 16 >= 12 > 8 -> long.
        let mut p = Gspc::new(&cfg());
        {
            let c = &mut p.core.banks[0];
            for _ in 0..12 {
                c.prod.inc();
            }
            c.cons.inc();
        }
        let fi = p.on_fill(&info(StreamId::RenderTarget, false), &mut set, 0);
        assert_eq!(fi.rrpv, Some(2));
        // PROD=6, CONS=1: 6 <= 8 -> full protection.
        let mut p = Gspc::new(&cfg());
        {
            let c = &mut p.core.banks[0];
            for _ in 0..6 {
                c.prod.inc();
            }
            c.cons.inc();
        }
        let fi = p.on_fill(&info(StreamId::RenderTarget, false), &mut set, 0);
        assert_eq!(fi.rrpv, Some(0));
    }

    #[test]
    fn untrained_rt_fill_is_fully_protected() {
        // PROD=0, CONS=0: 0 > 0 false twice -> RRPV 0, matching the static
        // GSPZTC behaviour until evidence accumulates.
        let mut p = Gspc::new(&cfg());
        let mut set = one_way_set();
        let fi = p.on_fill(&info(StreamId::RenderTarget, false), &mut set, 0);
        assert_eq!(fi.rrpv, Some(0));
    }

    #[test]
    fn rt_blending_hit_promotes_to_zero() {
        let mut p = Gspc::new(&cfg());
        let mut set = one_way_set();
        // Make RT insertion distant so promotion is observable.
        {
            let c = &mut p.core.banks[0];
            for _ in 0..20 {
                c.prod.inc();
            }
        }
        p.on_fill(&info(StreamId::RenderTarget, false), &mut set, 0);
        assert_eq!(p.core.meta.get(&set[0]), 3);
        p.on_hit(&info(StreamId::RenderTarget, false), &mut set, 0);
        assert_eq!(p.core.meta.get(&set[0]), 0);
    }

    #[test]
    fn prod_and_cons_are_halved_with_the_rest() {
        let mut p = Gspc::new(&cfg());
        let mut set = one_way_set();
        for _ in 0..10 {
            p.on_fill(&info(StreamId::RenderTarget, true), &mut set, 0);
        }
        assert_eq!(p.counters()[0].prod.get(), 10);
        // Saturate ACC(ALL): 127 total sample accesses trigger halving;
        // we already made 10.
        for _ in 0..117 {
            p.on_fill(&info(StreamId::Other, true), &mut set, 0);
        }
        assert_eq!(p.counters()[0].prod.get(), 5);
    }

    #[test]
    fn name_and_bits() {
        let p = Gspc::new(&cfg());
        assert_eq!(p.name(), "GSPC");
        assert_eq!(p.state_bits_per_block(), 4);
    }
}
