//! Saturating counters and the GSPC per-bank counter file.

/// An `n`-bit saturating up-counter with halving support.
///
/// # Example
///
/// ```
/// use gspc::SatCounter;
///
/// let mut c = SatCounter::new(3);
/// for _ in 0..100 { c.inc(); }
/// assert_eq!(c.get(), 7);
/// c.halve();
/// assert_eq!(c.get(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatCounter {
    value: u32,
    max: u32,
}

impl SatCounter {
    /// Creates a zeroed counter of `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31.
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0 && bits < 32, "counter width must be 1..=31 bits");
        SatCounter { value: 0, max: (1 << bits) - 1 }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u32 {
        self.value
    }

    /// Increments, saturating at the maximum.
    #[inline]
    pub fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements, saturating at zero.
    #[inline]
    pub fn dec(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// `true` when the counter sits at its maximum.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.value == self.max
    }

    /// Halves the value (round toward zero).
    #[inline]
    pub fn halve(&mut self) {
        self.value >>= 1;
    }

    /// Resets to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Maximum representable value.
    pub fn max(&self) -> u32 {
        self.max
    }
}

/// The per-LLC-bank counter file of the full GSPC policy (Section 3).
///
/// Eight 8-bit saturating counters — `FILL(Z)`, `HIT(Z)`, `FILL(0,TEX)`,
/// `HIT(0,TEX)`, `FILL(1,TEX)`, `HIT(1,TEX)`, `PROD`, `CONS` — plus the
/// 7-bit `ACC(ALL)` access counter. When `ACC(ALL)` saturates, every other
/// counter is halved and `ACC(ALL)` resets, keeping the reuse-probability
/// estimates fresh across rendering phases.
#[derive(Debug, Clone)]
pub struct GspcCounters {
    /// Z-stream fills observed in the sample sets.
    pub fill_z: SatCounter,
    /// Z-stream hits observed in the sample sets.
    pub hit_z: SatCounter,
    /// Texture fills entering epoch `E` (index 0 or 1) in the sample sets.
    pub fill_tex: [SatCounter; 2],
    /// Texture hits enjoyed by epoch-`E` blocks in the sample sets.
    pub hit_tex: [SatCounter; 2],
    /// Render-target blocks filled into sample sets.
    pub prod: SatCounter,
    /// Render-target blocks consumed by the texture sampler in sample sets.
    pub cons: SatCounter,
    /// All accesses to the sample sets (7-bit).
    pub acc: SatCounter,
}

impl GspcCounters {
    /// Creates a zeroed counter file.
    pub fn new() -> Self {
        let c8 = || SatCounter::new(8);
        GspcCounters {
            fill_z: c8(),
            hit_z: c8(),
            fill_tex: [c8(), c8()],
            hit_tex: [c8(), c8()],
            prod: c8(),
            cons: c8(),
            acc: SatCounter::new(7),
        }
    }

    /// Bumps `ACC(ALL)` and, on saturation, halves every estimate counter
    /// and resets `ACC(ALL)`.
    pub fn tick_access(&mut self) {
        self.acc.inc();
        if self.acc.is_saturated() {
            self.fill_z.halve();
            self.hit_z.halve();
            for c in &mut self.fill_tex {
                c.halve();
            }
            for c in &mut self.hit_tex {
                c.halve();
            }
            self.prod.halve();
            self.cons.halve();
            self.acc.reset();
        }
    }

    /// `true` when the Z-stream reuse probability in the samples is below
    /// `1/(t+1)`, i.e. `FILL(Z) > t·HIT(Z)`. The product saturates, which
    /// is exact: `FILL` never exceeds 255.
    pub fn z_reuse_below(&self, t: u32) -> bool {
        self.fill_z.get() > self.hit_z.get().saturating_mul(t)
    }

    /// `true` when the epoch-`e` texture reuse probability is below
    /// `1/(t+1)`, i.e. `FILL(e,TEX) > t·HIT(e,TEX)`.
    pub fn tex_reuse_below(&self, e: usize, t: u32) -> bool {
        self.fill_tex[e].get() > self.hit_tex[e].get().saturating_mul(t)
    }

    /// Total replacement-state storage of this counter file in bits
    /// (eight 8-bit counters + one 7-bit counter = 71).
    pub const BITS: u32 = 8 * 8 + 7;
}

impl Default for GspcCounters {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An 8-bit counter incremented `n` times.
    fn counted(n: u32) -> SatCounter {
        let mut c = SatCounter::new(8);
        for _ in 0..n {
            c.inc();
        }
        c
    }

    #[test]
    fn saturation() {
        let mut c = SatCounter::new(8);
        for _ in 0..1000 {
            c.inc();
        }
        assert_eq!(c.get(), 255);
        assert!(c.is_saturated());
    }

    #[test]
    fn dec_saturates_at_zero() {
        let mut c = SatCounter::new(3);
        c.dec();
        assert_eq!(c.get(), 0);
        c.inc();
        c.dec();
        c.dec();
        assert_eq!(c.get(), 0);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_width_rejected() {
        SatCounter::new(0);
    }

    #[test]
    fn halve_rounds_down() {
        let mut c = counted(5);
        c.halve();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn acc_saturation_halves_everything() {
        let mut f = GspcCounters::new();
        for _ in 0..10 {
            f.fill_z.inc();
            f.prod.inc();
        }
        // 7-bit ACC saturates at 127; tick it that many times.
        for _ in 0..127 {
            f.tick_access();
        }
        assert_eq!(f.fill_z.get(), 5);
        assert_eq!(f.prod.get(), 5);
        assert_eq!(f.acc.get(), 0);
    }

    #[test]
    fn z_threshold_matches_definition() {
        let mut f = GspcCounters::new();
        // FILL(Z)=9, HIT(Z)=1, t=8: 9 > 8 -> below threshold.
        for _ in 0..9 {
            f.fill_z.inc();
        }
        f.hit_z.inc();
        assert!(f.z_reuse_below(8));
        // One more hit: 9 > 16 is false.
        f.hit_z.inc();
        assert!(!f.z_reuse_below(8));
    }

    #[test]
    fn tex_threshold_per_epoch() {
        let mut f = GspcCounters::new();
        f.fill_tex[1].inc();
        assert!(f.tex_reuse_below(1, 8));
        assert!(!f.tex_reuse_below(0, 8)); // 0 > 0 is false
    }

    #[test]
    fn counter_file_bits_match_paper() {
        // "eight eight-bit and one seven-bit saturating counters per bank"
        assert_eq!(GspcCounters::BITS, 71);
    }

    /// Tiny deterministic generator for the property tests below.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Property: under any operation sequence, a [`SatCounter`] tracks an
    /// unbounded reference model clamped to `[0, max]`, and never leaves
    /// that range.
    #[test]
    fn random_op_sequences_match_a_clamped_reference() {
        let mut rng = Lcg(0xC0FFEE);
        for bits in [1u32, 3, 7, 8, 16] {
            let mut c = SatCounter::new(bits);
            let max = c.max() as i64;
            let mut reference: i64 = 0;
            for _ in 0..5000 {
                match rng.next() % 3 {
                    0 => {
                        c.inc();
                        reference = (reference + 1).min(max);
                    }
                    1 => {
                        c.dec();
                        reference = (reference - 1).max(0);
                    }
                    _ => {
                        c.halve();
                        reference /= 2;
                    }
                }
                assert_eq!(c.get() as i64, reference, "{bits}-bit counter drifted");
                assert!(c.get() <= c.max());
                assert_eq!(c.is_saturated(), c.get() == c.max());
            }
        }
    }

    /// Thresholds for the boundary properties: the Figure 11 sweep plus
    /// the largest values `GSPZTC(t=N)` accepts, where `t·HIT` leaves `u32`.
    const THRESHOLDS: [u32; 8] = [1, 2, 4, 8, 16, 64, 1 << 25, 1 << 31];

    /// `below(FILL, HIT)` at the extremes must match `FILL > t·HIT`
    /// computed without overflow: a saturated `HIT` is never below, and a
    /// bank with fills but no hits always is.
    fn assert_extremes(t: u32, below: impl Fn(u32, u32) -> bool) {
        for (fill, hits) in [(255u32, 0u32), (255, 1), (255, 2), (255, 255), (1, 0)] {
            let expect = u64::from(fill) > u64::from(t) * u64::from(hits);
            assert_eq!(below(fill, hits), expect, "t={t} FILL={fill} HIT={hits}");
        }
    }

    /// Property: `z_reuse_below(t)` flips exactly when `FILL(Z)` crosses
    /// `t*HIT(Z)` — the paper's `1/(t+1)` reuse-probability threshold —
    /// for every power-of-two `t` the registry accepts.
    #[test]
    fn z_threshold_flips_exactly_at_the_boundary() {
        for t in THRESHOLDS {
            assert_extremes(t, |fill, hits| {
                let mut f = GspcCounters::new();
                f.fill_z = counted(fill);
                f.hit_z = counted(hits);
                f.z_reuse_below(t)
            });
            for hits in 0u32..5 {
                if t.saturating_mul(hits) >= 255 {
                    // FILL(Z) is 8-bit; the boundary must stay representable.
                    continue;
                }
                let mut f = GspcCounters::new();
                f.hit_z = counted(hits);
                f.fill_z = counted(t * hits);
                assert!(!f.z_reuse_below(t), "t={t} hits={hits}: FILL == t*HIT is not below");
                f.fill_z.inc();
                assert!(f.z_reuse_below(t), "t={t} hits={hits}: FILL == t*HIT+1 is below");
            }
        }
    }

    /// Property: the per-epoch texture thresholds are independent and flip
    /// at exactly the same `FILL > t*HIT` boundary as Z.
    #[test]
    fn tex_threshold_flips_exactly_at_the_boundary() {
        for t in THRESHOLDS {
            for e in 0..2usize {
                assert_extremes(t, |fill, hits| {
                    let mut f = GspcCounters::new();
                    f.fill_tex[e] = counted(fill);
                    f.hit_tex[e] = counted(hits);
                    f.tex_reuse_below(e, t)
                });
                if t.saturating_mul(3) >= 255 {
                    // FILL is 8-bit; the boundary must stay representable.
                    continue;
                }
                let mut f = GspcCounters::new();
                f.hit_tex[e] = counted(3);
                f.fill_tex[e] = counted(3 * t);
                assert!(!f.tex_reuse_below(e, t));
                f.fill_tex[e].inc();
                assert!(f.tex_reuse_below(e, t));
                let other = 1 - e;
                assert!(!f.tex_reuse_below(other, t), "epoch {other} must be untouched");
            }
        }
    }

    /// Property: the PROD/CONS ratios used by the dynamic render-target
    /// tiers cross exactly at 16x and 8x (mirroring `16*cons < prod` and
    /// `8*cons < prod` in the TSE fill path).
    #[test]
    fn prod_cons_tier_boundaries_are_exact() {
        for cons in 1u32..4 {
            for factor in [8u32, 16] {
                let mut f = GspcCounters::new();
                f.cons = counted(cons);
                f.prod = counted(factor * cons);
                assert!(f.prod.get() <= factor * f.cons.get());
                f.prod.inc();
                assert!(f.prod.get() > factor * f.cons.get());
            }
        }
    }

    /// Property: `tick_access` halves every estimate counter exactly once
    /// per 127 ticks, whatever the interleaving, and ACC(ALL) never shows
    /// its saturated value to a caller.
    #[test]
    fn decay_period_is_exactly_acc_saturation() {
        let mut rng = Lcg(7);
        let mut f = GspcCounters::new();
        let mut expected_halvings = 0u32;
        let mut ticks = 0u32;
        for _ in 0..1000 {
            if rng.next().is_multiple_of(4) {
                f.fill_z.inc();
            }
            f.tick_access();
            ticks += 1;
            if ticks.is_multiple_of(127) {
                expected_halvings += 1;
            }
            assert!(f.acc.get() < 127, "ACC(ALL) must reset on saturation");
            assert_eq!(f.acc.get(), ticks % 127);
        }
        assert!(expected_halvings > 0);
        // A counter held at saturation decays to zero once ticking stops
        // feeding it: 255 -> 127 -> 63 -> ... -> 0 in at most 8 halvings.
        let mut g = GspcCounters::new();
        for _ in 0..300 {
            g.hit_z.inc();
        }
        assert_eq!(g.hit_z.get(), 255);
        for _ in 0..8 * 127 {
            g.tick_access();
        }
        assert_eq!(g.hit_z.get(), 0, "stale estimates must fully decay");
    }
}
