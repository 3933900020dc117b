//! The tag probe over the packed LLC mirror.
//!
//! The probe mirror holds one `u64` tag word per way and one validity
//! bitmask per set. Replay runs one of exactly two paths, chosen by CPU
//! detection and never by a user knob:
//!
//! * [`ProbeKind::Avx2`] — where `is_x86_feature_detected!("avx2")` holds,
//!   slice replays run the batched map→probe→retire driver with a 256-bit
//!   lane compare (four tag words per compare).
//! * [`ProbeKind::Scalar`] — everywhere else, the plain per-access loop with
//!   the OR-folded scalar compare.
//!
//! Batching pays only with the AVX2 compare; with narrower compares it is
//! slower than the plain loop (DESIGN.md §3.2 has the measurements).
//!
//! Both compares compute the same function: bit `w` of the returned mask is
//! set iff `tags[w] == tag`. Callers AND the result with the set's validity
//! mask; the probe itself never consults it, which keeps the compare a pure
//! streaming read of the mirror. Tests that need both paths in one process
//! select a kind via [`crate::Llc::set_probe_kind`].

/// Which replay path services the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// The plain per-access loop with the scalar compare — the path of
    /// every host without AVX2.
    Scalar,
    /// The batched driver with 256-bit compares; requires runtime AVX2
    /// detection.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl ProbeKind {
    /// The path this host runs by default: [`ProbeKind::Avx2`] where AVX2
    /// is detected, [`ProbeKind::Scalar`] otherwise.
    pub fn best_available() -> ProbeKind {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return ProbeKind::Avx2;
        }
        ProbeKind::Scalar
    }

    /// `true` when this kind can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            ProbeKind::Avx2 => is_x86_feature_detected!("avx2"),
            ProbeKind::Scalar => true,
        }
    }

    /// Every kind the current host can run, scalar first.
    pub fn all_available() -> Vec<ProbeKind> {
        let best = ProbeKind::best_available();
        let mut kinds = vec![ProbeKind::Scalar];
        if best != ProbeKind::Scalar {
            kinds.push(best);
        }
        kinds
    }
}

/// The scalar OR-folded compare. Every way's equality bit is folded into
/// the match mask, so the loop is branchless and never mispredicts.
#[inline]
pub fn probe_scalar(tags: &[u64], tag: u64) -> u64 {
    let mut eq = 0u64;
    for (i, &t) in tags.iter().enumerate() {
        eq |= u64::from(t == tag) << i;
    }
    eq
}

/// 256-bit lane compare: four tag words per `VPCMPEQQ`, one bit per lane
/// via the double-precision movemask.
///
/// # Safety
///
/// The caller must have verified AVX2 support (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn probe_avx2(tags: &[u64], tag: u64) -> u64 {
    use core::arch::x86_64::*;
    let needle = _mm256_set1_epi64x(tag as i64);
    let mut eq = 0u64;
    let mut i = 0;
    while i + 4 <= tags.len() {
        let lanes = _mm256_loadu_si256(tags.as_ptr().add(i).cast());
        let hits = _mm256_cmpeq_epi64(lanes, needle);
        eq |= (_mm256_movemask_pd(_mm256_castsi256_pd(hits)) as u64) << i;
        i += 4;
    }
    while i < tags.len() {
        eq |= u64::from(tags[i] == tag) << i;
        i += 1;
    }
    eq
}

/// One access decomposed for the retire phase: the mapped coordinates of
/// the access plus the probe's output. [`crate::Llc`]'s map phase fills the
/// coordinates, a probe fills `hit_mask` (already ANDed with `vmask`), and
/// the retire phase consumes the slot in arrival order — see
/// [`crate::Llc::run_source`] for the ordering argument.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Block address of the access.
    pub block: u64,
    /// Tag to match against the mirror.
    pub tag: u64,
    /// Belady next-use annotation (`u64::MAX` when unannotated).
    pub next_use: u64,
    /// Validity bitmask of the set, as read during the map phase.
    pub vmask: u64,
    /// Way-match mask: probe result ANDed with `vmask`.
    pub hit_mask: u64,
    /// Bank index.
    pub bank: u32,
    /// Set index within the bank.
    pub set_in_bank: u32,
    /// Flat set index across banks.
    pub set_idx: u32,
    /// Index of the set's first tag word in the flat mirror.
    pub base: u32,
    /// Graphics stream of the access.
    pub stream: grtrace::StreamId,
    /// `true` for a store.
    pub write: bool,
}

impl Slot {
    /// A placeholder slot for initializing batch buffers; every field is
    /// overwritten by the map phase before use.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn placeholder() -> Slot {
        Slot {
            block: 0,
            tag: 0,
            next_use: u64::MAX,
            vmask: 0,
            hit_mask: 0,
            bank: 0,
            set_in_bank: 0,
            set_idx: 0,
            base: 0,
            stream: grtrace::StreamId::Texture,
            write: false,
        }
    }
}

/// Probes every slot of a batch against the mirror, writing
/// `slot.hit_mask = matches & slot.vmask`. The whole batch runs inside one
/// `#[target_feature]` function so the per-call dispatch cost is amortized
/// over the batch; the 16-way geometry (the paper's only associativity)
/// takes a fixed four-compare body.
///
/// # Safety
///
/// The caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn probe_batch_avx2(mirror: &[u64], ways: usize, slots: &mut [Slot]) {
    use core::arch::x86_64::*;
    if ways == 16 {
        for s in slots {
            let base = s.base as usize;
            debug_assert!(base + 16 <= mirror.len());
            let p = mirror.as_ptr().add(base);
            let needle = _mm256_set1_epi64x(s.tag as i64);
            let m0 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_loadu_si256(p.cast()),
                needle,
            ))) as u64;
            let m1 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_loadu_si256(p.add(4).cast()),
                needle,
            ))) as u64;
            let m2 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_loadu_si256(p.add(8).cast()),
                needle,
            ))) as u64;
            let m3 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_loadu_si256(p.add(12).cast()),
                needle,
            ))) as u64;
            s.hit_mask = (m0 | (m1 << 4) | (m2 << 8) | (m3 << 12)) & s.vmask;
        }
    } else {
        for s in slots {
            let base = s.base as usize;
            s.hit_mask = probe_avx2(&mirror[base..base + ways], s.tag) & s.vmask;
        }
    }
}

/// Hints the prefetcher at the cache line holding `p`. The map phase issues
/// these for the tag words and policy blocks the retire phase will touch,
/// so the dependent loads of a whole batch overlap instead of serializing.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    // SAFETY: prefetch is a hint; it cannot fault even on invalid addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for randomized mirrors.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Builds a randomized mirror of `sets` sets with `ways` ways: small
    /// tag values (to force repeats/matches) and partially-valid sets.
    fn random_mirror(rng: &mut Rng, sets: usize, ways: usize) -> (Vec<u64>, Vec<u64>) {
        let mut tags = Vec::with_capacity(sets * ways);
        let mut valid = Vec::with_capacity(sets);
        for _ in 0..sets {
            for _ in 0..ways {
                tags.push(rng.next() % 7);
            }
            let vmask = if ways == 64 { rng.next() } else { rng.next() & ((1u64 << ways) - 1) };
            valid.push(vmask);
        }
        (tags, valid)
    }

    /// The AVX2 compare computes the same match mask as the scalar
    /// reference on randomized, partially-valid mirrors — including
    /// non-paper geometries (`ways != 16`) that exercise the remainder
    /// lanes.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_scalar_on_random_mirrors() {
        if !ProbeKind::Avx2.is_available() {
            return;
        }
        let mut rng = Rng(0x9E3779B97F4A7C15);
        for ways in [1usize, 2, 3, 4, 5, 7, 8, 12, 15, 16, 24, 33, 64] {
            let (tags, valid) = random_mirror(&mut rng, 32, ways);
            for (set, &vmask) in valid.iter().enumerate() {
                let base = set * ways;
                let set_tags = &tags[base..base + ways];
                let needle = rng.next() % 7;
                let want = probe_scalar(set_tags, needle) & vmask;
                // SAFETY: AVX2 availability was checked above.
                let got = unsafe { probe_avx2(set_tags, needle) } & vmask;
                assert_eq!(got, want, "AVX2 diverged: ways={ways} set={set} needle={needle}");
            }
        }
    }

    /// The batched AVX2 probe agrees with per-set scalar probes, including
    /// the specialized 16-way body and partially-valid sets.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn batch_probe_matches_single_probes() {
        if !ProbeKind::Avx2.is_available() {
            return;
        }
        let mut rng = Rng(0x243F6A8885A308D3);
        for ways in [4usize, 13, 16, 20] {
            let sets = 64;
            let (tags, valid) = random_mirror(&mut rng, sets, ways);
            let mut slots: Vec<Slot> = (0..48)
                .map(|_| {
                    let set = (rng.next() % sets as u64) as usize;
                    let mut s = Slot::placeholder();
                    s.tag = rng.next() % 7;
                    s.vmask = valid[set];
                    s.set_idx = set as u32;
                    s.base = (set * ways) as u32;
                    s.hit_mask = u64::MAX; // must be overwritten
                    s
                })
                .collect();
            // SAFETY: AVX2 availability was checked above.
            unsafe { probe_batch_avx2(&tags, ways, &mut slots) };
            for s in &slots {
                let base = s.base as usize;
                let want = probe_scalar(&tags[base..base + ways], s.tag) & s.vmask;
                assert_eq!(s.hit_mask, want, "batch diverged at base {base}");
            }
        }
    }

    /// Full-width 64-way sets exercise every bit of the match mask.
    #[test]
    fn full_width_mask_has_no_truncation() {
        let tags: Vec<u64> = (0..64).map(|i| u64::from(i % 2 == 0)).collect();
        assert_eq!(probe_scalar(&tags, 1), 0x5555_5555_5555_5555);
        assert_eq!(probe_scalar(&tags, 9), 0);
        #[cfg(target_arch = "x86_64")]
        if ProbeKind::Avx2.is_available() {
            // SAFETY: AVX2 availability was checked above.
            unsafe {
                assert_eq!(probe_avx2(&tags, 1), 0x5555_5555_5555_5555);
                assert_eq!(probe_avx2(&tags, 9), 0);
            }
        }
    }

    /// The default is the widest available kind, and the available list
    /// holds the scalar path plus at most AVX2.
    #[test]
    fn best_available_is_listed_and_runnable() {
        let kinds = ProbeKind::all_available();
        assert_eq!(kinds[0], ProbeKind::Scalar);
        assert!(kinds.len() <= 2);
        assert!(kinds.contains(&ProbeKind::best_available()));
        assert!(kinds.iter().all(|k| k.is_available()));
    }
}
