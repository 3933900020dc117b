use grtrace::BLOCK_BYTES;

/// Geometry of a simple set-associative cache.
///
/// # Example
///
/// ```
/// use grcache::CacheConfig;
///
/// let cfg = CacheConfig::kb(32, 32); // the paper's Z cache: 32 KB, 32-way
/// assert_eq!(cfg.sets(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a configuration from a capacity in kilobytes.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is zero or not a power of two.
    pub fn kb(kilobytes: u64, ways: usize) -> Self {
        let cfg = CacheConfig { size_bytes: kilobytes * 1024, ways };
        assert!(cfg.sets() > 0, "cache must have at least one set");
        assert!(cfg.sets().is_power_of_two(), "set count must be a power of two");
        cfg
    }

    /// Number of sets implied by the capacity, associativity, and 64 B blocks.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (BLOCK_BYTES * self.ways as u64)) as usize
    }

    /// Number of blocks the cache holds.
    pub fn blocks(&self) -> usize {
        self.sets() * self.ways
    }

    /// Number of index bits (`log2(sets)`); the set count must be a power
    /// of two (enforced by [`CacheConfig::kb`]).
    #[inline]
    pub fn set_bits(&self) -> u32 {
        self.sets().trailing_zeros()
    }

    /// Decomposes a block address into `(set, tag)`.
    ///
    /// The render caches index by the low block bits directly — unlike the
    /// LLC ([`LlcGeometry::map`]), there is no bank dimension and no XOR
    /// index hash, so the decomposition is a mask and a shift.
    #[inline]
    pub fn map(&self, block: u64) -> (usize, u64) {
        let set = (block & (self.sets() as u64 - 1)) as usize;
        (set, block >> self.set_bits())
    }

    /// Rebuilds the block address from a `(set, tag)` pair produced by
    /// [`CacheConfig::map`] — the inverse the writeback path needs to
    /// reconstruct a victim's address from its stored tag.
    #[inline]
    pub fn unmap(&self, set: usize, tag: u64) -> u64 {
        (tag << self.set_bits()) | set as u64
    }
}

/// Geometry of the banked last-level cache.
///
/// The paper's baseline is an 8 MB 16-way non-inclusive/non-exclusive LLC
/// with 64 B blocks, organized as four 2 MB banks; all GSPC bookkeeping
/// counters are per-bank. Sixteen sets in every 1024 are dedicated *sample
/// sets* that always run SRRIP and feed the reuse-probability counters
/// (Section 3). Samples are identified by a simple Boolean function on the
/// index bits: here, the low [`LlcConfig::sample_period`] bits being zero
/// (one sample per 64 sets = 16 per 1024).
///
/// # Example
///
/// ```
/// use grcache::LlcConfig;
///
/// let llc = LlcConfig::mb(8);
/// assert_eq!(llc.sets_per_bank(), 2048);
/// assert_eq!(llc.total_sets(), 8192);
/// assert!(llc.is_sample_set(0));
/// assert!(!llc.is_sample_set(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Number of banks (power of two).
    pub banks: usize,
    /// A set whose index is a multiple of this period is a sample set.
    pub sample_period: usize,
}

impl LlcConfig {
    /// The paper's LLC geometry for a capacity in megabytes: 16-way, four
    /// banks, 16 sample sets per 1024 sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly into power-of-two sets.
    pub fn mb(megabytes: u64) -> Self {
        let cfg = LlcConfig {
            size_bytes: megabytes * 1024 * 1024,
            ways: 16,
            banks: 4,
            sample_period: 64,
        };
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        cfg
    }

    /// Checks that the geometry maps every address: a power-of-two bank
    /// count, set count per bank and sample period. [`LlcGeometry`] masks
    /// the set index, so a set count that is not a power of two would
    /// silently leave sets unreachable and simulate a smaller cache.
    ///
    /// # Errors
    ///
    /// The first violated rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.banks.is_power_of_two() {
            Err("bank count must be a power of two")
        } else if self.sets_per_bank() == 0 {
            Err("LLC must have at least one set per bank")
        } else if !self.sets_per_bank().is_power_of_two() {
            Err("sets per bank must be a power of two")
        } else if !self.sample_period.is_power_of_two() {
            Err("sample period must be a power of two")
        } else {
            Ok(())
        }
    }

    /// Number of sets in each bank.
    pub fn sets_per_bank(&self) -> usize {
        (self.size_bytes / (BLOCK_BYTES * (self.ways * self.banks) as u64)) as usize
    }

    /// Number of sets across all banks.
    pub fn total_sets(&self) -> usize {
        self.sets_per_bank() * self.banks
    }

    /// Number of blocks the LLC holds.
    pub fn total_blocks(&self) -> usize {
        self.total_sets() * self.ways
    }

    /// `true` if `set_in_bank` is one of the SRRIP-managed sample sets.
    #[inline]
    pub fn is_sample_set(&self, set_in_bank: usize) -> bool {
        set_in_bank & (self.sample_period - 1) == 0
    }

    /// The precomputed address-mapping constants. The simulator derives
    /// this once per LLC instance; computing `sets_per_bank` involves a
    /// 64-bit division, which must stay out of the per-access path.
    pub fn geometry(&self) -> LlcGeometry {
        let sets_per_bank = self.sets_per_bank();
        LlcGeometry {
            bank_mask: self.banks as u64 - 1,
            set_mask: sets_per_bank as u64 - 1,
            bank_bits: self.banks.trailing_zeros(),
            set_bits: sets_per_bank.trailing_zeros(),
            sets_per_bank,
            ways: self.ways,
        }
    }

    /// Decomposes a block address into `(bank, set_in_bank, tag)`.
    ///
    /// Convenience wrapper over [`LlcGeometry::map`]; hot loops should
    /// derive the geometry once with [`LlcConfig::geometry`] instead.
    #[inline]
    pub fn map(&self, block: u64) -> (usize, usize, u64) {
        self.geometry().map(block)
    }

    /// Rebuilds the block address from a `(bank, set_in_bank, tag)` triple
    /// produced by [`LlcConfig::map`].
    ///
    /// Convenience wrapper over [`LlcGeometry::unmap`].
    #[inline]
    pub fn unmap(&self, bank: usize, set_in_bank: usize, tag: u64) -> u64 {
        self.geometry().unmap(bank, set_in_bank, tag)
    }
}

/// Address-mapping constants derived from an [`LlcConfig`], precomputed so
/// the per-access path is pure shifts and masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcGeometry {
    bank_mask: u64,
    set_mask: u64,
    bank_bits: u32,
    set_bits: u32,
    sets_per_bank: usize,
    ways: usize,
}

impl LlcGeometry {
    /// Decomposes a block address into `(bank, set_in_bank, tag)`.
    ///
    /// The set index XOR-folds the tag bits into the low index bits
    /// (XOR-based index hashing, as commercial LLCs use) so that the
    /// page-aligned, strided layouts of graphics surfaces do not alias a
    /// few hot set residues — which would starve the set-sampling
    /// machinery (dueling leaders, GSPC sample sets) of representative
    /// traffic. The mapping stays invertible: `(bank, set, tag)` uniquely
    /// identifies the block.
    #[inline]
    pub fn map(&self, block: u64) -> (usize, usize, u64) {
        let bank = (block & self.bank_mask) as usize;
        let tag = block >> (self.bank_bits + self.set_bits);
        let mut set = (block >> self.bank_bits) & self.set_mask;
        // With one set per bank there are no index bits to fold into; the
        // set is always 0.
        if self.set_bits > 0 {
            set ^= self.fold_tag(tag);
        }
        (bank, set as usize, tag)
    }

    /// XOR of every `set_bits`-wide chunk of `tag`, computed as a
    /// logarithmic shift-XOR tree: after `fold ^= fold >> s` the low chunk
    /// holds the XOR of chunks 0 and 1, after the doubled shift chunks
    /// 0–3, and so on until one more doubling would clear the word. The
    /// tree is branchless per step and its trip count depends only on the
    /// geometry — unlike a `while fold != 0` walk, whose data-dependent
    /// exit mispredicts once per access. Same value, no mispredicts.
    ///
    /// Requires `set_bits > 0`.
    #[inline]
    fn fold_tag(&self, tag: u64) -> u64 {
        let mut fold = tag;
        let mut shift = self.set_bits;
        while shift < 64 {
            fold ^= fold >> shift;
            shift <<= 1;
        }
        fold & self.set_mask
    }

    /// Rebuilds the block address from a `(bank, set_in_bank, tag)` triple
    /// produced by [`LlcGeometry::map`] — the inverse the writeback path
    /// needs to reconstruct a victim's address from its stored tag.
    ///
    /// The XOR fold is an involution on the low index bits: folding the
    /// tag into the hashed set index recovers the original one.
    #[inline]
    pub fn unmap(&self, bank: usize, set_in_bank: usize, tag: u64) -> u64 {
        let mut low = set_in_bank as u64;
        if self.set_bits > 0 {
            low ^= self.fold_tag(tag);
        }
        (tag << (self.bank_bits + self.set_bits)) | (low << self.bank_bits) | bank as u64
    }

    /// Flat index of `(bank, set_in_bank)` across all banks — the index
    /// into the simulator's per-set arrays (validity and dirty bitmasks).
    #[inline]
    pub fn set_index(&self, bank: usize, set_in_bank: usize) -> usize {
        bank * self.sets_per_bank + set_in_bank
    }

    /// Index of the first block of `(bank, set_in_bank)` in the flat
    /// block array.
    #[inline]
    pub fn set_base(&self, bank: usize, set_in_bank: usize) -> usize {
        self.set_index(bank, set_in_bank) * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_render_cache_geometries() {
        assert_eq!(CacheConfig::kb(1, 16).sets(), 1); // vertex index
        assert_eq!(CacheConfig::kb(16, 128).sets(), 2); // vertex
        assert_eq!(CacheConfig::kb(12, 24).sets(), 8); // HiZ
        assert_eq!(CacheConfig::kb(16, 16).sets(), 16); // stencil
        assert_eq!(CacheConfig::kb(24, 24).sets(), 16); // render target
        assert_eq!(CacheConfig::kb(32, 32).sets(), 16); // Z
        assert_eq!(CacheConfig::kb(384, 48).sets(), 128); // texture L3
    }

    /// `CacheConfig::unmap` inverts `CacheConfig::map` on every paper
    /// render-cache geometry, and the decomposition is injective.
    #[test]
    fn cache_config_unmap_inverts_map() {
        use std::collections::HashSet;
        let geometries = [
            CacheConfig::kb(1, 16),
            CacheConfig::kb(16, 128),
            CacheConfig::kb(12, 24),
            CacheConfig::kb(24, 24),
            CacheConfig::kb(32, 32),
            CacheConfig::kb(384, 48),
            CacheConfig { size_bytes: 4 * 64, ways: 2 }, // 2 sets x 2 ways
        ];
        for cfg in geometries {
            let mut seen = HashSet::new();
            let mut block = 0x9E3779B97F4A7C15u64;
            for i in 0..50_000u64 {
                // A mix of dense low addresses and xorshift-spread ones.
                block ^= block << 13;
                block ^= block >> 7;
                block ^= block << 17;
                for b in [i, block >> 16] {
                    let (set, tag) = cfg.map(b);
                    assert!(set < cfg.sets(), "set out of range for block {b}");
                    assert_eq!(cfg.unmap(set, tag), b, "round trip failed for block {b}");
                    seen.insert((set, tag));
                }
            }
            assert!(seen.len() > 50_000, "map collapsed distinct blocks");
        }
    }

    #[test]
    fn llc_8mb_geometry() {
        let llc = LlcConfig::mb(8);
        assert_eq!(llc.total_blocks() as u64 * 64, 8 * 1024 * 1024);
        assert_eq!(llc.sets_per_bank(), 2048);
    }

    #[test]
    fn llc_16mb_geometry() {
        let llc = LlcConfig::mb(16);
        assert_eq!(llc.sets_per_bank(), 4096);
        assert_eq!(llc.total_sets(), 16384);
    }

    #[test]
    fn sample_sets_are_16_per_1024() {
        let llc = LlcConfig::mb(8);
        let samples = (0..1024).filter(|&s| llc.is_sample_set(s)).count();
        assert_eq!(samples, 16);
    }

    #[test]
    fn map_roundtrip_is_unique() {
        let llc = LlcConfig::mb(8);
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for block in 0..100_000u64 {
            let key = llc.map(block);
            assert!(seen.insert(key), "collision for block {block}");
        }
    }

    #[test]
    fn unmap_inverts_map() {
        for mb in [8, 16] {
            let llc = LlcConfig::mb(mb);
            for block in (0..1_000_000u64).step_by(37) {
                let (bank, set, tag) = llc.map(block);
                assert_eq!(llc.unmap(bank, set, tag), block, "block {block}");
            }
        }
        // A tiny non-paper geometry exercises short fold chains too.
        let small = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        for block in 0..10_000u64 {
            let (bank, set, tag) = small.map(block);
            assert_eq!(small.unmap(bank, set, tag), block, "block {block}");
        }
    }

    #[test]
    fn conflicting_blocks_have_distinct_tags() {
        let llc = LlcConfig::mb(8);
        let (b0, s0, t0) = llc.map(0);
        // Find another block hashing to the same (bank, set).
        let other = (1..1_000_000u64)
            .find(|&b| {
                let (bank, set, _) = llc.map(b);
                (bank, set) == (b0, s0)
            })
            .expect("a conflicting block exists");
        let (_, _, t1) = llc.map(other);
        assert_ne!(t0, t1);
    }

    #[test]
    fn set_hash_spreads_aligned_strides() {
        // Page-aligned strided traffic (the pattern graphics surfaces
        // produce) must not concentrate on a few set residues.
        let llc = LlcConfig::mb(8);
        let mut counts = vec![0u32; 64];
        for i in 0..(64 * 256u64) {
            let (_, set, _) = llc.map(i * 256); // 16 KB stride
            counts[set % 64] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 3 * min.max(1), "residue imbalance: min={min} max={max}");
    }
}
