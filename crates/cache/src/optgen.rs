//! Offline next-use annotation enabling Belady's optimal policy.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use grtrace::Access;

/// For each access, computes the trace position of the *next* access to the
/// same cache block, or `u64::MAX` if the block is never touched again.
///
/// Belady's optimal replacement victimizes the resident block whose next use
/// lies farthest in the future; feeding these annotations to the LLC via
/// [`crate::Llc::run_trace`] lets the `Belady` policy in the `gspc` crate
/// make that decision online.
///
/// # Example
///
/// ```
/// use grcache::annotate_next_use;
/// use grtrace::{Access, StreamId};
///
/// let trace = vec![
///     Access::load(0, StreamId::Z),   // next use at index 2
///     Access::load(64, StreamId::Z),  // never again
///     Access::load(0, StreamId::Z),   // never again
/// ];
/// assert_eq!(annotate_next_use(&trace), vec![2, u64::MAX, u64::MAX]);
/// ```
pub fn annotate_next_use(accesses: &[Access]) -> Vec<u64> {
    let mut next = vec![u64::MAX; accesses.len()];
    // Synthesized frames touch about 0.3 distinct blocks per access, so a
    // quarter of the trace length skips most of the map's doublings.
    let capacity = accesses.len() / 4;
    let mut last_seen = HashMap::with_capacity_and_hasher(capacity, BlockHashKeys::new());
    for (i, a) in accesses.iter().enumerate().rev() {
        // One probe per access: the slot holds the block's nearest later
        // position (`u64::MAX` when new) and takes this one.
        let later = last_seen.entry(a.block()).or_insert(u64::MAX);
        next[i] = std::mem::replace(later, i as u64);
    }
    next
}

/// Random keys for [`BlockHasher`], drawn from std's per-process random
/// source. Imported `.gtrace` files put outside addresses into this map, so
/// the hash is keyed: a crafted trace cannot aim its blocks at one bucket
/// without knowing the keys.
struct BlockHashKeys {
    seed: u64,
    multiplier: u64,
}

impl BlockHashKeys {
    fn new() -> Self {
        let random = RandomState::new();
        BlockHashKeys { seed: random.hash_one(0u64), multiplier: random.hash_one(1u64) | 1 }
    }
}

impl BuildHasher for BlockHashKeys {
    type Hasher = BlockHasher;

    fn build_hasher(&self) -> BlockHasher {
        BlockHasher { state: self.seed, multiplier: self.multiplier }
    }
}

/// A keyed multiplicative hash for block addresses: each word is mixed by
/// one 64×64→128-bit multiply, folded so both halves of the product reach
/// the low bits the table indexes by, and the result by one more. Two
/// multiplies cost a fraction of SipHash's rounds on this one-probe-per-
/// access loop.
struct BlockHasher {
    state: u64,
    multiplier: u64,
}

/// The high and low halves of `a × b` folded together.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher for BlockHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.state = folded_multiply(self.state ^ n, self.multiplier);
    }

    fn finish(&self) -> u64 {
        folded_multiply(self.state, self.multiplier.rotate_left(32) | 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtrace::StreamId;

    fn la(addr: u64) -> Access {
        Access::load(addr, StreamId::Texture)
    }

    #[test]
    fn empty_trace() {
        assert!(annotate_next_use(&[]).is_empty());
    }

    #[test]
    fn repeated_block_chains_forward() {
        let t = vec![la(0), la(0), la(0)];
        assert_eq!(annotate_next_use(&t), vec![1, 2, u64::MAX]);
    }

    #[test]
    fn different_offsets_same_block() {
        // 0 and 63 share block 0.
        let t = vec![la(0), la(63)];
        assert_eq!(annotate_next_use(&t), vec![1, u64::MAX]);
    }

    #[test]
    fn interleaved_blocks() {
        let t = vec![la(0), la(64), la(0), la(64)];
        assert_eq!(annotate_next_use(&t), vec![2, 3, u64::MAX, u64::MAX]);
    }

    #[test]
    fn annotations_point_to_same_block() {
        let t: Vec<Access> = (0..200).map(|i| la(((i * 37) % 11) * 64)).collect();
        let nu = annotate_next_use(&t);
        for (i, &n) in nu.iter().enumerate() {
            if n != u64::MAX {
                assert!(n > i as u64);
                assert_eq!(t[n as usize].block(), t[i].block());
                // No access to the same block strictly between i and n.
                for j in i + 1..n as usize {
                    assert_ne!(t[j].block(), t[i].block());
                }
            }
        }
    }

    /// The obvious reverse scan over an ordered map: the reference the
    /// single-probe, custom-hashed annotation must match exactly.
    fn reference(accesses: &[Access]) -> Vec<u64> {
        let mut last_seen = std::collections::BTreeMap::new();
        let mut next = vec![u64::MAX; accesses.len()];
        for (i, a) in accesses.iter().enumerate().rev() {
            if let Some(&later) = last_seen.get(&a.block()) {
                next[i] = later;
            }
            last_seen.insert(a.block(), i as u64);
        }
        next
    }

    /// Seeded random traces with heavy reuse: a small hot footprint mixed
    /// with cold blocks, byte offsets inside blocks, and blocks that differ
    /// only in high address bits.
    #[test]
    fn matches_ordered_map_reference_on_random_traces() {
        let mut state = 0x5EED_u64;
        let mut next = || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..200 {
            let len = (next() % 4000) as usize;
            let hot = 1 + next() % 64;
            let trace: Vec<Access> = (0..len)
                .map(|_| {
                    let r = next();
                    // Block addresses stay below `Access::ADDR_LIMIT / 64`.
                    let block = match r % 10 {
                        0 => r >> 11,
                        1 => (r % hot) << 40,
                        _ => r % hot,
                    };
                    la(block * 64 + (r >> 58))
                })
                .collect();
            assert_eq!(annotate_next_use(&trace), reference(&trace), "case {case}");
        }
    }
}
