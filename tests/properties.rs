//! Randomized invariant tests on the cache substrate and policy layer.
//!
//! Deterministically seeded (the workspace builds offline with no property
//! -testing dependency): every run replays the same trace sample.

use gpu_llc_repro::cache::{annotate_next_use, AccessResult, Llc, LlcConfig};
use gpu_llc_repro::policies::registry;
use gpu_llc_repro::trace::{Access, StreamId, Trace};

/// SplitMix64 — a tiny deterministic generator for test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const STREAMS: [StreamId; 8] = [
    StreamId::Vertex,
    StreamId::HiZ,
    StreamId::Z,
    StreamId::Stencil,
    StreamId::RenderTarget,
    StreamId::Texture,
    StreamId::Display,
    StreamId::Other,
];

fn random_trace(rng: &mut Rng, max_len: u64, addr_space_blocks: u64) -> Trace {
    let len = 1 + rng.below(max_len);
    let mut t = Trace::new("prop", 0);
    for _ in 0..len {
        let block = rng.below(addr_space_blocks);
        let stream = STREAMS[rng.below(8) as usize];
        let write = rng.next() & 1 == 1;
        t.push(Access::new(block * 64, stream, write));
    }
    t
}

fn small_llc() -> LlcConfig {
    // 4 banks x 8 sets x 16 ways = 512 blocks.
    LlcConfig { size_bytes: 32 * 1024, ways: 16, banks: 4, sample_period: 8 }
}

/// Every policy services every access: hits + misses = accesses.
#[test]
fn accounting_is_exact() {
    let mut rng = Rng(11);
    let cfg = small_llc();
    for _ in 0..32 {
        let trace = random_trace(&mut rng, 500, 256);
        for name in ["DRRIP", "NRU", "LRU", "GSPC", "SHiP-mem"] {
            let mut llc = Llc::new(cfg, registry::create(name, &cfg).unwrap());
            llc.run_trace(&trace, None);
            assert_eq!(
                llc.stats().total_hits() + llc.stats().total_misses(),
                trace.len() as u64,
                "accounting broken for {name}"
            );
        }
    }
}

/// Immediately re-accessing a block after a miss always hits (no
/// bypass policies involved).
#[test]
fn fill_then_hit() {
    let mut rng = Rng(12);
    let cfg = small_llc();
    for _ in 0..32 {
        let block = rng.below(10_000);
        let stream = STREAMS[rng.below(8) as usize];
        for name in ["DRRIP", "NRU", "LRU", "GSPZTC", "GSPZTC+TSE", "GSPC"] {
            let mut llc = Llc::new(cfg, registry::create(name, &cfg).unwrap());
            llc.access(&Access::load(block * 64, stream));
            let r = llc.access(&Access::load(block * 64, stream));
            assert_eq!(r, AccessResult::Hit, "{name} lost a just-filled block");
        }
    }
}

/// Belady's OPT never has more misses than any online policy on the
/// same trace.
#[test]
fn opt_is_optimal() {
    let mut rng = Rng(13);
    let cfg = small_llc();
    for _ in 0..24 {
        let trace = random_trace(&mut rng, 800, 128);
        let annotations = annotate_next_use(trace.accesses());
        let mut opt = Llc::new(cfg, registry::create("OPT", &cfg).unwrap());
        opt.run_trace(&trace, Some(&annotations));
        for name in ["DRRIP", "NRU", "LRU", "SRRIP", "GSPC", "GS-DRRIP"] {
            let mut llc = Llc::new(cfg, registry::create(name, &cfg).unwrap());
            llc.run_trace(&trace, None);
            assert!(
                opt.stats().total_misses() <= llc.stats().total_misses(),
                "OPT ({}) worse than {name} ({})",
                opt.stats().total_misses(),
                llc.stats().total_misses()
            );
        }
    }
}

/// The next-use annotation is self-consistent: each entry points to a
/// strictly later access of the same block with nothing in between.
#[test]
fn next_use_annotations_are_consistent() {
    let mut rng = Rng(14);
    for _ in 0..32 {
        let trace = random_trace(&mut rng, 300, 64);
        let nu = annotate_next_use(trace.accesses());
        let accesses = trace.accesses();
        for (i, &n) in nu.iter().enumerate() {
            if n != u64::MAX {
                let n = n as usize;
                assert!(n > i);
                assert_eq!(accesses[n].block(), accesses[i].block());
                for j in i + 1..n {
                    assert_ne!(accesses[j].block(), accesses[i].block());
                }
            }
        }
    }
}

/// The LLC never reports more writebacks than write accesses it saw
/// (every dirty block traces back to at least one store).
#[test]
fn writebacks_bounded_by_stores() {
    let mut rng = Rng(15);
    let cfg = small_llc();
    for _ in 0..32 {
        let trace = random_trace(&mut rng, 600, 128);
        let stores = trace.iter().filter(|a| a.write()).count() as u64;
        let mut llc = Llc::new(cfg, registry::create("DRRIP", &cfg).unwrap());
        llc.run_trace(&trace, None);
        assert!(llc.stats().writebacks <= stores);
    }
}

/// Running the same trace twice gives identical statistics
/// (policies are deterministic).
#[test]
fn policies_are_deterministic() {
    let mut rng = Rng(16);
    let cfg = small_llc();
    for _ in 0..32 {
        let trace = random_trace(&mut rng, 400, 128);
        for name in ["DRRIP", "GSPC", "SHiP-mem", "GS-DRRIP"] {
            let mut a = Llc::new(cfg, registry::create(name, &cfg).unwrap());
            a.run_trace(&trace, None);
            let mut b = Llc::new(cfg, registry::create(name, &cfg).unwrap());
            b.run_trace(&trace, None);
            assert_eq!(a.stats().total_misses(), b.stats().total_misses());
            assert_eq!(a.stats().writebacks, b.stats().writebacks);
        }
    }
}

/// Only UCD policies bypass, and they bypass at most the display
/// traffic; cold misses are bounded below by the distinct block count.
#[test]
fn bypass_and_cold_miss_bounds() {
    let mut rng = Rng(17);
    let cfg = small_llc();
    for _ in 0..32 {
        let trace = random_trace(&mut rng, 600, 64);
        let display = trace.iter().filter(|a| a.stream() == StreamId::Display).count() as u64;
        let distinct: std::collections::HashSet<u64> = trace.iter().map(|a| a.block()).collect();

        let mut plain = Llc::new(cfg, registry::create("GSPC", &cfg).unwrap());
        plain.run_trace(&trace, None);
        assert_eq!(plain.stats().bypassed_reads + plain.stats().bypassed_writes, 0);
        // Every distinct block must miss at least once (cold misses).
        assert!(plain.stats().total_misses() >= distinct.len() as u64);

        let mut ucd = Llc::new(cfg, registry::create("GSPC+UCD", &cfg).unwrap());
        ucd.run_trace(&trace, None);
        assert!(ucd.stats().bypassed_reads + ucd.stats().bypassed_writes <= display);
    }
}
