//! Bit-identity of the registry's two front ends.
//!
//! The monomorphized visitor path ([`gspc::registry::with_policy`]) exists
//! purely for speed: for **every** registered policy it must produce the
//! same statistics, the same DRAM-bound memory log, and the same
//! characterization report as the boxed fallback
//! ([`gspc::registry::create`]) on the same trace. Both dispatch paths
//! share the same generic replay body (`Box<dyn Policy>` implements
//! `Policy`), so a divergence means a registry row constructs differently
//! between the two entry points.

use grbench::framecache;
use grcache::{CharReport, CharTracker, Llc, LlcConfig, LlcStats, MemoryLog, Policy};
use grsynth::{AppProfile, Scale};
use gspc::registry;
use gspc::registry::PolicyVisitor;

/// Everything one replay observes: stats, memory log, characterization.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: LlcStats,
    memory_log: Vec<(u64, bool)>,
    chars: CharReport,
}

fn replay<P: Policy>(policy: P, data: &framecache::FrameData, llc_cfg: LlcConfig) -> Observed {
    let observer = (CharTracker::new(&llc_cfg), MemoryLog::new());
    let mut llc = Llc::with_observer(llc_cfg, policy, observer);
    let served = if registry::needs_next_use(llc.policy().name()) {
        llc.run_source(&mut data.trace.source_annotated(data.next_use()))
    } else {
        llc.run_source(&mut data.trace.source())
    };
    served.expect("in-memory replay cannot fail");
    Observed {
        stats: llc.stats().clone(),
        memory_log: llc.memory_log().expect("memory log attached").to_vec(),
        chars: llc.characterization().expect("characterization attached").clone(),
    }
}

struct Replay<'a> {
    data: &'a framecache::FrameData,
    llc_cfg: LlcConfig,
}

impl PolicyVisitor for Replay<'_> {
    type Output = Observed;
    fn visit<P: Policy + 'static>(self, policy: P) -> Observed {
        replay(policy, self.data, self.llc_cfg)
    }
}

/// Every registry entry (plus the parameterized GSPZTC spelling) observes
/// identically through the monomorphized and boxed dispatch paths.
#[test]
fn every_policy_is_bit_identical_across_dispatch_paths() {
    let app = AppProfile::by_abbrev("BioShock").expect("BioShock profile");
    let data = framecache::frame_data(&app, 0, Scale::Tiny);
    let llc_cfg = LlcConfig { size_bytes: 128 * 1024, ways: 16, banks: 4, sample_period: 64 };

    let mut names: Vec<&str> = registry::ALL_POLICIES.iter().map(|e| e.name).collect();
    names.push("GSPZTC(t=2)");
    for name in names {
        let mono = registry::with_policy(name, &llc_cfg, Replay { data: &data, llc_cfg })
            .unwrap_or_else(|| panic!("{name} not in registry"));
        assert!(mono.stats.total_hits() + mono.stats.total_misses() > 0, "{name} replayed nothing");
        let policy =
            registry::create(name, &llc_cfg).unwrap_or_else(|| panic!("{name} not in registry"));
        let boxed = replay(policy, &data, llc_cfg);
        assert_eq!(mono.stats, boxed.stats, "stats diverged for {name}");
        assert_eq!(mono.memory_log, boxed.memory_log, "memory log diverged for {name}");
        assert_eq!(mono.chars, boxed.chars, "characterization diverged for {name}");
    }
}
