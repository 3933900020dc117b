//! Bit-identity of the registry's two front ends and the replay core's two
//! paths.
//!
//! The monomorphized visitor path ([`gspc::registry::with_policy`]) and the
//! batched AVX2 driver ([`grcache::ProbeKind::Avx2`]) exist purely for
//! speed: for **every** registered policy they must produce the same
//! statistics, the same DRAM-bound memory log, and the same
//! characterization report as the boxed fallback
//! ([`gspc::registry::create`]) and the plain per-access loop
//! ([`grcache::ProbeKind::Scalar`]) on the same trace. Both dispatch paths
//! share the same generic replay body (`Box<dyn Policy>` implements
//! `Policy`), so a dispatch divergence means a registry row constructs
//! differently between the two entry points; the batched driver reorders
//! *work* but never *observable effects*, so a path divergence means it
//! leaked a reordering.

use grbench::framecache;
use grcache::{CharReport, CharTracker, Llc, LlcConfig, LlcStats, MemoryLog, Policy, ProbeKind};
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

fn replay<P: Policy>(
    policy: P,
    data: &framecache::FrameData,
    llc_cfg: LlcConfig,
    kind: ProbeKind,
) -> Observed {
    let observer = (CharTracker::new(&llc_cfg), MemoryLog::new());
    let mut llc = Llc::with_observer(llc_cfg, policy, observer);
    llc.set_probe_kind(kind);
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
    kind: ProbeKind,
}

impl PolicyVisitor for Replay<'_> {
    type Output = Observed;
    fn visit<P: Policy + 'static>(self, policy: P) -> Observed {
        replay(policy, self.data, self.llc_cfg, self.kind)
    }
}

/// Every registry entry (plus the parameterized GSPZTC spelling) observes
/// identically through both dispatch paths under every replay path the
/// host supports, against the monomorphized plain-loop reference.
#[test]
fn every_policy_is_bit_identical_across_dispatch_and_replay_paths() {
    let app = AppProfile::by_abbrev("BioShock").expect("BioShock profile");
    let data = framecache::frame_data(&app, 0, Scale::Tiny);
    let llc_cfg = LlcConfig { size_bytes: 128 * 1024, ways: 16, banks: 4, sample_period: 64 };

    let mut names: Vec<&str> = registry::ALL_POLICIES.iter().map(|e| e.name).collect();
    names.push("GSPZTC(t=2)");
    let kinds = ProbeKind::all_available();
    assert_eq!(kinds[0], ProbeKind::Scalar, "the plain loop is the reference path");
    for name in names {
        let visit = |kind| Replay { data: &data, llc_cfg, kind };
        let reference = registry::with_policy(name, &llc_cfg, visit(ProbeKind::Scalar))
            .unwrap_or_else(|| panic!("{name} not in registry"));
        assert!(
            reference.stats.total_hits() + reference.stats.total_misses() > 0,
            "{name} replayed nothing"
        );
        for &kind in &kinds {
            for boxed in [false, true] {
                let observed = if boxed {
                    let policy = registry::create(name, &llc_cfg)
                        .unwrap_or_else(|| panic!("{name} not in registry"));
                    replay(policy, &data, llc_cfg, kind)
                } else {
                    registry::with_policy(name, &llc_cfg, visit(kind))
                        .unwrap_or_else(|| panic!("{name} not in registry"))
                };
                let what = format!("{name} under {kind:?} (boxed={boxed})");
                assert_eq!(reference.stats, observed.stats, "stats diverged for {what}");
                assert_eq!(
                    reference.memory_log, observed.memory_log,
                    "memory log diverged for {what}"
                );
                assert_eq!(reference.chars, observed.chars, "characterization diverged for {what}");
            }
        }
    }
}
