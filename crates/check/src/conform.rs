//! Paper-fidelity conformance checks over cached synthesized frames.
//!
//! Where the fuzzer ([`crate::fuzz`]) asks "do the two implementations
//! agree with each other?", this module asks "do the numbers still look
//! like the paper's?". It replays real cached frames (via
//! [`grbench::framecache`]) through the registry's conformance panel —
//! every `ALL_POLICIES` row whose metadata opts in — and checks:
//!
//! * the production `OPT` replay matches the independent
//!   [`crate::optcheck::opt_misses`] bound exactly;
//! * no bypass-free policy ever beats that bound (so an OPT-*trained*
//!   policy like `GOPT` can approach but never pass its teacher);
//! * hits + misses account for every access (conservation);
//! * every miss-ratio ceiling declared in the registry holds: GSPC keeps
//!   its headline edge over SRRIP/DRRIP, GOPT beats its SRRIP baseline
//!   (figure-level fidelity);
//! * at the pinned configuration (`Scale::Tiny`, frame 0 of the first
//!   app), per-stream hit rates match any goldens the registry pins for
//!   the policy, so silent drift in the generator or replay loop fails
//!   loudly.
//!
//! The panel, the ceilings, and the goldens all live in the registry
//! metadata ([`gspc::registry::Conformance`]); the only policy names this
//! module spells itself are the pinned DRRIP/GSPC fixtures in the
//! frame-graph profile golden table ([`run_profiles`]).

use grbench::{figures, framecache, ExperimentConfig};
use grcache::{Llc, LlcConfig, LlcStats};
use grsynth::{AppProfile, Frames, Scale, GRAPH_PROFILES};
use grtrace::StreamId;
use gspc::registry::{self, PolicyEntry};

use crate::optcheck::opt_misses;

/// The conformance panel: every registry row that opts in via
/// [`registry::Conformance::panel`], in table order. A deliberate
/// cross-section — the paper's baselines, the graphics-aware proposals,
/// the OPT-trained predictor, and the offline bound itself.
pub fn panel() -> Vec<&'static PolicyEntry> {
    registry::ALL_POLICIES.iter().filter(|e| e.meta.conformance.panel).collect()
}

/// Absolute tolerance on golden hit rates.
const GOLDEN_TOLERANCE: f64 = 0.02;

/// Outcome of a conformance run.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    /// Individual assertions evaluated.
    pub checks: u64,
    /// Human-readable description of every failed assertion.
    pub failures: Vec<String>,
}

impl ConformanceReport {
    /// True when every check passed.
    pub fn is_pass(&self) -> bool {
        self.failures.is_empty()
    }

    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(failure());
        }
    }
}

/// Replays one cached frame through `name`, returning the final stats.
fn replay(llc_cfg: LlcConfig, name: &str, data: &framecache::FrameData) -> LlcStats {
    let mut llc = Llc::new(llc_cfg, registry::create(name, &llc_cfg).expect("panel policy"));
    if registry::needs_next_use(name) {
        llc.run_source(&mut data.trace.source_annotated(data.next_use()))
            .expect("in-memory replay cannot fail");
    } else {
        llc.run_source(&mut data.trace.source()).expect("in-memory replay cannot fail");
    }
    llc.stats().clone()
}

/// Runs the conformance suite over the first `apps` application profiles
/// at `cfg`'s scale, one frame each, on a `paper_mb`-equivalent LLC.
pub fn run(cfg: &ExperimentConfig, apps: usize, paper_mb: u64) -> ConformanceReport {
    let llc_cfg = cfg.llc(paper_mb);
    let profiles = AppProfile::all();
    let picked = &profiles[..apps.clamp(1, profiles.len())];
    let mut report = ConformanceReport::default();
    let members = panel();
    let mut totals: Vec<u64> = vec![0; members.len()];

    for (app_index, app) in picked.iter().enumerate() {
        let data = framecache::frame_data(app, 0, cfg.scale);
        let total = data.trace.len() as u64;
        let bound = opt_misses(&llc_cfg, data.trace.accesses());

        for (slot, entry) in members.iter().enumerate() {
            let name = entry.name;
            let stats = replay(llc_cfg, name, &data);
            totals[slot] += stats.total_misses();

            report.check(stats.total_accesses() == total, || {
                format!(
                    "{}/{name}: serviced {} of {total} accesses",
                    app.abbrev,
                    stats.total_accesses()
                )
            });

            if name == "OPT" {
                report.check(stats.total_misses() == bound, || {
                    format!(
                        "{}/OPT: production replay {} misses vs independent Belady {bound}",
                        app.abbrev,
                        stats.total_misses()
                    )
                });
            } else if stats.bypassed_reads + stats.bypassed_writes == 0 {
                report.check(stats.total_misses() >= bound, || {
                    format!(
                        "{}/{name}: {} misses beat the Belady bound {bound}",
                        app.abbrev,
                        stats.total_misses()
                    )
                });
            }

            // Golden per-stream rates, pinned to one exact configuration.
            if app_index == 0 && cfg.scale == Scale::Tiny {
                for &(stream, expected) in entry.meta.conformance.goldens {
                    let got = stats.hit_rate(stream);
                    report.check((got - expected).abs() <= GOLDEN_TOLERANCE, || {
                        format!(
                            "{}/{name} {} hit rate {got:.4} drifted from golden {expected:.4}",
                            app.abbrev,
                            stream.label()
                        )
                    });
                }
            }
        }
    }

    let misses_of = |name: &str| {
        members
            .iter()
            .position(|e| e.name == name)
            .map(|slot| totals[slot])
            .expect("ceiling baseline in panel (registry metadata test enforces this)")
    };
    for entry in &members {
        for &(baseline, factor) in entry.meta.conformance.ceilings {
            let ours = misses_of(entry.name);
            let theirs = misses_of(baseline);
            report.check(ours as f64 <= factor * theirs as f64, || {
                format!(
                    "{} lost its edge: {ours} misses vs {theirs} for {baseline} \
                     (ceiling {factor:.2}x)",
                    entry.name
                )
            });
        }
    }
    report
}

/// Golden numbers for one built-in frame-graph profile at the pinned
/// configuration (`Scale::Tiny`, frame 0, default coherence): exact
/// per-stream access counts out of the generator, and overall DRRIP/GSPC
/// hit rates on an 8 MB-class LLC within [`GOLDEN_TOLERANCE`].
struct ProfileGolden {
    /// Registry name in [`GRAPH_PROFILES`].
    profile: &'static str,
    /// Exact access count per stream; streams not listed must be absent.
    accesses: &'static [(StreamId, u64)],
    /// Overall DRRIP hit rate at the pinned configuration.
    drrip_hit_rate: f64,
    /// Overall GSPC hit rate at the pinned configuration.
    gspc_hit_rate: f64,
}

/// Regenerate with
/// `cargo run --release -p grcheck --example profile_goldens_gen`.
const PROFILE_GOLDENS: &[ProfileGolden] = &[
    ProfileGolden {
        profile: "deferred",
        accesses: &[
            (StreamId::Vertex, 87),
            (StreamId::VertexIndex, 11),
            (StreamId::HiZ, 960),
            (StreamId::Z, 960),
            (StreamId::RenderTarget, 11040),
            (StreamId::Texture, 6001),
            (StreamId::Display, 920),
            (StreamId::Other, 971),
        ],
        drrip_hit_rate: 0.3212,
        gspc_hit_rate: 0.3483,
    },
    ProfileGolden {
        profile: "shadowed",
        accesses: &[
            (StreamId::Vertex, 75),
            (StreamId::VertexIndex, 9),
            (StreamId::HiZ, 960),
            (StreamId::Z, 1720),
            (StreamId::RenderTarget, 1840),
            (StreamId::Texture, 1705),
            (StreamId::Display, 920),
            (StreamId::Other, 1160),
        ],
        drrip_hit_rate: 0.2059,
        gspc_hit_rate: 0.2025,
    },
    ProfileGolden {
        profile: "postfx",
        accesses: &[
            (StreamId::Vertex, 50),
            (StreamId::VertexIndex, 6),
            (StreamId::HiZ, 960),
            (StreamId::Z, 960),
            (StreamId::RenderTarget, 6480),
            (StreamId::Texture, 3869),
            (StreamId::Display, 920),
            (StreamId::Other, 481),
        ],
        drrip_hit_rate: 0.4682,
        gspc_hit_rate: 0.3750,
    },
    ProfileGolden {
        profile: "indirect",
        accesses: &[
            (StreamId::Vertex, 11575),
            (StreamId::VertexIndex, 8373),
            (StreamId::HiZ, 960),
            (StreamId::Z, 960),
            (StreamId::RenderTarget, 5520),
            (StreamId::Texture, 3360),
            (StreamId::Display, 920),
            (StreamId::Other, 1345),
        ],
        drrip_hit_rate: 0.6058,
        gspc_hit_rate: 0.5939,
    },
    ProfileGolden {
        profile: "cpu-like",
        accesses: &[(StreamId::Other, 23359)],
        drrip_hit_rate: 0.2281,
        gspc_hit_rate: 0.2230,
    },
];

/// Runs the frame-graph profile golden suite: per-stream access counts
/// must match exactly (the generator is deterministic, so any drift is a
/// real behavior change), and the pinned DRRIP/GSPC hit rates must stay
/// within tolerance. Always evaluated at the pinned `Scale::Tiny`
/// configuration regardless of `GR_SCALE`.
pub fn run_profiles(paper_mb: u64) -> ConformanceReport {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let llc_cfg = cfg.llc(paper_mb);
    let mut report = ConformanceReport::default();
    report.check(
        PROFILE_GOLDENS.len() == GRAPH_PROFILES.len()
            && GRAPH_PROFILES.iter().all(|p| PROFILE_GOLDENS.iter().any(|g| g.profile == p.name)),
        || "profile golden table out of sync with GRAPH_PROFILES".to_string(),
    );

    for golden in PROFILE_GOLDENS {
        let Some(profile) = grsynth::graph_profile(golden.profile) else {
            continue; // already flagged by the sync check above
        };
        let trace = Frames::from(&profile.graph()).render(0, Scale::Tiny).0;

        for stream in StreamId::ALL {
            let got = trace.accesses().iter().filter(|a| a.stream() == stream).count() as u64;
            let expected =
                golden.accesses.iter().find(|(s, _)| *s == stream).map_or(0, |(_, n)| *n);
            report.check(got == expected, || {
                format!(
                    "{}: {} access count {got} != golden {expected}",
                    golden.profile,
                    stream.label()
                )
            });
        }

        for (name, expected) in [("DRRIP", golden.drrip_hit_rate), ("GSPC", golden.gspc_hit_rate)] {
            let mut llc =
                Llc::new(llc_cfg, registry::create(name, &llc_cfg).expect("golden policy"));
            llc.run_source(&mut trace.source()).expect("in-memory replay cannot fail");
            let stats = llc.stats();
            let got = stats.total_hits() as f64 / stats.total_accesses() as f64;
            report.check((got - expected).abs() <= GOLDEN_TOLERANCE, || {
                format!(
                    "{}/{name}: hit rate {got:.4} drifted from golden {expected:.4}",
                    golden.profile
                )
            });
        }
    }
    report
}

/// Relative slack on the Figure 15 FPS ordering: an adjacent pair of the
/// panel may invert by at most this fraction before the check fails.
const ORDERING_TOLERANCE: f64 = 0.02;

/// Pins the paper's qualitative Figure 15 claim at the kick-tires scale:
/// sweeping the +UCD performance panel over every app on the
/// [`figures::fig15`] machine, the exact workload FPS (each frame's own
/// memory log timed through the DDR3 and interval models) must respect
/// [`figures::PERF_FPS_ORDER`] — GSPC ≥ GS-DRRIP ≥ DRRIP ≥ NRU — within
/// `ORDERING_TOLERANCE`. Always evaluated at the pinned `Scale::Tiny`
/// configuration regardless of `GR_SCALE`, like [`run_profiles`], so the
/// golden stays one exact workload.
pub fn run_figure_ordering() -> ConformanceReport {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let r = figures::fig15().run(&cfg);
    let fps: Vec<(&str, f64)> = figures::PERF_FPS_ORDER
        .into_iter()
        .map(|name| (name, figures::fps(r.apps.iter().map(|app| r.get(name, app)))))
        .collect();

    let mut report = ConformanceReport::default();
    for pair in fps.windows(2) {
        let (worse, a) = pair[0];
        let (better, b) = pair[1];
        report.check(b >= a * (1.0 - ORDERING_TOLERANCE), || {
            format!(
                "figure-15 ordering inverted: {better} {b:.2} FPS < {worse} {a:.2} FPS \
                 (tolerance {ORDERING_TOLERANCE:.0}%)",
                ORDERING_TOLERANCE = ORDERING_TOLERANCE * 100.0
            )
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full suite at tiny scale over one app: every check green,
    /// including the pinned goldens and the registry-declared ratios.
    #[test]
    fn tiny_conformance_is_green() {
        let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
        let report = run(&cfg, 1, 8);
        assert!(report.checks > 10, "suite ran only {} checks", report.checks);
        assert!(report.is_pass(), "conformance failures:\n{}", report.failures.join("\n"));
    }

    /// Every built-in frame-graph profile has a golden row, and the whole
    /// profile suite is green: exact stream counts plus pinned DRRIP/GSPC
    /// hit rates.
    #[test]
    fn profile_goldens_are_green() {
        let report = run_profiles(8);
        let expected = 1 + GRAPH_PROFILES.len() as u64 * (StreamId::ALL.len() as u64 + 2);
        assert_eq!(report.checks, expected, "profile suite skipped checks");
        assert!(report.is_pass(), "profile golden failures:\n{}", report.failures.join("\n"));
    }

    /// The pinned Figure 15 FPS ordering holds at the kick-tires scale:
    /// three adjacent-pair checks, all green.
    #[test]
    fn figure_ordering_is_green() {
        let report = run_figure_ordering();
        assert_eq!(report.checks, figures::PERF_FPS_ORDER.len() as u64 - 1);
        assert!(report.is_pass(), "ordering failures:\n{}", report.failures.join("\n"));
    }

    /// The panel comes from registry metadata and keeps its paper
    /// cross-section: baselines, the GSPC family, OPT, and the
    /// OPT-trained GOPT.
    #[test]
    fn panel_is_registry_driven() {
        let names: Vec<&str> = panel().iter().map(|e| e.name).collect();
        for required in ["DRRIP", "SRRIP", "GSPC", "OPT", "GOPT"] {
            assert!(names.contains(&required), "{required} missing from panel");
        }
        assert!(names.len() >= 9, "panel shrank to {names:?}");
    }
}
