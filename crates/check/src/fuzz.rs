//! Deterministic trace fuzzing with divergence shrinking.
//!
//! A fuzz case is a seeded synthetic access stream — randomized stream
//! mix, surface footprints, address locality, and epoch churn — replayed
//! simultaneously through the production [`Llc`] and the naive
//! [`RefLlc`], once driving a registry clone of the policy under test and
//! once driving its independent oracle ([`crate::oracle`]). The first disagreement (per-access result or final
//! statistics) is a [`Divergence`]; [`shrink`] then reduces the trace to a
//! minimal reproducer suitable for a `.gtrace` artifact.

use std::io;
use std::path::{Path, PathBuf};

use grcache::{Llc, LlcConfig, LlcStats};
use grsynth::rng::{zipf_rank, FrameRng};
use grtrace::{Access, StreamId, Trace, BLOCK_SHIFT};
use gspc::registry;

use crate::optcheck::{next_uses, opt_misses};
use crate::oracle::oracle_for;
use crate::refmodel::RefLlc;

/// Fault injected into the fast path during a differential replay — the
/// harness self-test that proves the fuzzer can catch a real bug class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the replays must agree.
    None,
    /// After the first access is serviced, flip one bit of the fast path's
    /// packed tag mirror for that block (a mirror desync, invisible to
    /// structural invariants because the naive model holds the truth).
    MirrorDesyncAfterFirst,
}

/// A disagreement between the fast path and a reference replay.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the diverging access (`trace.len()` for a final-statistics
    /// mismatch).
    pub index: usize,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

/// The default fuzz-case geometry: small enough that a few thousand
/// accesses force evictions in every set, 16-way so the production probe
/// takes its unrolled path.
pub fn fuzz_llc() -> LlcConfig {
    LlcConfig { size_bytes: 64 * 1024, ways: 16, banks: 4, sample_period: 16 }
}

/// An alternate geometry exercising the non-16-way fallback probe path.
pub fn alt_llc() -> LlcConfig {
    LlcConfig { size_bytes: 32 * 1024, ways: 4, banks: 2, sample_period: 8 }
}

/// Synthesizes the access stream for one fuzz case. Deterministic in
/// `(seed, case, len)`: the same triple always yields the same trace.
///
/// Two generators share the case space: cases `≡ 2 (mod 3)` draw from a
/// built-in frame-graph profile ([`grsynth::GRAPH_PROFILES`]) at a sampled
/// coherence level, so the fuzzer exercises the renderer's real pass
/// structure; the rest use the synthetic multi-stream plan below.
pub fn synth_trace(seed: u64, case: u32, len: usize) -> Vec<Access> {
    struct Plan {
        stream: StreamId,
        weight: f64,
        write_prob: f64,
        base: u64,
        footprint: u64,
        cursor: u64,
    }

    let mut rng =
        FrameRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case.into()));
    if case % 3 == 2 {
        return graph_trace(&mut rng, len);
    }
    let nstreams = 2 + (rng.next_u64() % 4) as usize;
    let mut plans: Vec<Plan> = (0..nstreams)
        .map(|i| {
            let stream = StreamId::ALL[(rng.next_u64() % StreamId::ALL.len() as u64) as usize];
            Plan {
                stream,
                weight: 0.2 + rng.next_f64(),
                write_prob: match stream {
                    StreamId::RenderTarget | StreamId::Display => 0.7,
                    StreamId::Z => 0.4,
                    _ => 0.05,
                },
                // Distinct address regions per plan so footprints never
                // collide until churn moves them.
                base: (i as u64 + 1) << 24,
                footprint: 1 << (4 + rng.next_u64() % 9),
                cursor: 0,
            }
        })
        .collect();
    let total: f64 = plans.iter().map(|p| p.weight).sum();
    let locality = 0.3 + 0.6 * rng.next_f64();
    let churn_period = 512 + (rng.next_u64() % 4096) as usize;

    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        if i > 0 && i % churn_period == 0 {
            // Epoch churn: one stream abandons its surface for a fresh one.
            let k = (rng.next_u64() as usize) % plans.len();
            plans[k].base += plans[k].footprint << 1;
        }
        let mut pick = rng.next_f64() * total;
        let mut idx = plans.len() - 1;
        for (j, p) in plans.iter().enumerate() {
            if pick < p.weight {
                idx = j;
                break;
            }
            pick -= p.weight;
        }
        let write = rng.gen_bool(plans[idx].write_prob);
        let jump = !rng.gen_bool(locality);
        let p = &mut plans[idx];
        p.cursor = if jump {
            zipf_rank(&mut rng, p.footprint as usize) as u64
        } else {
            (p.cursor + 1) % p.footprint
        };
        let addr = (p.base + p.cursor) << BLOCK_SHIFT;
        out.push(if write { Access::store(addr, p.stream) } else { Access::load(addr, p.stream) });
    }
    out
}

/// Draws one fuzz trace from a built-in frame-graph profile: the profile,
/// its coherence override, and the rendered frame all come off the case's
/// RNG stream, so profile-backed cases stay as deterministic as the
/// plan-backed ones. The tiny-scale render is cycled or truncated to honor
/// the `len` contract.
fn graph_trace(rng: &mut FrameRng, len: usize) -> Vec<Access> {
    let profiles = grsynth::GRAPH_PROFILES;
    let profile = &profiles[(rng.next_u64() % profiles.len() as u64) as usize];
    let coherence = [0.0, 0.25, 0.5, 0.75, 1.0][(rng.next_u64() % 5) as usize];
    let frame = (rng.next_u64() % 4) as u32;
    let graph = profile.graph_with_coherence(coherence);
    let trace = grsynth::Frames::from(&graph).render(frame, grsynth::Scale::Tiny).0;
    let rendered = trace.accesses();
    (0..len).map(|i| rendered[i % rendered.len()]).collect()
}

/// Replays `accesses` through the fast path, a [`RefLlc`] driving a fresh
/// registry clone, and (when one exists) a [`RefLlc`] driving the policy's
/// independent oracle, comparing the [`grcache::AccessResult`] of every
/// access and the final statistics. Returns the fast path's statistics on
/// agreement.
///
/// # Panics
///
/// Panics if `name` is not a registry policy name.
pub fn differential_replay(
    cfg: &LlcConfig,
    name: &str,
    accesses: &[Access],
    fault: Fault,
) -> Result<LlcStats, Divergence> {
    let nu = registry::needs_next_use(name).then(|| next_uses(accesses));
    let mut fast = Llc::new(*cfg, registry::create(name, cfg).expect("registry policy name"));
    let mut reference =
        RefLlc::new(*cfg, registry::create(name, cfg).expect("registry policy name"));
    let mut oracle = oracle_for(name, cfg).map(|p| RefLlc::new(*cfg, p));

    for (i, a) in accesses.iter().enumerate() {
        let n = nu.as_ref().map_or(u64::MAX, |v| v[i]);
        let f = fast.access_annotated(a, n);
        let r = reference.access(a, n);
        if f != r {
            return Err(Divergence {
                index: i,
                detail: format!("fast {f:?} vs reference {r:?} on {a:?}"),
            });
        }
        if let Some(orc) = oracle.as_mut() {
            let o = orc.access(a, n);
            if f != o {
                return Err(Divergence {
                    index: i,
                    detail: format!("fast {f:?} vs oracle {o:?} on {a:?}"),
                });
            }
        }
        if i == 0 && fault == Fault::MirrorDesyncAfterFirst {
            fast.corrupt_mirror_tag_for_test(a.block());
        }
    }

    reference
        .stats()
        .matches(fast.stats())
        .map_err(|e| Divergence { index: accesses.len(), detail: format!("stats: {e}") })?;
    if let Some(orc) = &oracle {
        orc.stats().matches(fast.stats()).map_err(|e| Divergence {
            index: accesses.len(),
            detail: format!("oracle stats: {e}"),
        })?;
    }
    Ok(fast.stats().clone())
}

/// Greedy ddmin: removes chunks of halving size while the divergence
/// persists, yielding a (locally) minimal reproducer. With
/// [`Fault::MirrorDesyncAfterFirst`] the first access is pinned — it is
/// the corruption target.
pub fn shrink(cfg: &LlcConfig, name: &str, accesses: &[Access], fault: Fault) -> Vec<Access> {
    let diverges = |acc: &[Access]| differential_replay(cfg, name, acc, fault).is_err();
    let mut cur = accesses.to_vec();
    if !diverges(&cur) {
        return cur;
    }
    let pinned = usize::from(fault == Fault::MirrorDesyncAfterFirst);
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut start = pinned;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if diverges(&candidate) {
                cur = candidate;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    cur
}

/// Writes a shrunk reproducer as a `.gtrace` artifact; returns its path.
pub fn dump_reproducer(
    dir: &Path,
    policy: &str,
    seed: u64,
    case: u32,
    accesses: &[Access],
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let slug: String =
        policy.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    let path = dir.join(format!("{slug}_s{seed}_c{case}.gtrace"));
    let mut trace = Trace::new(format!("fuzz:{policy}"), case);
    for a in accesses {
        trace.push(*a);
    }
    grtrace::io::write(std::fs::File::create(&path)?, &trace)?;
    Ok(path)
}

/// A fuzz campaign: `cases` seeded traces, each replayed differentially
/// under every policy in `policies`, with the independent Belady bound
/// checked for every bypass-free run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed; two campaigns with equal seeds fuzz equal traces.
    pub seed: u64,
    /// Number of generated traces.
    pub cases: u32,
    /// Accesses per trace.
    pub accesses_per_case: usize,
    /// Registry names to verify.
    pub policies: Vec<String>,
    /// Where to dump shrunk reproducers (`None` keeps them in memory only).
    pub out_dir: Option<PathBuf>,
}

impl FuzzConfig {
    /// The registry's default fuzz set: every table entry with
    /// `meta.fuzz` plus each parameterized family's concrete spellings
    /// ([`registry::fuzz_names`]). A new registry row joins the campaign
    /// automatically.
    pub fn all_policies() -> Vec<String> {
        registry::fuzz_names()
    }

    /// A small fixed-budget campaign suitable for CI smoke runs.
    pub fn smoke(seed: u64) -> Self {
        FuzzConfig {
            seed,
            cases: 2,
            accesses_per_case: 4096,
            policies: Self::all_policies(),
            out_dir: None,
        }
    }
}

/// One verified failure of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Policy that diverged.
    pub policy: String,
    /// Fuzz case index.
    pub case: u32,
    /// Access index of the divergence in the original trace.
    pub index: usize,
    /// What disagreed.
    pub detail: String,
    /// Length of the shrunk reproducer.
    pub reproducer_len: usize,
    /// Artifact path, when an output directory was configured.
    pub artifact: Option<PathBuf>,
}

/// Campaign outcome: access volume replayed and any failures found.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Cases generated.
    pub cases: u32,
    /// Accesses replayed, summed over policies (each through at least two
    /// models).
    pub replayed_accesses: u64,
    /// Divergences and OPT-bound violations, shrunk where applicable.
    pub failures: Vec<CaseFailure>,
}

/// Runs a fuzz campaign; see [`FuzzConfig`].
pub fn run_campaign(cfg: &FuzzConfig) -> CampaignReport {
    let llc = fuzz_llc();
    let mut failures = Vec::new();
    let mut replayed = 0u64;
    for case in 0..cfg.cases {
        let accesses = synth_trace(cfg.seed, case, cfg.accesses_per_case);
        let bound = opt_misses(&llc, &accesses);
        for name in &cfg.policies {
            match differential_replay(&llc, name, &accesses, Fault::None) {
                Ok(stats) => {
                    replayed += accesses.len() as u64;
                    // The Belady bound applies only to mandatory-fill runs:
                    // a bypassing policy skips fills OPT is forced to make.
                    let bypasses = stats.bypassed_reads + stats.bypassed_writes;
                    if bypasses == 0 && stats.total_misses() < bound {
                        failures.push(CaseFailure {
                            policy: name.clone(),
                            case,
                            index: accesses.len(),
                            detail: format!(
                                "OPT bound violated: {} misses < OPT {bound}",
                                stats.total_misses()
                            ),
                            reproducer_len: accesses.len(),
                            artifact: None,
                        });
                    }
                }
                Err(d) => {
                    let repro = shrink(&llc, name, &accesses, Fault::None);
                    let artifact = cfg
                        .out_dir
                        .as_ref()
                        .and_then(|dir| dump_reproducer(dir, name, cfg.seed, case, &repro).ok());
                    failures.push(CaseFailure {
                        policy: name.clone(),
                        case,
                        index: d.index,
                        detail: d.detail,
                        reproducer_len: repro.len(),
                        artifact,
                    });
                }
            }
        }
    }
    CampaignReport { cases: cfg.cases, replayed_accesses: replayed, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_trace_is_deterministic() {
        let a = synth_trace(7, 0, 2000);
        let b = synth_trace(7, 0, 2000);
        assert_eq!(a, b);
        let c = synth_trace(7, 1, 2000);
        assert_ne!(a, c, "different cases draw different traces");
        let d = synth_trace(8, 0, 2000);
        assert_ne!(a, d, "different seeds draw different traces");
    }

    #[test]
    fn traces_mix_streams_and_hit_the_llc() {
        let accesses = synth_trace(11, 3, 6000);
        let streams: std::collections::HashSet<StreamId> =
            accesses.iter().map(|a| a.stream()).collect();
        assert!(streams.len() >= 2, "fuzz trace uses a single stream");
        let stats = differential_replay(&fuzz_llc(), "DRRIP", &accesses, Fault::None).unwrap();
        assert!(stats.evictions > 0, "trace never filled a set");
        assert!(stats.total_hits() > 0, "trace has no reuse at all");
    }

    #[test]
    fn clean_replay_agrees_for_a_sample_of_policies() {
        let accesses = synth_trace(3, 0, 4000);
        for name in ["DRRIP", "GSPC+UCD", "SHiP-mem", "OPT", "LRU"] {
            differential_replay(&fuzz_llc(), name, &accesses, Fault::None)
                .unwrap_or_else(|d| panic!("{name} diverged: {} @{}", d.detail, d.index));
        }
    }

    #[test]
    fn injected_mirror_desync_is_caught_and_shrinks() {
        // Loads of one block, twice: corrupting the mirror after the first
        // access makes the second miss in the fast path but hit in the
        // reference model.
        let cfg = fuzz_llc();
        let mut accesses = synth_trace(5, 0, 3000);
        // Ensure the first block recurs later in the trace.
        let first = accesses[0];
        accesses.push(Access::load(first.addr(), first.stream()));
        let d = differential_replay(&cfg, "DRRIP", &accesses, Fault::MirrorDesyncAfterFirst)
            .expect_err("mirror desync must diverge");
        assert!(d.index > 0);
        let repro = shrink(&cfg, "DRRIP", &accesses, Fault::MirrorDesyncAfterFirst);
        assert!(repro.len() <= 100, "reproducer did not shrink: {} accesses remain", repro.len());
        // The shrunk trace still diverges.
        assert!(differential_replay(&cfg, "DRRIP", &repro, Fault::MirrorDesyncAfterFirst).is_err());
    }

    /// The default campaign roster is the registry's fuzz set, so the
    /// OPT-trained newcomer (and any future row) is fuzzed without this
    /// crate changing.
    #[test]
    fn default_roster_comes_from_the_registry() {
        let names = FuzzConfig::all_policies();
        for expected in ["GOPT", "OPT", "GSPC", "GSPZTC(t=2)", "GSPZTC(t=16)"] {
            assert!(names.contains(&expected.to_string()), "{expected} not in default fuzz set");
        }
        assert_eq!(names.len(), registry::fuzz_names().len());
    }

    /// GOPT under the shrinking fuzzer: clean replay agrees with its
    /// independent oracle (next-use annotations flow through the
    /// differential harness automatically), and an injected mirror desync
    /// is caught and ddmin-shrunk just like for the hand-written policies.
    #[test]
    fn gopt_differential_replay_and_shrink() {
        let cfg = fuzz_llc();
        // A plan-backed case (≢ 2 mod 3): its locality knob makes the first
        // block recur quickly, so the injected desync is observable.
        let mut accesses = synth_trace(9, 3, 3000);
        differential_replay(&cfg, "GOPT", &accesses, Fault::None)
            .unwrap_or_else(|d| panic!("GOPT diverged from its oracle: {} @{}", d.detail, d.index));
        differential_replay(&alt_llc(), "GOPT", &accesses, Fault::None)
            .unwrap_or_else(|d| panic!("GOPT diverged on alt geometry: {} @{}", d.detail, d.index));

        let first = accesses[0];
        accesses.push(Access::load(first.addr(), first.stream()));
        let d = differential_replay(&cfg, "GOPT", &accesses, Fault::MirrorDesyncAfterFirst)
            .expect_err("mirror desync must diverge under GOPT too");
        assert!(d.index > 0);
        let repro = shrink(&cfg, "GOPT", &accesses, Fault::MirrorDesyncAfterFirst);
        assert!(repro.len() <= 100, "GOPT reproducer did not shrink: {} left", repro.len());
        assert!(differential_replay(&cfg, "GOPT", &repro, Fault::MirrorDesyncAfterFirst).is_err());
    }

    /// Cases `≡ 2 (mod 3)` come from the frame-graph registry: they keep
    /// the `(seed, case, len)` determinism contract, honor the requested
    /// length, and carry the renderer's multi-stream structure.
    #[test]
    fn profile_cases_sample_the_graph_registry() {
        let a = synth_trace(7, 2, 2500);
        let b = synth_trace(7, 2, 2500);
        assert_eq!(a, b, "profile-backed case must be deterministic");
        assert_eq!(a.len(), 2500, "profile-backed case must honor len");
        let c = synth_trace(8, 2, 2500);
        assert_ne!(a, c, "different seeds sample different profile traces");
        let streams: std::collections::HashSet<StreamId> = a.iter().map(|x| x.stream()).collect();
        assert!(!streams.is_empty());
    }

    /// Satellite lockdown: a trace drawn from a frame-graph profile case
    /// still supports the full catch-and-shrink loop — clean replay
    /// agrees, an injected mirror desync is caught, and ddmin reduces the
    /// profile trace to a minimal reproducer that still diverges.
    #[test]
    fn profile_trace_mutation_is_caught_and_shrinks() {
        let cfg = fuzz_llc();
        let mut accesses = synth_trace(13, 2, 3000);
        differential_replay(&cfg, "GSPC", &accesses, Fault::None)
            .unwrap_or_else(|d| panic!("clean profile trace diverged: {} @{}", d.detail, d.index));

        let first = accesses[0];
        accesses.push(Access::load(first.addr(), first.stream()));
        let d = differential_replay(&cfg, "GSPC", &accesses, Fault::MirrorDesyncAfterFirst)
            .expect_err("mirror desync must diverge on a profile trace");
        assert!(d.index > 0);
        let repro = shrink(&cfg, "GSPC", &accesses, Fault::MirrorDesyncAfterFirst);
        assert!(repro.len() <= 100, "profile reproducer did not shrink: {} left", repro.len());
        assert!(differential_replay(&cfg, "GSPC", &repro, Fault::MirrorDesyncAfterFirst).is_err());
    }

    #[test]
    fn campaign_smoke_is_clean() {
        let cfg = FuzzConfig {
            seed: 1,
            cases: 1,
            accesses_per_case: 2048,
            policies: vec!["DRRIP".into(), "GSPC".into(), "NRU+UCD".into()],
            out_dir: None,
        };
        let report = run_campaign(&cfg);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.replayed_accesses, 3 * 2048);
    }
}
