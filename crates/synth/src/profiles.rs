//! Built-in frame-graph workload profiles.
//!
//! The named entries below are the graph analogue of the policy registry:
//! one table is the single source of truth, and every layer — `grsim
//! profiles` / `sequence --profile` / `dump --profile`, the runner,
//! `grserved` job specs, the fuzzer's trace plans, and the conformance
//! goldens — iterates or resolves it instead of hard-coding names.

use crate::graph::{FrameGraph, PassKind};

/// A named, registered frame-graph workload.
#[derive(Debug, Clone, Copy)]
pub struct GraphProfile {
    /// Registry name (also the trace `app` identity).
    pub name: &'static str,
    /// One-line description for CLI listings.
    pub description: &'static str,
    /// Frames the profile nominally exposes to sequence replay.
    pub frames: u32,
    /// Coherence used when the caller does not override it.
    pub default_coherence: f64,
    build: fn() -> FrameGraph,
}

impl GraphProfile {
    /// The profile's graph at its default coherence.
    pub fn graph(&self) -> FrameGraph {
        self.graph_with_coherence(self.default_coherence)
    }

    /// The profile's graph at an explicit coherence setting. The caller
    /// owns validating an out-of-range override (see
    /// [`FrameGraph::validate`]); only the built-in structure is asserted
    /// here.
    pub fn graph_with_coherence(&self, coherence: f64) -> FrameGraph {
        debug_assert!((self.build)().validate().is_ok(), "built-in profile must validate");
        (self.build)().coherence(coherence)
    }
}

fn deferred() -> FrameGraph {
    FrameGraph::new("deferred", 1280, 720)
        .texture_mb(128)
        .triangles_k(700)
        .pass(PassKind::ZPrepass)
        .pass(PassKind::GBuffer { targets: 3 })
        .pass(PassKind::DeferredLighting)
        .pass(PassKind::PostFx { passes: 2 })
        .pass(PassKind::Present)
}

fn shadowed() -> FrameGraph {
    FrameGraph::new("shadowed", 1280, 720)
        .texture_mb(96)
        .triangles_k(600)
        .pass(PassKind::ShadowMap { cascade: 0 })
        .pass(PassKind::ShadowMap { cascade: 1 })
        .pass(PassKind::ShadowMap { cascade: 2 })
        .pass(PassKind::ZPrepass)
        .pass(PassKind::Forward { overdraw: 1.4 })
        .pass(PassKind::Present)
}

fn postfx() -> FrameGraph {
    FrameGraph::new("postfx", 1280, 720)
        .texture_mb(64)
        .triangles_k(400)
        .pass(PassKind::Forward { overdraw: 1.2 })
        .pass(PassKind::PostFx { passes: 6 })
        .pass(PassKind::Present)
}

fn indirect() -> FrameGraph {
    FrameGraph::new("indirect", 1280, 720)
        .texture_mb(96)
        .triangles_k(900)
        .pass(PassKind::IndirectDraws { bursts: 96 })
        .pass(PassKind::GBuffer { targets: 2 })
        .pass(PassKind::DeferredLighting)
        .pass(PassKind::Present)
}

fn cpu_like() -> FrameGraph {
    FrameGraph::new("cpu-like", 64, 64)
        .texture_mb(1)
        .triangles_k(1)
        .pass(PassKind::Compute { footprint_log2: 26, chase: 0.35 })
}

/// Every built-in profile, in presentation order.
pub const GRAPH_PROFILES: &[GraphProfile] = &[
    GraphProfile {
        name: "deferred",
        description:
            "Z-prepass, 3-target G-buffer fill, far-flung deferred resolve, short post chain",
        frames: 8,
        default_coherence: 0.85,
        build: deferred,
    },
    GraphProfile {
        name: "shadowed",
        description: "three shadow cascades (Z-produced, TEX-consumed) feeding a forward pass",
        frames: 8,
        default_coherence: 0.9,
        build: shadowed,
    },
    GraphProfile {
        name: "postfx",
        description: "forward shading into a 6-hop full-screen RT->TEX ping-pong chain",
        frames: 8,
        default_coherence: 0.8,
        build: postfx,
    },
    GraphProfile {
        name: "indirect",
        description: "GPU-driven indirect draw bursts feeding a deferred G-buffer",
        frames: 8,
        default_coherence: 0.75,
        build: indirect,
    },
    GraphProfile {
        name: "cpu-like",
        description: "stream-free compute trace: streaming scan plus zipf pointer chasing",
        frames: 8,
        default_coherence: 0.6,
        build: cpu_like,
    },
];

/// Resolves a profile name (case-insensitive), mirroring
/// `registry::resolve` for policies.
pub fn graph_profile(name: &str) -> Option<&'static GraphProfile> {
    GRAPH_PROFILES.iter().find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_validates_and_matches_its_name() {
        for p in GRAPH_PROFILES {
            let g = p.graph();
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(g.name(), p.name);
            assert_eq!(g.frame_coherence(), p.default_coherence);
            assert!(p.frames >= 1);
        }
    }

    #[test]
    fn names_are_unique_and_lookup_is_case_insensitive() {
        for (i, p) in GRAPH_PROFILES.iter().enumerate() {
            for q in &GRAPH_PROFILES[i + 1..] {
                assert_ne!(p.name, q.name);
            }
            assert_eq!(graph_profile(p.name).unwrap().name, p.name);
            assert_eq!(graph_profile(&p.name.to_uppercase()).unwrap().name, p.name);
        }
        assert!(graph_profile("not-a-profile").is_none());
    }

    #[test]
    fn coherence_override_changes_the_fingerprint() {
        let p = graph_profile("deferred").unwrap();
        assert_ne!(
            p.graph_with_coherence(0.2).fingerprint(),
            p.graph_with_coherence(0.9).fingerprint()
        );
    }
}
