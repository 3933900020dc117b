//! `grart` — the one-command artifact pipeline.
//!
//! Reproducing a paper should be one command, not a folklore of
//! binaries and environment variables. `grart` packages the repo's
//! experiments into two tiers:
//!
//! * **`grart kick-tires`** — every table, figure and ablation at tiny
//!   scale, in seconds: Table 1, Figures 1, 4–9 and 11–15, Table 6,
//!   the Section 4 overhead report, the partitioning, inter-frame and
//!   sample-density ablations, the frame-graph profiles, and the
//!   conformance panel.
//! * **`grart full`** — the complete study: the same artifacts over
//!   every app's captured frames at half scale, plus the Figure 16/17
//!   machine panels.
//!
//! Every table and figure is emitted twice under the output directory:
//! a deterministic JSON document (numbers carried as fixed-precision
//! strings, so the bytes are stable across platforms and runs) and a
//! rendered markdown table. A `manifest.json` records the SHA-256 of
//! each JSON artifact. `grart diff` compares two artifact trees
//! structurally — counts exactly, rates and FPS within tolerance — and
//! exits nonzero on drift, which is what pins the committed goldens in
//! CI.
//!
//! Every artifact is computed in-process from `grbench`, through the
//! same `run_grid` sweeps the harness's own tests pin.

pub mod artifact;
pub mod diff;
pub mod pipeline;

pub use grbench::figures;
