//! `grart` — the one-command artifact pipeline.
//!
//! Reproducing a paper should be one command, not a folklore of
//! binaries and environment variables. `grart` packages the repo's
//! experiments into two tiers:
//!
//! * **`grart kick-tires`** — every table, figure and ablation at tiny
//!   scale, in seconds: Table 1, Figures 1, 4–9 and 11–15, Table 6,
//!   the Section 4 overhead report, the partitioning, inter-frame and
//!   sample-density ablations, and the conformance panel.
//! * **`grart full`** — the complete study: the same artifacts over
//!   every app's captured frames at half scale, plus the Figure 16/17
//!   machine panels and the frame-graph profiles.
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
//! The pipeline submits its replay work as `grserved` job specs. By
//! default they execute in-process through the same [`grserve::execute`]
//! path the daemon uses; `--serve spawn` boots a private daemon (drained
//! automatically, even if the pipeline dies) and `--serve HOST:PORT`
//! targets a running one. All three routes produce byte-identical
//! artifacts — that identity is itself a regression test of the serving
//! stack.

pub mod artifact;
pub mod daemon;
pub mod diff;
pub mod pipeline;
pub mod source;

pub use grbench::figures;
