//! The experiment runner behind the paper's tables and figures.
//!
//! This crate replays synthesized frames through the LLC, DRAM and GPU
//! models: [`run_grid`] sweeps any (policy, workload, frame) grid and
//! [`run_workload`] is that sweep over the paper's twelve applications,
//! [`simulate_cell`] replays one cell, the
//! [`framecache`] synthesizes each frame once, and [`figures`] holds the
//! Figure 15–17 machine specs. Frames come from a [`grsynth::Frames`]
//! source — an application profile or a frame graph — and every entry
//! point takes either kind through the same code. The `grart` pipeline turns its results
//! into the paper's artifacts:
//!
//! ```text
//! cargo run -p grart --release -- kick-tires   # every figure, tiny scale
//! cargo run -p grart --release -- full         # the complete study
//! ```
//!
//! The `grsim` binary is the interactive tool for exploring single apps,
//! policies and traces, and for dumping, inspecting and replaying
//! `.gtrace` files; everything it replays goes through the runner.
//!
//! # Scaling
//!
//! The paper renders frames at native resolutions (up to 2560×1600) against
//! an 8 MB LLC. To keep experiment turnaround practical, the harness
//! renders at a configurable [`grsynth::Scale`] and shrinks the LLC by the
//! *square* of the scale divisor, preserving the working-set-to-capacity
//! ratio that all the replacement behaviour depends on (at `half` scale the
//! 8 MB LLC becomes 2 MB, at `full` scale it is the paper's native 8 MB).
//! Set `GR_SCALE=full|half|quarter|tiny` to override the default (`half`).
//! `GR_FRAMES=n` limits the frames per application for quick runs.
//!
//! # Parallelism & caching
//!
//! [`run_grid`] fans its cells across `GR_THREADS` workers (default: all
//! cores) and folds them in one canonical order, so results are
//! byte-identical for any thread count. Frames are
//! synthesized once per process in the shared [`framecache`];
//! `GR_TRACE_CACHE=<dir>` adds an on-disk tier that survives across
//! processes and regenerates any file it finds damaged.

pub mod cli;
pub mod config;
pub mod figures;
pub mod framecache;
pub mod runner;
pub mod table;

pub use config::ExperimentConfig;
pub use runner::{
    run_frame_sequence, run_grid, run_workload, simulate_cell, simulate_cells, simulate_graph_cell,
    simulate_trace_cell, AppAgg, CellResult, GridSource, RunOptions, RunPerf, WorkloadResults,
};
