//! The experiment runner behind the paper's tables and figures.
//!
//! This crate replays synthesized frames through the LLC, DRAM and GPU
//! models: [`run_workload`] sweeps the (app, frame, policy) grid,
//! [`simulate_cell`] replays one cell for the `grserve` daemon, the
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
//! The `grsim` and `tracegen` binaries are interactive tools for
//! exploring single apps, policies and traces.
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
//! [`run_workload`] fans the (app, frame, policy) grid across `GR_THREADS`
//! workers (default: all cores) and merges results in a canonical order,
//! so results are byte-identical for any thread count. Frames are
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
    run_frame_sequence, run_workload, simulate_cell, simulate_graph_cell, simulate_trace_cell,
    AppAgg, CellResult, RunOptions, RunPerf, WorkloadResults,
};
