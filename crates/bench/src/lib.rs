//! Experiment harness regenerating every figure and table of the paper.
//!
//! Each binary in `src/bin/` reproduces one figure or table; run e.g.
//!
//! ```text
//! cargo run -p grbench --release --bin fig12
//! ```
//!
//! or `--bin all_experiments` to regenerate everything (this is what
//! `EXPERIMENTS.md` records).
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
//! so figure output is byte-identical for any thread count. Frames are
//! synthesized once per process in the shared [`framecache`];
//! `GR_TRACE_CACHE=<dir>` adds an on-disk tier that survives across
//! processes.

pub mod cli;
pub mod config;
pub mod experiments;
pub mod figures;
pub mod framecache;
pub mod runner;
pub mod table;

pub use config::ExperimentConfig;
pub use runner::{
    run_frame_sequence, run_graph_sequence, run_workload, simulate_cell, simulate_graph_cell,
    simulate_trace_cell, AppAgg, CellResult, RunOptions, RunPerf, WorkloadResults,
};
