//! A DDR3 memory-system timing model.
//!
//! Models the paper's memory subsystem: a dual-channel DDR3 system, each
//! channel eight-way banked with open-row policy, burst length eight, and
//! configurable tCAS–tRCD–tRP timing (DDR3-1600 15-15-15 baseline;
//! DDR3-1867 10-10-10 for the Figure 17 sensitivity study). Requests are
//! scheduled FR-FCFS (row hits first, then oldest) within a small
//! reordering window, as GPU memory controllers do.
//!
//! The model is deliberately at the fidelity the reproduction needs: it
//! produces per-request latencies and channel-busy time so the GPU interval
//! model ([`grgpu`](../grgpu/index.html)) can translate LLC miss savings
//! into frame-rate gains, including the dampening a faster DRAM causes.
//!
//! The scheduler is incremental: [`DramSim::push`] takes requests one at a
//! time, in arrival order, and [`DramSim::finish`] drains them, so a
//! caller can feed it while it produces the requests and never hold the
//! stream (the GPU model feeds it from the LLC replay). It keeps only each
//! channel's 16-request window and bank state. [`DramSim::run`] schedules
//! a whole slice through the same loop.
//!
//! # Example
//!
//! ```
//! use grdram::{DramSim, Request, TimingParams};
//!
//! let mut sim = DramSim::new(TimingParams::ddr3_1600());
//! for i in 0..64 {
//!     sim.push(Request { block: i * 7, write: false, arrival_ns: i as f64 * 4.0 });
//! }
//! let stats = sim.finish();
//! assert_eq!(stats.reads, 64);
//! assert!(stats.avg_latency_ns > 0.0);
//! ```

mod params;
mod sim;

pub use params::TimingParams;
pub use sim::{DramSim, DramStats, Request};
