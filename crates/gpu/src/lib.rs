//! GPU interval timing model: translating LLC behaviour into frame rate.
//!
//! The paper's performance numbers (Figures 15–17) come from a detailed
//! in-house GPU simulator. This crate implements an *interval model* of the
//! same machine — the 96-core × 8-thread, 1.6 GHz shader array with twelve
//! fixed-function samplers, a banked 4 GHz LLC, and the DDR3 memory system
//! of [`grdram`] — that computes frame time as the maximum of the
//! machine's throughput bounds plus the exposed memory latency that
//! multithreading fails to hide:
//!
//! ```text
//! t_frame = max(t_shader, t_sampler, t_llc, t_dram_bandwidth) + exposure
//! exposure = misses x avg_dram_latency / (thread_contexts x MLP)
//! ```
//!
//! This captures exactly the effects the paper's sensitivity studies probe:
//! LLC miss savings shorten both the DRAM-bandwidth bound and the exposure
//! term; a faster DRAM (Figure 17, upper) shrinks what there is to save; a
//! narrower GPU (Figure 17, lower) grows the compute bound and hides the
//! memory term behind it.
//!
//! # Example
//!
//! A replay times its frame by attaching a [`DramFeed`] to the LLC, which
//! streams every DRAM-bound transfer into the DDR3 model as the LLC emits
//! it; [`time_frame`] does the same for a transfer log already recorded.
//!
//! ```
//! use grcache::{Llc, LlcConfig};
//! use grdram::TimingParams;
//! use grgpu::{DramFeed, GpuConfig, Workload};
//! use grtrace::{Access, StreamId, Trace};
//! use gspc::registry;
//!
//! let cfg = LlcConfig { size_bytes: 64 * 1024, ways: 16, banks: 4, sample_period: 64 };
//! let dram = TimingParams::ddr3_1600();
//! let mut trace = Trace::new("example", 0);
//! for i in 0..20_000u64 {
//!     trace.push(Access::new(i * 7 % 5_000 * 64, StreamId::Texture, i % 4 == 0));
//! }
//! let policy = registry::create("DRRIP", &cfg).expect("registered policy");
//! let mut llc = Llc::with_observer(cfg, policy, DramFeed::new(dram));
//! llc.run_trace(&trace, None);
//! let llc_misses = llc.stats().total_misses();
//! let work = Workload {
//!     shaded_pixels: 2_000_000,
//!     texel_samples: 16_000_000,
//!     vertices: 800_000,
//!     llc_accesses: trace.len() as u64,
//! };
//! let stats = llc.into_observer().finish();
//! assert_eq!(stats.reads, llc_misses);
//! let t = grgpu::frame_timing(&GpuConfig::baseline(), dram, &work, &stats);
//! assert!(t.fps() > 0.0);
//! ```

mod config;
mod timing;

pub use config::GpuConfig;
pub use timing::{frame_timing, time_frame, DramFeed, FrameTiming, Workload};
