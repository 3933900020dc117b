//! The performance-study specs behind Figures 15–17 and their FPS path.
//!
//! Each figure is one [`PerfConfig`] — a GPU machine, a DDR3 memory
//! system, and an LLC capacity — swept over the same +UCD policy panel
//! (Section 5.2 of the paper evaluates the performance studies with
//! uncached displayable color everywhere). The `grart` artifact pipeline
//! and the conformance figure-ordering check both consume these specs,
//! so the figure geometry is written down exactly once.
//!
//! FPS comes from the exact per-frame timing path, [`PerfConfig::run`]:
//! every frame's own LLC memory log goes through the DDR3 scheduler and
//! the GPU interval model ([`crate::RunOptions::timing`]), and [`fps`]
//! turns the summed frame times into frames per second. How much of a
//! miss saving reaches the frame rate then depends on the row locality
//! and read/write mix of the real miss stream, not on its count alone.

use grdram::TimingParams;
use grgpu::GpuConfig;

use crate::{run_workload, AppAgg, ExperimentConfig, RunOptions, WorkloadResults};

/// One performance-study panel: the machine, the memory system, and the
/// LLC capacity a figure sweeps the policy panel against.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Stable artifact key (`fig15`, `fig16`, `fig17-upper`, ...).
    pub key: &'static str,
    /// Human-readable title, as printed above the table.
    pub title: &'static str,
    /// The modeled GPU.
    pub gpu: GpuConfig,
    /// The DDR3 system.
    pub dram: TimingParams,
    /// LLC capacity in paper-equivalent megabytes.
    pub llc_mb: u64,
}

impl PerfConfig {
    /// Replays every app under [`PERF_POLICIES`] with this panel's LLC,
    /// timing each frame's memory log on this panel's machine and memory
    /// system. One `run_workload` call, deterministic at any thread count.
    pub fn run(&self, cfg: &ExperimentConfig) -> WorkloadResults {
        let opts = RunOptions {
            timing: Some((self.gpu, self.dram)),
            llc_paper_mb: self.llc_mb,
            ..RunOptions::from_env(&PERF_POLICIES)
        };
        run_workload(&opts, cfg)
    }
}

/// Figure 15: the baseline GPU on DDR3-1600 with the paper's 8 MB LLC.
pub fn fig15() -> PerfConfig {
    PerfConfig {
        key: "fig15",
        title: "Figure 15: performance (FPS) normalized to DRRIP, 8 MB LLC",
        gpu: GpuConfig::baseline(),
        dram: TimingParams::ddr3_1600(),
        llc_mb: 8,
    }
}

/// Figure 16: the same machine against a doubled, 16 MB LLC.
pub fn fig16() -> PerfConfig {
    PerfConfig {
        key: "fig16",
        title: "Figure 16: performance (FPS) normalized to DRRIP, 16 MB LLC",
        llc_mb: 16,
        ..fig15()
    }
}

/// Figure 17 (upper): the faster DDR3-1867 10-10-10 memory system.
pub fn fig17_upper() -> PerfConfig {
    PerfConfig {
        key: "fig17-upper",
        title: "Figure 17 (upper): DDR3-1867 10-10-10, 8 MB LLC",
        dram: TimingParams::ddr3_1867(),
        ..fig15()
    }
}

/// Figure 17 (lower): the 512-thread, eight-sampler GPU.
pub fn fig17_lower() -> PerfConfig {
    PerfConfig {
        key: "fig17-lower",
        title: "Figure 17 (lower): 512-thread GPU, eight samplers, 8 MB LLC",
        gpu: GpuConfig::less_aggressive(),
        ..fig15()
    }
}

/// Every performance-study panel, in paper order.
pub fn all_panels() -> [PerfConfig; 4] {
    [fig15(), fig16(), fig17_upper(), fig17_lower()]
}

/// The policy panel of the performance studies: the paper's Section 5.2
/// evaluates the +UCD variants throughout, normalized to DRRIP+UCD.
/// Order is presentation order (worst to best, baseline last).
pub const PERF_POLICIES: [&str; 4] = ["NRU+UCD", "GS-DRRIP+UCD", "GSPC+UCD", "DRRIP+UCD"];

/// The normalization baseline of every performance figure.
pub const PERF_BASELINE: &str = "DRRIP+UCD";

/// The paper's qualitative Figure 15 claim, worst to best:
/// GSPC ≥ GS-DRRIP ≥ DRRIP ≥ NRU. The conformance suite pins this
/// ordering (within tolerance) at the tiny kick-tires scale.
pub const PERF_FPS_ORDER: [&str; 4] = ["NRU+UCD", "DRRIP+UCD", "GS-DRRIP+UCD", "GSPC+UCD"];

/// The non-baseline panel members, in presentation order.
pub fn perf_contenders() -> impl Iterator<Item = &'static str> {
    PERF_POLICIES.iter().copied().filter(|p| *p != PERF_BASELINE)
}

/// Frames per second over `aggs`: their frames over their summed frame
/// times, so a workload-wide figure weights every frame equally.
pub fn fps<'a>(aggs: impl IntoIterator<Item = &'a AppAgg>) -> f64 {
    let (frames, ns) = aggs
        .into_iter()
        .fold((0u32, 0.0), |(frames, ns), agg| (frames + agg.frames, ns + agg.frame_ns_total));
    f64::from(frames) * 1e9 / ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_specs_match_the_paper() {
        assert_eq!(fig15().llc_mb, 8);
        assert_eq!(fig16().llc_mb, 16);
        assert_eq!(fig16().dram, fig15().dram);
        assert_eq!(fig17_upper().dram, TimingParams::ddr3_1867());
        assert_eq!(fig17_lower().gpu.thread_contexts(), 512);
        assert_eq!(fig17_lower().dram, TimingParams::ddr3_1600());
        let keys: Vec<&str> = all_panels().iter().map(|p| p.key).collect();
        assert_eq!(keys, ["fig15", "fig16", "fig17-upper", "fig17-lower"]);
    }

    #[test]
    fn fps_weights_every_frame_equally() {
        let agg = |frames, frame_ns_total| AppAgg { frames, frame_ns_total, ..AppAgg::default() };
        assert_eq!(fps([&agg(1, 1e6)]), 1000.0);
        // Three frames in 4 ms is 750 FPS, not the 833 mean of the two
        // per-app rates.
        assert_eq!(fps([&agg(1, 1e6), &agg(2, 3e6)]), 750.0);
    }

    #[test]
    fn baseline_is_in_the_panel() {
        assert!(PERF_POLICIES.contains(&PERF_BASELINE));
        assert_eq!(perf_contenders().count(), PERF_POLICIES.len() - 1);
        for p in PERF_POLICIES {
            assert!(gspc::registry::resolve(p).is_some(), "{p} not in registry");
        }
    }
}
