//! The performance-study specs behind Figures 15–17 and their FPS path.
//!
//! Each figure is one [`PerfConfig`] — a GPU machine, a DDR3 memory
//! system, and an LLC capacity — swept over the same +UCD policy panel
//! (Section 5.2 of the paper evaluates the performance studies with
//! uncached displayable color everywhere). The `grart` artifact pipeline
//! and the conformance figure-ordering check both consume these specs,
//! so the figure geometry is written down exactly once.
//!
//! FPS comes from [`fps_from_counts`], the count-driven path: per-frame
//! *average* miss/writeback/work counts (e.g. from a `grserved` payload,
//! which carries no memory log) are expanded into a deterministic
//! synthetic DRAM request stream and timed through the GPU interval
//! model — a pure function of the counts, so served and offline runs
//! agree byte for byte. The runner's exact timing replay
//! ([`crate::RunOptions::timing`]) remains for callers that time
//! per-frame memory logs.

use grdram::TimingParams;
use grgpu::{GpuConfig, Workload};

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

/// Aggregate replay counts for one (policy, workload) pair — the fields a
/// `grserved` result payload carries, summed over the frames it covers.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountedCell {
    /// Frames the counts were summed over.
    pub frames: u64,
    /// LLC accesses.
    pub accesses: u64,
    /// LLC misses (DRAM read requests).
    pub misses: u64,
    /// LLC writebacks (DRAM write requests).
    pub writebacks: u64,
    /// Pixels shaded.
    pub shaded_pixels: u64,
    /// Texels sampled.
    pub texel_samples: u64,
    /// Vertices transformed.
    pub vertices: u64,
}

impl CountedCell {
    /// Folds another cell's counts into this one.
    pub fn merge(&mut self, other: &CountedCell) {
        self.frames += other.frames;
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.shaded_pixels += other.shaded_pixels;
        self.texel_samples += other.texel_samples;
        self.vertices += other.vertices;
    }
}

/// Requests per synthetic run. Each run walks sequential blocks of one
/// channel's freshly-opened row — one row miss then three hits, a 75%
/// row-hit rate, in the range replayed GPU memory logs actually show.
const RUN_BLOCKS: u64 = 4;

/// Block stride between runs. `256 * odd` keeps the per-run bank index
/// walking through all 8 banks while every run opens a fresh row, so the
/// row-hit rate of the stream is a fixed property of [`RUN_BLOCKS`] — not
/// a number-theoretic accident of the total request count. That stability
/// is what makes [`fps_from_counts`] smooth (and effectively monotone) in
/// the miss and writeback counts.
const RUN_STRIDE: u64 = 256 * 9;

/// Expands per-frame average miss/writeback counts into a deterministic
/// synthetic DRAM request stream: short sequential runs with a row jump
/// between them (the mix of row hits and misses the replayed logs show),
/// with the writebacks spread evenly through the reads the way eviction
/// traffic interleaves with demand misses. Runs alternate DRAM channels
/// as whole units, so the write placement never aliases with the
/// channel-select bit (a periodic write pattern must land its writes on
/// both channels, not pile them onto one).
pub fn synthetic_requests(misses: u64, writebacks: u64) -> Vec<(u64, bool)> {
    let total = misses + writebacks;
    (0..total)
        .map(|i| {
            // Bresenham-style even interleave: request i is a write when
            // the running writeback quota crosses an integer at i.
            let write = total > 0 && (i + 1) * writebacks / total > i * writebacks / total;
            let run = i / RUN_BLOCKS;
            // `run % 2` is the channel bit; the `* 2` keeps the run's
            // blocks sequential within that channel's address view.
            (run * RUN_STRIDE + (i % RUN_BLOCKS) * 2 + run % 2, write)
        })
        .collect()
}

/// The count-driven FPS path: treats `cell` as `cell.frames` identical
/// average frames, synthesizes the DRAM request stream for one such frame,
/// and runs the interval timing model on it. A pure deterministic function
/// of the counts — no replay, no memory log — which is exactly what lets
/// the artifact pipeline translate `grserved` payloads into Figure 15–17
/// FPS points with served/offline byte identity.
pub fn fps_from_counts(panel: &PerfConfig, cell: &CountedCell) -> f64 {
    let frames = cell.frames.max(1);
    let work = Workload {
        shaded_pixels: cell.shaded_pixels / frames,
        texel_samples: cell.texel_samples / frames,
        vertices: cell.vertices / frames,
        llc_accesses: cell.accesses / frames,
    };
    let requests = synthetic_requests(cell.misses / frames, cell.writebacks / frames);
    grgpu::time_frame(&panel.gpu, panel.dram, &work, &requests).fps()
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
    fn baseline_is_in_the_panel() {
        assert!(PERF_POLICIES.contains(&PERF_BASELINE));
        assert_eq!(perf_contenders().count(), PERF_POLICIES.len() - 1);
        for p in PERF_POLICIES {
            assert!(gspc::registry::resolve(p).is_some(), "{p} not in registry");
        }
    }

    #[test]
    fn synthetic_stream_is_deterministic_and_balanced() {
        let a = synthetic_requests(1000, 250);
        let b = synthetic_requests(1000, 250);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1250);
        assert_eq!(a.iter().filter(|&&(_, w)| w).count(), 250);
        // Writes are spread, not clumped: every fifth of the stream
        // carries a fifth of the writebacks.
        for chunk in a.chunks_exact(250) {
            let writes = chunk.iter().filter(|&&(_, w)| w).count();
            assert!((45..=55).contains(&writes), "writes per chunk = {writes}");
        }
        // ...and across both DRAM channels, not piled onto one.
        let ch1_writes = a.iter().filter(|&&(b, w)| w && b & 1 == 1).count();
        assert!((100..=150).contains(&ch1_writes), "channel-1 writes = {ch1_writes}");
    }

    #[test]
    fn count_driven_fps_penalizes_misses() {
        let base = CountedCell {
            frames: 1,
            accesses: 2_000_000,
            misses: 400_000,
            writebacks: 100_000,
            shaded_pixels: 1_000_000,
            texel_samples: 8_000_000,
            vertices: 500_000,
        };
        let fewer = CountedCell { misses: 300_000, ..base };
        let panel = fig15();
        assert!(fps_from_counts(&panel, &fewer) > fps_from_counts(&panel, &base));
    }

    #[test]
    fn count_driven_fps_averages_over_frames() {
        let one = CountedCell {
            frames: 1,
            accesses: 1_000_000,
            misses: 200_000,
            writebacks: 50_000,
            shaded_pixels: 500_000,
            texel_samples: 4_000_000,
            vertices: 250_000,
        };
        let four = CountedCell {
            frames: 4,
            accesses: 4_000_000,
            misses: 800_000,
            writebacks: 200_000,
            shaded_pixels: 2_000_000,
            texel_samples: 16_000_000,
            vertices: 1_000_000,
        };
        let panel = fig15();
        let a = fps_from_counts(&panel, &one);
        let b = fps_from_counts(&panel, &four);
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }
}
