//! The interval frame-time model.

use grcache::{AccessInfo, LlcObserver};
use grdram::{DramSim, DramStats, Request, TimingParams};

use crate::GpuConfig;

/// The computational work of one rendered frame, as seen by the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Workload {
    /// Pixels shaded (including overdraw).
    pub shaded_pixels: u64,
    /// Texels filtered by the samplers.
    pub texel_samples: u64,
    /// Vertices transformed.
    pub vertices: u64,
    /// Accesses presented to the LLC.
    pub llc_accesses: u64,
}

/// The model's verdict for one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameTiming {
    /// Shader-throughput bound, in nanoseconds.
    pub t_shader_ns: f64,
    /// Sampler-throughput bound, in nanoseconds.
    pub t_sampler_ns: f64,
    /// LLC-bandwidth bound, in nanoseconds.
    pub t_llc_ns: f64,
    /// DRAM time (busiest channel busy time), in nanoseconds.
    pub t_dram_ns: f64,
    /// Exposed memory latency multithreading could not hide.
    pub exposure_ns: f64,
    /// Final frame time.
    pub frame_ns: f64,
    /// Average DRAM request latency observed.
    pub dram_latency_ns: f64,
}

impl FrameTiming {
    /// Frames per second this timing implies.
    pub fn fps(&self) -> f64 {
        if self.frame_ns == 0.0 {
            0.0
        } else {
            1e9 / self.frame_ns
        }
    }

    /// Which bound dominated (`"shader"`, `"sampler"`, `"llc"`, `"dram"`).
    pub fn bottleneck(&self) -> &'static str {
        let m = self.t_shader_ns.max(self.t_sampler_ns).max(self.t_llc_ns).max(self.t_dram_ns);
        if m == self.t_dram_ns {
            "dram"
        } else if m == self.t_shader_ns {
            "shader"
        } else if m == self.t_sampler_ns {
            "sampler"
        } else {
            "llc"
        }
    }
}

/// Streams an LLC's DRAM-bound transfers into the DDR3 model as the LLC
/// emits them: demand-miss fills and bypassed accesses (with the access's
/// write flag) and dirty-victim writebacks, in [`grcache::MemoryLog`]'s
/// order, every one arriving at 0 ns. Attach it to the
/// [`grcache::Llc`], replay the frame, then [`DramFeed::finish`] and
/// [`frame_timing`] give the frame time. It holds the scheduler's
/// per-channel windows, never the transfer log.
#[derive(Debug, Clone)]
pub struct DramFeed {
    sim: DramSim,
}

impl DramFeed {
    /// A feed into an empty DDR3 model with timing `dram`.
    pub fn new(dram: TimingParams) -> Self {
        DramFeed { sim: DramSim::new(dram) }
    }

    /// Services the transfers still pending and returns the statistics
    /// of everything fed so far; the feed is then empty.
    pub fn finish(&mut self) -> DramStats {
        self.sim.finish()
    }

    #[inline]
    fn push(&mut self, block: u64, write: bool) {
        self.sim.push(Request { block, write, arrival_ns: 0.0 });
    }
}

impl LlcObserver for DramFeed {
    /// Writebacks go to the *victim's* address, rebuilt from its tag.
    const NEEDS_VICTIM_ADDR: bool = true;

    #[inline]
    fn observe_bypass(&mut self, info: &AccessInfo) {
        self.push(info.block, info.write);
    }

    #[inline]
    fn observe_evict(&mut self, _info: &AccessInfo, _way: usize, victim_block: u64, dirty: bool) {
        if dirty {
            self.push(victim_block, true);
        }
    }

    #[inline]
    fn observe_fill(&mut self, info: &AccessInfo, _way: usize) {
        self.push(info.block, false);
    }
}

/// Computes the frame time for `work` from an already recorded transfer
/// log (`(block, is_write)` pairs from [`grcache::Llc::with_memory_log`]):
/// feeds the log through a [`DramFeed`] and hands the statistics to
/// [`frame_timing`]. A replay that times its frame attaches the
/// [`DramFeed`] instead, and never records the log.
pub fn time_frame(
    cfg: &GpuConfig,
    dram: TimingParams,
    work: &Workload,
    memory_requests: &[(u64, bool)],
) -> FrameTiming {
    let mut feed = DramFeed::new(dram);
    for &(block, write) in memory_requests {
        feed.push(block, write);
    }
    frame_timing(cfg, dram, work, &feed.finish())
}

/// Computes the frame time for `work` given `saturated`, the DDR3 model's
/// statistics for the frame's DRAM-bound transfers, all issued at 0 ns
/// (a [`DramFeed`]'s).
///
/// The transfers' makespan is the frame's total memory service time (the
/// bandwidth bound, including row conflicts, turnarounds, and refresh);
/// the exposure term then uses an analytic loaded-latency estimate built
/// from the measured row-hit rate, which stays numerically stable where a
/// critically-loaded queueing replay would not.
pub fn frame_timing(
    cfg: &GpuConfig,
    dram: TimingParams,
    work: &Workload,
    saturated: &DramStats,
) -> FrameTiming {
    let shader_ops =
        work.shaded_pixels as f64 * cfg.ops_per_pixel + work.vertices as f64 * cfg.ops_per_vertex;
    let t_shader_ns = shader_ops
        / (f64::from(cfg.shader_cores) * f64::from(cfg.ops_per_core_cycle) * cfg.core_clock_ghz);
    let t_sampler_ns = work.texel_samples as f64
        / (f64::from(cfg.samplers) * f64::from(cfg.texels_per_sampler_cycle) * cfg.core_clock_ghz);
    let t_llc_ns = work.llc_accesses as f64 / (f64::from(cfg.llc_banks) * cfg.llc_clock_ghz);

    let compute_bound = t_shader_ns.max(t_sampler_ns).max(t_llc_ns);

    // Bandwidth bound: the back-to-back service time of every transfer,
    // including row conflicts, bus turnarounds, and refresh (costs that
    // the data-bus busy time alone would miss).
    let t_mem = saturated.makespan_ns;
    let frame_base = compute_bound.max(t_mem);

    // Loaded request latency, modeled analytically so it stays stable
    // rather than inheriting the critically-loaded queueing noise of a
    // replay: the service mix from the measured row-hit rate plus an
    // M/D/1-style wait that grows with memory-system load.
    let rhr = saturated.row_hit_rate();
    let burst_ns = f64::from(dram.burst_clocks()) * dram.tck_ns;
    let service_ns = rhr * dram.row_hit_ns() + (1.0 - rhr) * dram.row_miss_ns() + burst_ns;
    let load = (t_mem / frame_base.max(1.0)).min(0.95);
    let latency_ns = service_ns * (1.0 + load / (2.0 * (1.0 - load)));

    let misses = saturated.reads as f64;
    // Raw exposed latency if every thread simply waited...
    let hiding = f64::from(cfg.thread_contexts()) * cfg.mlp * cfg.hiding_efficiency;
    let raw_exposure = misses * latency_ns / hiding.max(1.0);
    // ...scaled by how little independent compute there is to overlap with:
    // a machine with relatively more shader work per memory access hides
    // more of its latency (this is what makes the less aggressive GPU of
    // Figure 17 *less* sensitive to memory-system improvements).
    let overlap = t_mem / (t_mem + compute_bound).max(1.0);
    let exposure_ns = raw_exposure * overlap;

    let frame_ns = frame_base + exposure_ns;
    FrameTiming {
        t_shader_ns,
        t_sampler_ns,
        t_llc_ns,
        t_dram_ns: t_mem,
        exposure_ns,
        frame_ns,
        dram_latency_ns: latency_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work() -> Workload {
        Workload {
            shaded_pixels: 1_000_000,
            texel_samples: 8_000_000,
            vertices: 500_000,
            llc_accesses: 2_000_000,
        }
    }

    fn requests(n: u64) -> Vec<(u64, bool)> {
        (0..n).map(|i| (i.wrapping_mul(97), i % 5 == 0)).collect()
    }

    #[test]
    fn fewer_misses_means_faster_frames() {
        let cfg = GpuConfig::baseline();
        let many = time_frame(&cfg, TimingParams::ddr3_1600(), &work(), &requests(400_000));
        let few = time_frame(&cfg, TimingParams::ddr3_1600(), &work(), &requests(300_000));
        assert!(few.frame_ns < many.frame_ns);
        assert!(few.fps() > many.fps());
    }

    #[test]
    fn faster_dram_shrinks_the_gain() {
        // The speedup from saving misses is smaller on DDR3-1867 than on
        // DDR3-1600 (Figure 17, upper panel).
        let cfg = GpuConfig::baseline();
        // Enough shading work that the compute bound sits between the fast
        // and slow DRAM's bandwidth bounds, as on a real frame.
        let w = Workload { shaded_pixels: 14_000_000, ..work() };
        let speedup = |dram: TimingParams| {
            let base = time_frame(&cfg, dram, &w, &requests(400_000));
            let improved = time_frame(&cfg, dram, &w, &requests(300_000));
            base.frame_ns / improved.frame_ns
        };
        let slow_gain = speedup(TimingParams::ddr3_1600());
        let fast_gain = speedup(TimingParams::ddr3_1867());
        assert!(slow_gain > 1.0);
        assert!(fast_gain > 1.0);
        assert!(fast_gain < slow_gain, "{fast_gain} !< {slow_gain}");
    }

    #[test]
    fn narrower_gpu_shrinks_the_gain() {
        // A less aggressive GPU is more compute-bound, so memory savings
        // matter less (Figure 17, lower panel). Request volumes are kept
        // below DRAM saturation so queueing stays in the stable regime.
        let speedup = |cfg: GpuConfig| {
            let base = time_frame(&cfg, TimingParams::ddr3_1600(), &work(), &requests(150_000));
            let improved = time_frame(&cfg, TimingParams::ddr3_1600(), &work(), &requests(100_000));
            base.frame_ns / improved.frame_ns
        };
        let wide = speedup(GpuConfig::baseline());
        let narrow = speedup(GpuConfig::less_aggressive());
        assert!(narrow <= wide * 1.001, "{narrow} !<= {wide}");
    }

    #[test]
    fn compute_bound_frames_ignore_memory() {
        let cfg = GpuConfig::baseline();
        let heavy_compute = Workload { shaded_pixels: 500_000_000, ..work() };
        let t = time_frame(&cfg, TimingParams::ddr3_1600(), &heavy_compute, &requests(1000));
        assert_eq!(t.bottleneck(), "shader");
    }

    #[test]
    fn empty_memory_log_is_fine() {
        let cfg = GpuConfig::baseline();
        let t = time_frame(&cfg, TimingParams::ddr3_1600(), &work(), &[]);
        assert!(t.frame_ns > 0.0);
        assert_eq!(t.t_dram_ns, 0.0);
    }

    #[test]
    fn exposure_stays_bounded_under_heavy_load() {
        // Regression test: a saturating memory stream must not blow the
        // exposure term up by orders of magnitude (the failure mode of a
        // critically-loaded queueing replay).
        let cfg = GpuConfig::baseline();
        let t = time_frame(&cfg, TimingParams::ddr3_1600(), &work(), &requests(500_000));
        assert!(
            t.exposure_ns < t.t_dram_ns,
            "exposure {} should stay below the bandwidth bound {}",
            t.exposure_ns,
            t.t_dram_ns
        );
        // The modeled request latency stays within a realistic DDR3 range.
        assert!(t.dram_latency_ns < 2_000.0, "latency {}", t.dram_latency_ns);
    }

    #[test]
    fn fps_is_inverse_of_frame_time() {
        let cfg = GpuConfig::baseline();
        let t = time_frame(&cfg, TimingParams::ddr3_1600(), &work(), &requests(10_000));
        assert!((t.fps() * t.frame_ns - 1e9).abs() < 1.0);
    }
}
