//! A timed cell schedules its DRAM transfers as the LLC emits them (a
//! `grgpu::DramFeed` inside the replay). Timing the same replay's
//! recorded `MemoryLog` afterwards with `grgpu::time_frame` must give the
//! same frame time, bit for bit, for every registry policy, at two LLC
//! sizes, with and without characterization and the invariant checker.

use grbench::{framecache, simulate_cell, ExperimentConfig, RunOptions};
use grcache::{Llc, MemoryLog};
use grdram::TimingParams;
use grgpu::{GpuConfig, Workload};
use grsynth::{AppProfile, Scale};
use gspc::registry;

#[test]
fn streamed_timing_matches_the_recorded_log() {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let (gpu, dram) = (GpuConfig::baseline(), TimingParams::ddr3_1600());
    let app = AppProfile::by_abbrev("HAWX").expect("known app");
    // Every cell below replays this frame; holding it renders it once.
    let data = framecache::frame_data(&app, 0, cfg.scale);
    let work = Workload {
        shaded_pixels: data.work.shaded_pixels,
        texel_samples: data.work.texel_samples,
        vertices: data.work.vertices,
        llc_accesses: data.trace.len() as u64,
    };
    for llc_mb in [8, 16] {
        let llc_cfg = cfg.llc(llc_mb);
        for entry in registry::ALL_POLICIES {
            let policy = registry::create(entry.name, &llc_cfg).expect("registered policy");
            let mut llc = Llc::with_observer(llc_cfg, policy, MemoryLog::new());
            let next_use = entry.needs_next_use().then(|| data.next_use().as_slice());
            llc.run_trace(&data.trace, next_use);
            let log = llc.memory_log().expect("memory log attached");
            let logged = grgpu::time_frame(&gpu, dram, &work, log).frame_ns;
            assert!(logged > 0.0, "{} timed no frame", entry.name);
            for bits in 0..4u8 {
                let (characterize, check) = (bits & 1 != 0, bits & 2 != 0);
                let opts = RunOptions {
                    characterize,
                    check,
                    streamed: false,
                    timing: Some((gpu, dram)),
                    llc_paper_mb: llc_mb,
                    ..RunOptions::misses(&[])
                };
                let cell = simulate_cell(entry.name, &app, 0, &opts, &cfg);
                assert_eq!(
                    cell.frame_ns.to_bits(),
                    logged.to_bits(),
                    "{} at {llc_mb} MB with characterize={characterize} check={check}",
                    entry.name
                );
            }
        }
    }
}
