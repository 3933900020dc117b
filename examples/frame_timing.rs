//! End-to-end frame timing: from synthesized frame through the LLC and the
//! DDR3 model to frames per second, comparing two policies.
//!
//! ```text
//! cargo run --release --example frame_timing
//! ```

use gpu_llc_repro::cache::{Llc, LlcConfig};
use gpu_llc_repro::dram::TimingParams;
use gpu_llc_repro::gpu::{frame_timing, DramFeed, GpuConfig, Workload};
use gpu_llc_repro::policies::registry;
use gpu_llc_repro::synth::{AppProfile, Frames, Scale};

fn main() {
    let app = AppProfile::by_abbrev("LostPlanet").expect("known app");
    let scale = Scale::Quarter;
    let (trace, work) = Frames::from(&app).render(0, scale);
    let cfg = LlcConfig { size_bytes: 512 * 1024, ways: 16, banks: 4, sample_period: 64 };
    let gpu = GpuConfig::baseline();
    let dram = TimingParams::ddr3_1600();

    println!(
        "{} frame 0: {} LLC accesses, {} shaded pixels",
        app.name,
        trace.len(),
        work.shaded_pixels
    );
    println!();
    println!(
        "{:<12} {:>9} {:>10} {:>11} {:>9}",
        "policy", "misses", "DRAM ns", "exposure ns", "FPS"
    );
    for name in ["DRRIP+UCD", "GSPC+UCD"] {
        let policy = registry::create(name, &cfg).expect("known policy");
        // The feed schedules each DRAM transfer as the LLC emits it.
        let mut llc = Llc::with_observer(cfg, policy, DramFeed::new(dram));
        llc.run_trace(&trace, None);
        let workload = Workload {
            shaded_pixels: work.shaded_pixels,
            texel_samples: work.texel_samples,
            vertices: work.vertices,
            llc_accesses: trace.len() as u64,
        };
        let t = frame_timing(&gpu, dram, &workload, &llc.observer_mut().finish());
        println!(
            "{:<12} {:>9} {:>10.0} {:>11.0} {:>9.1}",
            name,
            llc.stats().total_misses(),
            t.t_dram_ns,
            t.exposure_ns,
            t.fps()
        );
    }
    println!();
    println!("Fewer LLC misses -> less DRAM traffic and exposure -> higher FPS.");
    println!("(Frame times are for the scaled-down frame; compare ratios.)");
}
