//! Cross-crate integration tests: the full pipeline from synthesized
//! frames through the render caches, LLC policies, and timing model.

use gpu_llc_repro::cache::{annotate_next_use, Llc, LlcConfig};
use gpu_llc_repro::dram::TimingParams;
use gpu_llc_repro::gpu::{GpuConfig, Workload};
use gpu_llc_repro::policies::registry;
use gpu_llc_repro::synth::{AppProfile, Frames, Scale};
use gpu_llc_repro::trace::StreamId;

fn tiny_llc() -> LlcConfig {
    // Tiny scale (divisor 8) pairs with 8 MB / 64 = 128 KB.
    LlcConfig { size_bytes: 128 * 1024, ways: 16, banks: 4, sample_period: 64 }
}

fn run(policy: &str, app: &str, cfg: LlcConfig) -> u64 {
    let app = AppProfile::by_abbrev(app).unwrap();
    let trace = gpu_llc_repro::synth::generate_frame(&app, 0, Scale::Tiny);
    let annotations = registry::needs_next_use(policy).then(|| annotate_next_use(trace.accesses()));
    let mut llc = Llc::new(cfg, registry::create(policy, &cfg).unwrap());
    llc.run_trace(&trace, annotations.as_deref());
    llc.stats().total_misses()
}

#[test]
fn opt_is_a_lower_bound_for_every_policy() {
    let cfg = tiny_llc();
    for app in ["AssnCreed", "Heaven"] {
        let opt = run("OPT", app, cfg);
        for policy in ["DRRIP", "NRU", "LRU", "SRRIP", "GSPZTC", "GSPZTC+TSE", "GSPC"] {
            let m = run(policy, app, cfg);
            assert!(opt <= m, "{policy} beat OPT on {app}: {m} < {opt}");
        }
    }
}

#[test]
fn opt_saves_substantially_over_drrip() {
    let cfg = tiny_llc();
    let mut opt_total = 0u64;
    let mut drrip_total = 0u64;
    for app in AppProfile::all().iter().take(4) {
        opt_total += run("OPT", app.abbrev, cfg);
        drrip_total += run("DRRIP", app.abbrev, cfg);
    }
    let ratio = opt_total as f64 / drrip_total as f64;
    assert!(ratio < 0.9, "OPT should save well over 10% of misses vs DRRIP, got ratio {ratio:.3}");
}

#[test]
fn every_registered_policy_completes_a_frame() {
    let cfg = tiny_llc();
    for entry in registry::ALL_POLICIES {
        let m = run(entry.name, "BioShock", cfg);
        assert!(m > 0, "{} produced zero misses", entry.name);
    }
}

#[test]
fn ucd_bypasses_display_traffic() {
    let cfg = tiny_llc();
    let app = AppProfile::by_abbrev("HAWX").unwrap();
    let trace = gpu_llc_repro::synth::generate_frame(&app, 0, Scale::Tiny);
    let mut llc = Llc::new(cfg, registry::create("GSPC+UCD", &cfg).unwrap());
    llc.run_trace(&trace, None);
    let display = trace.stats().accesses(StreamId::Display);
    assert!(display > 0);
    assert_eq!(
        llc.stats().bypassed_reads + llc.stats().bypassed_writes,
        display,
        "every display access should bypass under UCD"
    );
}

#[test]
fn memory_log_matches_miss_and_writeback_counts() {
    let cfg = tiny_llc();
    let app = AppProfile::by_abbrev("Dirt").unwrap();
    let trace = gpu_llc_repro::synth::generate_frame(&app, 0, Scale::Tiny);
    let mut llc = Llc::new(cfg, registry::create("DRRIP", &cfg).unwrap()).with_memory_log();
    llc.run_trace(&trace, None);
    let log = llc.memory_log().unwrap();
    let reads = log.iter().filter(|&&(_, w)| !w).count() as u64;
    let writes = log.iter().filter(|&&(_, w)| w).count() as u64;
    assert_eq!(reads, llc.stats().total_misses());
    assert_eq!(writes, llc.stats().writebacks);
}

#[test]
fn end_to_end_timing_rewards_fewer_misses() {
    let cfg = tiny_llc();
    let app = AppProfile::by_abbrev("AssnCreed").unwrap();
    let (trace, work) = Frames::from(&app).render(0, Scale::Tiny);
    let gpu = GpuConfig::baseline();
    let dram = TimingParams::ddr3_1600();
    let workload = Workload {
        shaded_pixels: work.shaded_pixels,
        texel_samples: work.texel_samples,
        vertices: work.vertices,
        llc_accesses: trace.len() as u64,
    };
    let mut times = Vec::new();
    for policy in ["OPT", "DRRIP"] {
        let annotations =
            registry::needs_next_use(policy).then(|| annotate_next_use(trace.accesses()));
        let mut llc = Llc::new(cfg, registry::create(policy, &cfg).unwrap()).with_memory_log();
        llc.run_trace(&trace, annotations.as_deref());
        let log = llc.memory_log().unwrap().to_vec();
        let t = gpu_llc_repro::gpu::time_frame(&gpu, dram, &workload, &log);
        times.push((llc.stats().total_misses(), t.frame_ns));
    }
    let (opt_miss, opt_ns) = times[0];
    let (drrip_miss, drrip_ns) = times[1];
    assert!(opt_miss < drrip_miss);
    assert!(opt_ns <= drrip_ns, "fewer misses must not slow the frame");
}

#[test]
fn stream_mix_matches_figure_4_shape() {
    // RT and TEX must dominate; Z around 10%; vertex and HiZ small.
    let mut agg = gpu_llc_repro::trace::StreamStats::new();
    for app in AppProfile::all() {
        let t = gpu_llc_repro::synth::generate_frame(&app, 0, Scale::Tiny);
        agg.merge(t.stats());
    }
    let rt = agg.fraction(StreamId::RenderTarget);
    let tex = agg.fraction(StreamId::Texture);
    let z = agg.fraction(StreamId::Z);
    assert!(rt > 0.25 && rt < 0.55, "RT fraction {rt:.2}");
    assert!(tex > 0.2 && tex < 0.5, "TEX fraction {tex:.2}");
    assert!(z > 0.04 && z < 0.2, "Z fraction {z:.2}");
    assert!(rt + tex > 0.55, "RT+TEX must dominate");
}

#[test]
fn sixteen_mb_has_fewer_misses_than_eight() {
    let small = tiny_llc();
    let big = LlcConfig { size_bytes: 256 * 1024, ..small };
    {
        let app = "Unigine";
        assert!(run("GSPC", app, big) < run("GSPC", app, small));
    }
}
