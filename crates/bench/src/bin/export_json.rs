//! Exports the Figure 12 policy sweep as JSON for external plotting.
//!
//! ```text
//! cargo run -p grbench --release --bin export_json > results.json
//! ```
//!
//! The `perf` object records the runner's throughput (simulated LLC
//! accesses per wall-clock second) so successive PRs can track the
//! performance trajectory in the exported `BENCH_*.json` files. Wall-clock
//! numbers vary run to run; everything else in the document is
//! deterministic for a given `GR_SCALE`/`GR_FRAMES`, regardless of
//! `GR_THREADS`.

use grbench::{
    experiments::fig12_policies, run_frame_sequence, run_workload, ExperimentConfig, RunOptions,
};
use grjson::Json;
use grsynth::AppProfile;
use grtrace::{PolicyClass, StreamId};

fn main() {
    let cfg = ExperimentConfig::from_env();
    let mut policies: Vec<String> = fig12_policies().iter().map(|s| s.to_string()).collect();
    policies.push("DRRIP".into());
    policies.push("OPT".into());
    let opts = RunOptions { policies, characterize: true, ..RunOptions::misses(&[]) };
    let r = run_workload(&opts, &cfg);

    let mut out = Json::obj();
    out.set("scale", format!("{:?}", cfg.scale));
    out.set("llc_bytes", cfg.llc(8).size_bytes);
    let mut per_policy = Json::obj();
    for policy in &r.policies {
        let mut apps = Json::obj();
        for app in &r.apps {
            let agg = r.get(policy, app);
            let mut entry = Json::obj();
            entry.set("misses", agg.stats.total_misses());
            entry.set("hits", agg.stats.total_hits());
            entry.set("normalized_misses", r.normalized_misses(policy, app, "DRRIP"));
            entry.set("tex_hit_rate", agg.stats.class_hit_rate(PolicyClass::Tex));
            entry.set("rt_hit_rate", agg.stats.hit_rate(StreamId::RenderTarget));
            entry.set("z_hit_rate", agg.stats.hit_rate(StreamId::Z));
            entry.set("rt_consumption", agg.chars.rt_consumption_rate());
            entry.set("writebacks", agg.stats.writebacks);
            apps.set(app.clone(), entry);
        }
        per_policy.set(policy.clone(), apps);
    }
    out.set("policies", per_policy);

    // The persistent-LLC inter-frame mode: warm (one LLC, no inter-frame
    // flush) vs cold (fresh LLC per frame) misses over a short sequence.
    let mut interframe = Json::obj();
    for policy in ["DRRIP", "GSPC+UCD"] {
        let mut apps = Json::obj();
        for app in AppProfile::all().iter().take(2) {
            let nframes = cfg.frames_for(app.frames).min(3);
            let warm = run_frame_sequence(policy, app, 0..nframes, 8, &cfg)
                .last()
                .map_or(0, |s| s.total_misses());
            let cold: u64 = (0..nframes)
                .map(|f| {
                    run_frame_sequence(policy, app, f..f + 1, 8, &cfg)
                        .last()
                        .map_or(0, |s| s.total_misses())
                })
                .sum();
            let mut entry = Json::obj();
            entry.set("frames", nframes);
            entry.set("cold_misses", cold);
            entry.set("warm_misses", warm);
            apps.set(app.abbrev.to_string(), entry);
        }
        interframe.set(policy.to_string(), apps);
    }
    out.set("interframe", interframe);

    let mut perf = Json::obj();
    perf.set("threads", r.perf.threads);
    perf.set("llc_accesses_simulated", r.perf.llc_accesses);
    perf.set("wall_seconds", r.perf.wall_seconds);
    perf.set("replay_seconds", r.perf.replay_seconds);
    perf.set("merge_seconds", r.perf.merge_seconds);
    perf.set("accesses_per_sec", r.perf.accesses_per_sec());
    perf.set("replay_accesses_per_sec", r.perf.replay_accesses_per_sec());
    out.set("perf", perf);
    println!("{}", out.to_string_pretty());
}
