//! The parallel runner's headline guarantee: results are identical for any
//! worker count.

use grbench::{framecache, run_workload, simulate_cell, ExperimentConfig, RunOptions};
use grsynth::{Scale, GRAPH_PROFILES};

#[test]
fn thread_count_does_not_change_results() {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(2) };
    let policies = ["OPT", "GSPC", "DRRIP"];
    // Both runs replay the same frames.
    let _hold = framecache::hold();
    let run = |threads: usize| {
        let opts = RunOptions { threads: Some(threads), ..RunOptions::misses(&policies) };
        run_workload(&opts, &cfg)
    };
    let serial = run(1);
    let parallel = run(4);

    assert_eq!(serial.perf.threads, 1);
    assert_eq!(serial.apps, parallel.apps);
    assert_eq!(serial.policies, parallel.policies);
    for policy in &policies {
        for app in &serial.apps {
            let a = &serial.get(policy, app).stats;
            let b = &parallel.get(policy, app).stats;
            assert_eq!(
                a.total_misses(),
                b.total_misses(),
                "miss count diverged for ({policy}, {app})"
            );
            assert_eq!(a.total_hits(), b.total_hits(), "hit count diverged for ({policy}, {app})");
            assert_eq!(a.writebacks, b.writebacks, "writebacks diverged for ({policy}, {app})");
        }
    }
    // The aggregate figures the tables print must match exactly too.
    for policy in &policies {
        assert_eq!(
            serial.overall_normalized_misses(policy, "DRRIP").to_bits(),
            parallel.overall_normalized_misses(policy, "DRRIP").to_bits(),
            "normalized ratio diverged for {policy}"
        );
    }
}

/// The streaming pipeline's guarantee: a `streamed: true` run (replay
/// through the `GR_TRACE_CACHE` disk tier) is bit-identical to the
/// materialized in-memory run. Without `GR_TRACE_CACHE` the streamed run
/// falls back to the in-memory path, so the assertion holds everywhere; CI
/// exports the cache directory to exercise the disk tier for real. Frame
/// graphs ride the same tier, OPT through its `.nu` sidecar.
#[test]
fn streamed_run_is_bit_identical() {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(2) };
    let policies = ["OPT", "GSPC", "DRRIP"];
    // The in-memory fallback of the streamed run, and both cells of every
    // profile below, replay the same frames.
    let _hold = framecache::hold();
    let base = run_workload(&RunOptions { streamed: false, ..RunOptions::misses(&policies) }, &cfg);
    let streamed =
        run_workload(&RunOptions { streamed: true, ..RunOptions::misses(&policies) }, &cfg);
    for policy in &policies {
        for app in &base.apps {
            assert_eq!(
                base.get(policy, app).stats,
                streamed.get(policy, app).stats,
                "streamed stats diverged for ({policy}, {app})"
            );
        }
    }
    for profile in GRAPH_PROFILES {
        let graph = profile.graph();
        for policy in policies {
            let cell = |streamed| {
                let opts = RunOptions { streamed, ..RunOptions::misses(&[policy]) };
                simulate_cell(policy, &graph, 0, &opts, &cfg).stats
            };
            assert_eq!(
                cell(false),
                cell(true),
                "streamed stats diverged for ({policy}, profile {})",
                profile.name
            );
        }
    }
}
