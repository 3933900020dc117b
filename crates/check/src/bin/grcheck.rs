//! `grcheck` — the verification front end.
//!
//! ```text
//! grcheck fuzz [--seed N] [--cases K] [--accesses M] [--policies A,B] [--out DIR]
//! grcheck conformance [--apps N] [--mb MB]
//! grcheck invariants
//! ```
//!
//! * `fuzz` runs a deterministic differential campaign: synthesized traces
//!   replayed through the fast path, a reference-model clone, and (where
//!   one exists) an independent oracle. Divergences are shrunk and dumped
//!   as `.gtrace` reproducers; the process exits 1 if any are found.
//! * `conformance` replays cached frames and asserts paper-level numbers
//!   (OPT agreement, Belady lower bound, pinned hit-rate goldens,
//!   GSPC-vs-baseline miss ratios).
//! * `invariants` replays the workload through every registry policy
//!   across the checked/unchecked x mono/boxed matrix, asserts
//!   bit-identical stats everywhere, and reports the checked-replay
//!   overhead (budget: 3x).
//!
//! `conformance` and `invariants` honour `GR_SCALE` / `GR_FRAMES`.

use grbench::{run_workload, ExperimentConfig, RunOptions, WorkloadResults};
use grcheck::{conform, fuzz};
use gspc::registry;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: grcheck <fuzz [--seed N] [--cases K] [--accesses M] [--policies A,B] \
         [--out DIR] | conformance [--apps N] [--mb MB] | invariants>"
    );
    std::process::exit(2);
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args.get(pos + 1).unwrap_or_else(|| usage());
    Some(value.parse().unwrap_or_else(|_| usage()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("conformance") => run_conformance(&args[1..]),
        Some("invariants") => run_invariants(),
        _ => usage(),
    }
}

fn run_fuzz(args: &[String]) {
    let mut cfg = fuzz::FuzzConfig::smoke(1);
    if let Some(seed) = parse_flag(args, "--seed") {
        cfg.seed = seed;
    }
    if let Some(cases) = parse_flag(args, "--cases") {
        cfg.cases = cases;
    }
    if let Some(accesses) = parse_flag(args, "--accesses") {
        cfg.accesses_per_case = accesses;
    }
    if let Some(list) = parse_flag::<String>(args, "--policies") {
        cfg.policies = list.split(',').map(str::to_string).collect();
        for p in &cfg.policies {
            if registry::create(p, &fuzz::fuzz_llc()).is_none() {
                eprintln!("unknown policy {p}; try `grsim policies`");
                std::process::exit(1);
            }
        }
    }
    cfg.out_dir = Some(
        parse_flag::<PathBuf>(args, "--out")
            .unwrap_or_else(|| std::env::temp_dir().join("grcheck-repro")),
    );

    let report = fuzz::run_campaign(&cfg);
    println!(
        "fuzz: seed {}, {} cases x {} policies, {} accesses replayed differentially",
        cfg.seed,
        report.cases,
        cfg.policies.len(),
        report.replayed_accesses
    );
    if report.failures.is_empty() {
        println!("fuzz: no divergences");
        return;
    }
    for f in &report.failures {
        eprintln!(
            "DIVERGENCE {} case {} access {}: {} (shrunk to {} accesses{})",
            f.policy,
            f.case,
            f.index,
            f.detail,
            f.reproducer_len,
            f.artifact
                .as_ref()
                .map(|p| format!(", reproducer {}", p.display()))
                .unwrap_or_default()
        );
    }
    eprintln!("fuzz: {} divergence(s)", report.failures.len());
    std::process::exit(1);
}

fn run_conformance(args: &[String]) {
    let cfg = ExperimentConfig::from_env();
    let apps: usize = parse_flag(args, "--apps").unwrap_or(2);
    let mb: u64 = parse_flag(args, "--mb").unwrap_or(8);
    let report = conform::run(&cfg, apps, mb);
    let profiles = conform::run_profiles(mb);
    let ordering = conform::run_figure_ordering();
    println!(
        "conformance: {} checks, {} failure(s); profiles: {} checks, {} failure(s); \
         figure ordering: {} checks, {} failure(s)",
        report.checks,
        report.failures.len(),
        profiles.checks,
        profiles.failures.len(),
        ordering.checks,
        ordering.failures.len()
    );
    if !report.is_pass() || !profiles.is_pass() || !ordering.is_pass() {
        for f in report.failures.iter().chain(&profiles.failures).chain(&ordering.failures) {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
}

/// Replays every registry policy checked and unchecked, through both the
/// monomorphized and boxed dispatch paths, asserting identical stats
/// everywhere and a bounded slowdown from the invariant observer. Per
/// dispatch path, the slowdown is checked replay against unchecked replay.
fn run_invariants() {
    let cfg = ExperimentConfig::from_env();
    let policies: Vec<String> = registry::ALL_POLICIES.iter().map(|e| e.name.to_string()).collect();
    let mut reference: Option<WorkloadResults> = None;
    // Replay seconds per dispatch path (mono, boxed).
    let mut checked_s = [0.0f64; 2];
    let mut plain_s = [0.0f64; 2];
    for boxed in [false, true] {
        let path = if boxed { "boxed" } else { "mono" };
        for check in [false, true] {
            let opts = RunOptions {
                policies: policies.clone(),
                boxed,
                check,
                streamed: false,
                ..RunOptions::misses(&[])
            };
            let r = run_workload(&opts, &cfg);
            if check {
                checked_s[boxed as usize] = r.perf.replay_seconds;
            } else {
                plain_s[boxed as usize] = r.perf.replay_seconds;
            }
            // The first leg (mono, unchecked) is the reference.
            let Some(want) = &reference else {
                reference = Some(r);
                continue;
            };
            for p in &policies {
                for app in &want.apps {
                    assert_eq!(
                        want.get(p, app).stats,
                        r.get(p, app).stats,
                        "{p}/{app}: {path} (checked={check}) diverged from mono"
                    );
                }
            }
        }
        println!(
            "invariants[{path}]: {} policies x {} apps identical to mono, checked and unchecked",
            policies.len(),
            reference.as_ref().map_or(0, |r| r.apps.len()),
        );
    }
    run_profile_invariants(&cfg, &policies);
    let mut failed = false;
    for (i, path) in ["mono", "boxed"].into_iter().enumerate() {
        let ratio = checked_s[i] / plain_s[i].max(1e-9);
        println!(
            "invariants[{path}]: checked replay {:.2}s vs {:.2}s unchecked ({ratio:.2}x)",
            checked_s[i], plain_s[i]
        );
        if ratio > 3.0 {
            eprintln!("FAIL invariants[{path}]: checked replay {ratio:.2}x > 3x budget");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Frame-graph profile sweep: for every built-in profile, the streamed
/// generator must emit exactly the materialized render, the `.gtrace`
/// export must import back bit-identically, and frame-0 replay stats must
/// agree across mono/boxed dispatch.
fn run_profile_invariants(cfg: &ExperimentConfig, policies: &[String]) {
    use grbench::simulate_cell;
    use grsynth::{FrameStream, Frames, GRAPH_PROFILES};

    for profile in GRAPH_PROFILES {
        let graph = profile.graph();
        let trace = Frames::from(&graph).render(0, cfg.scale).0;

        // Export the streamed generator and import it back through the
        // validating reader: one comparison covers both guarantees.
        let mut bytes = std::io::Cursor::new(Vec::new());
        let mut source = FrameStream::new(&graph, 0, cfg.scale);
        grtrace::io::write_source(&mut bytes, &mut source, graph.name(), 0)
            .expect("in-memory export cannot fail");
        let imported = grtrace::import(&bytes.get_ref()[..])
            .unwrap_or_else(|e| panic!("{}: exported trace failed validation: {e}", profile.name));
        assert_eq!(
            imported, trace,
            "{}: streamed .gtrace export diverged from the materialized render",
            profile.name
        );

        let opts = |boxed: bool| RunOptions { boxed, streamed: false, ..RunOptions::misses(&[]) };
        for name in policies {
            let mono = simulate_cell(name, &graph, 0, &opts(false), cfg);
            let boxed = simulate_cell(name, &graph, 0, &opts(true), cfg);
            assert_eq!(
                mono.stats, boxed.stats,
                "{}/{name}: boxed diverged from mono",
                profile.name
            );
        }
        println!(
            "invariants[profile/{}]: stream == render ({} accesses), round trip identical, \
             {} policies x mono/boxed identical",
            profile.name,
            trace.len(),
            policies.len()
        );
    }
}
