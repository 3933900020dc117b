//! `grsim` — the unified command-line front end to the simulator.
//!
//! ```text
//! grsim apps                         # list application profiles
//! grsim policies                     # list LLC policies
//! grsim characterize BioShock        # Section-2-style reuse profile
//! grsim compare GSPC+UCD GS-DRRIP    # misses vs DRRIP over the workload
//! grsim sweep GSPC 2 4 8 16          # miss curve vs LLC capacity (MB)
//! grsim sequence GSPC BioShock 4     # persistent-LLC multi-frame replay
//! grsim profiles                     # list frame-graph workload profiles
//! grsim sequence GSPC --profile deferred 4 --coherence 0.3
//!                                    # frame-graph workload, drifting set
//! grsim replay trace.gtrace GSPC DRRIP
//!                                    # replay an imported .gtrace file
//! ```
//!
//! All subcommands honour `GR_SCALE`, `GR_FRAMES`, `GR_TRACE_CACHE`,
//! `GR_STREAM_CHUNK`, and `GR_STREAMED` (see the grbench crate docs).

use grbench::{cli, framecache, run_workload, table, ExperimentConfig, RunOptions};
use grcache::Llc;
use grsynth::{AppProfile, FrameGraph, Frames, GRAPH_PROFILES};
use grtrace::StreamId;
use gspc::registry;

fn usage() -> ! {
    cli::usage_error(
        "grsim <apps|policies|profiles|characterize APP|compare POLICY...|sweep POLICY MB...|sequence POLICY APP NFRAMES|sequence POLICY --profile NAME NFRAMES [--coherence C]|replay FILE POLICY...>",
    );
}

/// Resolves a registry policy name or exits with the stable user-error
/// code (1) — the one place every subcommand's unknown-policy path goes
/// through.
fn require_policy(cfg: &ExperimentConfig, policy: &str) {
    let _ = cfg;
    if registry::resolve(policy).is_none() {
        cli::user_error(&format!("unknown policy {policy}; try `grsim policies`"));
    }
}

/// Resolves an application abbreviation or exits with the stable
/// user-error code (1).
fn require_app(app_name: &str) -> AppProfile {
    AppProfile::by_abbrev(app_name)
        .unwrap_or_else(|| cli::user_error(&format!("unknown app {app_name}; try `grsim apps`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ExperimentConfig::from_env();
    match args.first().map(String::as_str) {
        Some("apps") => {
            let rows: Vec<Vec<String>> = AppProfile::all()
                .iter()
                .map(|a| {
                    vec![
                        a.abbrev.to_string(),
                        a.name.to_string(),
                        format!("DX{}", a.dx_version),
                        format!("{}x{}", a.width, a.height),
                        format!("{}", a.frames),
                    ]
                })
                .collect();
            table::print(&["abbrev", "name", "api", "resolution", "frames"], &rows);
        }
        Some("policies") => {
            if args.get(1).map(String::as_str) == Some("--markdown") {
                // The generator behind the README's policy table; the
                // README sync test pins this exact rendering.
                print!("{}", registry::markdown_policy_table());
            } else {
                let rows: Vec<Vec<String>> = registry::ALL_POLICIES
                    .iter()
                    .map(|e| vec![e.name.to_string(), e.description.to_string()])
                    .collect();
                table::print(&["policy", "description"], &rows);
            }
        }
        Some("characterize") => {
            let app_name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            characterize(&cfg, app_name);
        }
        Some("compare") => {
            if args.len() < 2 {
                usage();
            }
            compare(&cfg, &args[1..]);
        }
        Some("sweep") => {
            if args.len() < 3 {
                usage();
            }
            let policy = &args[1];
            let sizes: Vec<u64> =
                args[2..].iter().map(|s| s.parse().unwrap_or_else(|_| usage())).collect();
            sweep(&cfg, policy, &sizes);
        }
        Some("sequence") => {
            if args.iter().any(|a| a == "--profile") {
                sequence_profile(&cfg, &args[1..]);
            } else {
                if args.len() != 4 {
                    usage();
                }
                let nframes: u32 = args[3].parse().unwrap_or_else(|_| usage());
                sequence(&cfg, &args[1], &args[2], nframes);
            }
        }
        Some("profiles") => {
            let rows: Vec<Vec<String>> = GRAPH_PROFILES
                .iter()
                .map(|p| {
                    vec![
                        p.name.to_string(),
                        format!("{}", p.graph().passes().len()),
                        format!("{}", p.frames),
                        format!("{:.2}", p.default_coherence),
                        p.description.to_string(),
                    ]
                })
                .collect();
            table::print(&["profile", "passes", "frames", "coherence", "description"], &rows);
        }
        Some("replay") => {
            if args.len() < 3 {
                usage();
            }
            replay(&cfg, &args[1], &args[2..]);
        }
        _ => usage(),
    }
}

/// Resolves a built-in frame-graph profile (optionally re-dialled to an
/// explicit coherence) or exits with the stable user-error code (1).
fn require_graph(profile_name: &str, coherence: Option<f64>) -> FrameGraph {
    let Some(profile) = grsynth::graph_profile(profile_name) else {
        cli::user_error(&format!("unknown profile {profile_name}; try `grsim profiles`"));
    };
    let graph = match coherence {
        Some(c) => profile.graph_with_coherence(c),
        None => profile.graph(),
    };
    if let Err(e) = graph.validate() {
        cli::user_error(&format!("invalid graph: {e}"));
    }
    graph
}

/// The `sequence POLICY --profile NAME NFRAMES [--coherence C]` form:
/// persistent-LLC replay of a frame-graph workload, where the coherence
/// knob controls how much of the per-frame working set drifts.
fn sequence_profile(cfg: &ExperimentConfig, rest: &[String]) {
    let mut positionals: Vec<&String> = Vec::new();
    let mut profile_name = None;
    let mut coherence = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => profile_name = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--coherence" => {
                let v = it.next().unwrap_or_else(|| usage());
                coherence = Some(v.parse::<f64>().unwrap_or_else(|_| usage()));
            }
            s if s.starts_with("--") => usage(),
            _ => positionals.push(arg),
        }
    }
    let (policy, nframes) = match positionals[..] {
        [policy, nframes] => (policy, nframes.parse::<u32>().unwrap_or_else(|_| usage())),
        _ => usage(),
    };
    require_policy(cfg, policy);
    let name = profile_name.expect("--profile present by dispatch");
    let graph = require_graph(&name, coherence);
    let title = format!(
        "{policy} on profile {} (coherence {:.2}) — persistent LLC across {nframes} frames",
        graph.name(),
        graph.frame_coherence(),
    );
    sequence_table(cfg, policy, Frames::from(&graph), nframes, &title);
}

/// Prints per-frame cold (fresh LLC) against warm (one persistent LLC)
/// misses for frames `0..nframes` of `frames`, under `title`.
fn sequence_table(
    cfg: &ExperimentConfig,
    policy: &str,
    frames: Frames<'_>,
    nframes: u32,
    title: &str,
) {
    let warm = grbench::run_frame_sequence(policy, frames, 0..nframes, 8, cfg);
    let opts = RunOptions::misses(&[]);
    let mut rows = Vec::new();
    let mut prev = 0u64;
    let mut cold_total = 0u64;
    for frame in 0..nframes {
        let cold = grbench::simulate_cell(policy, frames, frame, &opts, cfg).stats.total_misses();
        cold_total += cold;
        let cum = warm[frame as usize].total_misses();
        let delta = cum - prev;
        prev = cum;
        rows.push(vec![
            format!("{frame}"),
            format!("{cold}"),
            format!("{delta}"),
            table::pct(1.0 - delta as f64 / cold.max(1) as f64),
        ]);
    }
    let warm_total = prev;
    rows.push(vec![
        "ALL".into(),
        format!("{cold_total}"),
        format!("{warm_total}"),
        table::pct(1.0 - warm_total as f64 / cold_total.max(1) as f64),
    ]);
    println!("{title}");
    table::print(&["frame", "cold misses", "warm misses", "saved"], &rows);
}

/// Replays an imported `.gtrace` file through one or more policies.
fn replay(cfg: &ExperimentConfig, path: &str, policies: &[String]) {
    for p in policies {
        require_policy(cfg, p);
    }
    let trace = grtrace::import_file(path)
        .unwrap_or_else(|e| cli::user_error(&format!("cannot import {path}: {e}")));
    println!(
        "{path} — app {:?} frame {} ({} accesses), replayed on the 8 MB-equivalent LLC",
        trace.app(),
        trace.frame(),
        trace.len()
    );
    let mut rows = Vec::new();
    for p in policies {
        let opts = RunOptions { policies: vec![p.clone()], ..RunOptions::misses(&[]) };
        let cell = grbench::simulate_trace_cell(p, &trace, &opts, cfg);
        rows.push(vec![
            p.clone(),
            format!("{}", cell.stats.total_misses()),
            table::pct(cell.stats.total_hits() as f64 / cell.stats.total_accesses().max(1) as f64),
        ]);
    }
    table::print(&["policy", "misses", "hit rate"], &rows);
}

/// Multi-frame replay through one persistent LLC (no inter-frame flush),
/// against the paper's per-frame cold-start methodology.
fn sequence(cfg: &ExperimentConfig, policy: &str, app_name: &str, nframes: u32) {
    require_policy(cfg, policy);
    let app = require_app(app_name);
    let nframes = nframes.min(app.frames);
    let title = format!("{policy} on {} — persistent LLC across {nframes} frames", app.name);
    sequence_table(cfg, policy, Frames::from(&app), nframes, &title);
}

/// Section-2-style reuse characterization of one application.
fn characterize(cfg: &ExperimentConfig, app_name: &str) {
    let app = require_app(app_name);
    let llc_cfg = cfg.llc(8);
    let mut stats = grcache::LlcStats::new();
    let mut chars = grcache::CharReport::default();
    let mut mix = grtrace::StreamStats::new();
    for frame in 0..cfg.frames_for(app.frames) {
        let data = framecache::frame_data(&app, frame, cfg.scale);
        mix.merge(data.trace.stats());
        let mut llc =
            Llc::new(llc_cfg, registry::create("OPT", &llc_cfg).unwrap()).with_characterization();
        llc.run_source(&mut data.trace.source_annotated(data.next_use()))
            .expect("in-memory replay cannot fail");
        stats.merge(llc.stats());
        chars.merge(llc.characterization().expect("characterization enabled"));
    }
    println!("{} — reuse profile under Belady's OPT", app.name);
    println!();
    let mut rows = Vec::new();
    for s in StreamId::ALL {
        if mix.accesses(s) > 0 {
            rows.push(vec![
                s.label().to_string(),
                format!("{}", mix.accesses(s)),
                table::pct(mix.fraction(s)),
                table::pct(stats.hit_rate(s)),
            ]);
        }
    }
    table::print(&["stream", "LLC accesses", "share", "OPT hit rate"], &rows);
    println!();
    table::print(
        &["metric", "value"],
        &[
            vec!["RT->TEX consumption".into(), table::pct(chars.rt_consumption_rate())],
            vec!["inter-stream TEX hit share".into(), table::pct(chars.tex_inter_fraction())],
            vec![
                "TEX death ratios E0/E1/E2".into(),
                format!(
                    "{:.2} / {:.2} / {:.2}",
                    chars.tex_death_ratio(0),
                    chars.tex_death_ratio(1),
                    chars.tex_death_ratio(2)
                ),
            ],
            vec![
                "Z death ratios E0/E1/E2".into(),
                format!(
                    "{:.2} / {:.2} / {:.2}",
                    chars.z_death_ratio(0),
                    chars.z_death_ratio(1),
                    chars.z_death_ratio(2)
                ),
            ],
        ],
    );
}

/// Workload-wide comparison of policies against DRRIP.
fn compare(cfg: &ExperimentConfig, policies: &[String]) {
    for p in policies {
        require_policy(cfg, p);
    }
    let mut all: Vec<String> = policies.to_vec();
    if !all.iter().any(|p| p == "DRRIP") {
        all.push("DRRIP".into());
    }
    let opts = RunOptions { policies: all, ..RunOptions::misses(&[]) };
    let r = run_workload(&opts, cfg);
    let mut head = vec!["app"];
    for p in policies {
        head.push(p);
    }
    let mut rows = Vec::new();
    for app in &r.apps {
        let mut row = vec![app.clone()];
        for p in policies {
            row.push(table::ratio(r.normalized_misses(p, app, "DRRIP")));
        }
        rows.push(row);
    }
    let mut overall = vec!["ALL".to_string()];
    for p in policies {
        overall.push(table::ratio(r.overall_normalized_misses(p, "DRRIP")));
    }
    rows.push(overall);
    println!("LLC misses normalized to DRRIP (8 MB-equivalent LLC)");
    table::print(&head, &rows);
}

/// Miss-rate curve of one policy over LLC capacities.
fn sweep(cfg: &ExperimentConfig, policy: &str, sizes_mb: &[u64]) {
    require_policy(cfg, policy);
    let mut rows = Vec::new();
    for &mb in sizes_mb {
        let llc_cfg = cfg.llc(mb);
        let mut hits = 0u64;
        let mut total = 0u64;
        for app in AppProfile::all() {
            for frame in 0..cfg.frames_for(app.frames).min(2) {
                let data = framecache::frame_data(&app, frame, cfg.scale);
                let mut llc = Llc::new(llc_cfg, registry::create(policy, &llc_cfg).unwrap());
                llc.run_source(&mut data.trace.source()).expect("in-memory replay cannot fail");
                hits += llc.stats().total_hits();
                total += llc.stats().total_accesses();
            }
        }
        rows.push(vec![
            format!("{mb} MB"),
            format!("{}", total - hits),
            table::pct(hits as f64 / total.max(1) as f64),
        ]);
    }
    println!("{policy} across LLC capacities (paper-equivalent MB)");
    table::print(&["LLC", "misses", "hit rate"], &rows);
}
