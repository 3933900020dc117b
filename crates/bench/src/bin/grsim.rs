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
//! grsim dump HAWX 0 hawx0.gtrace     # export one frame as a .gtrace file
//! grsim dump --profile postfx 0 px.gtrace --coherence 0.8
//! grsim info px.gtrace               # header and stream mix of a file
//! grsim replay px.gtrace GSPC DRRIP --llc-mb 16
//!                                    # replay a .gtrace file
//! ```
//!
//! All subcommands honour `GR_SCALE`, `GR_FRAMES`, `GR_TRACE_CACHE`,
//! `GR_STREAM_CHUNK`, and `GR_STREAMED` (see the grbench crate docs).
//! `dump` streams the frame band by band straight to the file, so the
//! trace is never materialized; `info` and `replay` read files through the
//! validating [`grtrace::import`](fn@grtrace::import), so a malformed file
//! is a typed error (exit 1), never a panic.

use std::fs::File;
use std::io::BufWriter;

use grbench::{
    cli, framecache, run_grid, run_workload, table, AppAgg, ExperimentConfig, GridSource,
    RunOptions,
};
use grsynth::{AppProfile, FrameGraph, FrameStream, Frames, GRAPH_PROFILES};
use grtrace::{StreamId, Trace};
use gspc::registry;

fn usage() -> ! {
    cli::usage_error(
        "grsim <apps|policies|profiles|characterize APP|compare POLICY...|sweep POLICY MB...|sequence POLICY APP NFRAMES|sequence POLICY --profile NAME NFRAMES [--coherence C]|dump APP FRAME FILE|dump --profile NAME FRAME FILE [--coherence C]|info FILE|replay FILE POLICY... [--llc-mb N]>",
    );
}

/// Splits `args` into positionals and the values of the `--flag VALUE`
/// options named in `flags`, in that order. Any other `--` argument, or a
/// flag without its value, is a usage error.
fn split_flags<'a, const N: usize>(
    args: &'a [String],
    flags: [&str; N],
) -> (Vec<&'a str>, [Option<&'a str>; N]) {
    let mut positionals = Vec::new();
    let mut values = [None; N];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(i) = flags.iter().position(|f| f == arg) {
            values[i] = Some(it.next().unwrap_or_else(|| usage()).as_str());
        } else if arg.starts_with("--") {
            usage();
        } else {
            positionals.push(arg.as_str());
        }
    }
    (positionals, values)
}

/// Parses a numeric argument or exits with the usage code (2).
fn parse_or_usage<T: std::str::FromStr>(arg: &str) -> T {
    arg.parse().unwrap_or_else(|_| usage())
}

/// Resolves a registry policy name or exits with the stable user-error
/// code (1) — the one place every subcommand's unknown-policy path goes
/// through.
fn require_policy(policy: &str) {
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

/// Exits with the user-error code (1) unless `paper_mb` gives a valid LLC
/// geometry at the configured scale.
fn require_llc(cfg: &ExperimentConfig, paper_mb: u64) {
    let llc = cfg.llc(paper_mb);
    if let Err(e) = llc.validate() {
        cli::user_error(&format!(
            "invalid {paper_mb} MB LLC at {} scale ({} sets per bank): {e}",
            cfg.scale.name(),
            llc.sets_per_bank()
        ));
    }
}

/// Imports and validates a `.gtrace` file, or exits with the user-error
/// code (1) naming the typed import error.
fn import_or_exit(path: &str) -> Trace {
    grtrace::import_file(path)
        .unwrap_or_else(|e| cli::user_error(&format!("cannot import {path}: {e}")))
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
            let sizes: Vec<u64> = args[2..].iter().map(|s| parse_or_usage(s)).collect();
            sweep(&cfg, &args[1], &sizes);
        }
        Some("sequence") => {
            if args.iter().any(|a| a == "--profile") {
                sequence_profile(&cfg, &args[1..]);
            } else {
                if args.len() != 4 {
                    usage();
                }
                sequence(&cfg, &args[1], &args[2], parse_or_usage(&args[3]));
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
        Some("dump") => dump(&cfg, &args[1..]),
        Some("info") => {
            let [_, path] = &args[..] else { usage() };
            info(path);
        }
        Some("replay") => {
            let (positionals, [llc_mb]) = split_flags(&args[1..], ["--llc-mb"]);
            let [path, policies @ ..] = &positionals[..] else { usage() };
            if policies.is_empty() {
                usage();
            }
            replay(&cfg, path, policies, llc_mb.map_or(8, parse_or_usage));
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
    let (positionals, [profile_name, coherence]) = split_flags(rest, ["--profile", "--coherence"]);
    let [policy, nframes] = positionals[..] else { usage() };
    let nframes: u32 = parse_or_usage(nframes);
    require_policy(policy);
    let name = profile_name.unwrap_or_else(|| usage());
    let graph = require_graph(name, coherence.map(parse_or_usage));
    let title = format!(
        "{policy} on profile {} (coherence {:.2}) — persistent LLC across {nframes} frames",
        graph.name(),
        graph.frame_coherence(),
    );
    sequence_table(cfg, policy, Frames::from(&graph), nframes, &title);
}

/// `dump APP FRAME FILE` and `dump --profile NAME FRAME FILE [--coherence
/// C]`: streams one frame at the configured scale band by band into FILE.
fn dump(cfg: &ExperimentConfig, rest: &[String]) {
    let (positionals, [profile_name, coherence]) = split_flags(rest, ["--profile", "--coherence"]);
    let (app, graph);
    let (frames, frame, path) = match (profile_name, &positionals[..]) {
        (Some(name), &[frame, path]) => {
            let frame = parse_or_usage(frame);
            graph = require_graph(name, coherence.map(parse_or_usage));
            (Frames::from(&graph), frame, path)
        }
        (None, &[app_name, frame, path]) if coherence.is_none() => {
            let frame = parse_or_usage(frame);
            app = require_app(app_name);
            (Frames::from(&app), frame, path)
        }
        _ => usage(),
    };
    let file = File::create(path)
        .unwrap_or_else(|e| cli::user_error(&format!("cannot create {path}: {e}")));
    let mut stream = FrameStream::new(frames, frame, cfg.scale);
    let count = grtrace::io::write_source(BufWriter::new(file), &mut stream, frames.name(), frame)
        .unwrap_or_else(|e| cli::user_error(&format!("cannot write {path}: {e}")));
    println!("wrote {count} accesses to {path}");
}

/// Prints the header and per-stream access mix of a `.gtrace` file.
fn info(path: &str) {
    let trace = import_or_exit(path);
    println!("app={} frame={} accesses={}", trace.app(), trace.frame(), trace.len());
    for s in StreamId::ALL {
        let n = trace.stats().accesses(s);
        if n > 0 {
            println!("  {:<6} {:>9} ({:.1}%)", s.label(), n, 100.0 * trace.stats().fraction(s));
        }
    }
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
    // The cold cells replay the frames the warm sequence rendered.
    let _hold = framecache::hold();
    let opts = RunOptions::misses(&[]);
    let warm = grbench::run_frame_sequence(policy, frames, 0..nframes, &opts, cfg);
    let cells: Vec<_> = (0..nframes).map(|frame| (policy, frames, frame)).collect();
    let cold_runs = grbench::simulate_cells(&cells, &opts, cfg);
    let mut rows = Vec::new();
    let mut prev = 0u64;
    let mut cold_total = 0u64;
    for frame in 0..nframes {
        let cold = cold_runs[frame as usize].stats.total_misses();
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

/// Replays an imported `.gtrace` file through one or more policies on the
/// LLC equivalent to `llc_mb` paper megabytes.
fn replay(cfg: &ExperimentConfig, path: &str, policies: &[&str], llc_mb: u64) {
    for p in policies {
        require_policy(p);
    }
    require_llc(cfg, llc_mb);
    let trace = import_or_exit(path);
    println!(
        "{path} — app {:?} frame {} ({} accesses), replayed on the {llc_mb} MB-equivalent LLC",
        trace.app(),
        trace.frame(),
        trace.len()
    );
    let opts = RunOptions { llc_paper_mb: llc_mb, ..RunOptions::misses(policies) };
    let r = run_grid(&[(trace.app(), GridSource::Trace(&trace))], &opts, cfg);
    let mut rows = Vec::new();
    for p in policies {
        let stats = &r.get(p, trace.app()).stats;
        rows.push(vec![
            p.to_string(),
            format!("{}", stats.total_misses()),
            table::pct(stats.total_hits() as f64 / stats.total_accesses().max(1) as f64),
        ]);
    }
    table::print(&["policy", "misses", "hit rate"], &rows);
}

/// Multi-frame replay through one persistent LLC (no inter-frame flush),
/// against the paper's per-frame cold-start methodology.
fn sequence(cfg: &ExperimentConfig, policy: &str, app_name: &str, nframes: u32) {
    require_policy(policy);
    let app = require_app(app_name);
    let nframes = nframes.min(app.frames);
    let title = format!("{policy} on {} — persistent LLC across {nframes} frames", app.name);
    sequence_table(cfg, policy, Frames::from(&app), nframes, &title);
}

/// Section-2-style reuse characterization of one application.
fn characterize(cfg: &ExperimentConfig, app_name: &str) {
    const ORACLE: &str = "OPT";
    let app = require_app(app_name);
    let opts = RunOptions { characterize: true, ..RunOptions::misses(&[ORACLE]) };
    let count = cfg.frames_for(app.frames);
    // The stream mix below reads the frames the grid rendered.
    let _hold = framecache::hold();
    let r = run_grid(&[(app.abbrev, GridSource::Frames((&app).into(), count))], &opts, cfg);
    let AppAgg { stats, chars, .. } = r.get(ORACLE, app.abbrev);
    let mut mix = grtrace::StreamStats::new();
    for frame in 0..count {
        mix.merge(framecache::frame_data(&app, frame, cfg.scale).trace.stats());
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
        require_policy(p);
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

/// Miss-rate curve of one policy over LLC capacities: one workload run per
/// capacity, at most two frames per application.
fn sweep(cfg: &ExperimentConfig, policy: &str, sizes_mb: &[u64]) {
    require_policy(policy);
    for &mb in sizes_mb {
        require_llc(cfg, mb);
    }
    let capped = ExperimentConfig { frames_per_app: Some(cfg.frames_for(2)), ..*cfg };
    // Every capacity replays the same frames.
    let _hold = framecache::hold();
    let mut rows = Vec::new();
    for &mb in sizes_mb {
        let opts = RunOptions { llc_paper_mb: mb, ..RunOptions::misses(&[policy]) };
        let r = run_workload(&opts, &capped);
        let (mut hits, mut total) = (0u64, 0u64);
        for app in &r.apps {
            let stats = &r.get(policy, app).stats;
            hits += stats.total_hits();
            total += stats.total_accesses();
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
