//! Trace utility: dump synthesized LLC traces to disk and replay them.
//!
//! ```text
//! cargo run -p grbench --release --bin tracegen -- dump AssnCreed 0 quarter /tmp/ac0.grtr
//! cargo run -p grbench --release --bin tracegen -- dump-profile deferred 0 tiny 0.5 /tmp/d0.gtrace
//! cargo run -p grbench --release --bin tracegen -- replay /tmp/ac0.grtr GSPC+UCD
//! cargo run -p grbench --release --bin tracegen -- info /tmp/ac0.grtr
//! ```
//!
//! `dump` and `dump-profile` stream the frame band by band straight to
//! the file — the trace is never materialized — and `replay`/`info` go
//! through the validating [`grtrace::import`] reader, so they give typed,
//! actionable errors on malformed files instead of a panic.

use std::fs::File;
use std::io::BufWriter;

use grcache::{annotate_next_use, Llc, LlcConfig};
use grsynth::{AppProfile, FrameStream, Frames, Scale};
use grtrace::io as trace_io;
use grtrace::Trace;
use gspc::registry;

fn usage() -> ! {
    eprintln!("usage:");
    eprintln!("  tracegen dump <app> <frame> <full|half|quarter|tiny> <file>");
    eprintln!(
        "  tracegen dump-profile <profile> <frame> <full|half|quarter|tiny> <coherence> <file>"
    );
    eprintln!("  tracegen replay <file> <policy> [llc-kb]");
    eprintln!("  tracegen info <file>");
    std::process::exit(2);
}

/// Opens and validates a `.gtrace`/`.grtr` file, exiting with code 1 and
/// the typed import error on any malformation.
fn import_or_die(path: &str) -> Trace {
    grtrace::import_file(path).unwrap_or_else(|e| {
        eprintln!("cannot import {path}: {e}");
        std::process::exit(1);
    })
}

/// Streams frame `frame` of `frames` band by band into `path`.
fn dump(frames: Frames<'_>, frame: u32, scale: Scale, path: &str) {
    let file = File::create(path).expect("create output file");
    let mut stream = FrameStream::new(frames, frame, scale);
    let count = trace_io::write_source(BufWriter::new(file), &mut stream, frames.name(), frame)
        .expect("write trace");
    println!("wrote {count} accesses to {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("dump") => {
            let [_, app, frame, scale, path] = &args[..] else { usage() };
            let app = AppProfile::by_abbrev(app).unwrap_or_else(|| {
                eprintln!("unknown app {app}");
                std::process::exit(1);
            });
            let frame: u32 = frame.parse().unwrap_or_else(|_| usage());
            let scale = Scale::from_name(scale).unwrap_or_else(|| usage());
            dump(Frames::from(&app), frame, scale, path);
        }
        Some("dump-profile") => {
            let [_, name, frame, scale, coherence, path] = &args[..] else { usage() };
            let profile = grsynth::graph_profile(name).unwrap_or_else(|| {
                eprintln!("unknown profile {name}");
                std::process::exit(1);
            });
            let frame: u32 = frame.parse().unwrap_or_else(|_| usage());
            let scale = Scale::from_name(scale).unwrap_or_else(|| usage());
            let coherence: f64 = coherence.parse().unwrap_or_else(|_| usage());
            let graph = profile.graph_with_coherence(coherence);
            if let Err(e) = graph.validate() {
                eprintln!("invalid graph: {e}");
                std::process::exit(1);
            }
            dump(Frames::from(&graph), frame, scale, path);
        }
        Some("replay") => {
            if args.len() < 3 {
                usage();
            }
            let trace = import_or_die(&args[1]);
            let kb: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(512);
            let cfg = LlcConfig { size_bytes: kb * 1024, ways: 16, banks: 4, sample_period: 64 };
            if let Err(e) = cfg.validate() {
                eprintln!("invalid {kb} KB LLC ({} sets per bank): {e}", cfg.sets_per_bank());
                std::process::exit(1);
            }
            let policy = registry::create(&args[2], &cfg).unwrap_or_else(|| {
                eprintln!("unknown policy {}", args[2]);
                std::process::exit(1);
            });
            let annotations =
                registry::needs_next_use(&args[2]).then(|| annotate_next_use(trace.accesses()));
            let mut llc = Llc::new(cfg, policy);
            llc.run_trace(&trace, annotations.as_deref());
            println!(
                "{}#{} through {} on {kb} KB LLC: {} accesses, {} misses ({:.1}% hit rate)",
                trace.app(),
                trace.frame(),
                args[2],
                trace.len(),
                llc.stats().total_misses(),
                100.0 * llc.stats().overall_hit_rate(),
            );
        }
        Some("info") => {
            if args.len() < 2 {
                usage();
            }
            let trace = import_or_die(&args[1]);
            println!("app={} frame={} accesses={}", trace.app(), trace.frame(), trace.len());
            for s in grtrace::StreamId::ALL {
                let n = trace.stats().accesses(s);
                if n > 0 {
                    println!(
                        "  {:<6} {:>9} ({:.1}%)",
                        s.label(),
                        n,
                        100.0 * trace.stats().fraction(s)
                    );
                }
            }
        }
        _ => usage(),
    }
}
