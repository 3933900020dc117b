//! `grart` — reproduce the paper's artifacts in one command.
//!
//! ```text
//! grart kick-tires [--out DIR]
//! grart full       [--out DIR]
//! grart diff GOLDEN_DIR CANDIDATE_DIR
//! ```
//!
//! `kick-tires` reproduces every table and figure at tiny scale in
//! seconds; `full` runs the complete study (hours — intended for
//! nightly CI). Both compute every artifact in-process from `grbench`
//! and write JSON + markdown artifacts and a digest manifest under
//! `--out` (default `artifacts/<tier>`).
//!
//! `diff` structurally compares two artifact trees (counts exact,
//! rates and FPS within tolerance) and exits 1 on drift — CI runs it
//! against the goldens committed under `artifacts/goldens/`.

use std::path::{Path, PathBuf};

use grart::{artifact, diff, pipeline};
use grbench::cli;

const USAGE: &str = "grart <kick-tires|full> [--out DIR] | grart diff GOLDEN_DIR CANDIDATE_DIR";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("kick-tires") => run_tier(pipeline::kick_tires(), &args[1..]),
        Some("full") => run_tier(pipeline::full(), &args[1..]),
        Some("diff") => run_diff(&args[1..]),
        _ => cli::usage_error(USAGE),
    }
}

fn run_tier(tier: pipeline::Tier, args: &[String]) {
    let out = match args {
        [] => PathBuf::from("artifacts").join(tier.name),
        [flag, dir] if flag == "--out" => PathBuf::from(dir),
        [flag] if flag == "--out" => cli::usage_error(&format!("{USAGE}\n--out requires a value")),
        _ => cli::usage_error(USAGE),
    };

    let output = pipeline::run(&tier);
    artifact::write_all(&out, &output.artifacts)
        .unwrap_or_else(|e| cli::fail(1, &format!("cannot write artifacts: {e}")));

    println!(
        "grart: wrote {} artifacts to {} (conformance: {})",
        output.artifacts.len(),
        out.display(),
        if output.conformance_pass { "pass" } else { "FAIL" }
    );
    if !output.conformance_pass {
        std::process::exit(1);
    }
}

fn run_diff(args: &[String]) {
    let [golden, candidate] = args else { cli::usage_error(USAGE) };
    let drift = diff::diff_dirs(Path::new(golden), Path::new(candidate))
        .unwrap_or_else(|e| cli::fail(1, &e));
    if drift.is_empty() {
        println!("grart diff: no drift");
        return;
    }
    for line in &drift {
        eprintln!("DRIFT {line}");
    }
    eprintln!("grart diff: {} drifting cell(s)", drift.len());
    std::process::exit(1);
}
