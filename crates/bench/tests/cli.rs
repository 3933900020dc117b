//! End-to-end tests of the command-line binaries, spawned as real
//! processes the way a user (or CI) runs them. Everything runs at
//! `GR_SCALE=tiny GR_FRAMES=1` against the crate's own frame cache, so a
//! whole invocation is a few hundred milliseconds.

use std::process::Command;

fn grsim() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_grsim"));
    cmd.env("GR_SCALE", "tiny").env("GR_FRAMES", "1");
    cmd
}

/// `grsim sequence` exits 0 and prints the persistent-LLC table with one
/// row per frame plus the ALL summary row.
#[test]
fn grsim_sequence_runs_end_to_end() {
    let out = grsim().args(["sequence", "GSPC", "BioShock", "2"]).output().expect("spawn grsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(stdout.contains("persistent LLC"), "missing header:\n{stdout}");
    assert!(stdout.contains("warm misses"), "missing column:\n{stdout}");
    assert!(stdout.contains("ALL"), "missing summary row:\n{stdout}");
}

/// No arguments is a usage error: exit code 2, usage text on stderr.
#[test]
fn grsim_without_arguments_shows_usage() {
    let out = grsim().output().expect("spawn grsim");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// An unknown policy is a user error (exit 1), not a panic or a silent
/// success.
#[test]
fn grsim_sequence_rejects_unknown_policy() {
    let out = grsim().args(["sequence", "PLRU", "BioShock", "2"]).output().expect("spawn grsim");
    assert_eq!(out.status.code(), Some(grbench::cli::EXIT_USER_ERROR));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
}

/// The unified exit helper gives every subcommand the same stable codes:
/// 2 for malformed invocations, 1 for well-formed ones naming something
/// unknown. Each line is (args, expected code, expected stderr fragment).
#[test]
fn grsim_exit_codes_are_stable_across_subcommands() {
    let cases: &[(&[&str], i32, &str)] = &[
        (&["frobnicate"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["characterize"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["compare"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["sweep", "GSPC"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["sweep", "GSPC", "eight"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["sequence", "GSPC", "BioShock"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["sequence", "GSPC", "BioShock", "many"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["characterize", "NotAnApp"], grbench::cli::EXIT_USER_ERROR, "unknown app"),
        (&["sequence", "GSPC", "NotAnApp", "2"], grbench::cli::EXIT_USER_ERROR, "unknown app"),
        (&["compare", "PLRU"], grbench::cli::EXIT_USER_ERROR, "unknown policy"),
        (&["sweep", "PLRU", "8"], grbench::cli::EXIT_USER_ERROR, "unknown policy"),
    ];
    for (args, code, fragment) in cases {
        let out = grsim().args(*args).output().expect("spawn grsim");
        assert_eq!(out.status.code(), Some(*code), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(fragment), "args {args:?}: stderr {stderr:?}");
    }
}

/// `grsim profiles` lists every built-in frame-graph profile.
#[test]
fn grsim_profiles_lists_builtins() {
    let out = grsim().args(["profiles"]).output().expect("spawn grsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    for p in grsynth::GRAPH_PROFILES {
        assert!(stdout.contains(p.name), "missing profile {}:\n{stdout}", p.name);
    }
}

/// The frame-graph sequence form prints the same persistent-LLC table as
/// the app form, and the coherence flag is accepted.
#[test]
fn grsim_sequence_profile_runs_end_to_end() {
    let out = grsim()
        .args(["sequence", "GSPC", "--profile", "deferred", "2", "--coherence", "0.3"])
        .output()
        .expect("spawn grsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(stdout.contains("persistent LLC"), "missing header:\n{stdout}");
    assert!(stdout.contains("coherence 0.30"), "missing coherence echo:\n{stdout}");
    assert!(stdout.contains("ALL"), "missing summary row:\n{stdout}");
}

/// Frame-graph and import error paths keep the stable exit codes: 2 for
/// malformed invocations, 1 for well-formed ones naming something unknown
/// or a malformed file.
#[test]
fn grsim_profile_and_replay_exit_codes_are_stable() {
    let dir = std::env::temp_dir().join("grsim-cli-replay");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bad = dir.join("bad.gtrace");
    std::fs::write(&bad, b"XXXXnot a trace").expect("write bad file");
    let bad = bad.to_str().expect("utf8 path");
    let cases: &[(&[&str], i32, &str)] = &[
        (&["sequence", "GSPC", "--profile"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["sequence", "GSPC", "--profile", "deferred"], grbench::cli::EXIT_USAGE, "usage:"),
        (
            &["sequence", "GSPC", "--profile", "deferred", "many"],
            grbench::cli::EXIT_USAGE,
            "usage:",
        ),
        (
            &["sequence", "GSPC", "--profile", "NotAProfile", "2"],
            grbench::cli::EXIT_USER_ERROR,
            "unknown profile",
        ),
        (
            &["sequence", "PLRU", "--profile", "deferred", "2"],
            grbench::cli::EXIT_USER_ERROR,
            "unknown policy",
        ),
        (
            &["sequence", "GSPC", "--profile", "deferred", "2", "--coherence", "1.5"],
            grbench::cli::EXIT_USER_ERROR,
            "invalid graph",
        ),
        (&["replay"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["replay", bad], grbench::cli::EXIT_USAGE, "usage:"),
        (&["replay", bad, "PLRU"], grbench::cli::EXIT_USER_ERROR, "unknown policy"),
        (&["replay", bad, "GSPC"], grbench::cli::EXIT_USER_ERROR, "bad magic"),
    ];
    for (args, code, fragment) in cases {
        let out = grsim().args(*args).output().expect("spawn grsim");
        assert_eq!(out.status.code(), Some(*code), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(fragment), "args {args:?}: stderr {stderr:?}");
    }
}

/// A profile dumped by `grsim dump --profile` replays through `grsim
/// replay` — the full export → import → replay loop as real processes —
/// and `grsim info` reads the same file back.
#[test]
fn grsim_replays_dumped_profile_trace() {
    let dir = std::env::temp_dir().join("grsim-cli-roundtrip");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("postfx0.gtrace");
    let path = path.to_str().expect("utf8 path");
    let out = grsim()
        .args(["dump", "--profile", "postfx", "0", path, "--coherence", "0.8"])
        .output()
        .expect("spawn grsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = grsim().args(["info", path]).output().expect("spawn grsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(stdout.starts_with("app=postfx frame=0 accesses="), "bad info:\n{stdout}");
    let out = grsim().args(["replay", path, "GSPC", "DRRIP"]).output().expect("spawn grsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(stdout.contains("postfx"), "missing app echo:\n{stdout}");
    assert!(stdout.contains("GSPC") && stdout.contains("DRRIP"), "missing rows:\n{stdout}");
    assert!(stdout.contains("8 MB-equivalent"), "missing default LLC:\n{stdout}");
}

/// `grsim dump` and `grsim replay --llc-mb` keep the stable exit codes: 2
/// for a malformed invocation (an unparseable number, a stray flag), 1
/// for a well-formed one naming an unknown app or profile or an LLC size
/// with no valid geometry.
#[test]
fn grsim_dump_and_llc_size_exit_codes_are_stable() {
    let dir = std::env::temp_dir().join("grsim-cli-dump");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = dir.join("out.gtrace");
    let out = out.to_str().expect("utf8 path");
    let policy = gspc::registry::ALL_POLICIES[0].name;
    let cases: &[(&[&str], i32, &str)] = &[
        (&["dump"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["dump", "HAWX", "0"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["dump", "HAWX", "zero", out], grbench::cli::EXIT_USAGE, "usage:"),
        (&["dump", "HAWX", "0", out, "--coherence", "0.5"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["dump", "--profile", "postfx", "-1", out], grbench::cli::EXIT_USAGE, "usage:"),
        (&["dump", "NotAnApp", "0", out], grbench::cli::EXIT_USER_ERROR, "unknown app"),
        (
            &["dump", "--profile", "nope", "0", out],
            grbench::cli::EXIT_USER_ERROR,
            "unknown profile",
        ),
        (&["info"], grbench::cli::EXIT_USAGE, "usage:"),
        (&["replay", out, policy, "--llc-mb", "big"], grbench::cli::EXIT_USAGE, "usage:"),
        (
            &["replay", out, policy, "--llc-mb", "24"],
            grbench::cli::EXIT_USER_ERROR,
            "invalid 24 MB",
        ),
    ];
    for (args, code, fragment) in cases {
        let out = grsim().args(*args).output().expect("spawn grsim");
        assert_eq!(out.status.code(), Some(*code), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(fragment), "args {args:?}: stderr {stderr:?}");
    }
}
