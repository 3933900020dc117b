//! `grart` — reproduce the paper's artifacts in one command.
//!
//! ```text
//! grart kick-tires [--out DIR] [--serve spawn|HOST:PORT]
//! grart full       [--out DIR] [--serve spawn|HOST:PORT]
//! grart diff GOLDEN_DIR CANDIDATE_DIR
//! grart serve-daemon --port-file PATH        (internal)
//! ```
//!
//! `kick-tires` reproduces every table and figure at tiny scale in
//! seconds; `full` runs the complete study (hours — intended for
//! nightly CI). Both write JSON + markdown artifacts and a digest
//! manifest under `--out` (default `artifacts/<tier>`).
//!
//! `--serve spawn` boots a private `grserved`-style daemon and routes
//! every job through it; `--serve HOST:PORT` targets a running daemon;
//! the default executes in-process. All three produce byte-identical
//! artifacts.
//!
//! `diff` structurally compares two artifact trees (counts exact,
//! rates and FPS within tolerance) and exits 1 on drift — CI runs it
//! against the goldens committed under `artifacts/goldens/`.
//!
//! `serve-daemon` is the spawned-daemon entry point: a plain
//! [`grserve::start`] server wired to drain on SIGTERM/SIGINT, on
//! `POST /v1/shutdown`, and on stdin EOF (so a killed pipeline can
//! never orphan it).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use grart::daemon::DaemonGuard;
use grart::source::JobSource;
use grart::{artifact, diff, pipeline};
use grbench::cli;

const USAGE: &str = "grart <kick-tires|full> [--out DIR] [--serve spawn|HOST:PORT] | \
grart diff GOLDEN_DIR CANDIDATE_DIR | grart serve-daemon --port-file PATH";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("kick-tires") => run_tier(pipeline::kick_tires(), &args[1..]),
        Some("full") => run_tier(pipeline::full(), &args[1..]),
        Some("diff") => run_diff(&args[1..]),
        Some("serve-daemon") => run_daemon(&args[1..]),
        _ => cli::usage_error(USAGE),
    }
}

fn run_tier(tier: pipeline::Tier, args: &[String]) {
    let mut out: Option<PathBuf> = None;
    let mut serve: Option<String> = None;
    let mut argv = args.iter();
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| match argv.next() {
            Some(v) => v.clone(),
            None => cli::usage_error(&format!("{USAGE}\n{flag} requires a value")),
        };
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--serve" => serve = Some(value("--serve")),
            _ => cli::usage_error(USAGE),
        }
    }
    let out = out.unwrap_or_else(|| PathBuf::from("artifacts").join(tier.name));

    // The guard must outlive the run: dropping it drains the daemon.
    let mut guard: Option<DaemonGuard> = None;
    let source = match serve.as_deref() {
        None => JobSource::in_process(),
        Some("spawn") => {
            let binary = std::env::current_exe()
                .unwrap_or_else(|e| cli::fail(1, &format!("cannot locate own binary: {e}")));
            let spawned = DaemonGuard::spawn(&binary)
                .unwrap_or_else(|e| cli::fail(1, &format!("cannot spawn daemon: {e}")));
            // The orphan-drain integration test parses this line.
            println!("grart: spawned daemon pid {} at http://{}", spawned.pid(), spawned.addr());
            let source = JobSource::served(spawned.addr());
            guard = Some(spawned);
            source
        }
        Some(addr) => JobSource::served(addr),
    };

    let output = pipeline::run(&tier, &source)
        .unwrap_or_else(|e| cli::fail(1, &format!("pipeline failed: {e}")));
    artifact::write_all(&out, &output.artifacts)
        .unwrap_or_else(|e| cli::fail(1, &format!("cannot write artifacts: {e}")));
    drop(guard);

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

/// Set from the signal handler; polled by the supervision loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // std links libc, so `signal(2)` is reachable without a crate. The
    // handler only stores to an atomic — async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Watches stdin for EOF: when the spawning pipeline dies — even by
/// `SIGKILL` — the pipe closes and the daemon drains itself.
fn drain_on_parent_close() {
    std::thread::spawn(|| {
        use std::io::Read;
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin().lock();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        SHUTDOWN.store(true, Ordering::SeqCst);
    });
}

fn run_daemon(args: &[String]) {
    let mut port_file: Option<PathBuf> = None;
    let mut argv = args.iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--port-file" => match argv.next() {
                Some(v) => port_file = Some(PathBuf::from(v)),
                None => cli::usage_error(USAGE),
            },
            _ => cli::usage_error(USAGE),
        }
    }

    install_signal_handlers();
    drain_on_parent_close();

    // Only the spawning pipeline knows this daemon's ephemeral address,
    // so HTTP shutdown is safe to enable — it is the guard's preferred
    // drain signal.
    let cfg = grserve::ServerConfig { allow_http_shutdown: true, ..Default::default() };
    let handle = match grserve::start(cfg) {
        Ok(handle) => handle,
        Err(e) => cli::fail(1, &format!("failed to bind: {e}")),
    };
    let addr = handle.addr();
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            cli::fail(1, &format!("failed to write port file {}: {e}", path.display()));
        }
    }
    println!("grart daemon listening on http://{addr}");

    loop {
        std::thread::sleep(Duration::from_millis(25));
        if SHUTDOWN.load(Ordering::SeqCst) {
            handle.begin_shutdown();
            break;
        }
        if handle.is_drained() {
            break;
        }
    }
    handle.join();
}
