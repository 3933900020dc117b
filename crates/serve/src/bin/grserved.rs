//! `grserved` — the simulation-as-a-service daemon.
//!
//! ```text
//! grserved [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!          [--result-cache DIR] [--result-cache-max BYTES]
//!          [--port-file PATH] [--linger-ms N]
//!          [--read-deadline-ms N] [--idle-timeout-ms N] [--max-conns N]
//!          [--allow-http-shutdown] [--exit-on-parent-close]
//! ```
//!
//! `--exit-on-parent-close` ties the daemon's lifetime to whoever spawned
//! it: a watcher thread reads stdin to EOF and then begins the same
//! graceful drain a SIGTERM would. A supervisor that spawns the daemon
//! with a piped stdin therefore can never orphan it — even `SIGKILL` of
//! the parent closes the pipe and drains the daemon.
//!
//! Binds (port 0 = ephemeral), prints `grserved listening on http://ADDR`,
//! and serves until SIGTERM or ctrl-C, then drains: queued and running
//! jobs complete, new submissions get 503, and the process exits 0.
//! `--port-file` writes the resolved `HOST:PORT` so supervisors and the
//! CI smoke test can discover an ephemeral port without parsing stdout.
//!
//! Execution knobs come from the environment once, at startup
//! (`GR_THREADS`, `GR_STREAMED`, `GR_CHECK`, `GR_SCALE`,
//! `GR_RESULT_CACHE_MAX`); per-job fields come from each request.
//!
//! Each of the `--workers` workers runs one job at a time and fans that
//! job's cells (its frames, apps and policies) over a per-job thread
//! count: `GR_THREADS` when set, else `max(1, available_parallelism /
//! workers)`. The default daemon is therefore not oversubscribed, and
//! `--workers 1` gives its one job every core. Payloads are
//! byte-identical at any thread count.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use grbench::cli;
use grserve::ServerConfig;

const USAGE: &str = "grserved [--addr HOST:PORT] [--workers N] [--queue-cap N] \
[--result-cache DIR] [--result-cache-max BYTES] [--port-file PATH] [--linger-ms N] \
[--read-deadline-ms N] [--idle-timeout-ms N] [--max-conns N] [--allow-http-shutdown] \
[--exit-on-parent-close]";

/// Set from the signal handler; polled by the main thread.
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

/// Watches stdin for EOF and requests the same drain a signal would. The
/// read blocks in a detached thread; when the spawning process exits (or
/// is killed), the pipe closes, the read returns, and the daemon drains.
fn drain_on_parent_close() {
    std::thread::spawn(|| {
        use std::io::Read;
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin().lock();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        SHUTDOWN.store(true, Ordering::SeqCst);
    });
}

fn main() {
    let mut cfg = ServerConfig::default();
    let mut port_file: Option<PathBuf> = None;
    let mut exit_on_parent_close = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| match argv.next() {
            Some(v) => v,
            None => cli::usage_error(&format!("{USAGE}\n{flag} requires a value")),
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => cfg.workers = n,
                _ => cli::user_error("--workers must be a positive integer"),
            },
            "--queue-cap" => match value("--queue-cap").parse() {
                Ok(n) if n > 0 => cfg.queue_cap = n,
                _ => cli::user_error("--queue-cap must be a positive integer"),
            },
            "--linger-ms" => match value("--linger-ms").parse() {
                Ok(ms) => cfg.linger = Duration::from_millis(ms),
                Err(_) => cli::user_error("--linger-ms must be an integer"),
            },
            "--read-deadline-ms" => match value("--read-deadline-ms").parse() {
                Ok(ms) => cfg.read_deadline = Duration::from_millis(ms),
                Err(_) => cli::user_error("--read-deadline-ms must be an integer"),
            },
            "--idle-timeout-ms" => match value("--idle-timeout-ms").parse() {
                Ok(ms) => cfg.idle_timeout = Duration::from_millis(ms),
                Err(_) => cli::user_error("--idle-timeout-ms must be an integer"),
            },
            "--max-conns" => match value("--max-conns").parse() {
                Ok(n) if n > 0 => cfg.max_conns = n,
                _ => cli::user_error("--max-conns must be a positive integer"),
            },
            "--result-cache" => cfg.result_cache_dir = Some(PathBuf::from(value("--result-cache"))),
            "--result-cache-max" => match value("--result-cache-max").parse() {
                Ok(bytes) => cfg.result_cache_max = Some(bytes),
                Err(_) => cli::user_error("--result-cache-max must be a byte count"),
            },
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file"))),
            "--allow-http-shutdown" => cfg.allow_http_shutdown = true,
            "--exit-on-parent-close" => exit_on_parent_close = true,
            _ => cli::usage_error(USAGE),
        }
    }

    install_signal_handlers();
    if exit_on_parent_close {
        drain_on_parent_close();
    }
    // Many keep-alive clients hold many fds open; the default soft limit
    // (often 1024) would cap the daemon far below its design point.
    grserve::poll::raise_nofile_limit(cfg.max_conns as u64 + 512);

    let server = match grserve::start(cfg) {
        Ok(handle) => handle,
        Err(e) => cli::user_error(&format!("failed to bind: {e}")),
    };

    let addr = server.addr();
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            cli::user_error(&format!("failed to write port file {}: {e}", path.display()));
        }
    }
    println!("grserved listening on http://{addr}");

    // Block until a signal or an HTTP-initiated drain, then wait for the
    // drain to complete before exiting 0.
    loop {
        std::thread::sleep(Duration::from_millis(25));
        if SHUTDOWN.load(Ordering::SeqCst) {
            eprintln!("grserved: draining");
            server.begin_shutdown();
            break;
        }
        if server.is_drained() {
            break;
        }
    }
    server.join();
    eprintln!("grserved: drained, exiting");
}
