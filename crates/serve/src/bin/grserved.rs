//! `grserved` — the simulation-as-a-service daemon.
//!
//! ```text
//! grserved [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!          [--result-cache DIR] [--result-cache-max BYTES]
//!          [--peer HOST:PORT]... [--port-file PATH] [--linger-ms N]
//!          [--read-deadline-ms N] [--idle-timeout-ms N] [--max-conns N]
//!          [--allow-http-shutdown]
//! grserved front --backends HOST:PORT,HOST:PORT,...
//!          [--addr HOST:PORT] [--forwarders N] [--queue-cap N]
//!          [--port-file PATH] [--linger-ms N] [--allow-http-shutdown]
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
//! The `front` subcommand runs the fleet front tier instead: no replay
//! workers, just digest sharding over `--backends` (see
//! [`grserve::fleet`]). Repeating `--peer` on backend daemons enables
//! cross-daemon result-cache peering.
//!
//! Execution knobs come from the environment once, at startup
//! (`GR_THREADS`, `GR_STREAMED`, `GR_CHECK`, `GR_SCALE`,
//! `GR_RESULT_CACHE_MAX`) via [`grbench::RunOptions::from_env`]; per-job
//! fields come from each request.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use grbench::cli;
use grserve::{FrontConfig, ServerConfig};

const USAGE: &str = "grserved [front --backends A,B,...] [--addr HOST:PORT] [--workers N] \
[--queue-cap N] [--result-cache DIR] [--result-cache-max BYTES] [--peer HOST:PORT]... \
[--forwarders N] [--port-file PATH] [--linger-ms N] [--read-deadline-ms N] \
[--idle-timeout-ms N] [--max-conns N] [--allow-http-shutdown] [--exit-on-parent-close]";

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

/// Unifies the two daemon roles behind one supervision loop.
enum Role {
    Backend(grserve::ServerHandle),
    Front(grserve::FrontHandle),
}

impl Role {
    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Role::Backend(h) => h.addr(),
            Role::Front(h) => h.addr(),
        }
    }

    fn begin_shutdown(&self) {
        match self {
            Role::Backend(h) => h.begin_shutdown(),
            Role::Front(h) => h.begin_shutdown(),
        }
    }

    fn is_drained(&self) -> bool {
        match self {
            Role::Backend(h) => h.is_drained(),
            Role::Front(h) => h.is_drained(),
        }
    }

    fn join(self) {
        match self {
            Role::Backend(h) => h.join(),
            Role::Front(h) => h.join(),
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let front_mode = args.first().map(String::as_str) == Some("front");
    if front_mode {
        args.remove(0);
    }

    let mut cfg = ServerConfig::default();
    let mut front = FrontConfig::default();
    let mut port_file: Option<PathBuf> = None;
    let mut exit_on_parent_close = false;

    let mut argv = args.into_iter();
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| match argv.next() {
            Some(v) => v,
            None => cli::usage_error(&format!("{USAGE}\n{flag} requires a value")),
        };
        match arg.as_str() {
            "--addr" => {
                cfg.addr = value("--addr");
                front.addr = cfg.addr.clone();
            }
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => cfg.workers = n,
                _ => cli::user_error("--workers must be a positive integer"),
            },
            "--forwarders" => match value("--forwarders").parse() {
                Ok(n) if n > 0 => front.forwarders = n,
                _ => cli::user_error("--forwarders must be a positive integer"),
            },
            "--queue-cap" => match value("--queue-cap").parse() {
                Ok(n) if n > 0 => {
                    cfg.queue_cap = n;
                    front.queue_cap = n;
                }
                _ => cli::user_error("--queue-cap must be a positive integer"),
            },
            "--linger-ms" => match value("--linger-ms").parse() {
                Ok(ms) => {
                    cfg.linger = Duration::from_millis(ms);
                    front.linger = cfg.linger;
                }
                Err(_) => cli::user_error("--linger-ms must be an integer"),
            },
            "--read-deadline-ms" => match value("--read-deadline-ms").parse() {
                Ok(ms) => {
                    cfg.read_deadline = Duration::from_millis(ms);
                    front.read_deadline = cfg.read_deadline;
                }
                Err(_) => cli::user_error("--read-deadline-ms must be an integer"),
            },
            "--idle-timeout-ms" => match value("--idle-timeout-ms").parse() {
                Ok(ms) => {
                    cfg.idle_timeout = Duration::from_millis(ms);
                    front.idle_timeout = cfg.idle_timeout;
                }
                Err(_) => cli::user_error("--idle-timeout-ms must be an integer"),
            },
            "--max-conns" => match value("--max-conns").parse() {
                Ok(n) if n > 0 => {
                    cfg.max_conns = n;
                    front.max_conns = n;
                }
                _ => cli::user_error("--max-conns must be a positive integer"),
            },
            "--result-cache" => cfg.result_cache_dir = Some(PathBuf::from(value("--result-cache"))),
            "--result-cache-max" => match value("--result-cache-max").parse() {
                Ok(bytes) => cfg.result_cache_max = Some(bytes),
                Err(_) => cli::user_error("--result-cache-max must be a byte count"),
            },
            "--peer" => cfg.peers.push(value("--peer")),
            "--backends" => {
                front.backends =
                    value("--backends").split(',').map(|s| s.trim().to_string()).collect();
            }
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file"))),
            "--allow-http-shutdown" => {
                cfg.allow_http_shutdown = true;
                front.allow_http_shutdown = true;
            }
            "--exit-on-parent-close" => exit_on_parent_close = true,
            _ => cli::usage_error(USAGE),
        }
    }

    install_signal_handlers();
    if exit_on_parent_close {
        drain_on_parent_close();
    }
    // Keep-alive fleets hold many fds open; the default soft limit (often
    // 1024) would cap the daemon far below its design point.
    let nofile_target = (cfg.max_conns.max(front.max_conns) as u64) + 512;
    grserve::poll::raise_nofile_limit(nofile_target);

    let role = if front_mode {
        if front.backends.is_empty() {
            cli::user_error("front mode requires --backends HOST:PORT,HOST:PORT,...");
        }
        match grserve::start_front(front) {
            Ok(handle) => Role::Front(handle),
            Err(e) => cli::user_error(&format!("failed to bind: {e}")),
        }
    } else {
        match grserve::start(cfg) {
            Ok(handle) => Role::Backend(handle),
            Err(e) => cli::user_error(&format!("failed to bind: {e}")),
        }
    };

    let addr = role.addr();
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
            role.begin_shutdown();
            break;
        }
        if role.is_drained() {
            break;
        }
    }
    role.join();
    eprintln!("grserved: drained, exiting");
}
