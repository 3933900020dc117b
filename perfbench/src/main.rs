//! `perfbench` — the measuring half of the repository benchmark.
//!
//! `run.py` (next to this package) builds this binary, generates fresh
//! processes and directories so every timed run starts cold, and folds the
//! numbers each subcommand prints into the benchmark's result line. Each
//! subcommand performs one measured pass over one workload, calling the
//! simulator's layers only through their public functions:
//!
//! ```text
//! perfbench sweep  --seed N [--trace] [--check N]     cold paper sweep
//! perfbench stream --seed N [--trace] [--check N]     cold frame-graph stream
//! perfbench serve  --seed N --addr HOST:PORT ...      open-loop client
//! perfbench serve-store --seed N --dir D ...          stored results
//! perfbench serve-trace --seed N ...                  in-process serve path
//! ```
//!
//! A subcommand prints `ready` on its own line when its set-up is done and
//! the timed work begins, then one JSON document when it ends. Every time
//! it reports is host wall time; every simulated quantity (misses, FPS,
//! row-hit rate) is an exact count used to check that a change left the
//! results alone.

mod inputs;
mod serve;
mod span;
mod stream;
mod sweep;

use std::collections::HashMap;
use std::io::Write;

use grjson::Json;

/// Parsed `--flag value` / `--flag` arguments.
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut raw = raw.peekable();
        while let Some(flag) = raw.next() {
            let key =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = match raw.peek() {
                Some(next) if !next.starts_with("--") => raw.next().expect("peeked"),
                _ => String::new(),
            };
            values.insert(key.to_string(), value);
        }
        Ok(Args { values })
    }

    /// `true` when `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The value of `--name`, or an error naming the missing flag.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.values.get(name).map(String::as_str).ok_or_else(|| format!("missing --{name}"))
    }

    /// The value of `--name` parsed as a number, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: not a number: {v:?}")),
        }
    }
}

/// Signals the parent that set-up is over and the timed work starts now.
pub fn ready() {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready").expect("stdout is writable");
    out.flush().expect("stdout is writable");
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprintln!("usage: perfbench sweep|stream|serve|serve-store|serve-trace --seed N [...]");
        std::process::exit(2);
    };
    let result = Args::parse(argv).and_then(|args| -> Result<Json, String> {
        match cmd.as_str() {
            "sweep" => sweep::run(&args),
            "stream" => stream::run(&args),
            "serve" => serve::client(&args),
            "serve-store" => serve::store(&args),
            "serve-trace" => serve::traced(&args),
            other => Err(format!("unknown subcommand {other:?}")),
        }
    });
    match result {
        Ok(doc) => println!("{}", doc.to_string_pretty()),
        Err(msg) => {
            eprintln!("perfbench {cmd}: {msg}");
            std::process::exit(1);
        }
    }
}
