//! Shared command-line exit conventions.
//!
//! Every binary in the workspace (`grsim`, `grserved`, `grart`, …) exits
//! through these helpers instead of ad-hoc `eprintln!` + `exit` sites, so
//! scripts and CI can rely on one stable contract:
//!
//! | code | meaning | helper |
//! |------|---------|--------|
//! | 0    | success | — |
//! | [`EXIT_USER_ERROR`] (1) | well-formed invocation referring to something that doesn't exist or can't be done (unknown policy/app, unreachable server, failed assertion) | [`user_error`] |
//! | [`EXIT_USAGE`] (2) | malformed invocation (missing/extra/unparseable arguments) | [`usage_error`] |
//!
//! The spawned-process tests in `tests/cli.rs` pin these codes.

/// Exit code for a well-formed invocation that names something unknown or
/// hits a runtime failure the user must fix (1).
pub const EXIT_USER_ERROR: i32 = 1;

/// Exit code for a malformed invocation (2).
pub const EXIT_USAGE: i32 = 2;

/// Prints `usage: {usage}` to stderr and exits with [`EXIT_USAGE`].
///
/// `usage` is the synopsis only — the helper adds the `usage: ` prefix so
/// every binary phrases it identically.
pub fn usage_error(usage: &str) -> ! {
    eprintln!("usage: {usage}");
    std::process::exit(EXIT_USAGE)
}

/// Prints `msg` to stderr and exits with [`EXIT_USER_ERROR`].
pub fn user_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(EXIT_USER_ERROR)
}

/// Prints `msg` to stderr and exits with `code` — for callers that need a
/// non-standard code while still funnelling through one exit site.
pub fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}
