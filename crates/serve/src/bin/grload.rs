//! `grload` — load generator and end-to-end smoke test for `grserved`.
//!
//! ```text
//! grload smoke (--spawn PATH | --url HOST:PORT) [--metrics-out FILE]
//! grload bench (--spawn PATH | --url HOST:PORT)
//!              [--connections N] [--rates R1,R2,...] [--duration-ms N]
//!              [--label NAME] [--out FILE] [--baseline FILE] [--tolerance F]
//! ```
//!
//! `smoke` drives a daemon through the full acceptance checklist:
//!
//! 1. submit → poll → fetch the raw result and compare it **byte for
//!    byte** against an offline [`grserve::execute`] run of the same spec
//!    (the shared replay/aggregation path used by the export tools), for
//!    an app grid covering plain, Belady-annotated and parameterized
//!    policies, for a frame-graph profile and, against a spawned daemon
//!    (which reads the same local files), for an imported `.gtrace` trace
//!    over a plain and an annotated policy. A spawned daemon fans each job
//!    over `GR_THREADS=4` workers while the offline run is serial, so the
//!    check also spans thread counts;
//! 2. resubmit the identical job and verify it is answered from the
//!    result cache (cache-hit counter up, execution counter unchanged);
//! 3. submit N identical jobs while the single worker is busy and verify
//!    they coalesce onto one execution;
//! 4. overflow the bounded queue and verify 429 + `Retry-After`;
//! 5. SIGTERM the daemon mid-flight and verify the drain: accepted jobs
//!    complete, new submissions get 503, the process exits 0 — and a
//!    final `/metrics` snapshot is written for CI artifacts.
//!
//! `bench` is an **open-loop** sustained load generator: it establishes
//! `--connections` keep-alive connections (one epoll client thread, the
//! mirror image of the server's event loop), then for each offered rate
//! sends requests on a fixed schedule, round-robin across connections,
//! regardless of how fast responses come back. Latency is measured from
//! the *scheduled* send time, so queueing delay under overload is part of
//! the number — closed-loop generators hide exactly that. Each rate
//! yields one saturation-curve point (offered vs achieved throughput,
//! p50/p95/p99/max); `--out` merges the curve into a JSON report under
//! `--label`, and `--baseline` + `--tolerance` gate normalized efficiency
//! (achieved/offered) against a committed baseline, exiting nonzero on
//! regression.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use grbench::{cli, RunOptions};
use grjson::Json;
use grserve::poll::{self, Epoll, EPOLLIN, EPOLLOUT};
use grserve::JobSpec;
use grsynth::Scale;
use gspc::registry;

const USAGE: &str = "grload smoke (--spawn PATH | --url HOST:PORT) [--metrics-out FILE]\n\
       grload bench (--spawn PATH | --url HOST:PORT) [--connections N] \
[--rates R1,R2,...] [--duration-ms N] [--label NAME] [--out FILE] [--baseline FILE] [--tolerance F]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("smoke") => smoke(&args[1..]),
        Some("bench") => bench(&args[1..]),
        _ => cli::usage_error(USAGE),
    }
}

// ---------------------------------------------------------------- HTTP client

/// Parsed response: status code, lowercased headers, body.
type HttpResponse = (u16, Vec<(String, String)>, String);

/// One `Connection: close` HTTP exchange; returns (status, headers, body).
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("read timeout");
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("read: {e}"))?;

    let (head, payload) = raw.split_once("\r\n\r\n").ok_or("response without header break")?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers, payload.to_string()))
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// Extracts the value of a Prometheus series (exact `name{labels}` match).
fn metric(exposition: &str, series: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(series).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| cli::user_error(&format!("metrics: no series {series:?}")))
}

// ------------------------------------------------------------- daemon spawning

/// A spawned daemon with its resolved address.
struct Daemon {
    child: Child,
    addr: String,
}

/// Spawns `grserved` with the given extra args and environment, waiting
/// for its port file.
fn spawn_daemon(binary: &str, extra: &[String], env: &[(&str, &str)]) -> Daemon {
    let port_file = std::env::temp_dir().join(format!("grload-port-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(binary)
        .args(extra)
        .args(["--port-file"])
        .arg(&port_file)
        .env("GR_SCALE", "tiny")
        .envs(env.iter().copied())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| cli::user_error(&format!("failed to spawn {binary}: {e}")));

    // The daemon writes HOST:PORT once bound; poll for it.
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if !addr.is_empty() {
                break addr;
            }
        }
        if Instant::now() > deadline {
            cli::user_error("daemon did not write its port file within 60s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);
    Daemon { child, addr }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn check(cond: bool, what: &str) {
    if cond {
        println!("grload: ok - {what}");
    } else {
        cli::user_error(&format!("FAILED - {what}"));
    }
}

/// POSTs a job and returns (status, response document, Retry-After).
fn submit(addr: &str, spec: &str) -> (u16, Json, Option<String>) {
    let (status, headers, body) =
        http(addr, "POST", "/v1/jobs", Some(spec)).unwrap_or_else(|e| cli::user_error(&e));
    let doc = Json::parse(&body)
        .unwrap_or_else(|e| cli::user_error(&format!("unparseable response {body:?}: {e}")));
    (status, doc, header(&headers, "retry-after").map(str::to_string))
}

/// Polls `GET /v1/jobs/{id}` until the job leaves the queue/run states.
fn await_done(addr: &str, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, _, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), None)
            .unwrap_or_else(|e| cli::user_error(&e));
        if status != 200 {
            cli::user_error(&format!("GET job {id}: status {status}: {body}"));
        }
        let doc = Json::parse(&body).expect("job status is JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => return doc,
            Some("failed") => cli::user_error(&format!("job {id} failed: {body}")),
            _ => {}
        }
        if Instant::now() > deadline {
            cli::user_error(&format!("job {id} did not finish within 300s"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn scrape(addr: &str) -> String {
    let (status, _, body) =
        http(addr, "GET", "/metrics", None).unwrap_or_else(|e| cli::user_error(&e));
    if status != 200 {
        cli::user_error(&format!("/metrics returned {status}"));
    }
    body
}

// ----------------------------------------------------------------- smoke test

/// Submits `body` as a fresh job, waits for it, and checks that the
/// served result bytes equal an offline [`grserve::execute`] of the same
/// canonical spec.
fn served_matches_offline(addr: &str, body: &str, what: &str) {
    let (status, doc, _) = submit(addr, body);
    check(status == 202, &format!("fresh {what} job accepted with 202"));
    let id = doc.get("id").and_then(Json::as_str).map(str::to_string).expect("job id");
    let status_doc = await_done(addr, &id);
    check(status_doc.get("state").and_then(Json::as_str) == Some("done"), "job reached done");
    let (status, _, served) =
        http(addr, "GET", &format!("/v1/jobs/{id}/result"), None).expect("fetch result");
    check(status == 200, "raw result fetch returns 200");
    let offline_spec = JobSpec::parse(body, Scale::Tiny).expect("spec parses offline");
    check(offline_spec.id() == id, "client and server agree on the canonical job id");
    let serial = RunOptions { threads: Some(1), ..RunOptions::from_env(&[]) };
    let offline = grserve::execute(&offline_spec, &serial);
    check(
        served == offline.payload,
        &format!("{what} payload is bit-identical to the offline run"),
    );
}

fn smoke(argv_tail: &[String]) {
    let mut spawn_path: Option<String> = None;
    let mut url: Option<String> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut argv = argv_tail.iter();
    while let Some(arg) = argv.next() {
        let mut value = || match argv.next() {
            Some(v) => v.clone(),
            None => cli::usage_error(USAGE),
        };
        match arg.as_str() {
            "--spawn" => spawn_path = Some(value()),
            "--url" => url = Some(value()),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value())),
            _ => cli::usage_error(USAGE),
        }
    }

    let daemon = match (&spawn_path, &url) {
        (Some(path), None) => Some(spawn_daemon(
            path,
            &args(&[
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--queue-cap",
                "2",
                "--linger-ms",
                "2500",
                "--allow-http-shutdown",
            ]),
            &[("GR_THREADS", "4")],
        )),
        (None, Some(_)) => None,
        _ => cli::usage_error(USAGE),
    };
    let addr = daemon.as_ref().map_or_else(|| url.clone().expect("url"), |d| d.addr.clone());
    println!("grload: smoke against http://{addr}");

    // Phase 1: correctness — the service answer must be bit-identical to
    // the offline execution of the same canonical spec: an app grid over
    // plain, Belady-annotated and parameterized policies, a frame-graph
    // profile and an imported trace.
    let first = |annotated: bool| {
        registry::ALL_POLICIES.iter().find(|e| e.needs_next_use() == annotated).map(|e| e.name)
    };
    let plain = first(false).expect("the registry has a plain policy");
    let annotated = first(true).expect("the registry has an annotated policy");
    let parameterized = registry::PARAMETERIZED[0].fuzz_spellings[0];
    let spec_body = format!(
        r#"{{"policies": ["DRRIP", "NRU", {annotated:?}, {parameterized:?}], "apps": ["HAWX"], "scale": "tiny"}}"#
    );
    served_matches_offline(&addr, &spec_body, "app-grid");
    let profile_body = format!(
        r#"{{"policies": [{annotated:?}, {parameterized:?}], "profile": "deferred", "scale": "tiny"}}"#
    );
    served_matches_offline(&addr, &profile_body, "profile");
    if daemon.is_some() {
        // A trace job names a daemon-local file: only a spawned daemon
        // shares this process's filesystem.
        let path = std::env::temp_dir().join(format!("grload-smoke-{}.gtrace", std::process::id()));
        let graph = grsynth::graph_profile("cpu-like").expect("builtin profile").graph();
        let trace = grsynth::Frames::from(&graph).render(0, Scale::Tiny).0;
        grtrace::io::write_atomic(&path, |w| grtrace::io::write(w, &trace))
            .unwrap_or_else(|e| cli::user_error(&format!("cannot write {}: {e}", path.display())));
        let path = path.to_str().unwrap_or_else(|| cli::user_error("temp dir is not UTF-8"));
        let path_json = Json::from(path).to_string_pretty();
        let trace_body = format!(
            r#"{{"policies": [{plain:?}, {annotated:?}], "trace": {path_json}, "scale": "tiny"}}"#
        );
        served_matches_offline(&addr, &trace_body, "trace");
        let _ = std::fs::remove_file(path);
    }

    // Phase 2: content-addressed caching — resubmission never re-executes.
    let before = scrape(&addr);
    let (status, doc, _) = submit(&addr, &spec_body);
    check(status == 200, "resubmission answered immediately with 200");
    check(doc.get("cached") == Some(&Json::Bool(true)), "resubmission flagged as cached");
    let after = scrape(&addr);
    check(
        metric(&after, "grserve_result_cache_hits_total{tier=\"memory\"}")
            == metric(&before, "grserve_result_cache_hits_total{tier=\"memory\"}") + 1,
        "memory-tier cache-hit counter incremented",
    );
    check(
        metric(&after, "grserve_executions_total") == metric(&before, "grserve_executions_total"),
        "cache hit started no new execution",
    );

    // Phase 3: coalescing. A heavy blocker occupies the single worker;
    // duplicate submissions of a second job must share one entry.
    let blocker = r#"{"policies": ["OPT", "DRRIP", "GSPC+UCD"], "frames": 3, "scale": "tiny"}"#;
    let (status, blocker_doc, _) = submit(&addr, blocker);
    check(status == 202, "blocker accepted");
    let blocker_id =
        blocker_doc.get("id").and_then(Json::as_str).map(str::to_string).expect("blocker id");

    let dup = r#"{"policies": ["NRU"], "apps": ["BioShock"], "frames": 2, "scale": "tiny"}"#;
    let mut dup_id = None;
    let mut coalesced = 0;
    for _ in 0..8 {
        let (status, doc, _) = submit(&addr, dup);
        check(status == 202 || status == 200, "duplicate submission accepted");
        let this_id = doc.get("id").and_then(Json::as_str).map(str::to_string).expect("dup id");
        if let Some(first) = &dup_id {
            check(*first == this_id, "duplicate submissions share one job id");
        } else {
            dup_id = Some(this_id);
        }
        if doc.get("coalesced") == Some(&Json::Bool(true)) {
            coalesced += 1;
        }
    }
    check(coalesced >= 7, "at least 7 of 8 duplicates coalesced onto the first");

    // Phase 4: admission control. The worker is busy and the queue holds
    // the duplicate job; distinct jobs must overflow the cap of 2 into 429.
    let mut overflow_ids = Vec::new();
    let mut saw_429 = false;
    for frames in 2..=5 {
        let body = format!(
            r#"{{"policies": ["NRU"], "apps": ["Dirt"], "frames": {frames}, "scale": "tiny"}}"#
        );
        let (status, doc, retry_after) = submit(&addr, &body);
        if status == 429 {
            check(retry_after.as_deref() == Some("1"), "429 carries Retry-After: 1");
            saw_429 = true;
            break;
        }
        check(status == 202, "pre-overflow submission queued");
        overflow_ids.push(doc.get("id").and_then(Json::as_str).unwrap().to_string());
    }
    check(saw_429, "bounded queue rejected overflow with 429");
    check(
        metric(&scrape(&addr), "grserve_jobs_rejected_total") >= 1,
        "rejection counter incremented",
    );

    // Let the backlog settle and confirm exactly one execution served all
    // eight duplicate submissions.
    let exec_before_wait = metric(&before, "grserve_executions_total");
    await_done(&addr, &blocker_id);
    let dup_id = dup_id.expect("dup id");
    await_done(&addr, &dup_id);
    for id in &overflow_ids {
        await_done(&addr, id);
    }
    let settled = scrape(&addr);
    check(
        metric(&settled, "grserve_executions_total")
            == exec_before_wait + 2 + overflow_ids.len() as u64,
        "eight duplicate submissions cost exactly one execution",
    );
    check(metric(&settled, "grserve_jobs_coalesced_total") >= 7, "coalesce counter incremented");

    // Phase 5: graceful drain. Queue one more job, then ask the daemon to
    // stop; the accepted job must complete, new work must be refused with
    // 503, and the process must exit cleanly.
    let parting = r#"{"policies": ["DRRIP"], "apps": ["AssnCreed"], "scale": "tiny"}"#;
    let (status, parting_doc, _) = submit(&addr, parting);
    check(status == 202, "parting job accepted before shutdown");
    let parting_id =
        parting_doc.get("id").and_then(Json::as_str).map(str::to_string).expect("parting id");

    match &daemon {
        Some(d) => terminate(d),
        None => {
            let (status, _, _) =
                http(&addr, "POST", "/v1/shutdown", Some("")).expect("shutdown request");
            check(status == 200, "http shutdown accepted");
        }
    }

    // The drain flag is set by the daemon's signal poll loop; retry until
    // a fresh submission observes 503.
    let mut saw_503 = false;
    for frames in 2..26 {
        let body = format!(
            r#"{{"policies": ["NRU"], "apps": ["DMC"], "frames": {frames}, "scale": "tiny"}}"#
        );
        let (status, _, _) = submit(&addr, &body);
        if status == 503 {
            saw_503 = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    check(saw_503, "draining server refuses new jobs with 503");

    let parting_status = await_done(&addr, &parting_id);
    check(
        parting_status.get("state").and_then(Json::as_str) == Some("done"),
        "job accepted before shutdown completed during the drain",
    );

    let final_metrics = scrape(&addr);
    if let Some(path) = &metrics_out {
        std::fs::write(path, &final_metrics)
            .unwrap_or_else(|e| cli::user_error(&format!("write {}: {e}", path.display())));
        println!("grload: metrics snapshot written to {}", path.display());
    }

    if let Some(mut d) = daemon {
        let status =
            d.child.wait().unwrap_or_else(|e| cli::user_error(&format!("waiting for daemon: {e}")));
        check(status.success(), "daemon exited 0 after the drain");
    }
    println!("grload: smoke passed");
}

/// Sends SIGTERM on unix; falls back to the HTTP shutdown endpoint.
fn terminate(daemon: &Daemon) {
    #[cfg(unix)]
    {
        let status = Command::new("kill")
            .args(["-TERM", &daemon.child.id().to_string()])
            .status()
            .expect("spawn kill");
        check(status.success(), "SIGTERM delivered to daemon");
    }
    #[cfg(not(unix))]
    {
        let (status, _, _) =
            http(&daemon.addr, "POST", "/v1/shutdown", Some("")).expect("shutdown request");
        check(status == 200, "http shutdown accepted");
    }
}

// ------------------------------------------------------------------ benchmark

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One keep-alive connection of the open-loop generator.
struct BenchConn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// Scheduled send times of requests awaiting a response (FIFO —
    /// pipelined responses come back in request order).
    inflight: VecDeque<Instant>,
    inbuf: Vec<u8>,
    /// Current epoll interest.
    registered: u32,
    dead: bool,
}

/// Tries to pop one complete HTTP response off the front of `data`,
/// returning (status, consumed bytes).
fn parse_response(data: &[u8]) -> Option<(u16, usize)> {
    let head_end = data.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&data[..head_end]).ok()?;
    let status: u16 = head.lines().next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let total = head_end + 4 + content_length;
    if data.len() < total {
        return None;
    }
    Some((status, total))
}

/// One saturation-curve point.
struct BenchPoint {
    offered_rps: f64,
    achieved_rps: f64,
    p50: Duration,
    p95: Duration,
    p99: Duration,
    max: Duration,
    completed: usize,
    errors: usize,
}

fn bench(argv_tail: &[String]) {
    let mut url: Option<String> = None;
    let mut spawn_path: Option<String> = None;
    let mut connections = 256usize;
    let mut rates: Vec<f64> = vec![250.0, 500.0, 1000.0, 2000.0, 4000.0];
    let mut duration = Duration::from_millis(2000);
    let mut label = "single".to_string();
    let mut out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut tolerance = 0.25f64;

    let mut argv = argv_tail.iter();
    while let Some(arg) = argv.next() {
        let mut value = || match argv.next() {
            Some(v) => v.clone(),
            None => cli::usage_error(USAGE),
        };
        match arg.as_str() {
            "--url" => url = Some(value()),
            "--spawn" => spawn_path = Some(value()),
            "--connections" => {
                connections = value().parse().unwrap_or_else(|_| cli::usage_error(USAGE));
            }
            "--rates" => {
                rates = value()
                    .split(',')
                    .map(|r| r.trim().parse().unwrap_or_else(|_| cli::usage_error(USAGE)))
                    .collect();
            }
            "--duration-ms" => {
                duration = Duration::from_millis(
                    value().parse().unwrap_or_else(|_| cli::usage_error(USAGE)),
                );
            }
            "--label" => label = value(),
            "--out" => out = Some(PathBuf::from(value())),
            "--baseline" => baseline = Some(PathBuf::from(value())),
            "--tolerance" => {
                tolerance = value().parse().unwrap_or_else(|_| cli::usage_error(USAGE));
            }
            _ => cli::usage_error(USAGE),
        }
    }
    if connections == 0 || rates.is_empty() {
        cli::user_error("--connections and --rates must be positive");
    }

    // Spawn the target daemon if asked.
    let mut spawned = match (&spawn_path, &url) {
        (Some(binary), None) => Some(spawn_daemon(
            binary,
            &args(&[
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--queue-cap",
                "64",
                "--linger-ms",
                "4000",
                "--allow-http-shutdown",
            ]),
            &[],
        )),
        (None, Some(_)) => None,
        _ => cli::usage_error(USAGE),
    };
    let addr = spawned.as_ref().map_or_else(|| url.clone().expect("url"), |d| d.addr.clone());

    // Warm the result cache once so the loop measures the serving path,
    // not replay throughput.
    let body = r#"{"policies": ["NRU"], "apps": ["HAWX"], "scale": "tiny"}"#;
    let (_, doc, _) = submit(&addr, body);
    if let Some(id) = doc.get("id").and_then(Json::as_str) {
        await_done(&addr, id);
    }
    let request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();

    // Establish the keep-alive connections. Batched so the accept
    // backlog never overflows; each batch gives the event loop a beat to
    // drain it.
    poll::raise_nofile_limit(connections as u64 + 256);
    let mut epoll = Epoll::new().expect("epoll");
    let mut conns: Vec<BenchConn> = Vec::with_capacity(connections);
    for batch in 0.. {
        if conns.len() >= connections {
            break;
        }
        let end = (batch + 1) * 100;
        while conns.len() < connections.min(end) {
            let stream = connect_with_retry(&addr);
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking");
            epoll.add(stream.as_raw_fd(), conns.len() as u64, EPOLLIN).expect("epoll add");
            conns.push(BenchConn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                inflight: VecDeque::new(),
                inbuf: Vec::new(),
                registered: EPOLLIN,
                dead: false,
            });
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    println!(
        "grload bench: {} keep-alive connections established against http://{addr}",
        conns.len()
    );

    let mut points = Vec::new();
    for &rate in &rates {
        let point = run_point(&mut epoll, &mut conns, &request, rate, duration);
        println!(
            "  offered {:>7.0} rps │ achieved {:>7.0} rps │ p50 {:>8.3} ms │ p95 {:>8.3} ms │ \
             p99 {:>8.3} ms │ max {:>8.3} ms │ {} ok, {} errors",
            point.offered_rps,
            point.achieved_rps,
            point.p50.as_secs_f64() * 1e3,
            point.p95.as_secs_f64() * 1e3,
            point.p99.as_secs_f64() * 1e3,
            point.max.as_secs_f64() * 1e3,
            point.completed,
            point.errors,
        );
        points.push(point);
    }
    drop(conns);

    if let Some(path) = &out {
        write_report(path, &label, connections, duration, &points);
        println!("grload bench: curve '{label}' written to {}", path.display());
    }

    // Shut the spawned daemon down before gating, so a gate failure still
    // leaves no stray daemon behind.
    if let Some(daemon) = &mut spawned {
        let _ = http(&daemon.addr, "POST", "/v1/shutdown", Some(""));
        let status = daemon.child.wait().expect("daemon exit");
        check(status.success(), "spawned daemon exited 0 after the drain");
    }

    if let Some(path) = &baseline {
        gate_against_baseline(path, &label, &points, tolerance);
    }
}

fn connect_with_retry(addr: &str) -> TcpStream {
    for attempt in 0..50 {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(_) if attempt < 49 => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => cli::user_error(&format!("connect {addr}: {e}")),
        }
    }
    unreachable!()
}

/// Accumulates completions for one bench point.
struct Recorder {
    latencies: Vec<Duration>,
    completed: usize,
    errors: usize,
    last_completion: Instant,
}

impl Recorder {
    /// Records one response; latency runs from the *scheduled* send time,
    /// so queueing delay under overload is included.
    fn record(&mut self, status: u16, scheduled: Instant) {
        let now = Instant::now();
        self.latencies.push(now.saturating_duration_since(scheduled));
        self.last_completion = now;
        if status == 200 || status == 202 {
            self.completed += 1;
        } else {
            self.errors += 1;
        }
    }
}

/// Runs one open-loop point: `rate` requests/second for `duration`,
/// scheduled on a fixed grid, round-robin across connections.
fn run_point(
    epoll: &mut Epoll,
    conns: &mut [BenchConn],
    request: &[u8],
    rate: f64,
    duration: Duration,
) -> BenchPoint {
    let total = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let started = Instant::now();
    let drain_deadline = started + duration + Duration::from_secs(10);

    let mut sent = 0usize;
    let mut rec = Recorder {
        latencies: Vec::with_capacity(total),
        completed: 0,
        errors: 0,
        last_completion: started,
    };
    let mut rr = 0usize;
    let mut events: Vec<(u64, u32)> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];

    while rec.completed + rec.errors < total {
        let now = Instant::now();
        if now > drain_deadline {
            // Stragglers: count every response still owed as an error.
            rec.errors += conns.iter().map(|c| c.inflight.len()).sum::<usize>();
            for conn in conns.iter_mut() {
                conn.inflight.clear();
            }
            break;
        }

        // Send every request whose scheduled time has arrived, regardless
        // of response progress — the open-loop property. Only the
        // connection just written to is serviced, never a full scan: at
        // 10k connections a per-iteration sweep would melt the generator,
        // not the server.
        while sent < total {
            let scheduled = started + interval.mul_f64(sent as f64);
            if scheduled > now {
                break;
            }
            // Skip dead connections; their requests count as errors.
            let mut placed = None;
            for _ in 0..conns.len() {
                let index = rr % conns.len();
                rr += 1;
                if conns[index].dead {
                    continue;
                }
                conns[index].out.extend_from_slice(request);
                conns[index].inflight.push_back(scheduled);
                placed = Some(index);
                break;
            }
            match placed {
                Some(index) => service_bench_conn(epoll, conns, index, &mut buf, &mut rec),
                None => cli::user_error("bench: every connection died"),
            }
            sent += 1;
        }

        // Sleep until the next scheduled send or a readiness event.
        let timeout_ms = if sent < total {
            let next = started + interval.mul_f64(sent as f64);
            (next.saturating_duration_since(Instant::now()).as_millis() as i64).clamp(0, 10) as i32
        } else {
            10
        };
        events.clear();
        epoll.wait(&mut events, timeout_ms).expect("epoll wait");
        for &(token, _) in &events {
            service_bench_conn(epoll, conns, token as usize, &mut buf, &mut rec);
        }
    }

    rec.latencies.sort_unstable();
    let wall = rec.last_completion.saturating_duration_since(started).max(duration);
    BenchPoint {
        offered_rps: rate,
        achieved_rps: rec.completed as f64 / wall.as_secs_f64(),
        p50: percentile(&rec.latencies, 0.50),
        p95: percentile(&rec.latencies, 0.95),
        p99: percentile(&rec.latencies, 0.99),
        max: rec.latencies.last().copied().unwrap_or_default(),
        completed: rec.completed,
        errors: rec.errors,
    }
}

/// Writes and reads one bench connection as far as the socket allows,
/// invoking `on_response(status, scheduled_send_time)` per completed
/// response.
fn service_bench_conn(
    epoll: &mut Epoll,
    conns: &mut [BenchConn],
    index: usize,
    buf: &mut [u8],
    rec: &mut Recorder,
) {
    let conn = &mut conns[index];
    if conn.dead {
        return;
    }

    // Write side.
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                kill_bench_conn(epoll, conn, rec);
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                kill_bench_conn(epoll, conn, rec);
                return;
            }
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }

    // Read side.
    loop {
        match conn.stream.read(buf) {
            Ok(0) => {
                kill_bench_conn(epoll, conn, rec);
                return;
            }
            Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                kill_bench_conn(epoll, conn, rec);
                return;
            }
        }
    }
    let mut start = 0usize;
    while let Some((status, consumed)) = parse_response(&conn.inbuf[start..]) {
        let scheduled = conn
            .inflight
            .pop_front()
            .unwrap_or_else(|| cli::user_error("bench: response without a matching request"));
        rec.record(status, scheduled);
        start += consumed;
    }
    if start > 0 {
        conn.inbuf.drain(..start);
    }

    // Interest: always reads; writes only while output is pending.
    let want = if conn.out_pos < conn.out.len() { EPOLLIN | EPOLLOUT } else { EPOLLIN };
    if want != conn.registered && epoll.rearm(conn.stream.as_raw_fd(), index as u64, want).is_ok() {
        conn.registered = want;
    }
}

/// Marks a connection dead, counting every response it still owed as an
/// error (status 0).
fn kill_bench_conn(epoll: &mut Epoll, conn: &mut BenchConn, rec: &mut Recorder) {
    conn.dead = true;
    let _ = epoll.remove(conn.stream.as_raw_fd());
    while let Some(scheduled) = conn.inflight.pop_front() {
        rec.record(0, scheduled);
    }
}

// ------------------------------------------------------------- bench reporting

/// Merges this run's curve into the report file under `label`,
/// preserving any other labels already present.
fn write_report(
    path: &PathBuf,
    label: &str,
    connections: usize,
    duration: Duration,
    points: &[BenchPoint],
) {
    let mut point_docs = Vec::new();
    for p in points {
        let mut doc = Json::obj();
        doc.set("offered_rps", p.offered_rps)
            .set("achieved_rps", p.achieved_rps)
            .set("p50_ms", p.p50.as_secs_f64() * 1e3)
            .set("p95_ms", p.p95.as_secs_f64() * 1e3)
            .set("p99_ms", p.p99.as_secs_f64() * 1e3)
            .set("max_ms", p.max.as_secs_f64() * 1e3)
            .set("completed", p.completed as u64)
            .set("errors", p.errors as u64);
        point_docs.push(doc);
    }
    let mut config = Json::obj();
    config
        .set("connections", connections as u64)
        .set("duration_ms", duration.as_millis() as u64)
        .set("points", Json::Arr(point_docs));

    // Preserve other labels from an existing report.
    let mut configs = Json::obj();
    if let Ok(existing) = std::fs::read_to_string(path) {
        if let Ok(doc) = Json::parse(&existing) {
            if let Some(entries) = doc.get("configs").and_then(Json::entries) {
                for (key, value) in entries {
                    if key != label {
                        configs.set(key.clone(), value.clone());
                    }
                }
            }
        }
    }
    configs.set(label, config);
    let mut report = Json::obj();
    report
        .set("benchmark", "grserved sustained open-loop saturation")
        .set("scale", "tiny")
        .set("configs", configs);
    std::fs::write(path, report.to_string_pretty() + "\n")
        .unwrap_or_else(|e| cli::user_error(&format!("write {}: {e}", path.display())));
}

/// Gates normalized efficiency (achieved/offered) per point against the
/// committed baseline: a relative drop beyond `tolerance` fails the run.
/// Absolute latency is deliberately not gated — it varies with host — but
/// efficiency below 1.0 means the server fell behind the offered load,
/// which is host-comparable at rates below saturation.
fn gate_against_baseline(path: &PathBuf, label: &str, points: &[BenchPoint], tolerance: f64) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => {
            println!("grload bench: no baseline at {} — gate skipped", path.display());
            return;
        }
    };
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| cli::user_error(&format!("unparseable baseline: {e}")));
    let Some(Json::Arr(base_points)) =
        doc.get("configs").and_then(|c| c.get(label)).and_then(|c| c.get("points")).cloned()
    else {
        println!("grload bench: baseline has no '{label}' curve — gate skipped");
        return;
    };

    let mut failed = false;
    for p in points {
        let base = base_points.iter().find(|b| {
            b.get("offered_rps")
                .and_then(Json::as_f64)
                .is_some_and(|r| (r - p.offered_rps).abs() < 1e-6)
        });
        let Some(base) = base else {
            println!(
                "grload bench: offered {} rps not in baseline '{label}' — point skipped",
                p.offered_rps
            );
            continue;
        };
        let base_eff = base
            .get("achieved_rps")
            .and_then(Json::as_f64)
            .map(|a| a / p.offered_rps)
            .unwrap_or(0.0);
        let eff = p.achieved_rps / p.offered_rps;
        let floor = base_eff * (1.0 - tolerance);
        let verdict = if eff + 1e-9 < floor {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "  gate {label} @ {:>7.0} rps: efficiency {eff:.3} vs baseline {base_eff:.3} \
             (floor {floor:.3}) — {verdict}",
            p.offered_rps
        );
    }
    if failed {
        cli::user_error(&format!(
            "bench regression: efficiency dropped more than {:.0}% below the baseline",
            tolerance * 100.0
        ));
    }
    println!("grload bench: no regression beyond {:.0}% tolerance", tolerance * 100.0);
}
