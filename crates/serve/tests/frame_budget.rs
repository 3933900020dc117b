//! The serving path's frame retention is bounded by
//! `grserve::FRAME_CACHE_BUDGET`: a long run of frame-graph jobs at fresh
//! coherences (frames no later job reads) keeps the pinned frame bytes at
//! or under the budget, as `framecache` and `/metrics` both report, lets
//! the oldest of those frames go, and keeps the app frames a client keeps
//! replaying: `/metrics` counts two frames rendered per two-frame graph
//! job and none for a replay job on the warm app frames. Eviction changes
//! no payload byte.
//!
//! One test in its own process: the frame cache is process-wide.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use grbench::{framecache, RunOptions};
use grjson::Json;
use grserve::{JobSpec, ServerConfig, FRAME_CACHE_BUDGET};
use grsynth::{AppProfile, Scale, GRAPH_PROFILES};
use gspc::registry;

/// The daemon's default scale, where the budget is sized.
const SCALE: Scale = Scale::Quarter;
/// Frame-graph jobs per replay job.
const SYNTHS_PER_REPLAY: usize = 4;
/// Replay rounds; 32 two-frame graph jobs pin well over the budget.
const ROUNDS: usize = 8;
/// The apps every replay job reads (frame 0 each).
const APPS: [&str; 2] = ["BioShock", "HAWX"];

/// One `Connection: close` exchange; returns the status and the body.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header break");
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    (status, payload.to_string())
}

/// Submits `spec`, waits for it, and returns the served result bytes.
fn run_job(addr: &str, spec: &str) -> String {
    let (status, body) = http(addr, "POST", "/v1/jobs", spec);
    assert_eq!(status, 202, "{spec}: {body}");
    let doc = Json::parse(&body).expect("submit JSON");
    let id = doc.get("id").and_then(Json::as_str).expect("id").to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        let doc = Json::parse(&body).expect("status JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") => panic!("{spec} failed: {body}"),
            _ => assert!(Instant::now() < deadline, "{spec} never finished"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, payload) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    assert_eq!(status, 200);
    payload
}

fn metric(addr: &str, series: &str) -> u64 {
    let (_, body) = http(addr, "GET", "/metrics", "");
    body.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no series {series:?} in:\n{body}"))
}

/// Graph job `n`: profile `n` mod 5 at a coherence no other job uses.
fn synth_spec(n: usize) -> (String, usize, f64) {
    let profile = n % GRAPH_PROFILES.len();
    let coherence = (100 + 7 * n) as f64 / 1000.0;
    let spec = format!(
        r#"{{"profile": "{}", "coherence": {coherence}, "frames": 2, "policies": ["DRRIP"]}}"#,
        GRAPH_PROFILES[profile].name
    );
    (spec, profile, coherence)
}

/// Replay job `n`: the apps' frame 0 under a fresh plain policy or size.
fn replay_spec(n: usize) -> String {
    let plain: Vec<&str> =
        registry::ALL_POLICIES.iter().filter(|e| !e.needs_next_use()).map(|e| e.name).collect();
    let (policy, llc_mb) = (plain[n % plain.len()], [8, 16, 4][n / plain.len() % 3]);
    format!(r#"{{"apps": {APPS:?}, "frames": 1, "policies": ["{policy}"], "llc_mb": {llc_mb}}}"#)
}

/// Whether both frames of graph job `n` are resident.
fn synth_resident(n: usize) -> bool {
    let (_, profile, coherence) = synth_spec(n);
    let graph = GRAPH_PROFILES[profile].graph_with_coherence(coherence);
    (0..2).all(|f| framecache::resident(&graph, f, SCALE).is_some())
}

fn apps_resident() -> bool {
    APPS.iter().all(|a| {
        let app = AppProfile::by_abbrev(a).expect("Table 1 app");
        framecache::resident(&app, 0, SCALE).is_some()
    })
}

#[test]
fn synth_churn_stays_within_the_budget_and_keeps_the_replayed_app_frames() {
    let server = grserve::start(ServerConfig {
        workers: 1,
        default_scale: SCALE,
        result_cache_dir: None,
        linger: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr().to_string();

    let mut served = Vec::new();
    let within_budget = |after: &str| {
        let pinned = framecache::pinned_bytes();
        assert!(pinned <= FRAME_CACHE_BUDGET, "{pinned} pinned bytes after {after}");
        let gauge = metric(&addr, "grserve_frame_cache_bytes");
        assert!(gauge <= FRAME_CACHE_BUDGET, "/metrics reads {gauge} bytes after {after}");
    };
    let rendered = || metric(&addr, "grserve_frames_rendered_total");
    for round in 0..ROUNDS {
        for i in 0..SYNTHS_PER_REPLAY {
            let (spec, ..) = synth_spec(round * SYNTHS_PER_REPLAY + i);
            let before = rendered();
            served.push((spec.clone(), run_job(&addr, &spec)));
            assert_eq!(rendered() - before, 2, "{spec} did not render its two frames");
            within_budget(&spec);
        }
        let spec = replay_spec(round);
        let before = rendered();
        served.push((spec.clone(), run_job(&addr, &spec)));
        // The first replay renders the app frames; the rest find them warm.
        let cold = if round == 0 { APPS.len() as u64 } else { 0 };
        assert_eq!(rendered() - before, cold, "{spec} rendered the wrong frame count");
        within_budget(&spec);
    }
    let synths = ROUNDS * SYNTHS_PER_REPLAY;
    assert!(metric(&addr, "grserve_frame_cache_evictions_total") > 0, "nothing was evicted");
    assert!(apps_resident(), "the replayed app frames did not survive the churn");
    assert!(synth_resident(synths - 1), "the newest graph frames were evicted");
    assert!(!synth_resident(0), "the oldest graph frames outlived the budget");
    server.shutdown_and_join();

    // The same jobs with every frame kept: byte for byte the same payloads.
    let _unbounded = framecache::hold();
    let base = RunOptions::misses(&[]);
    for (body, bytes) in &served {
        let spec = JobSpec::parse(body, SCALE).expect("valid spec");
        assert_eq!(&grserve::execute(&spec, &base).payload, bytes, "{body}");
    }
    assert!(framecache::pinned_bytes() > FRAME_CACHE_BUDGET, "the unbounded run kept less");
}
