//! In-process integration tests for the serving layer: real TCP sockets
//! and the full routing/queue/worker machinery, with two kinds of
//! executor behind it — the real replay path for end-to-end payload
//! checks, and an injected *gated* executor that blocks until released,
//! which makes coalescing, queue-overflow, and drain scenarios
//! deterministic instead of timing-dependent.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use grbench::RunOptions;
use grjson::Json;
use grserve::{JobOutput, JobSpec, ServerConfig, ServerHandle};
use grsynth::Scale;

// ------------------------------------------------------------ test utilities

/// One `Connection: close` HTTP exchange against a test server.
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header break");
    let status =
        head.lines().next().and_then(|l| l.split_whitespace().nth(1)).expect("status line");
    (status.parse().expect("numeric status"), head.to_string(), payload.to_string())
}

fn post_job(addr: &str, spec: &str) -> (u16, Json) {
    let (status, _, body) = http(addr, "POST", "/v1/jobs", Some(spec));
    (status, Json::parse(&body).expect("JSON response"))
}

fn await_done(addr: &str, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, _, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "job poll: {body}");
        let doc = Json::parse(&body).expect("status JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => return doc,
            Some("failed") => panic!("job failed: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn metric(addr: &str, series: &str) -> u64 {
    let (status, _, body) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    body.lines()
        .find_map(|line| line.strip_prefix(series).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| panic!("no series {series:?} in:\n{body}"))
}

/// A gate the injected executor blocks on, plus an invocation counter.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    invocations: AtomicU64,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
            invocations: AtomicU64::new(0),
        })
    }

    fn release(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.cv.notify_all();
    }
}

/// A server whose executor blocks on `gate` and returns a tiny synthetic
/// payload; never touches the replay path.
fn gated_server(workers: usize, queue_cap: usize, gate: &Arc<Gate>) -> ServerHandle {
    let gate = Arc::clone(gate);
    let cfg = ServerConfig {
        workers,
        queue_cap,
        default_scale: Scale::Tiny,
        result_cache_dir: None,
        linger: Duration::from_millis(500),
        executor: Some(Arc::new(move |spec: &JobSpec| {
            gate.invocations.fetch_add(1, Ordering::SeqCst);
            let mut open = gate.open.lock().expect("gate lock");
            while !*open {
                open = gate.cv.wait(open).expect("gate lock");
            }
            let mut doc = Json::obj();
            doc.set("id", spec.id());
            Ok(JobOutput { payload: doc.to_string_pretty(), accesses: 7, replay_seconds: 0.0 })
        })),
        ..ServerConfig::default()
    };
    grserve::start(cfg).expect("server start")
}

fn tiny_server() -> ServerHandle {
    let cfg = ServerConfig {
        workers: 2,
        default_scale: Scale::Tiny,
        result_cache_dir: None,
        linger: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    grserve::start(cfg).expect("server start")
}

/// A unique temp dir without any randomness source.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("grserve-it-{}-{tag}-{n}", std::process::id()))
}

// ------------------------------------------------------------------ the tests

/// Submit → poll → raw result, and the served bytes equal an offline
/// execution of the same spec — through the real replay path.
#[test]
fn served_payload_is_bit_identical_to_offline_execution() {
    let server = tiny_server();
    let addr = server.addr().to_string();

    let body = r#"{"policies": ["NRU"], "apps": ["HAWX"], "scale": "tiny"}"#;
    let (status, doc) = post_job(&addr, body);
    assert_eq!(status, 202, "{doc:?}");
    let id = doc.get("id").and_then(Json::as_str).expect("id").to_string();

    let status_doc = await_done(&addr, &id);
    assert_eq!(status_doc.get("cached"), Some(&Json::Bool(false)));

    let (status, _, served) = http(&addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200);
    let spec = JobSpec::parse(body, Scale::Tiny).expect("spec");
    assert_eq!(spec.id(), id, "client-side and server-side canonical ids agree");
    let offline = grserve::execute(&spec, &RunOptions::from_env(&[]));
    assert_eq!(served, offline.payload, "served bytes differ from offline execution");

    server.shutdown_and_join();
}

/// A frame-graph profile job served over HTTP equals its offline
/// execution bit for bit, and the canonical `profile` field shapes the id.
#[test]
fn served_profile_job_is_bit_identical_to_offline_execution() {
    let server = tiny_server();
    let addr = server.addr().to_string();

    let body = r#"{"policies": ["DRRIP"], "profile": "postfx", "coherence": 0.5, "scale": "tiny"}"#;
    let (status, doc) = post_job(&addr, body);
    assert_eq!(status, 202, "{doc:?}");
    let id = doc.get("id").and_then(Json::as_str).expect("id").to_string();
    await_done(&addr, &id);

    let (status, _, served) = http(&addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200);
    let spec = JobSpec::parse(body, Scale::Tiny).expect("spec");
    assert_eq!(spec.id(), id);
    assert_eq!(spec.coherence_milli, Some(500));
    let offline = grserve::execute(&spec, &RunOptions::from_env(&[]));
    assert_eq!(served, offline.payload, "served profile bytes differ from offline execution");

    server.shutdown_and_join();
}

/// An imported `.gtrace` job served over HTTP equals its offline
/// execution bit for bit; a malformed trace file is rejected at submit
/// time with a 400, never reaching a worker.
#[test]
fn served_trace_job_is_bit_identical_to_offline_execution() {
    let dir = temp_dir("trace-job");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("import.gtrace");
    let graph = grsynth::graph_profile("cpu-like").expect("builtin").graph();
    let trace = grsynth::Frames::from(&graph).render(0, Scale::Tiny).0;
    let file = std::fs::File::create(&path).expect("create trace file");
    let mut writer = std::io::BufWriter::new(file);
    grtrace::io::write(&mut writer, &trace).expect("write trace");
    Write::flush(&mut writer).expect("flush trace");

    let server = tiny_server();
    let addr = server.addr().to_string();

    let body = format!(
        r#"{{"policies": ["DRRIP", "GSPC"], "trace": {:?}, "scale": "tiny"}}"#,
        path.to_str().expect("utf8 path")
    );
    let (status, doc) = post_job(&addr, &body);
    assert_eq!(status, 202, "{doc:?}");
    let id = doc.get("id").and_then(Json::as_str).expect("id").to_string();
    await_done(&addr, &id);

    let (status, _, served) = http(&addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(status, 200);
    let spec = JobSpec::parse(&body, Scale::Tiny).expect("spec");
    assert_eq!(spec.id(), id);
    let offline = grserve::execute(&spec, &RunOptions::from_env(&[]));
    assert_eq!(served, offline.payload, "served trace bytes differ from offline execution");

    // Malformed file: typed import error surfaces as a 400 at submit.
    let bad = dir.join("bad.gtrace");
    std::fs::write(&bad, b"XXXXgarbage").expect("write bad file");
    let body = format!(r#"{{"policies": ["NRU"], "trace": {:?}}}"#, bad.to_str().unwrap());
    let (status, doc) = post_job(&addr, &body);
    assert_eq!(status, 400, "{doc:?}");
    let err = doc.get("error").and_then(Json::as_str).expect("error body");
    assert!(err.contains("cannot import trace"), "error {err:?}");

    server.shutdown_and_join();
}

/// A trace file rewritten between submit and execute fails the job with
/// the default executor's typed message, reported by `GET /v1/jobs/{id}`,
/// instead of the untyped "execution panicked". The gate holds the worker
/// until the file has changed.
#[test]
fn trace_changed_after_submit_fails_with_typed_error() {
    let dir = temp_dir("changed-trace");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("changed.gtrace");
    let graph = grsynth::graph_profile("cpu-like").expect("builtin").graph();
    let write = |frame: u32| {
        let trace = grsynth::Frames::from(&graph).render(frame, Scale::Tiny).0;
        let mut bytes = Vec::new();
        grtrace::io::write(&mut bytes, &trace).expect("encode trace");
        std::fs::write(&path, bytes).expect("write trace file");
    };
    write(0);

    let gate = Gate::new();
    let held = Arc::clone(&gate);
    let execute = grserve::default_executor(RunOptions::from_env(&[]));
    let server = grserve::start(ServerConfig {
        workers: 1,
        default_scale: Scale::Tiny,
        result_cache_dir: None,
        linger: Duration::from_millis(500),
        executor: Some(Arc::new(move |spec: &JobSpec| {
            let mut open = held.open.lock().expect("gate lock");
            while !*open {
                open = held.cv.wait(open).expect("gate lock");
            }
            drop(open);
            execute(spec)
        })),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr().to_string();

    let policy = gspc::registry::ALL_POLICIES[0].name;
    let body = format!(r#"{{"policies": [{policy:?}], "trace": {:?}}}"#, path.to_str().unwrap());
    let (status, doc) = post_job(&addr, &body);
    assert_eq!(status, 202, "{doc:?}");
    let id = doc.get("id").and_then(Json::as_str).expect("id").to_string();
    write(1);
    gate.release();

    let deadline = Instant::now() + Duration::from_secs(60);
    let doc = loop {
        let (status, _, body) = http(&addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "job poll: {body}");
        let doc = Json::parse(&body).expect("status JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("failed") => break doc,
            Some("done") => panic!("a changed trace file must not produce a result: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    };
    let want = format!("trace file {} changed between submit and execute", path.display());
    assert_eq!(doc.get("error").and_then(Json::as_str), Some(want.as_str()));
    assert_eq!(metric(&addr, "grserve_jobs_failed_total"), 1);

    server.shutdown_and_join();
}

/// A completed job resubmitted is answered from the result cache: no new
/// execution, cache-hit counter up, `cached: true`.
#[test]
fn resubmission_is_served_from_the_result_cache() {
    let gate = Gate::new();
    gate.release();
    let server = gated_server(1, 8, &gate);
    let addr = server.addr().to_string();

    let body = r#"{"policies": ["NRU"], "apps": ["HAWX"]}"#;
    let (status, doc) = post_job(&addr, body);
    assert_eq!(status, 202);
    let id = doc.get("id").and_then(Json::as_str).expect("id").to_string();
    await_done(&addr, &id);
    assert_eq!(gate.invocations.load(Ordering::SeqCst), 1);

    let hits_before = metric(&addr, "grserve_result_cache_hits_total{tier=\"memory\"}");
    let (status, doc) = post_job(&addr, body);
    assert_eq!(status, 200);
    assert_eq!(doc.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(metric(&addr, "grserve_result_cache_hits_total{tier=\"memory\"}"), hits_before + 1);
    assert_eq!(gate.invocations.load(Ordering::SeqCst), 1, "cache hit must not re-execute");

    server.shutdown_and_join();
}

/// Identical concurrent submissions share one job entry and one
/// execution — held deterministic by gating the single worker.
#[test]
fn concurrent_identical_submissions_coalesce() {
    let gate = Gate::new();
    let server = gated_server(1, 8, &gate);
    let addr = server.addr().to_string();

    let body = r#"{"policies": ["DRRIP"], "apps": ["BioShock"]}"#;
    let (status, first) = post_job(&addr, body);
    assert_eq!(status, 202);
    let id = first.get("id").and_then(Json::as_str).expect("id").to_string();

    // The worker is now blocked inside the execution; every duplicate
    // must coalesce instead of queueing.
    let mut coalesced = 0;
    for _ in 0..6 {
        let (status, doc) = post_job(&addr, body);
        assert_eq!(status, 200);
        assert_eq!(doc.get("id").and_then(Json::as_str), Some(id.as_str()));
        if doc.get("coalesced") == Some(&Json::Bool(true)) {
            coalesced += 1;
        }
    }
    assert_eq!(coalesced, 6, "every duplicate must report coalescing");
    assert_eq!(metric(&addr, "grserve_jobs_coalesced_total"), 6);
    assert_eq!(metric(&addr, "grserve_jobs_submitted_total"), 1);

    gate.release();
    await_done(&addr, &id);
    assert_eq!(gate.invocations.load(Ordering::SeqCst), 1, "one execution for 7 submissions");

    server.shutdown_and_join();
}

/// Beyond `queue_cap` pending jobs, submissions are rejected with 429 and
/// `Retry-After`, and the rejection counter moves.
#[test]
fn full_queue_rejects_with_429() {
    let gate = Gate::new();
    let server = gated_server(1, 2, &gate);
    let addr = server.addr().to_string();

    // Distinct specs: one occupies the worker, two fill the queue.
    let specs: Vec<String> = (1..=4)
        .map(|mb| format!(r#"{{"policies": ["NRU"], "apps": ["Dirt"], "llc_mb": {mb}}}"#))
        .collect();
    let mut ids = Vec::new();
    for spec in &specs[..3] {
        // The worker pops asynchronously, so transiently the queue may
        // hold all submitted jobs; retry briefly instead of racing it.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, doc) = post_job(&addr, spec);
            if status == 202 {
                ids.push(doc.get("id").and_then(Json::as_str).expect("id").to_string());
                break;
            }
            assert_eq!(status, 429, "unexpected admission response");
            assert!(Instant::now() < deadline, "first three jobs never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let (status, head, _) = http(&addr, "POST", "/v1/jobs", Some(&specs[3]));
    assert_eq!(status, 429, "fourth distinct job must overflow the cap of 2");
    assert!(head.to_ascii_lowercase().contains("retry-after: 1"), "missing Retry-After:\n{head}");
    assert!(metric(&addr, "grserve_jobs_rejected_total") >= 1);

    gate.release();
    for id in &ids {
        await_done(&addr, id);
    }
    server.shutdown_and_join();
}

/// Graceful drain: accepted jobs finish, new submissions get 503, reads
/// keep working, and `join` returns.
#[test]
fn shutdown_drains_accepted_jobs_and_refuses_new_ones() {
    let gate = Gate::new();
    let server = gated_server(1, 8, &gate);
    let addr = server.addr().to_string();

    let running = r#"{"policies": ["NRU"], "apps": ["HAWX"]}"#;
    let queued = r#"{"policies": ["NRU"], "apps": ["BioShock"]}"#;
    let (status, run_doc) = post_job(&addr, running);
    assert_eq!(status, 202);
    let (status, queue_doc) = post_job(&addr, queued);
    assert_eq!(status, 202);
    let run_id = run_doc.get("id").and_then(Json::as_str).expect("id").to_string();
    let queue_id = queue_doc.get("id").and_then(Json::as_str).expect("id").to_string();

    server.begin_shutdown();
    let (status, doc) = post_job(&addr, r#"{"policies": ["NRU"], "apps": ["DMC"]}"#);
    assert_eq!(status, 503, "draining server accepted new work: {doc:?}");

    // Both in-flight jobs must still complete, and reads must keep
    // working while the drain is in progress.
    gate.release();
    await_done(&addr, &run_id);
    await_done(&addr, &queue_id);
    assert!(server.is_drained());
    server.join();
}

/// The disk tier persists across daemon restarts: a second server with a
/// fresh memory tier serves the first server's result without executing.
#[test]
fn disk_cache_tier_survives_restart() {
    let dir = temp_dir("disk");
    let body = r#"{"policies": ["OPT"], "apps": ["Heaven"]}"#;

    let first_gate = Gate::new();
    first_gate.release();
    let first = {
        let gate = Arc::clone(&first_gate);
        let cfg = ServerConfig {
            workers: 1,
            default_scale: Scale::Tiny,
            result_cache_dir: Some(dir.clone()),
            linger: Duration::from_millis(500),
            executor: Some(Arc::new(move |spec: &JobSpec| {
                gate.invocations.fetch_add(1, Ordering::SeqCst);
                let mut doc = Json::obj();
                doc.set("id", spec.id());
                Ok(JobOutput { payload: doc.to_string_pretty(), accesses: 1, replay_seconds: 0.0 })
            })),
            ..ServerConfig::default()
        };
        grserve::start(cfg).expect("first server")
    };
    let addr = first.addr().to_string();
    let (status, doc) = post_job(&addr, body);
    assert_eq!(status, 202);
    let id = doc.get("id").and_then(Json::as_str).expect("id").to_string();
    await_done(&addr, &id);
    let (_, _, payload_first) = http(&addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    first.shutdown_and_join();
    assert_eq!(first_gate.invocations.load(Ordering::SeqCst), 1);

    let second_gate = Gate::new();
    let second = {
        let gate = Arc::clone(&second_gate);
        let cfg = ServerConfig {
            workers: 1,
            default_scale: Scale::Tiny,
            result_cache_dir: Some(dir.clone()),
            linger: Duration::from_millis(500),
            executor: Some(Arc::new(move |_spec: &JobSpec| {
                gate.invocations.fetch_add(1, Ordering::SeqCst);
                Err("the disk tier should have answered".into())
            })),
            ..ServerConfig::default()
        };
        grserve::start(cfg).expect("second server")
    };
    let addr = second.addr().to_string();
    let (status, doc) = post_job(&addr, body);
    assert_eq!(status, 200, "disk hit answers immediately: {doc:?}");
    assert_eq!(doc.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(metric(&addr, "grserve_result_cache_hits_total{tier=\"disk\"}"), 1);
    let (_, _, payload_second) = http(&addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(payload_first, payload_second, "disk tier must preserve bytes");
    assert_eq!(second_gate.invocations.load(Ordering::SeqCst), 0, "no execution on disk hit");
    second.shutdown_and_join();

    std::fs::remove_dir_all(dir).ok();
}

/// Routing and validation: bad specs, unknown jobs, wrong methods, and
/// unknown paths get the right statuses without disturbing the server.
#[test]
fn validation_and_routing_statuses() {
    let gate = Gate::new();
    gate.release();
    let server = gated_server(1, 4, &gate);
    let addr = server.addr().to_string();

    let (status, _, body) = http(&addr, "POST", "/v1/jobs", Some(r#"{"policies": []}"#));
    assert_eq!(status, 400);
    assert!(body.contains("non-empty"), "{body}");

    let (status, _, _) = http(&addr, "POST", "/v1/jobs", Some(r#"{"policies": ["Nope"]}"#));
    assert_eq!(status, 400);

    let (status, _, _) = http(&addr, "GET", "/v1/jobs/deadbeef", None);
    assert_eq!(status, 404);
    let (status, _, _) = http(&addr, "GET", "/v1/jobs/deadbeef/result", None);
    assert_eq!(status, 404);

    let (status, head, _) = http(&addr, "GET", "/v1/jobs", None);
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"), "{head}");
    let (status, _, _) = http(&addr, "POST", "/metrics", Some(""));
    assert_eq!(status, 405);

    let (status, _, _) = http(&addr, "GET", "/v1/nope", None);
    assert_eq!(status, 404);

    // There is no HTTP shutdown route.
    let (status, _, _) = http(&addr, "POST", "/v1/shutdown", Some(""));
    assert_eq!(status, 404);

    server.shutdown_and_join();
}

/// `GET /v1/profiles` serves the frame-graph profile table, and every
/// served name validates back through the job-spec parser.
#[test]
fn profiles_endpoint_reflects_the_profile_table() {
    let gate = Gate::new();
    gate.release();
    let server = gated_server(1, 4, &gate);
    let addr = server.addr().to_string();

    let (status, _, body) = http(&addr, "GET", "/v1/profiles", None);
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("profiles JSON");
    let Some(Json::Arr(profiles)) = doc.get("profiles") else {
        panic!("missing profiles array: {body}")
    };
    assert_eq!(profiles.len(), grsynth::GRAPH_PROFILES.len());
    for entry in grsynth::GRAPH_PROFILES {
        let served = profiles
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(entry.name))
            .unwrap_or_else(|| panic!("{} not served by /v1/profiles", entry.name));
        assert_eq!(served.get("description").and_then(Json::as_str), Some(entry.description));
        let spec = JobSpec::parse(
            &format!(r#"{{"policies": ["NRU"], "profile": {:?}}}"#, entry.name),
            Scale::Tiny,
        )
        .unwrap_or_else(|e| panic!("served profile {} fails spec parse: {e}", entry.name));
        assert_eq!(spec.profile.as_deref(), Some(entry.name));
    }

    server.shutdown_and_join();
}

/// The vocabulary endpoints expose the policy registry (with aliases and
/// annotation requirements) and the Table 1 applications.
#[test]
fn vocabulary_endpoints_reflect_the_registry() {
    let gate = Gate::new();
    gate.release();
    let server = gated_server(1, 4, &gate);
    let addr = server.addr().to_string();

    let (status, _, body) = http(&addr, "GET", "/v1/policies", None);
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("policies JSON");
    let Some(Json::Arr(policies)) = doc.get("policies") else {
        panic!("missing policies array: {body}")
    };
    assert_eq!(policies.len(), gspc::registry::ALL_POLICIES.len());
    let opt = policies
        .iter()
        .find(|p| p.get("name").and_then(Json::as_str) == Some("OPT"))
        .expect("OPT listed");
    assert_eq!(opt.get("needs_next_use"), Some(&Json::Bool(true)));

    // Cross-layer round trip: every registry row is served with faithful
    // metadata, and every served spelling (names, aliases, parameterized
    // fuzz spellings) validates back through the job-spec parser — a
    // future row that forgets a layer fails here.
    for entry in gspc::registry::ALL_POLICIES {
        let served = policies
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(entry.name))
            .unwrap_or_else(|| panic!("{} not served by /v1/policies", entry.name));
        assert_eq!(
            served.get("description").and_then(Json::as_str),
            Some(entry.description),
            "{}: served description drifted",
            entry.name
        );
        assert_eq!(
            served.get("needs_next_use"),
            Some(&Json::Bool(entry.needs_next_use())),
            "{}: served needs_next_use drifted",
            entry.name
        );
        let Some(Json::Arr(aliases)) = served.get("aliases") else {
            panic!("{}: missing aliases array", entry.name)
        };
        let aliases: Vec<&str> = aliases.iter().filter_map(Json::as_str).collect();
        assert_eq!(aliases, *entry.aliases, "{}: served aliases drifted", entry.name);

        for spelling in std::iter::once(&entry.name).chain(entry.aliases) {
            let body = format!(r#"{{"policies": ["{spelling}"], "apps": ["HAWX"]}}"#);
            let spec = grserve::JobSpec::parse(&body, grsynth::Scale::Tiny)
                .unwrap_or_else(|e| panic!("served spelling {spelling:?} rejected: {e}"));
            assert_eq!(spec.policies, vec![spelling.to_string()]);
        }
    }
    let Some(Json::Arr(families)) = doc.get("parameterized") else {
        panic!("missing parameterized array: {body}")
    };
    assert_eq!(families.len(), gspc::registry::PARAMETERIZED.len());
    for family in gspc::registry::PARAMETERIZED {
        assert!(
            families
                .iter()
                .any(|f| f.get("pattern").and_then(Json::as_str) == Some(family.pattern)),
            "family {} not served",
            family.pattern
        );
        for spelling in family.fuzz_spellings {
            let body = format!(r#"{{"policies": ["{spelling}"], "apps": ["HAWX"]}}"#);
            grserve::JobSpec::parse(&body, grsynth::Scale::Tiny)
                .unwrap_or_else(|e| panic!("parameterized {spelling:?} rejected: {e}"));
        }
    }

    let (status, _, body) = http(&addr, "GET", "/v1/apps", None);
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("apps JSON");
    let Some(Json::Arr(apps)) = doc.get("apps") else { panic!("missing apps array: {body}") };
    assert_eq!(apps.len(), 12, "Table 1 has 12 applications");

    server.shutdown_and_join();
}
