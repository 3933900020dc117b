//! The service contract of the real `grserved` binary, spawned as a child
//! process the way a deployment runs it: result bytes independent of the
//! daemon's thread count, ten thousand simultaneous keep-alive
//! connections, and the SIGTERM drain. The routing, caching, coalescing
//! and admission checks that need no process of their own are in
//! `service.rs`, in-process.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use grbench::RunOptions;
use grjson::Json;
use grserve::JobSpec;
use grsynth::Scale;
use gspc::registry;

/// Simultaneous keep-alive connections the daemon must hold.
const CONNECTIONS: usize = 10_000;

/// A spawned `grserved`, killed on drop so a failing test leaves no
/// process behind.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port at tiny scale with `args`
    /// and `env`, and waits for the port file it writes once bound. The
    /// daemon gets no disk result cache, so every new spec executes.
    fn spawn(name: &str, args: &[&str], env: &[(&str, &str)]) -> Daemon {
        let port_file = std::env::temp_dir()
            .join(format!("grserved-daemon-test-{}-{name}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_grserved"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .arg("--port-file")
            .arg(&port_file)
            .env("GR_SCALE", "tiny")
            .env_remove("GR_RESULT_CACHE")
            .envs(env.iter().copied())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn grserved");
        let mut daemon = Daemon { child, addr: String::new() };
        let deadline = Instant::now() + Duration::from_secs(60);
        while daemon.addr.is_empty() {
            assert!(Instant::now() < deadline, "grserved wrote no port file within 60 s");
            std::thread::sleep(Duration::from_millis(20));
            daemon.addr = std::fs::read_to_string(&port_file).unwrap_or_default();
        }
        let _ = std::fs::remove_file(&port_file);
        daemon
    }

    fn submit(&self, spec: &str) -> (u16, Json) {
        let (status, body) = http(&self.addr, "POST", "/v1/jobs", spec);
        (status, Json::parse(&body).unwrap_or_else(|e| panic!("submit response {body:?}: {e}")))
    }

    fn state(&self, id: &str) -> String {
        let (status, body) = http(&self.addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "job poll: {body}");
        let doc = Json::parse(&body).expect("job status is JSON");
        doc.get("state").and_then(Json::as_str).expect("job state").to_string()
    }

    /// Polls job `id` until it is done; a failed job fails the test.
    fn await_done(&self, id: &str) {
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            match self.state(id).as_str() {
                "done" => return,
                "failed" => panic!("job {id} failed"),
                _ => {}
            }
            assert!(Instant::now() < deadline, "job {id} did not finish within 600 s");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Submits `spec` as a fresh job, waits for it, and returns its id and
    /// raw result bytes.
    fn run(&self, spec: &str) -> (String, String) {
        let (status, doc) = self.submit(spec);
        assert_eq!(status, 202, "fresh job not accepted: {doc:?}");
        let id = job_id(&doc);
        self.await_done(&id);
        let (status, payload) = http(&self.addr, "GET", &format!("/v1/jobs/{id}/result"), "");
        assert_eq!(status, 200, "result fetch: {payload}");
        (id, payload)
    }

    /// `grserve_connections{state="open"}` in the daemon's `/metrics`.
    fn open_connections(&self) -> u64 {
        let (status, text) = http(&self.addr, "GET", "/metrics", "");
        assert_eq!(status, 200, "/metrics: {text}");
        text.lines()
            .find_map(|line| line.strip_prefix("grserve_connections{state=\"open\"} "))
            .and_then(|value| value.trim().parse().ok())
            .unwrap_or_else(|| panic!("no open-connection gauge in /metrics:\n{text}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes one request; `Connection: close` unless `keep_alive`.
fn send(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "" } else { "Connection: close\r\n" };
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
}

/// Reads one response (head, then a `Content-Length` body); returns its
/// status and body.
fn receive(stream: &mut TcpStream) -> io::Result<(u16, String)> {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
            let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
            let length = head.lines().find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            });
            let (Some(status), Some(length)) = (status, length) else {
                panic!("bad response head: {head}");
            };
            let end = head_end + 4 + length;
            if raw.len() >= end {
                let body = String::from_utf8(raw[head_end + 4..end].to_vec()).expect("UTF-8 body");
                return Ok((status, body));
            }
        }
        match stream.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => raw.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Connects with a read timeout, so a silent daemon fails the test.
fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

/// One `Connection: close` exchange; returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let exchange = connect(addr).and_then(|mut stream| {
        send(&mut stream, method, path, body, false)?;
        receive(&mut stream)
    });
    exchange.unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

fn job_id(doc: &Json) -> String {
    doc.get("id").and_then(Json::as_str).expect("job id").to_string()
}

/// A job spec at tiny scale over `policies` and the workload fields
/// `fields` (`apps`, `frames`, `trace`, ...).
fn spec(policies: &[String], fields: &[(&str, Json)]) -> String {
    let mut doc = Json::obj();
    doc.set("policies", Json::Arr(policies.iter().map(|p| Json::from(p.as_str())).collect()));
    for (key, value) in fields {
        doc.set(*key, value.clone());
    }
    doc.set("scale", "tiny");
    doc.to_string_pretty()
}

fn apps(names: &[&str]) -> Json {
    Json::Arr(names.iter().map(|&name| Json::from(name)).collect())
}

/// The first registry row with or without a Belady annotation.
fn first_policy(annotated: bool) -> String {
    let entry = registry::ALL_POLICIES.iter().find(|e| e.needs_next_use() == annotated);
    entry.expect("the registry has both kinds").name.to_string()
}

/// A daemon fanning each job over four threads serves the bytes a serial
/// offline `grserve::execute` of the same spec produces: for an app grid
/// over every registry row and parameterized spelling, and for an
/// imported `.gtrace` file over a plain and an annotated policy.
#[test]
fn four_thread_daemon_serves_the_serial_offline_bytes() {
    let trace_path =
        std::env::temp_dir().join(format!("grserved-daemon-test-{}.gtrace", std::process::id()));
    let graph = grsynth::graph_profile("cpu-like").expect("builtin profile").graph();
    let trace = grsynth::Frames::from(&graph).render(0, Scale::Tiny).0;
    grtrace::io::write_atomic(&trace_path, |w| grtrace::io::write(w, &trace)).expect("write trace");
    let trace_field = Json::from(trace_path.to_str().expect("UTF-8 temp dir"));

    let jobs = [
        ("app grid", spec(&registry::fuzz_names(), &[("apps", apps(&["HAWX"]))])),
        ("trace", spec(&[first_policy(false), first_policy(true)], &[("trace", trace_field)])),
    ];
    let daemon = Daemon::spawn("threads", &["--workers", "1"], &[("GR_THREADS", "4")]);
    let serial = RunOptions { threads: Some(1), ..RunOptions::from_env(&[]) };
    for (what, body) in &jobs {
        let (id, served) = daemon.run(body);
        let offline_spec = JobSpec::parse(body, Scale::Tiny).expect("spec parses offline");
        assert_eq!(offline_spec.id(), id, "{what}: client and daemon disagree on the job id");
        let offline = grserve::execute(&offline_spec, &serial);
        assert!(served == offline.payload, "{what}: served bytes differ from the offline run");
    }
    let _ = std::fs::remove_file(trace_path);
}

/// Ten thousand keep-alive connections are open at once; each is answered
/// from the result cache with the job's id, and the daemon's gauge counts
/// them all while they are held.
#[test]
fn ten_thousand_keep_alive_connections_are_held_at_once() {
    let limit = grserve::poll::raise_nofile_limit(CONNECTIONS as u64 + 512);
    assert!(limit >= CONNECTIONS as u64 + 64, "open-file limit {limit} is below the test's need");

    let daemon = Daemon::spawn("conns", &["--workers", "1"], &[]);
    let cached = spec(&[first_policy(false)], &[("apps", apps(&["HAWX"]))]);
    let (id, _) = daemon.run(&cached);

    let mut held = Vec::with_capacity(CONNECTIONS);
    for n in 0..CONNECTIONS {
        let opened = connect(&daemon.addr).and_then(|mut stream| {
            send(&mut stream, "POST", "/v1/jobs", &cached, true)?;
            Ok((receive(&mut stream)?, stream))
        });
        let ((status, body), stream) =
            opened.unwrap_or_else(|e| panic!("keep-alive connection {n} of {CONNECTIONS}: {e}"));
        assert_eq!(status, 200, "connection {n}: {body}");
        let doc = Json::parse(&body).expect("submit response is JSON");
        assert_eq!(job_id(&doc), id, "connection {n} got another job's id");
        held.push(stream);
    }

    // The gauge is refreshed on the event loop's tick, not per accept.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = daemon.open_connections();
        if open >= CONNECTIONS as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "daemon reports {open} open connections");
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(held);
}

/// SIGTERM while a job runs: the running job and the one queued behind it
/// both finish, a new submission gets 503, and the process exits 0.
#[test]
fn sigterm_drains_accepted_jobs_and_exits_zero() {
    let mut daemon = Daemon::spawn("drain", &["--workers", "1", "--linger-ms", "2500"], &[]);
    let every: Vec<String> = registry::ALL_POLICIES.iter().map(|e| e.name.to_string()).collect();
    let (status, running) = daemon
        .submit(&spec(&every, &[("apps", apps(&["BioShock", "HAWX"])), ("frames", 2u32.into())]));
    assert_eq!(status, 202, "{running:?}");
    let running = job_id(&running);
    let (status, queued) = daemon.submit(&spec(&every, &[("apps", apps(&["DMC"]))]));
    assert_eq!(status, 202, "{queued:?}");
    let queued = job_id(&queued);

    let deadline = Instant::now() + Duration::from_secs(60);
    while daemon.state(&running) != "running" {
        assert!(Instant::now() < deadline, "the first job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(daemon.state(&queued), "queued", "the first job ended before SIGTERM was sent");
    let killed = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -TERM failed");

    // The daemon sees the signal on its next 25 ms poll; a probe accepted
    // before then is one more job the drain must finish.
    let probe = [first_policy(false)];
    let mut refused = false;
    for frames in 1..=40u32 {
        if let Some(exit) = daemon.child.try_wait().expect("poll grserved") {
            panic!("grserved exited with {exit} instead of draining");
        }
        let fresh = spec(&probe, &[("apps", apps(&["Dirt"])), ("frames", frames.into())]);
        let (status, doc) = daemon.submit(&fresh);
        if status == 503 {
            refused = true;
            break;
        }
        assert!(status == 202 || status == 200, "probe answered {status}: {doc:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(refused, "the draining daemon kept accepting jobs");

    daemon.await_done(&running);
    daemon.await_done(&queued);
    let exit = daemon.child.wait().expect("wait for grserved");
    assert!(exit.success(), "grserved exited with {exit} after the drain");
}
