//! `serve-mixed`: an open-loop client against a spawned `grserved`, and
//! the in-process traced pass over the same spec sequence.
//!
//! The client sends the seeded schedule at a fixed rate over two
//! keep-alive connections: one thread submits each job when it is due
//! (and fetches the result itself when the submission is answered from a
//! cache), the other polls outstanding jobs and fetches their results.
//! A request's latency runs from the time it was due to the end of its
//! result fetch, so a stalled generator shows up in later requests.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use grbench::{framecache, RunOptions};
use grjson::Json;
use grserve::resultcache::ResultCache;
use grserve::{execute, JobSpec};
use grsynth::Scale;

use crate::inputs::{serve_schedule, warm_spec, Class, Request, Rng};
use crate::span::Tracer;
use crate::{ready, Args};

/// Scale the daemon serves at (its `GR_SCALE`).
pub const SCALE: Scale = Scale::Quarter;
/// How often the poller re-asks the daemon about a job it is waiting on.
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// A run whose generator fell further behind its schedule than this, at
/// the 99th percentile, measured the client rather than the daemon.
const LATENESS_LIMIT_MS: f64 = 100.0;

/// One keep-alive HTTP/1.1 connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-response"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

fn field(body: &[u8], key: &str) -> Option<String> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get(key)?.as_str().map(str::to_string)
}

/// Counter values scraped from `/metrics`.
fn scrape(conn: &mut Conn) -> Result<HashMap<String, f64>, String> {
    let (status, body) = conn.call("GET", "/metrics", "").map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Submits `body` and waits for it to finish, polling. Returns the job id.
fn submit_and_wait(conn: &mut Conn, body: &str) -> Result<String, String> {
    let (status, reply) = conn.call("POST", "/v1/jobs", body).map_err(|e| e.to_string())?;
    if status != 200 && status != 202 {
        return Err(format!("submit answered {status}: {}", String::from_utf8_lossy(&reply)));
    }
    let id = field(&reply, "id").ok_or("submit reply has no id")?;
    loop {
        let (_, reply) =
            conn.call("GET", &format!("/v1/jobs/{id}"), "").map_err(|e| e.to_string())?;
        match field(&reply, "state").as_deref() {
            Some("done") => return Ok(id),
            Some("failed") => return Err(format!("job {id} failed")),
            _ => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Default)]
struct Outcome {
    latency_ms: Option<f64>,
    late_ms: f64,
    submit_ms: f64,
    result_ms: Option<f64>,
    polls: u64,
    queue_wait_ms: Option<f64>,
    bytes: Option<Vec<u8>>,
    error: Option<String>,
}

/// A job the submitter handed to the poller.
struct Pending {
    index: usize,
    id: String,
    acked: Instant,
}

/// `perfbench serve --addr HOST:PORT --seed N --seconds S`: warms the
/// daemon, prints `ready`, runs the open loop, and checks a seeded sample
/// of results against offline execution.
pub fn client(args: &Args) -> Result<Json, String> {
    let addr = args.str("addr")?.to_string();
    let seed = args.num("seed", 0u64)?;
    let seconds = args.num("seconds", 10.0f64)?;
    let checks = args.num("check", 0usize)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Err("the open-loop client needs two cores for its two connections".into());
    }

    let schedule = serve_schedule(seed, seconds);
    let mut control = Conn::open(&addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let warm = Instant::now();
    submit_and_wait(&mut control, &warm_spec())?;
    let warm_s = warm.elapsed().as_secs_f64();
    let before = scrape(&mut control)?;
    if schedule.is_empty() {
        // A set-up-only pass: the daemon is warm, nothing is timed.
        ready();
        let mut doc = Json::obj();
        doc.set("warm_s", warm_s);
        return Ok(doc);
    }

    ready();
    let (outcomes, wall_s) = open_loop(&addr, &schedule)?;
    let after = scrape(&mut control)?;

    let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
    let sent = |class: Class| schedule.iter().filter(|r| r.class == class).count() as u64;
    let cold_sent = schedule.iter().filter(|r| r.class.is_cold()).count();
    let mut doc = Json::obj();
    doc.set("wall_s", wall_s)
        .set("warm_s", warm_s)
        .set("sent", schedule.len() as u64)
        .set("cold_sent", cold_sent as u64)
        .set("hit_sent", sent(Class::Hit))
        .set("stored_sent", sent(Class::Stored))
        .set("executions", delta("grserve_executions_total"))
        .set("coalesced", delta("grserve_jobs_coalesced_total"))
        .set("rejected", delta("grserve_jobs_rejected_total"))
        .set("cache_hits_memory", delta("grserve_result_cache_hits_total{tier=\"memory\"}"))
        .set("cache_hits_disk", delta("grserve_result_cache_hits_total{tier=\"disk\"}"))
        .set("accesses", delta("grserve_replay_accesses_total"));

    let list = |f: &dyn Fn(&Outcome) -> Option<f64>| -> Json {
        Json::Arr(outcomes.iter().filter_map(f).map(Json::from).collect())
    };
    for class in Class::ALL {
        let of_class = |o: &Outcome, r: &Request| (r.class == class).then_some(o.latency_ms)?;
        let lat: Vec<Json> = outcomes
            .iter()
            .zip(&schedule)
            .filter_map(|(o, r)| of_class(o, r))
            .map(Json::from)
            .collect();
        doc.set(format!("latency_ms.{}", class.name()), Json::Arr(lat));
    }
    doc.set("latency_ms.all", list(&|o| o.latency_ms))
        .set("late_ms", list(&|o| Some(o.late_ms)))
        .set("submit_ms", list(&|o| Some(o.submit_ms)))
        .set("result_ms", list(&|o| o.result_ms))
        .set("polls", list(&|o| (o.polls > 0).then_some(o.polls as f64)))
        .set("queue_wait_ms", list(&|o| o.queue_wait_ms));

    let errors: Vec<&String> = outcomes.iter().filter_map(|o| o.error.as_ref()).collect();
    for e in errors.iter().take(5) {
        eprintln!("serve request failed: {e}");
    }
    let mismatches = check_results(&schedule, &outcomes, checks, seed)?;
    doc.set("failed_requests", errors.len() as u64)
        .set("checked", checks.min(outcomes.len()) as u64)
        .set("check_failures", mismatches);

    let mut late: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
    late.sort_by(f64::total_cmp);
    let p99 = late[(late.len() * 99 / 100).min(late.len() - 1)];
    doc.set("late_p99_ms", p99).set("lateness_limit_ms", LATENESS_LIMIT_MS);
    if p99 > LATENESS_LIMIT_MS {
        return Err(format!(
            "the generator ran {p99:.1} ms behind schedule at p99 (limit {LATENESS_LIMIT_MS} ms); \
             the run measured the client, not the daemon"
        ));
    }
    Ok(doc)
}

/// Runs the schedule and returns each request's outcome plus the wall time
/// from the first due time to the last result.
fn open_loop(addr: &str, schedule: &[Request]) -> Result<(Vec<Outcome>, f64), String> {
    let mut submit_conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let mut poll_conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |r: &Request| start + Duration::from_secs_f64(r.due_s);

    let (mut submitted, polled) = std::thread::scope(|s| {
        let poller = s.spawn(move || poll_loop(&mut poll_conn, rx));
        let mut out = vec![Outcome::default(); schedule.len()];
        for (i, r) in schedule.iter().enumerate() {
            let when = due(r);
            let now = Instant::now();
            if when > now {
                std::thread::sleep(when - now);
            }
            let sent = Instant::now();
            let o = &mut out[i];
            o.late_ms = sent.saturating_duration_since(when).as_secs_f64() * 1e3;
            let reply = submit_conn.call("POST", "/v1/jobs", &r.body);
            let acked = Instant::now();
            o.submit_ms = (acked - sent).as_secs_f64() * 1e3;
            let (status, body) = match reply {
                Ok(x) => x,
                Err(e) => {
                    o.error = Some(format!("submit: {e}"));
                    continue;
                }
            };
            let id = field(&body, "id");
            match (status, id, field(&body, "state").as_deref()) {
                (200, Some(id), Some("done")) => {
                    match submit_conn.call("GET", &format!("/v1/jobs/{id}/result"), "") {
                        Ok((200, bytes)) => {
                            let end = Instant::now();
                            o.result_ms = Some((end - acked).as_secs_f64() * 1e3);
                            o.latency_ms = Some((end - when).as_secs_f64() * 1e3);
                            o.bytes = Some(bytes);
                        }
                        Ok((code, _)) => o.error = Some(format!("result answered {code}")),
                        Err(e) => o.error = Some(format!("result: {e}")),
                    }
                }
                (200 | 202, Some(id), _) => {
                    tx.send(Pending { index: i, id, acked }).expect("poller outlives submitter");
                }
                (code, _, _) => o.error = Some(format!("submit answered {code}")),
            }
        }
        drop(tx);
        (out, poller.join().expect("poller thread panicked"))
    });
    for (index, o, end) in polled {
        let s = &mut submitted[index];
        s.polls = o.polls;
        s.queue_wait_ms = o.queue_wait_ms;
        s.result_ms = o.result_ms;
        s.bytes = o.bytes;
        s.error = s.error.take().or(o.error);
        if let Some(end) = end {
            s.latency_ms = Some((end - due(&schedule[index])).as_secs_f64() * 1e3);
        }
    }
    let mut last = start;
    for (o, r) in submitted.iter().zip(schedule) {
        if let Some(l) = o.latency_ms {
            last = last.max(due(r) + Duration::from_secs_f64(l / 1e3));
        }
    }
    Ok((submitted, (last - start).as_secs_f64()))
}

/// Polls every outstanding job until it is done, then fetches its result.
/// Returns (schedule index, outcome, time the result fetch ended).
fn poll_loop(
    conn: &mut Conn,
    rx: mpsc::Receiver<Pending>,
) -> Vec<(usize, Outcome, Option<Instant>)> {
    let mut waiting: Vec<(Pending, Outcome)> = Vec::new();
    let mut done = Vec::new();
    let mut open = true;
    while open || !waiting.is_empty() {
        if waiting.is_empty() {
            match rx.recv() {
                Ok(p) => waiting.push((p, Outcome::default())),
                Err(_) => break,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(p) => waiting.push((p, Outcome::default())),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let mut i = 0;
        while i < waiting.len() {
            let (p, o) = &mut waiting[i];
            o.polls += 1;
            let state = match conn.call("GET", &format!("/v1/jobs/{}", p.id), "") {
                Ok((200, body)) => field(&body, "state"),
                Ok((code, _)) => Some(format!("http {code}")),
                Err(e) => Some(format!("error {e}")),
            };
            let finished = match state.as_deref() {
                Some("queued") => false,
                Some("running") => {
                    o.queue_wait_ms.get_or_insert((Instant::now() - p.acked).as_secs_f64() * 1e3);
                    false
                }
                Some("done") => {
                    let asked = Instant::now();
                    match conn.call("GET", &format!("/v1/jobs/{}/result", p.id), "") {
                        Ok((200, bytes)) => {
                            let end = Instant::now();
                            o.result_ms = Some((end - asked).as_secs_f64() * 1e3);
                            o.bytes = Some(bytes);
                            done.push((p.index, o.clone(), Some(end)));
                        }
                        other => {
                            o.error = Some(format!("result fetch: {other:?}"));
                            done.push((p.index, o.clone(), None));
                        }
                    }
                    true
                }
                other => {
                    o.error = Some(format!("job {} ended as {other:?}", p.id));
                    done.push((p.index, o.clone(), None));
                    true
                }
            };
            if finished {
                waiting.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if !waiting.is_empty() {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
    done
}

fn base_options() -> RunOptions {
    RunOptions {
        threads: Some(1),
        streamed: false,
        boxed: false,
        check: false,
        ..RunOptions::from_env(&[])
    }
}

/// Compares the served bytes of a seeded sample of requests with what an
/// offline `grserve::execute` of the same spec produces. Returns the
/// number of mismatches.
fn check_results(
    schedule: &[Request],
    outcomes: &[Outcome],
    count: usize,
    seed: u64,
) -> Result<u64, String> {
    let mut rng = Rng::new(seed, 6);
    let base = base_options();
    let mut mismatches = 0;
    for _ in 0..count.min(schedule.len()) {
        let i = rng.below(schedule.len());
        let Some(served) = &outcomes[i].bytes else { continue };
        let spec = JobSpec::parse(&schedule[i].body, SCALE)?;
        if execute(&spec, &base).payload.as_bytes() != served.as_slice() {
            eprintln!(
                "serve check failed: request {i} ({}) differs from offline execution",
                schedule[i].body
            );
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// Runs `f` under a span when there is a tracer, bare otherwise.
fn step<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    detail: &str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => tr.span(name, detail, request, |_| f()),
        None => f(),
    }
}

/// `perfbench serve-store --seed N --seconds S --dir D`: executes every
/// `stored` request of the schedule offline and puts its result into the
/// result cache rooted at `D`, as an earlier daemon on that directory would
/// have left it.
pub fn store(args: &Args) -> Result<Json, String> {
    let seed = args.num("seed", 0u64)?;
    let seconds = args.num("seconds", 10.0f64)?;
    let cache = ResultCache::new(Some(Path::new(args.str("dir")?).to_path_buf()));
    ready();
    let base = base_options();
    let mut stored = 0u64;
    for r in serve_schedule(seed, seconds).iter().filter(|r| r.class == Class::Stored) {
        let spec = JobSpec::parse(&r.body, SCALE)?;
        cache.put(&spec.id(), Arc::new(execute(&spec, &base).payload));
        stored += 1;
    }
    let mut doc = Json::obj();
    doc.set("stored", stored);
    Ok(doc)
}

/// One in-process pass over the schedule — `JobSpec::parse`, the result
/// cache in `cache_dir`, and `grserve::execute` — from a cold frame cache
/// with the daemon's warm-up done first. `cache_dir` holds the stored
/// results, as the daemon's does. Returns the pass's wall time and
/// every payload in schedule order.
fn in_process(
    schedule: &[Request],
    cache_dir: &Path,
    mut tr: Option<&mut Tracer>,
) -> Result<(f64, Vec<String>), String> {
    let base = base_options();
    framecache::clear();
    let cache = ResultCache::new(Some(cache_dir.to_path_buf()));
    let warm = JobSpec::parse(&warm_spec(), SCALE)?;
    cache.put(&warm.id(), Arc::new(execute(&warm, &base).payload));
    let started = Instant::now();
    let mut payloads = Vec::with_capacity(schedule.len());
    for (i, r) in schedule.iter().enumerate() {
        let req = i as u64 + 1;
        let (spec, id) = step(&mut tr, "grserve.spec", r.class.name(), req, || {
            JobSpec::parse(&r.body, SCALE).map(|s| {
                let id = s.id();
                (s, id)
            })
        })?;
        let payload = match step(&mut tr, "grserve.resultcache", "get", req, || cache.get(&id)) {
            Some((p, _)) => p,
            None => {
                let out =
                    step(&mut tr, "grserve.job", r.class.name(), req, || execute(&spec, &base));
                let p = Arc::new(out.payload);
                step(&mut tr, "grserve.resultcache", "put", req, || cache.put(&id, Arc::clone(&p)));
                p
            }
        };
        payloads.push(payload.to_string());
    }
    Ok((started.elapsed().as_secs_f64(), payloads))
}

/// `perfbench serve-trace --seed N --seconds S --dir D`: the schedule's
/// spec sequence in process, once bare over the result cache `D/bare` and
/// once under spans over `D/traced`.
pub fn traced(args: &Args) -> Result<Json, String> {
    let seed = args.num("seed", 0u64)?;
    let seconds = args.num("seconds", 10.0f64)?;
    let dir = Path::new(args.str("dir")?);
    let schedule = serve_schedule(seed, seconds);
    ready();

    let (bare_s, bare) = in_process(&schedule, &dir.join("bare"), None)?;
    let mut tr = Tracer::new();
    let (traced_s, traced) = in_process(&schedule, &dir.join("traced"), Some(&mut tr))?;

    // The pass's spans do not nest, so their busy times add up to the
    // attributed part of its wall time.
    let layers = tr.layers();
    let attributed: f64 = layers.values().map(|l| l.busy_s).sum();
    let spec = layers.get("grserve.spec").copied().unwrap_or_default();
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    };
    let mut m = Json::obj();
    m.set("grserve.spec.parse_us", spec.busy_s * 1e6 / spec.spans.max(1) as f64)
        .set("grbench.runner.unattributed_s", traced_s - attributed)
        .set("grbench.runner.cells", schedule.len() as u64)
        .set("tracing.wall_s", traced_s)
        .set("tracing.overhead_frac", traced_s / bare_s - 1.0);
    for class in [Class::Synth, Class::Replay] {
        let ms = tr.durations("grserve.job", class.name()).into_iter().map(|s| s * 1e3).collect();
        m.set(format!("grserve.job.execute_ms.{}", class.name()), median(ms));
    }
    let mut doc = Json::obj();
    doc.set("bare_s", bare_s).set("trace_matches", bare == traced).set("layers", m);
    if let Some(path) = args.str("spans").ok().map(Path::new) {
        tr.write_jsonl(path).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(doc)
}
