//! The daemon core: request routing, bounded job queue with admission
//! control, coalescing worker pool, and graceful drain.
//! Connections are owned by the event loop in [`crate::eventloop`]; this
//! module is the [`Handler`] behind it plus the execution machinery.
//!
//! # Job lifecycle
//!
//! ```text
//! POST /v1/jobs ──► canonical id ──┬─ known job? ─── queued/running ─► 200 coalesced
//!                                  │                 done ──────────► 200 cached
//!                                  ├─ result cache hit (mem/disk) ──► 200 cached
//!                                  ├─ draining ─────────────────────► 503
//!                                  ├─ queue full ──────────────────►  429 + Retry-After
//!                                  └─ else: enqueue ───────────────►  202
//!
//! worker pop ──► execute ──► result cache put ──► done
//! ```
//!
//! Coalescing falls out of content addressing: the job table is keyed by
//! the canonical spec digest, so concurrent identical submissions land on
//! the same entry and share one execution.
//!
//! # Threads and locks
//!
//! One event-loop thread (all sockets), `workers` executor threads. Each
//! worker runs one job at a time and fans that job's cells over the
//! per-job thread count (`RunOptions::threads`, resolved once in
//! [`start`]) through grbench's cell fan-out; those scoped threads live
//! only as long as the job and touch no server state. Two mutexes — the
//! job table and the queue state — always taken in that order; workers
//! take them one at a time, never nested. Counters live in [`Metrics`]
//! atomics.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use grbench::{ExperimentConfig, RunOptions};
use grjson::Json;
use grsynth::{AppProfile, Scale};
use gspc::registry;

use crate::eventloop::{self, ConnGauges, Handler, LoopConfig};
use crate::http::{Request, Response};
use crate::job::{self, JobOutput};
use crate::metrics::{CacheTier, Endpoint, Metrics, ServerSnapshot};
use crate::resultcache::ResultCache;
use crate::spec::JobSpec;

/// The execution hook: maps a spec to its output. The default is
/// [`default_executor`]; tests inject blocking stand-ins to make
/// coalescing, 429, and drain behavior deterministic.
pub type ExecuteFn = Arc<dyn Fn(&JobSpec) -> Result<JobOutput, String> + Send + Sync>;

/// Server construction parameters.
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`] for the resolved one).
    pub addr: String,
    /// Executor threads.
    pub workers: usize,
    /// Queued-job bound; submissions beyond it get 429.
    pub queue_cap: usize,
    /// Scale assumed when a spec omits `"scale"`.
    pub default_scale: Scale,
    /// Root of the disk result-cache tier; `None` keeps memory only.
    pub result_cache_dir: Option<PathBuf>,
    /// Disk-tier byte budget; `None` reads `GR_RESULT_CACHE_MAX` (with
    /// its built-in default).
    pub result_cache_max: Option<u64>,
    /// How long the listener keeps answering reads after the drain
    /// completes, so clients can collect final states and metrics.
    pub linger: Duration,
    /// 408 deadline for half-received requests.
    pub read_deadline: Duration,
    /// Silent-close deadline for idle keep-alive connections.
    pub idle_timeout: Duration,
    /// Open-connection cap enforced at accept time.
    pub max_conns: usize,
    /// Execution knobs shared by every job (threads, streamed, boxed,
    /// check); per-spec fields are overridden per job. `threads: None`
    /// (the default) gives each job `GR_THREADS` threads when that is
    /// set, else `max(1, available_parallelism / workers)`, so the
    /// workers' jobs together use every core once; [`start`] resolves it
    /// once.
    pub run: RunOptions,
    /// Execution hook override; `None` uses the real replay path.
    pub executor: Option<ExecuteFn>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            queue_cap: 64,
            default_scale: ExperimentConfig::from_env().scale,
            result_cache_dir: std::env::var_os("GR_RESULT_CACHE").map(PathBuf::from),
            result_cache_max: None,
            linger: Duration::from_millis(300),
            read_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            max_conns: 16 * 1024,
            run: RunOptions::misses(&[]),
            executor: None,
        }
    }
}

/// Where a tracked job is in its lifecycle.
enum JobState {
    Queued,
    Running,
    Done { payload: Arc<String>, from_cache: bool },
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

struct Job {
    spec: Arc<JobSpec>,
    state: JobState,
}

struct QueueState {
    queue: VecDeque<String>,
    running: usize,
    draining: bool,
}

struct Inner {
    queue_cap: usize,
    default_scale: Scale,
    executor: ExecuteFn,
    jobs: Mutex<HashMap<String, Job>>,
    queue: Mutex<QueueState>,
    /// Wakes workers (new job or drain started).
    work_cv: Condvar,
    cache: ResultCache,
    metrics: Metrics,
    gauges: Arc<ConnGauges>,
}

impl Inner {
    /// Drained = drain requested, queue empty, nothing executing.
    fn is_drained(&self) -> bool {
        let q = self.queue.lock().expect("queue lock");
        q.draining && q.queue.is_empty() && q.running == 0
    }

    fn begin_shutdown(&self) {
        self.queue.lock().expect("queue lock").draining = true;
        self.work_cv.notify_all();
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown_and_join`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The resolved bind address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain: new submissions get 503, queued and
    /// running jobs complete, reads keep working. Returns immediately.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// True once the drain has finished (queue empty, nothing running).
    pub fn is_drained(&self) -> bool {
        self.inner.is_drained()
    }

    /// Waits for the event loop and every worker to exit. Only returns
    /// after a shutdown was initiated (or the process would wait forever).
    pub fn join(mut self) {
        if let Some(event_loop) = self.event_loop.take() {
            event_loop.join().expect("event-loop thread");
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread");
        }
    }

    /// [`Self::begin_shutdown`] then [`Self::join`].
    pub fn shutdown_and_join(self) {
        self.begin_shutdown();
        self.join();
    }
}

/// Binds, spawns the worker pool and the event loop, and returns.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    let workers = cfg.workers.max(1);
    let base = RunOptions { threads: Some(job_threads(cfg.run.threads, workers)), ..cfg.run };
    let executor = cfg.executor.unwrap_or_else(|| default_executor(base));

    let cache = match cfg.result_cache_max {
        Some(budget) => ResultCache::with_budget(cfg.result_cache_dir, budget),
        None => ResultCache::new(cfg.result_cache_dir),
    };
    let gauges = Arc::new(ConnGauges::default());
    let inner = Arc::new(Inner {
        queue_cap: cfg.queue_cap,
        default_scale: cfg.default_scale,
        executor,
        jobs: Mutex::new(HashMap::new()),
        queue: Mutex::new(QueueState { queue: VecDeque::new(), running: 0, draining: false }),
        work_cv: Condvar::new(),
        cache,
        metrics: Metrics::default(),
        gauges: Arc::clone(&gauges),
    });

    let workers = (0..workers)
        .map(|_| {
            let inner = Arc::clone(&inner);
            thread::spawn(move || worker_loop(&inner))
        })
        .collect();

    let handler = Arc::new(DaemonHandler { inner: Arc::clone(&inner) });
    let drained_probe = {
        let inner = Arc::clone(&inner);
        Arc::new(move || inner.is_drained()) as Arc<dyn Fn() -> bool + Send + Sync>
    };
    let event_loop = eventloop::spawn(LoopConfig {
        listener,
        handler,
        read_deadline: cfg.read_deadline,
        idle_timeout: cfg.idle_timeout,
        max_conns: cfg.max_conns,
        linger: cfg.linger,
        is_drained: drained_probe,
        gauges,
    })?;

    Ok(ServerHandle { inner, addr, event_loop: Some(event_loop), workers })
}

/// The per-job thread count: `explicit` when set, else `GR_THREADS`, else
/// the cores left to each of `workers` workers (at least 1).
fn job_threads(explicit: Option<usize>, workers: usize) -> usize {
    explicit
        .or_else(grbench::runner::threads_from_env)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()) / workers)
        .max(1)
}

/// The executor a server uses when [`ServerConfig::executor`] is `None`:
/// [`job::try_execute`] with `base`, its typed error passed through
/// unchanged, and a panic reported as "execution panicked".
pub fn default_executor(base: RunOptions) -> ExecuteFn {
    Arc::new(move |spec: &JobSpec| {
        catch_unwind(AssertUnwindSafe(|| job::try_execute(spec, &base)))
            .unwrap_or_else(|_| Err("execution panicked".to_string()))
    })
}

/// The event-loop handler of the daemon. Every endpoint here is
/// non-blocking (submit only enqueues; status is a poll), so it answers
/// on the loop thread.
struct DaemonHandler {
    inner: Arc<Inner>,
}

impl Handler for DaemonHandler {
    fn handle(&self, request: Request) -> Response {
        let started = Instant::now();
        let (endpoint, response) = route(&request, &self.inner);
        self.inner.metrics.record_request(endpoint, started.elapsed());
        response
    }
}

/// Pops and executes jobs until the drain completes.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let id = {
            let mut q = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(id) = q.queue.pop_front() {
                    q.running += 1;
                    break id;
                }
                if q.draining {
                    return;
                }
                q = inner.work_cv.wait(q).expect("queue lock");
            }
        };

        let spec = {
            let mut jobs = inner.jobs.lock().expect("jobs lock");
            let entry = jobs.get_mut(&id).expect("queued job is tracked");
            entry.state = JobState::Running;
            Arc::clone(&entry.spec)
        };

        Metrics::bump(&inner.metrics.executions);
        let state = match (inner.executor)(&spec) {
            Ok(out) => {
                let payload = Arc::new(out.payload);
                inner.cache.put(&id, Arc::clone(&payload));
                inner.metrics.replay_accesses.fetch_add(out.accesses, Ordering::Relaxed);
                Metrics::bump(&inner.metrics.jobs_completed);
                JobState::Done { payload, from_cache: false }
            }
            Err(msg) => {
                Metrics::bump(&inner.metrics.jobs_failed);
                JobState::Failed(msg)
            }
        };
        inner.jobs.lock().expect("jobs lock").get_mut(&id).expect("running job is tracked").state =
            state;

        let mut q = inner.queue.lock().expect("queue lock");
        q.running -= 1;
    }
}

fn error_body(message: &str) -> String {
    let mut doc = Json::obj();
    doc.set("error", message);
    doc.to_string_pretty()
}

fn route(request: &Request, inner: &Arc<Inner>) -> (Endpoint, Response) {
    let method = request.method.as_str();
    match request.path.as_str() {
        "/v1/jobs" => match method {
            "POST" => (Endpoint::SubmitJob, submit(request, inner)),
            _ => (Endpoint::SubmitJob, method_not_allowed("POST")),
        },
        "/v1/policies" => match method {
            "GET" => (Endpoint::Policies, policies_response()),
            _ => (Endpoint::Policies, method_not_allowed("GET")),
        },
        "/v1/apps" => match method {
            "GET" => (Endpoint::Apps, apps_response()),
            _ => (Endpoint::Apps, method_not_allowed("GET")),
        },
        "/v1/profiles" => match method {
            "GET" => (Endpoint::Profiles, profiles_response()),
            _ => (Endpoint::Profiles, method_not_allowed("GET")),
        },
        "/metrics" => match method {
            "GET" => (Endpoint::Metrics, metrics_response(inner)),
            _ => (Endpoint::Metrics, method_not_allowed("GET")),
        },
        path => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                if method != "GET" {
                    return (Endpoint::GetJob, method_not_allowed("GET"));
                }
                let response = match rest.strip_suffix("/result") {
                    Some(id) => raw_result(id, inner),
                    None => job_status(rest, inner),
                };
                return (Endpoint::GetJob, response);
            }
            (Endpoint::Other, Response::new(404).with_json(error_body("no such endpoint")))
        }
    }
}

fn method_not_allowed(allowed: &str) -> Response {
    Response::new(405).with_json(error_body("method not allowed")).with_header("Allow", allowed)
}

/// `POST /v1/jobs`: parse, canonicalize, coalesce/serve-from-cache/admit.
fn submit(request: &Request, inner: &Arc<Inner>) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return Response::new(400).with_json(error_body("body must be UTF-8")),
    };
    let spec = match JobSpec::parse(body, inner.default_scale) {
        Ok(spec) => spec,
        Err(msg) => return Response::new(400).with_json(error_body(&msg)),
    };
    let id = spec.id();

    let mut response = Json::obj();
    response.set("id", id.clone());

    let mut jobs = inner.jobs.lock().expect("jobs lock");
    if let Some(entry) = jobs.get(&id) {
        return match &entry.state {
            JobState::Done { .. } => {
                // A completed job resubmitted: the tracked payload *is* the
                // memory tier of the result cache.
                inner.metrics.record_cache_hit(CacheTier::Memory);
                response.set("state", "done").set("cached", true);
                Response::json(response.to_string_pretty())
            }
            state => {
                Metrics::bump(&inner.metrics.jobs_coalesced);
                response.set("state", state.name()).set("coalesced", true);
                Response::json(response.to_string_pretty())
            }
        };
    }

    if let Some((payload, tier)) = inner.cache.get(&id) {
        inner.metrics.record_cache_hit(tier);
        jobs.insert(
            id,
            Job { spec: Arc::new(spec), state: JobState::Done { payload, from_cache: true } },
        );
        response.set("state", "done").set("cached", true);
        return Response::json(response.to_string_pretty());
    }

    let mut q = inner.queue.lock().expect("queue lock");
    if q.draining {
        return Response::new(503).with_json(error_body("server is draining"));
    }
    if q.queue.len() >= inner.queue_cap {
        Metrics::bump(&inner.metrics.jobs_rejected);
        return Response::new(429)
            .with_json(error_body("job queue is full"))
            .with_header("Retry-After", "1");
    }
    q.queue.push_back(id.clone());
    let depth = q.queue.len();
    drop(q);
    jobs.insert(id, Job { spec: Arc::new(spec), state: JobState::Queued });
    drop(jobs);
    inner.work_cv.notify_one();
    Metrics::bump(&inner.metrics.jobs_submitted);

    response.set("state", "queued").set("queue_depth", depth as u64);
    Response::new(202).with_json(response.to_string_pretty())
}

/// `GET /v1/jobs/{id}`: lifecycle state, plus the parsed result when done.
fn job_status(id: &str, inner: &Arc<Inner>) -> Response {
    let jobs = inner.jobs.lock().expect("jobs lock");
    let Some(entry) = jobs.get(id) else {
        return Response::new(404).with_json(error_body("unknown job"));
    };
    let mut doc = Json::obj();
    doc.set("id", id).set("state", entry.state.name());
    match &entry.state {
        JobState::Done { payload, from_cache } => {
            doc.set("cached", *from_cache);
            let result = Json::parse(payload).expect("stored payloads are valid JSON");
            doc.set("result", result);
        }
        JobState::Failed(msg) => {
            doc.set("error", msg.as_str());
        }
        _ => {}
    }
    Response::json(doc.to_string_pretty())
}

/// `GET /v1/jobs/{id}/result`: the raw payload bytes, exactly as an
/// offline [`job::execute`] would produce them — the bit-for-bit
/// verification surface.
fn raw_result(id: &str, inner: &Arc<Inner>) -> Response {
    let jobs = inner.jobs.lock().expect("jobs lock");
    match jobs.get(id).map(|entry| &entry.state) {
        Some(JobState::Done { payload, .. }) => Response::json(payload.as_str()),
        Some(_) => Response::new(404).with_json(error_body("result not ready")),
        None => Response::new(404).with_json(error_body("unknown job")),
    }
}

pub(crate) fn policies_response() -> Response {
    let mut list = Vec::new();
    for entry in registry::ALL_POLICIES {
        let mut item = Json::obj();
        item.set("name", entry.name)
            .set("description", entry.description)
            .set("aliases", Json::Arr(entry.aliases.iter().map(|&a| Json::from(a)).collect()))
            .set("needs_next_use", entry.needs_next_use());
        list.push(item);
    }
    // Parameterized spelling families come from the registry too, so the
    // served vocabulary can never drift from what the spec validator (and
    // every other layer) resolves.
    let mut families = Vec::new();
    for family in registry::PARAMETERIZED {
        let mut item = Json::obj();
        item.set("pattern", family.pattern)
            .set("description", family.description)
            .set("base", family.base);
        families.push(item);
    }
    let mut doc = Json::obj();
    doc.set("policies", Json::Arr(list)).set("parameterized", Json::Arr(families));
    Response::json(doc.to_string_pretty())
}

pub(crate) fn profiles_response() -> Response {
    let mut list = Vec::new();
    for profile in grsynth::GRAPH_PROFILES {
        let mut item = Json::obj();
        item.set("name", profile.name)
            .set("description", profile.description)
            .set("frames", u64::from(profile.frames))
            .set("default_coherence_milli", (profile.default_coherence * 1000.0).round() as u64)
            .set("passes", profile.graph().passes().len() as u64);
        list.push(item);
    }
    let mut doc = Json::obj();
    doc.set("profiles", Json::Arr(list));
    Response::json(doc.to_string_pretty())
}

pub(crate) fn apps_response() -> Response {
    let mut list = Vec::new();
    for app in AppProfile::all() {
        let mut item = Json::obj();
        item.set("name", app.name)
            .set("abbrev", app.abbrev)
            .set("dx_version", app.dx_version)
            .set("width", app.width)
            .set("height", app.height)
            .set("frames", app.frames);
        list.push(item);
    }
    let mut doc = Json::obj();
    doc.set("apps", Json::Arr(list));
    Response::json(doc.to_string_pretty())
}

fn metrics_response(inner: &Arc<Inner>) -> Response {
    let (depth, running) = {
        let q = inner.queue.lock().expect("queue lock");
        (q.queue.len(), q.running)
    };
    let tracked = inner.jobs.lock().expect("jobs lock").len();
    let snap = ServerSnapshot {
        queue_depth: depth,
        inflight: running,
        jobs_tracked: tracked,
        cache_evictions: inner.cache.evictions(),
        cache_corrupt: inner.cache.corrupt(),
        cache_disk_bytes: inner.cache.disk_bytes(),
    };
    Response::new(200).with_text(inner.metrics.render(&snap, &inner.gauges))
}
