//! The shared experiment runner: every (policy, workload, frame) grid runs
//! through [`run_grid`].
//!
//! Each cell of the grid — one policy replaying one frame — is an
//! independent LLC simulation: policies are per-LLC-instance state machines
//! with no cross-frame coupling, so the grid is embarrassingly parallel.
//! A workload ([`GridSource`]) is frames from the process-wide
//! [`crate::framecache`], each synthesized once no matter how many
//! policies or runs replay it, or one imported trace.
//!
//! # Determinism
//!
//! Cell results come back in input order, and [`run_grid`], the only
//! fold, sums each (policy, workload) aggregate in ascending frame order
//! after all workers finish. Floating-point accumulation order therefore
//! never depends on thread scheduling: `GR_THREADS=1` and `GR_THREADS=64`
//! produce byte-identical figure output.

use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use grcache::{
    CharReport, CharTracker, InvariantObserver, Llc, LlcConfig, LlcObserver, LlcStats, MemoryLog,
    NullObserver, Policy,
};
use grdram::TimingParams;
use grgpu::{GpuConfig, Workload};
use grsynth::{AppProfile, FrameGraph, FrameWork, Frames};
use grtrace::Trace;
use gspc::registry;
use gspc::registry::PolicyVisitor;

use crate::framecache;
use crate::ExperimentConfig;

/// What to run and what to collect.
///
/// # Environment precedence
///
/// Three fields have environment-variable fallbacks (`threads` ←
/// `GR_THREADS`, `streamed` ← `GR_STREAMED`, `check` ← `GR_CHECK`). The
/// precedence is, highest first:
///
/// 1. an explicit field value set by the caller (including struct-update
///    syntax over a constructor),
/// 2. the environment variable **as read by the constructor**
///    ([`RunOptions::from_env`] and [`RunOptions::misses`] both snapshot
///    at construction time),
/// 3. the built-in default (`threads` additionally falls back to
///    `GR_THREADS` at *run* time when left `None` — see below).
///
/// Long-lived processes (the `grserve` daemon) must construct options
/// once at startup via [`RunOptions::from_env`] and clone them per job:
/// `from_env` pins `threads` to `Some(..)`, so a later `run_workload`
/// never re-reads the environment and a job can't observe mid-run env
/// mutation. The legacy `threads: None` convention re-resolves
/// `GR_THREADS` on every call and is only appropriate for one-shot CLIs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Registry names of the policies to evaluate (see
    /// [`gspc::registry::ALL_POLICIES`]).
    pub policies: Vec<String>,
    /// Collect the characterization report (epochs, inter-stream reuse).
    pub characterize: bool,
    /// Run the GPU timing model with this machine and memory system.
    pub timing: Option<(GpuConfig, TimingParams)>,
    /// LLC capacity at native scale, in megabytes (8 or 16 in the paper).
    pub llc_paper_mb: u64,
    /// Worker thread count of every multi-cell entry point
    /// ([`run_grid`], [`simulate_cells`], and through them the daemon's
    /// jobs and the artifact pipeline). `None` falls back to
    /// `GR_THREADS`, then to `std::thread::available_parallelism()`.
    /// Results are byte-identical at any value.
    pub threads: Option<usize>,
    /// Replay cells through the streaming disk tier
    /// ([`framecache::disk_source`]) instead of the in-memory trace.
    /// Results are bit-identical either way; the streamed path bounds peak
    /// memory by the chunk size. Falls back to the in-memory trace when
    /// `GR_TRACE_CACHE` is unset. Defaults to the `GR_STREAMED`
    /// environment variable.
    pub streamed: bool,
    /// Construct policies through the boxed [`registry::create`] fallback
    /// instead of the monomorphized [`registry::with_policy`] visitor.
    /// Results are bit-identical either way; the boxed path pays a virtual
    /// call per policy event. It has no environment fallback: only code
    /// sets it, to verify the two dispatch paths agree. Defaults to
    /// `false`.
    pub boxed: bool,
    /// Attach the structural-invariant checker
    /// ([`grcache::InvariantObserver`]) to every replay: mirror/Block
    /// agreement, validity-mask consistency, metadata budgets, and
    /// occupancy monotonicity are asserted after every hit and fill.
    /// Results are unchanged; a violation panics with the offending
    /// access's sequence number. Defaults to the `GR_CHECK` environment
    /// variable.
    pub check: bool,
    /// Always `None`: replay has one path, so there is nothing to select.
    /// The field exists only so the benchmark's sources, which build
    /// `RunOptions` by field name, keep compiling; it goes when the
    /// benchmark may be edited.
    pub probe: Option<std::convert::Infallible>,
}

impl RunOptions {
    /// Convenience constructor for a misses-only run on the 8 MB LLC.
    ///
    /// `streamed`/`check` are snapshotted from the environment here;
    /// `threads` is left `None`, so `GR_THREADS` is re-read per
    /// `run_workload` call (the one-shot-CLI convention). Long-lived
    /// processes should use [`RunOptions::from_env`] instead.
    pub fn misses(policies: &[&str]) -> Self {
        RunOptions { threads: None, ..Self::from_env(policies) }
    }

    /// Constructor that snapshots **every** environment fallback exactly
    /// once, at the moment of the call: `GR_THREADS` (pinned into
    /// `threads: Some(..)`), `GR_STREAMED`, and `GR_CHECK`.
    ///
    /// Runs driven by the returned options never consult the environment
    /// again, so a daemon that constructs its base options at startup and
    /// clones them per request serves every job with one consistent
    /// configuration even if the environment mutates mid-run. See the
    /// type-level docs for the full precedence rules.
    pub fn from_env(policies: &[&str]) -> Self {
        RunOptions {
            policies: policies.iter().map(|s| s.to_string()).collect(),
            characterize: false,
            timing: None,
            llc_paper_mb: 8,
            threads: Some(resolve_threads(None)),
            streamed: env_flag("GR_STREAMED"),
            boxed: false,
            check: env_flag("GR_CHECK"),
            probe: None,
        }
    }
}

/// The worker count `GR_THREADS` asks for, if it is set to an integer.
pub fn threads_from_env() -> Option<usize> {
    std::env::var("GR_THREADS").ok().and_then(|v| v.parse().ok())
}

/// `true` when the environment variable `name` is set to anything other
/// than empty or `0`.
fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// Per-(policy, application) aggregates.
#[derive(Debug, Clone, Default)]
pub struct AppAgg {
    /// Summed LLC statistics over the application's frames.
    pub stats: LlcStats,
    /// Summed characterization report (when requested).
    pub chars: CharReport,
    /// Sum of per-frame times in nanoseconds (when timing was requested).
    pub frame_ns_total: f64,
    /// Frames aggregated.
    pub frames: u32,
}

/// Throughput accounting for one [`run_grid`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPerf {
    /// LLC accesses simulated across every (policy, workload, frame) cell.
    pub llc_accesses: u64,
    /// Wall-clock duration of the whole run, in seconds. This includes
    /// first-run trace synthesis, Belady annotation, and the merge phase —
    /// see [`RunPerf::replay_seconds`] for the replay-only figure.
    pub wall_seconds: f64,
    /// Seconds spent inside the per-cell replay loops only, summed across
    /// cells. Workers run in parallel, so this is CPU time, not wall
    /// time; it excludes trace synthesis, annotation passes, and the
    /// merge, which is what makes it the number benchmark trajectories
    /// should track.
    pub replay_seconds: f64,
    /// Wall-clock seconds of the sequential merge phase.
    pub merge_seconds: f64,
    /// Worker threads used.
    pub threads: usize,
}

/// Results of a grid run, indexed by policy then workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResults {
    /// Workload labels, in the order given to [`run_grid`] (for
    /// [`run_workload`], the application abbreviations in Table 1 order).
    pub apps: Vec<String>,
    /// Policy names, in the order requested.
    pub policies: Vec<String>,
    /// Throughput accounting for the run (wall-clock is inherently
    /// non-deterministic; everything else in the results is not).
    pub perf: RunPerf,
    /// Aggregates, laid out `policy-major`: `policy_idx * apps.len() +
    /// workload_idx`. Dense indexing avoids the per-lookup key allocation a
    /// string-keyed map would need.
    data: Vec<AppAgg>,
    /// Precomputed name → index maps, so the figure-generation loops
    /// (24 policies × 12 apps per figure) never re-scan the name vectors.
    policy_index: HashMap<String, usize>,
    app_index: HashMap<String, usize>,
}

impl WorkloadResults {
    /// Builds the result container, precomputing the name → index maps
    /// [`WorkloadResults::get`] resolves names through.
    fn new(apps: Vec<String>, policies: Vec<String>, perf: RunPerf, data: Vec<AppAgg>) -> Self {
        debug_assert_eq!(data.len(), apps.len() * policies.len());
        let index = |names: &[String]| -> HashMap<String, usize> {
            names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect()
        };
        WorkloadResults {
            policy_index: index(&policies),
            app_index: index(&apps),
            apps,
            policies,
            perf,
            data,
        }
    }

    /// Index of `policy` in [`WorkloadResults::policies`], if it ran.
    pub fn policy_index(&self, policy: &str) -> Option<usize> {
        self.policy_index.get(policy).copied()
    }

    /// Index of the workload labelled `app`, if it ran.
    pub fn app_index(&self, app: &str) -> Option<usize> {
        self.app_index.get(app).copied()
    }

    /// The aggregate at `(policy_idx, app_idx)` — the allocation-free
    /// accessor for loops that already hold indices.
    pub fn get_indexed(&self, policy_idx: usize, app_idx: usize) -> &AppAgg {
        &self.data[policy_idx * self.apps.len() + app_idx]
    }

    /// The aggregate for `(policy, app)`.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the run.
    pub fn get(&self, policy: &str, app: &str) -> &AppAgg {
        match (self.policy_index(policy), self.app_index(app)) {
            (Some(pi), Some(ai)) => self.get_indexed(pi, ai),
            _ => panic!("no results for ({policy}, {app})"),
        }
    }

    /// Total LLC misses of `policy` on `app`.
    pub fn misses(&self, policy: &str, app: &str) -> u64 {
        self.get(policy, app).stats.total_misses()
    }

    /// Misses of `policy` on `app`, normalized to `baseline`.
    pub fn normalized_misses(&self, policy: &str, app: &str, baseline: &str) -> f64 {
        self.misses(policy, app) as f64 / self.misses(baseline, app).max(1) as f64
    }

    /// Workload-wide miss ratio of `policy` relative to `baseline`
    /// (total misses over all apps).
    pub fn overall_normalized_misses(&self, policy: &str, baseline: &str) -> f64 {
        let total = |p: &str| -> u64 { self.apps.iter().map(|a| self.misses(p, a)).sum() };
        total(policy) as f64 / total(baseline).max(1) as f64
    }
}

/// What one grid cell produces — one policy replaying one frame.
///
/// [`run_grid`] folds these into per-(policy, workload) aggregates;
/// [`simulate_cell`], [`simulate_cells`] and [`simulate_trace_cell`]
/// return them raw.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// LLC statistics of the replay.
    pub stats: LlcStats,
    /// Characterization report (when `opts.characterize` was set).
    pub chars: Option<CharReport>,
    /// Frame render time in nanoseconds (when `opts.timing` was set).
    pub frame_ns: f64,
    /// Accesses replayed.
    pub accesses: u64,
    /// Seconds spent inside the replay loop only (synthesis and
    /// annotation happen before the clock starts).
    pub replay_seconds: f64,
}

/// Where one grid workload's frames come from.
#[derive(Debug, Clone, Copy)]
pub enum GridSource<'a> {
    /// Frames `0..count` of a Table 1 application or a frame graph, served
    /// by the shared [`crate::framecache`] (streamed or in-memory per
    /// `opts.streamed`).
    Frames(Frames<'a>, u32),
    /// One external trace (e.g. an imported `.gtrace` file) as one frame.
    /// It carries no synthesis work counters, so timing runs report zero
    /// shading work (the LLC access count still feeds the memory model).
    Trace(&'a Trace),
}

/// One cell's input: a frame of a frame source, or an external trace
/// together with the next-use slot every annotated policy over it shares.
#[derive(Clone, Copy)]
enum CellSource<'a> {
    Frame(Frames<'a>, u32),
    Trace(&'a Trace, &'a OnceLock<Vec<u64>>),
}

/// Replays one `(policy, frames, frame)` cell — a Table 1 application or
/// a frame graph — through the same path as every [`run_grid`] cell:
/// [`gspc::registry::with_policy`] dispatch, shared [`crate::framecache`]
/// traces, streamed or in-memory per `opts.streamed`. Returns the raw cell
/// result.
///
/// # Panics
///
/// Panics when `policy_name` is not in the registry — validate with
/// [`gspc::registry::create`] first — or a frame graph fails
/// [`FrameGraph::validate`].
pub fn simulate_cell<'a>(
    policy_name: &str,
    frames: impl Into<Frames<'a>>,
    frame: u32,
    opts: &RunOptions,
    cfg: &ExperimentConfig,
) -> CellResult {
    run_cell(policy_name, CellSource::Frame(frames.into(), frame), opts, cfg)
}

/// [`simulate_cell`] on a frame graph. It exists only so the benchmark's
/// sources, which call it by name, keep compiling; it goes when the
/// benchmark may be edited.
pub fn simulate_graph_cell(
    policy_name: &str,
    graph: &FrameGraph,
    frame: u32,
    opts: &RunOptions,
    cfg: &ExperimentConfig,
) -> CellResult {
    simulate_cell(policy_name, graph, frame, opts, cfg)
}

/// Replays an external trace through one policy, exactly as a
/// [`GridSource::Trace`] cell of [`run_grid`]. A Belady-annotated policy
/// gets the trace's next-use annotation computed for this call alone; a
/// grid over several annotated policies computes it once.
///
/// # Panics
///
/// Panics when `policy_name` is not in the registry.
pub fn simulate_trace_cell(
    policy_name: &str,
    trace: &Trace,
    opts: &RunOptions,
    cfg: &ExperimentConfig,
) -> CellResult {
    run_cell(policy_name, CellSource::Trace(trace, &OnceLock::new()), opts, cfg)
}

/// Builds the named policy and hands it to `visitor`: the concrete type
/// through [`registry::with_policy`], or a `Box<dyn Policy>` through
/// [`registry::create`] when `boxed`. `Box<dyn Policy>` implements
/// `Policy`, so both run the same generic body — the boxed one with a
/// virtual call per policy event — and produce identical results.
///
/// # Panics
///
/// Panics when `name` is not in the registry.
fn dispatch<V: PolicyVisitor>(
    name: &str,
    llc_cfg: &LlcConfig,
    boxed: bool,
    visitor: V,
) -> V::Output {
    let out = if boxed {
        registry::create(name, llc_cfg).map(|policy| visitor.visit(policy))
    } else {
        registry::with_policy(name, llc_cfg, visitor)
    };
    out.unwrap_or_else(|| panic!("unknown policy {name}"))
}

/// The worker count a `threads` setting resolves to: the explicit value,
/// else `GR_THREADS`, else `std::thread::available_parallelism()`; at
/// least 1.
fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .or_else(threads_from_env)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Maps `f` over `items` on a work-stealing pool of up to `threads`
/// workers and returns the results in input order.
///
/// `threads` resolves like [`RunOptions::threads`] (`None` reads
/// `GR_THREADS`, then the core count). When it resolves to 1, or there is
/// at most one item, `f` runs inline on the calling thread and no thread
/// is spawned. Otherwise the calling thread and `threads - 1` scoped
/// threads claim items from a shared atomic counter and write each result
/// into that item's slot, so a slow item never holds up the rest and the
/// output order never depends on scheduling. A panic in `f` is re-raised
/// on the calling thread after every worker has stopped.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: Option<usize>,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = resolve_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // `Relaxed` suffices: the counter only hands out indices, and results
    // reach the caller through the slot mutexes and the joins.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let out = f(item);
        *slots[i].lock().expect("fan-out slot poisoned") = Some(out);
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(worker)).collect();
        worker();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("fan-out slot poisoned").expect("worker left a slot unfilled")
        })
        .collect()
}

/// Replays every `(policy, frames, frame)` cell exactly as
/// [`simulate_cell`] would, fanned over `opts.threads` workers, and
/// returns the results unfolded, in input order.
///
/// # Panics
///
/// As [`simulate_cell`], for any cell.
pub fn simulate_cells(
    cells: &[(&str, Frames<'_>, u32)],
    opts: &RunOptions,
    cfg: &ExperimentConfig,
) -> Vec<CellResult> {
    fan_out(cells, opts.threads, |&(policy, frames, frame)| {
        run_cell(policy, CellSource::Frame(frames, frame), opts, cfg)
    })
}

/// Replays every policy of `opts.policies` over every frame of every
/// labelled workload and folds the cells into per-(policy, workload)
/// aggregates, indexed by policy and label (labels must be distinct).
///
/// This is the one place that owns the grid's layout and fold order.
/// Workers take the cells policy, workload, frame, so a cold grid
/// synthesizes different frames side by side; one worker takes them
/// workload by workload, which keeps a serial sweep's peak memory down.
/// Each aggregate sums its cells in ascending frame order, so results are
/// byte-identical at any thread count. Annotated policies share each
/// workload's next-use annotation: a frame's from the
/// [`crate::framecache`], a trace's computed once per call.
///
/// # Panics
///
/// As [`simulate_cell`], for any cell.
pub fn run_grid(
    workloads: &[(&str, GridSource<'_>)],
    opts: &RunOptions,
    cfg: &ExperimentConfig,
) -> WorkloadResults {
    let started = Instant::now();
    let next_use: Vec<OnceLock<Vec<u64>>> = workloads.iter().map(|_| OnceLock::new()).collect();
    // (aggregate index, policy, cell) in policy, workload, frame order.
    let mut cells = Vec::new();
    for (pi, policy) in opts.policies.iter().enumerate() {
        for (wi, ((_, source), slot)) in workloads.iter().zip(&next_use).enumerate() {
            let cell = |source| (pi * workloads.len() + wi, policy.as_str(), source);
            match *source {
                GridSource::Frames(frames, count) => {
                    cells.extend((0..count).map(|frame| cell(CellSource::Frame(frames, frame))))
                }
                GridSource::Trace(trace) => cells.push(cell(CellSource::Trace(trace, slot))),
            }
        }
    }
    let threads = resolve_threads(opts.threads).min(cells.len().max(1));
    if threads == 1 {
        // A stable sort: workload, policy, frame.
        cells.sort_by_key(|&(ai, ..)| ai % workloads.len());
    }
    let results =
        fan_out(&cells, Some(threads), |&(_, policy, source)| run_cell(policy, source, opts, cfg));

    // Each aggregate meets its cells in ascending frame order.
    let merge_started = Instant::now();
    let mut data = vec![AppAgg::default(); opts.policies.len() * workloads.len()];
    let mut perf = RunPerf { threads, ..RunPerf::default() };
    for (&(ai, _, _), out) in cells.iter().zip(&results) {
        let agg = &mut data[ai];
        agg.frames += 1;
        agg.frame_ns_total += out.frame_ns;
        agg.stats.merge(&out.stats);
        if let Some(chars) = &out.chars {
            agg.chars.merge(chars);
        }
        perf.llc_accesses += out.accesses;
        perf.replay_seconds += out.replay_seconds;
    }
    perf.merge_seconds = merge_started.elapsed().as_secs_f64();
    perf.wall_seconds = started.elapsed().as_secs_f64();

    let labels = workloads.iter().map(|(label, _)| label.to_string()).collect();
    WorkloadResults::new(labels, opts.policies.clone(), perf, data)
}

/// Runs the 52-frame workload (or the `GR_FRAMES`-limited subset) through
/// every requested policy: [`run_grid`] over the twelve Table 1
/// applications, labelled by abbreviation.
pub fn run_workload(opts: &RunOptions, cfg: &ExperimentConfig) -> WorkloadResults {
    let apps = AppProfile::all();
    let workloads: Vec<_> = apps
        .iter()
        .map(|app| (app.abbrev, GridSource::Frames(app.into(), cfg.frames_for(app.frames))))
        .collect();
    run_grid(&workloads, opts, cfg)
}

/// Replays one cell. Frame cells try the streaming disk tier first when
/// `opts.streamed` asks for it; every other replay runs over an in-memory
/// trace, annotated when the policy needs next-use distances.
fn run_cell(
    policy_name: &str,
    source: CellSource<'_>,
    opts: &RunOptions,
    cfg: &ExperimentConfig,
) -> CellResult {
    let llc_cfg = cfg.llc(opts.llc_paper_mb);
    let needs_nu = registry::needs_next_use(policy_name);
    if let (true, CellSource::Frame(frames, frame)) = (opts.streamed, source) {
        let disk = framecache::disk_source(frames, frame, cfg.scale, needs_nu)
            .expect("streaming disk tier failed");
        // `None`: `GR_TRACE_CACHE` unset, so the in-memory trace below
        // serves the cell (the results are identical either way).
        if let Some(mut src) = disk {
            match replay_cell(policy_name, llc_cfg, &mut src.reader, &src.work, opts) {
                Ok(out) => return out,
                // The file passed the tier's whole-file checks but a record
                // failed to decode (or to read): drop the frame's files and
                // replay the cell from a fresh render on a fresh LLC.
                Err(_) => framecache::discard(frames, frame, cfg.scale),
            }
        }
    }
    let (data, trace_work);
    let (trace, work, next_use): (&Trace, &FrameWork, Option<&[u64]>) = match source {
        CellSource::Frame(frames, frame) => {
            data = framecache::frame_data(frames, frame, cfg.scale);
            (&*data.trace, &data.work, needs_nu.then(|| data.next_use().as_slice()))
        }
        CellSource::Trace(trace, slot) => {
            trace_work = FrameWork { raw_accesses: trace.len() as u64, ..FrameWork::default() };
            let annotate = || grcache::annotate_next_use(trace.accesses());
            (trace, &trace_work, needs_nu.then(|| slot.get_or_init(annotate).as_slice()))
        }
    };
    let out = match next_use {
        Some(ann) => {
            replay_cell(policy_name, llc_cfg, &mut trace.source_annotated(ann), work, opts)
        }
        None => replay_cell(policy_name, llc_cfg, &mut trace.source(), work, opts),
    };
    out.expect("in-memory replay cannot fail")
}

/// Replays `source` through the named policy, built by [`dispatch`] so the
/// replay loop compiles once per policy type with the callbacks inlined.
fn replay_cell<S: grtrace::AccessSource>(
    policy_name: &str,
    llc_cfg: LlcConfig,
    source: &mut S,
    work: &FrameWork,
    opts: &RunOptions,
) -> io::Result<CellResult> {
    struct Visit<'a, S> {
        llc_cfg: LlcConfig,
        source: &'a mut S,
        work: &'a FrameWork,
        opts: &'a RunOptions,
    }
    impl<S: grtrace::AccessSource> PolicyVisitor for Visit<'_, S> {
        type Output = io::Result<CellResult>;
        fn visit<P: Policy + 'static>(self, policy: P) -> Self::Output {
            replay(self.llc_cfg, policy, self.source, self.work, self.opts)
        }
    }
    dispatch(policy_name, &llc_cfg, opts.boxed, Visit { llc_cfg, source, work, opts })
}

/// Drains `source` through an LLC carrying exactly the observers the run
/// options ask for. Each arm is its own monomorphization: the default
/// misses-only path runs with [`grcache::NullObserver`] and carries zero
/// per-access observer branches.
fn replay<P: Policy, S: grtrace::AccessSource>(
    llc_cfg: LlcConfig,
    policy: P,
    source: &mut S,
    work: &FrameWork,
    opts: &RunOptions,
) -> io::Result<CellResult> {
    // The clock starts here — after synthesis, annotation, and disk-tier
    // setup — so `RunPerf::replay_seconds` measures pure replay.
    let started = Instant::now();
    // The invariant checker is composed at the type level (not through an
    // `Option`) so unchecked runs keep a `WANTS_SET_STATE = false` observer
    // and pay zero per-access snapshot work.
    let inv = opts.check.then(|| InvariantObserver::new(&llc_cfg, policy.state_bits_per_block()));
    match (opts.characterize, opts.timing.is_some(), inv) {
        (false, false, None) => {
            replay_with(llc_cfg, policy, NullObserver, source, started, work, opts)
        }
        (true, false, None) => {
            let obs = CharTracker::new(&llc_cfg);
            replay_with(llc_cfg, policy, obs, source, started, work, opts)
        }
        (false, true, None) => {
            replay_with(llc_cfg, policy, MemoryLog::new(), source, started, work, opts)
        }
        (true, true, None) => {
            let obs = (CharTracker::new(&llc_cfg), MemoryLog::new());
            replay_with(llc_cfg, policy, obs, source, started, work, opts)
        }
        (false, false, Some(inv)) => {
            replay_with(llc_cfg, policy, (inv, NullObserver), source, started, work, opts)
        }
        (true, false, Some(inv)) => {
            let obs = (inv, CharTracker::new(&llc_cfg));
            replay_with(llc_cfg, policy, obs, source, started, work, opts)
        }
        (false, true, Some(inv)) => {
            let obs = (inv, MemoryLog::new());
            replay_with(llc_cfg, policy, obs, source, started, work, opts)
        }
        (true, true, Some(inv)) => {
            let obs = (inv, (CharTracker::new(&llc_cfg), MemoryLog::new()));
            replay_with(llc_cfg, policy, obs, source, started, work, opts)
        }
    }
}

/// One monomorphized replay: drains `source` through an LLC carrying
/// `observer` and folds the result into a [`CellResult`].
fn replay_with<P: Policy, O: LlcObserver, S: grtrace::AccessSource>(
    llc_cfg: LlcConfig,
    policy: P,
    observer: O,
    source: &mut S,
    started: Instant,
    work: &FrameWork,
    opts: &RunOptions,
) -> io::Result<CellResult> {
    let mut llc = Llc::with_observer(llc_cfg, policy, observer);
    let n = llc.run_source(source)?;
    Ok(finish_cell(&llc, n, started, work, opts))
}

fn finish_cell<P: Policy, O: LlcObserver>(
    llc: &Llc<P, O>,
    accesses: u64,
    replay_started: Instant,
    work: &FrameWork,
    opts: &RunOptions,
) -> CellResult {
    let mut out = CellResult {
        stats: llc.stats().clone(),
        chars: llc.characterization().cloned(),
        frame_ns: 0.0,
        accesses,
        replay_seconds: replay_started.elapsed().as_secs_f64(),
    };
    if let Some((gpu, dram)) = &opts.timing {
        let workload = Workload {
            shaded_pixels: work.shaded_pixels,
            texel_samples: work.texel_samples,
            vertices: work.vertices,
            llc_accesses: accesses,
        };
        let log = llc.memory_log().unwrap_or(&[]);
        out.frame_ns = grgpu::time_frame(gpu, *dram, &workload, log).frame_ns;
    }
    out
}

/// Replays the consecutive frames `range` of `frames` through **one
/// persistent LLC** — no inter-frame flush — returning the cumulative
/// [`LlcStats`] snapshot after each frame. This is the pipeline's
/// first-class inter-frame mode: consecutive frames share static textures
/// and persistent surfaces, so a warm LLC saves misses relative to the
/// paper's per-frame cold-start methodology. For a frame graph with its
/// coherence knob below 1.0 the per-frame working set drifts, so the
/// savings decay with (1 − coherence).
///
/// Belady-annotated policies receive per-frame annotations: the horizon of
/// each "next use" ends at its frame boundary, a conservative model of
/// cross-frame OPT.
///
/// Reads `opts.llc_paper_mb`, `opts.check` and `opts.boxed`; the other
/// options do not apply.
pub fn run_frame_sequence<'a>(
    policy_name: &str,
    frames: impl Into<Frames<'a>>,
    range: Range<u32>,
    opts: &RunOptions,
    cfg: &ExperimentConfig,
) -> Vec<LlcStats> {
    struct Visit<'a> {
        policy_name: &'a str,
        frames: Frames<'a>,
        range: Range<u32>,
        opts: &'a RunOptions,
        cfg: &'a ExperimentConfig,
    }
    impl PolicyVisitor for Visit<'_> {
        type Output = Vec<LlcStats>;
        fn visit<P: Policy + 'static>(self, policy: P) -> Vec<LlcStats> {
            let llc_cfg = self.cfg.llc(self.opts.llc_paper_mb);
            if self.opts.check {
                let inv = InvariantObserver::new(&llc_cfg, policy.state_bits_per_block());
                self.run(Llc::with_observer(llc_cfg, policy, (inv, NullObserver)))
            } else {
                self.run(Llc::new(llc_cfg, policy))
            }
        }
    }
    impl Visit<'_> {
        fn run<P: Policy, O: LlcObserver>(self, mut llc: Llc<P, O>) -> Vec<LlcStats> {
            let needs_nu = registry::needs_next_use(self.policy_name);
            let mut snapshots = Vec::with_capacity(self.range.len());
            for frame in self.range {
                let data = framecache::frame_data(self.frames, frame, self.cfg.scale);
                let served = if needs_nu {
                    llc.run_source(&mut data.trace.source_annotated(data.next_use()))
                } else {
                    llc.run_source(&mut data.trace.source())
                };
                served.expect("in-memory replay cannot fail");
                snapshots.push(llc.stats().clone());
            }
            snapshots
        }
    }
    let visit = Visit { policy_name, frames: frames.into(), range, opts, cfg };
    dispatch(policy_name, &cfg.llc(opts.llc_paper_mb), opts.boxed, visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grsynth::Scale;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) }
    }

    #[test]
    fn runs_all_apps_one_frame() {
        let opts = RunOptions::misses(&["DRRIP", "NRU"]);
        let r = run_workload(&opts, &tiny_cfg());
        assert_eq!(r.apps.len(), 12);
        for app in &r.apps {
            assert!(r.misses("DRRIP", app) > 0);
            assert!(r.misses("NRU", app) > 0);
        }
    }

    #[test]
    fn opt_never_loses_to_drrip() {
        let opts = RunOptions::misses(&["OPT", "DRRIP"]);
        let r = run_workload(&opts, &tiny_cfg());
        for app in &r.apps {
            assert!(
                r.misses("OPT", app) <= r.misses("DRRIP", app),
                "OPT worse than DRRIP on {app}"
            );
        }
    }

    #[test]
    fn timing_runs_produce_fps() {
        let opts = RunOptions {
            timing: Some((GpuConfig::baseline(), TimingParams::ddr3_1600())),
            ..RunOptions::misses(&["DRRIP"])
        };
        let r = run_workload(&opts, &tiny_cfg());
        for app in &r.apps {
            assert!(r.get("DRRIP", app).frame_ns_total > 0.0, "no frame time for {app}");
        }
    }

    #[test]
    fn characterization_collects_reports() {
        let opts = RunOptions { characterize: true, ..RunOptions::misses(&["DRRIP"]) };
        let r = run_workload(&opts, &tiny_cfg());
        let agg = r.get("DRRIP", "BioShock");
        assert!(agg.chars.rt_produced > 0);
    }

    #[test]
    fn perf_counters_are_populated() {
        let opts = RunOptions::misses(&["NRU"]);
        let r = run_workload(&opts, &tiny_cfg());
        assert!(r.perf.llc_accesses > 0);
        assert!(r.perf.wall_seconds > 0.0);
        assert!(r.perf.threads >= 1);
        assert!(r.perf.replay_seconds > 0.0);
        assert!(r.perf.merge_seconds >= 0.0);
        // Replay is a strict subset of the run: synthesis and merge are
        // excluded, so on one thread replay time cannot exceed wall time.
        // With more workers replay time sums the workers' replay spans, each
        // bounded by wall time.
        assert!(r.perf.replay_seconds <= r.perf.wall_seconds * r.perf.threads as f64);
        if r.perf.threads == 1 {
            assert!(r.perf.replay_seconds <= r.perf.wall_seconds);
        }
    }

    #[test]
    fn indexed_lookups_match_names() {
        let opts = RunOptions::misses(&["DRRIP", "NRU"]);
        let r = run_workload(&opts, &tiny_cfg());
        let pi = r.policy_index("NRU").expect("NRU ran");
        let ai = r.app_index("BioShock").expect("BioShock ran");
        assert_eq!(
            r.get_indexed(pi, ai).stats.total_misses(),
            r.get("NRU", "BioShock").stats.total_misses()
        );
        assert!(r.policy_index("PLRU").is_none());
        assert!(r.app_index("NotAnApp").is_none());
    }

    /// The map-backed `get` must keep the exact panic message of the old
    /// linear-scan implementation for unknown pairs.
    #[test]
    fn unknown_pair_panics_with_stable_message() {
        let opts = RunOptions::misses(&["NRU"]);
        let r = run_workload(&opts, &tiny_cfg());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.get("PLRU", "BioShock");
        }))
        .expect_err("unknown policy must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert_eq!(msg, "no results for (PLRU, BioShock)");
    }

    /// Invariant-checked replay must not change results — the checker is
    /// a pure observer.
    #[test]
    fn checked_run_is_bit_identical() {
        let cfg = tiny_cfg();
        let policies = ["DRRIP", "GSPC+UCD", "OPT"];
        let plain = run_workload(&RunOptions::misses(&policies), &cfg);
        let checked =
            run_workload(&RunOptions { check: true, ..RunOptions::misses(&policies) }, &cfg);
        for policy in &policies {
            for app in &plain.apps {
                assert_eq!(
                    plain.get(policy, app).stats,
                    checked.get(policy, app).stats,
                    "checked stats diverged for ({policy}, {app})"
                );
            }
        }
    }

    /// One daemon-style cell replay must agree bit for bit with the same
    /// cell inside a full `run_workload` sweep (single frame, so the
    /// workload aggregate *is* the cell).
    #[test]
    fn simulate_cell_matches_workload_cell() {
        let cfg = tiny_cfg();
        let opts = RunOptions::misses(&["GSPC+UCD"]);
        let sweep = run_workload(&opts, &cfg);
        let app = AppProfile::by_abbrev("BioShock").expect("known app");
        let cell = simulate_cell("GSPC+UCD", &app, 0, &opts, &cfg);
        assert_eq!(cell.stats, sweep.get("GSPC+UCD", "BioShock").stats);
        assert!(cell.accesses > 0);
        assert!(cell.chars.is_none(), "characterization off by default");
    }

    /// `from_env` pins the thread count so later runs never re-read
    /// `GR_THREADS`; `misses` keeps the legacy per-run fallback.
    #[test]
    fn from_env_snapshots_thread_count() {
        let snap = RunOptions::from_env(&["NRU"]);
        assert!(snap.threads.is_some(), "from_env must pin threads");
        assert_eq!(snap.policies, vec!["NRU".to_string()]);
        assert!(RunOptions::misses(&["NRU"]).threads.is_none());
    }

    /// A frame-graph cell replays identically across mono/boxed dispatch,
    /// and an imported-style trace cell agrees with the graph cell that
    /// produced the trace.
    #[test]
    fn graph_and_trace_cells_agree() {
        let cfg = tiny_cfg();
        let graph = grsynth::graph_profile("postfx").expect("builtin profile").graph();
        for policy in ["DRRIP", "GSPC+UCD", "OPT"] {
            let opts = RunOptions::misses(&[policy]);
            let mono = simulate_cell(policy, &graph, 0, &opts, &cfg);
            let boxed =
                simulate_cell(policy, &graph, 0, &RunOptions { boxed: true, ..opts.clone() }, &cfg);
            assert_eq!(mono.stats, boxed.stats, "boxed graph cell diverged for {policy}");
            let data = framecache::frame_data(&graph, 0, cfg.scale);
            let via_trace = simulate_trace_cell(policy, &data.trace, &opts, &cfg);
            assert_eq!(mono.stats, via_trace.stats, "trace cell diverged for {policy}");
        }
    }

    /// A persistent-LLC graph sequence saves misses versus independent
    /// cold-start frames, and its cumulative snapshots are monotone.
    #[test]
    fn graph_sequence_warm_llc_saves_misses() {
        let cfg = tiny_cfg();
        let graph = grsynth::graph_profile("postfx").expect("builtin profile").graph();
        let seq = run_frame_sequence("DRRIP", &graph, 0..2, &RunOptions::misses(&[]), &cfg);
        assert_eq!(seq.len(), 2);
        assert!(seq[1].total_misses() > seq[0].total_misses(), "snapshots are cumulative");
        let cold: u64 = (0..2)
            .map(|f| {
                simulate_cell("DRRIP", &graph, f, &RunOptions::misses(&["DRRIP"]), &cfg)
                    .stats
                    .total_misses()
            })
            .sum();
        assert!(
            seq[1].total_misses() < cold,
            "warm LLC must save misses versus per-frame cold starts"
        );
    }

    /// The fan-out returns cells in input order even when an expensive
    /// cell is claimed first and cheap ones finish long before it.
    #[test]
    fn simulate_cells_returns_input_order() {
        let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(2) };
        let apps = AppProfile::all();
        let graph = grsynth::graph_profile("cpu-like").expect("builtin profile").graph();
        let annotated = registry::ALL_POLICIES.iter().find(|e| e.needs_next_use());
        let slow = annotated.expect("the registry has an annotated policy").name;
        // An annotated replay of a whole app frame first, then a run of
        // small graph frames over the registry's policies, then another
        // app frame.
        let mut cells: Vec<(&str, Frames<'_>, u32)> = vec![(slow, (&apps[0]).into(), 1)];
        for (frame, entry) in registry::ALL_POLICIES.iter().take(7).enumerate() {
            cells.push((entry.name, (&graph).into(), frame as u32 % 3));
        }
        cells.push((registry::ALL_POLICIES[0].name, (&apps[5]).into(), 0));
        let opts = RunOptions { characterize: true, ..RunOptions::misses(&[]) };
        let fanned = simulate_cells(&cells, &RunOptions { threads: Some(4), ..opts.clone() }, &cfg);
        assert_eq!(fanned.len(), cells.len());
        for (&(policy, frames, frame), got) in cells.iter().zip(&fanned) {
            let want = simulate_cell(policy, frames, frame, &opts, &cfg);
            assert_eq!(got.stats, want.stats, "{policy} frame {frame} out of place");
            assert_eq!(got.accesses, want.accesses);
        }
    }

    /// `fan_out` keeps input order for any worker count, runs nothing on
    /// an empty list, and re-raises a worker's panic with its message.
    #[test]
    fn fan_out_keeps_order_and_propagates_panics() {
        let items: Vec<u64> = (0..50).collect();
        for threads in [1, 3, 8] {
            let out = fan_out(&items, Some(threads), |&n| {
                std::thread::sleep(std::time::Duration::from_micros((50 - n) * 20));
                n * n
            });
            assert_eq!(out, items.iter().map(|n| n * n).collect::<Vec<_>>());
        }
        assert!(fan_out(&[] as &[u64], Some(4), |&n| n).is_empty());
        let err = std::panic::catch_unwind(|| {
            fan_out(&items, Some(4), |&n| if n == 17 { panic!("cell {n} failed") } else { n })
        })
        .expect_err("a worker panic reaches the caller");
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("cell 17 failed"));
    }

    /// The boxed fallback and the monomorphized visitor path must agree
    /// bit for bit.
    #[test]
    fn boxed_run_is_bit_identical() {
        let cfg = tiny_cfg();
        let policies = ["OPT", "GSPC+UCD", "DRRIP"];
        let mono = run_workload(&RunOptions::misses(&policies), &cfg);
        let boxed =
            run_workload(&RunOptions { boxed: true, ..RunOptions::misses(&policies) }, &cfg);
        for policy in &policies {
            for app in &mono.apps {
                assert_eq!(
                    mono.get(policy, app).stats,
                    boxed.get(policy, app).stats,
                    "boxed stats diverged for ({policy}, {app})"
                );
            }
        }
    }
}
