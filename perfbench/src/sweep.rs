//! `sweep-fps`: the cold paper sweep of Figures 12 and 15 — every app ×
//! two frames × the Figure 12 policies plus DRRIP and OPT, at quarter
//! scale, with the GPU timing model on.
//!
//! The untraced pass is one `run_workload` call in a process whose frame
//! cache starts empty. The traced pass drives the same cells layer by
//! layer through public calls, so each layer's time can be told apart.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use grbench::{framecache, run_workload, ExperimentConfig, RunOptions, WorkloadResults};
use grcache::{Llc, LlcConfig, LlcStats, MemoryLog, Policy};
use grcheck::oracle::oracle_for;
use grcheck::refmodel::{RefLlc, RefStats};
use grdram::{DramSim, TimingParams};
use grgpu::{GpuConfig, Workload};
use grjson::Json;
use grsynth::{AppProfile, Scale};
use grtrace::Trace;
use gspc::registry::{self, PolicyVisitor};

use crate::inputs::{Rng, SweepInputs, SWEEP_FRAMES};
use crate::span::Tracer;
use crate::{peak_rss_mb, ready, Args};

const SCALE: Scale = Scale::Quarter;

fn config() -> ExperimentConfig {
    ExperimentConfig { scale: SCALE, frames_per_app: Some(SWEEP_FRAMES) }
}

fn timing() -> (GpuConfig, TimingParams) {
    (GpuConfig::baseline(), TimingParams::ddr3_1600())
}

/// The exact simulated outcome of a sweep, in a form both passes produce.
struct Exact {
    misses: u64,
    fps_geomean: f64,
    digest: u64,
}

/// Folds per-(policy, app) misses and summed frame times, in the inputs'
/// policy order and Table 1 app order, into exact comparable values.
fn exact(aggs: impl Iterator<Item = (u64, f64, u32)>) -> Exact {
    let (mut misses, mut log_fps, mut n) = (0u64, 0.0f64, 0u32);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for (m, frame_ns_total, frames) in aggs {
        misses += m;
        log_fps += (f64::from(frames) * 1e9 / frame_ns_total).ln();
        n += 1;
        for word in [m, frame_ns_total.to_bits()] {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    Exact { misses, fps_geomean: (log_fps / f64::from(n.max(1))).exp(), digest }
}

fn exact_of(r: &WorkloadResults) -> Exact {
    exact((0..r.policies.len()).flat_map(|pi| {
        (0..r.apps.len()).map(move |ai| {
            let agg = r.get_indexed(pi, ai);
            (agg.stats.total_misses(), agg.frame_ns_total, agg.frames)
        })
    }))
}

pub fn run(args: &Args) -> Result<Json, String> {
    let seed = args.num("seed", 0u64)?;
    let checks = args.num("check", 0usize)?;
    let inputs = SweepInputs::from_seed(seed);
    let cfg = config();
    let names: Vec<&str> = inputs.policies.iter().map(String::as_str).collect();
    let opts = RunOptions {
        timing: Some(timing()),
        llc_paper_mb: inputs.llc_mb,
        threads: Some(1),
        streamed: false,
        boxed: false,
        check: false,
        probe: None,
        ..RunOptions::from_env(&names)
    };

    ready();
    let started = Instant::now();
    let results = run_workload(&opts, &cfg);
    let wall_s = started.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let untraced = exact_of(&results);
    let cells: u64 = AppProfile::all()
        .iter()
        .map(|a| u64::from(cfg.frames_for(a.frames)) * inputs.policies.len() as u64)
        .sum();
    let mut doc = Json::obj();
    doc.set("wall_s", wall_s)
        .set("peak_rss_mb", rss)
        .set("accesses", results.perf.llc_accesses)
        .set("cells", cells)
        .set("llc_mb", inputs.llc_mb)
        .set("misses", untraced.misses)
        .set("fps_geomean", untraced.fps_geomean)
        .set("digest", format!("{:016x}", untraced.digest));

    let (checked, skipped, failures) = oracle_checks(&results, &inputs, checks, seed);
    doc.set("checked", checked)
        .set("skipped", skipped)
        .set("check_failures", failures.len() as u64);
    for f in &failures {
        eprintln!("sweep check failed: {f}");
    }

    if args.flag("trace") {
        let spans = args.str("spans").ok().map(Path::new);
        let traced = traced(&inputs, &cfg, &mut doc, spans)?;
        let same = traced.misses == untraced.misses
            && traced.digest == untraced.digest
            && traced.fps_geomean.to_bits() == untraced.fps_geomean.to_bits();
        doc.set("trace_matches", same);
    }
    Ok(doc)
}

/// Replays a seeded sample of (policy, app) aggregates through the naive
/// reference LLC running the policy's independent oracle, and compares the
/// summed statistics with the runner's exactly. Returns (pairs checked,
/// sweep policies skipped because they opt out of the oracle, failure
/// messages).
fn oracle_checks(
    results: &WorkloadResults,
    inputs: &SweepInputs,
    count: usize,
    seed: u64,
) -> (u64, u64, Vec<String>) {
    let cfg = config();
    let llc_cfg = cfg.llc(inputs.llc_mb);
    let apps = AppProfile::all();
    let (with_oracle, without): (Vec<&String>, Vec<&String>) =
        inputs.policies.iter().partition(|p| oracle_for(p, &llc_cfg).is_some());
    let skipped = without.len() as u64;
    let mut rng = Rng::new(seed, 4);
    let (mut checked, mut failures) = (0u64, Vec::new());
    for _ in 0..count {
        let policy = with_oracle[rng.below(with_oracle.len())];
        let app = &apps[rng.below(apps.len())];
        let mut sum = RefStats::default();
        for frame in 0..cfg.frames_for(app.frames) {
            let data = framecache::frame_data(app, frame, cfg.scale);
            let oracle = oracle_for(policy, &llc_cfg).expect("policy has an oracle");
            let mut reference = RefLlc::new(llc_cfg, oracle);
            let nu = registry::needs_next_use(policy).then(|| Arc::clone(data.next_use()));
            for (i, access) in data.trace.accesses().iter().enumerate() {
                reference.access(access, nu.as_ref().map_or(u64::MAX, |nu| nu[i]));
            }
            add(&mut sum, reference.stats());
        }
        checked += 1;
        if let Err(msg) = sum.matches(&results.get(policy, app.abbrev).stats) {
            failures.push(format!("{policy} on {}: {msg}", app.abbrev));
        }
    }
    (checked, skipped, failures)
}

fn add(into: &mut RefStats, s: &RefStats) {
    for (a, b) in into.hits.iter_mut().zip(s.hits) {
        *a += b;
    }
    for (a, b) in into.misses.iter_mut().zip(s.misses) {
        *a += b;
    }
    for (a, b) in into.fills.iter_mut().zip(s.fills) {
        *a += b;
    }
    for (a, b) in into.distant_fills.iter_mut().zip(s.distant_fills) {
        *a += b;
    }
    into.bypassed_reads += s.bypassed_reads;
    into.bypassed_writes += s.bypassed_writes;
    into.writebacks += s.writebacks;
    into.evictions += s.evictions;
}

/// One cell's replay through the registry's monomorphized dispatch, with
/// the memory log the timing model needs.
struct Replay<'a> {
    cfg: LlcConfig,
    trace: &'a Trace,
    next_use: Option<&'a Arc<Vec<u64>>>,
}

impl PolicyVisitor for Replay<'_> {
    type Output = (LlcStats, Vec<(u64, bool)>);

    fn visit<P: Policy + 'static>(self, policy: P) -> Self::Output {
        let mut llc = Llc::with_observer(self.cfg, policy, MemoryLog::new());
        let served = match self.next_use {
            Some(nu) => llc.run_source(&mut self.trace.source_annotated(nu)),
            None => llc.run_source(&mut self.trace.source()),
        };
        served.expect("in-memory replay cannot fail");
        let stats = llc.stats().clone();
        (stats, llc.into_observer().into_entries())
    }
}

#[derive(Default, Clone)]
struct Agg {
    stats: LlcStats,
    frame_ns_total: f64,
    frames: u32,
}

/// The traced pass: the same cells as `run_workload`, driven layer by
/// layer from a cold frame cache, with a span around every layer call.
/// Adds the per-layer metrics to `doc`, writes the spans to `spans`, and
/// returns the exact outcome.
fn traced(
    inputs: &SweepInputs,
    cfg: &ExperimentConfig,
    doc: &mut Json,
    spans: Option<&Path>,
) -> Result<Exact, String> {
    framecache::clear();
    let llc_cfg = cfg.llc(inputs.llc_mb);
    let (gpu, dram) = timing();
    let apps = AppProfile::all();
    let np = inputs.policies.len();
    let mut cells: Vec<Vec<Vec<(LlcStats, f64)>>> = vec![vec![Vec::new(); apps.len()]; np];
    let (mut llc_accesses, mut raw_accesses, mut annotated, mut replayed) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut misses, mut requests, mut row_hits, mut row_total) = (0u64, 0u64, 0u64, 0u64);
    let mut aggs = vec![Agg::default(); np * apps.len()];

    let mut tr = Tracer::new();
    tr.span("grbench.runner", "", 0, |tr| {
        let mut req = 0u64;
        for (ai, app) in apps.iter().enumerate() {
            for frame in 0..cfg.frames_for(app.frames) {
                req += 1;
                let data = tr.span("grsynth", app.abbrev, req, |_| {
                    framecache::frame_data(app, frame, cfg.scale)
                });
                llc_accesses += data.trace.len() as u64;
                raw_accesses += data.work.raw_accesses;
                let nu = if inputs.policies.iter().any(|p| registry::needs_next_use(p)) {
                    annotated += data.trace.len() as u64;
                    Some(tr.span("grcache.optgen", "", req, |_| Arc::clone(data.next_use())))
                } else {
                    None
                };
                for (pi, policy) in inputs.policies.iter().enumerate() {
                    let next_use = nu.as_ref().filter(|_| registry::needs_next_use(policy));
                    let (stats, log) = tr.span("grcache.llc", policy, req, |_| {
                        let visit = Replay { cfg: llc_cfg, trace: &data.trace, next_use };
                        registry::with_policy(policy, &llc_cfg, visit).expect("registry policy")
                    });
                    replayed += data.trace.len() as u64;
                    misses += stats.total_misses();
                    let work = Workload {
                        shaded_pixels: data.work.shaded_pixels,
                        texel_samples: data.work.texel_samples,
                        vertices: data.work.vertices,
                        llc_accesses: data.trace.len() as u64,
                    };
                    let timing =
                        tr.span("grgpu", "", req, |_| grgpu::time_frame(&gpu, dram, &work, &log));
                    // The timing model runs the DRAM simulator internally;
                    // replaying the same request list once more, outside it,
                    // separates DRAM time from the model's own time.
                    let dstats = tr.span("tracing.dram_replica", "", req, |_| {
                        let list: Vec<grdram::Request> = log
                            .iter()
                            .map(|&(block, write)| grdram::Request {
                                block,
                                write,
                                arrival_ns: 0.0,
                            })
                            .collect();
                        DramSim::new(dram).run(&list)
                    });
                    requests += log.len() as u64;
                    row_hits += dstats.row_hits;
                    row_total += dstats.row_hits + dstats.row_misses;
                    cells[pi][ai].push((stats, timing.frame_ns));
                }
            }
        }
        // The runner's merge: frames fold in ascending order per
        // (policy, app), the same floating-point order as `run_workload`.
        tr.span("grbench.runner.merge", "", 0, |_| {
            for (pi, per_app) in cells.iter().enumerate() {
                for (ai, frames) in per_app.iter().enumerate() {
                    let agg = &mut aggs[pi * apps.len() + ai];
                    for (stats, frame_ns) in frames {
                        agg.frames += 1;
                        agg.frame_ns_total += frame_ns;
                        agg.stats.merge(stats);
                    }
                }
            }
        });
    });

    let layers = tr.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let root = get("grbench.runner");
    let replica = get("tracing.dram_replica");
    let synth = get("grsynth");
    let llc = get("grcache.llc");
    let gpu_t = get("grgpu");
    let out = exact(aggs.iter().map(|a| (a.stats.total_misses(), a.frame_ns_total, a.frames)));
    let traced_wall = root.busy_s - replica.busy_s;
    let untraced_wall = doc.get("wall_s").and_then(Json::as_f64).unwrap_or(traced_wall);

    let mut m = Json::obj();
    m.set("grsynth.busy_s", synth.busy_s)
        .set("grsynth.frames", synth.spans)
        .set("grsynth.ns_per_llc_access", synth.busy_s * 1e9 / llc_accesses.max(1) as f64)
        .set("grcache.render.pass_ratio", llc_accesses as f64 / raw_accesses.max(1) as f64)
        .set("grcache.render.llc_accesses", llc_accesses)
        .set("grcache.render.raw_accesses", raw_accesses)
        .set("grcache.optgen.busy_s", get("grcache.optgen").busy_s)
        .set("grcache.optgen.accesses", annotated)
        .set("grcache.llc.busy_s", llc.busy_s)
        .set("grcache.llc.accesses", replayed)
        .set("grcache.llc.acc_per_s", replayed as f64 / llc.busy_s.max(1e-9))
        .set("grcache.llc.misses", misses)
        .set("grdram.busy_s", replica.busy_s)
        .set("grdram.requests", requests)
        .set("grdram.row_hit_rate", row_hits as f64 / row_total.max(1) as f64)
        .set("grgpu.self_s", (gpu_t.busy_s - replica.busy_s).max(0.0))
        .set("grgpu.frames_timed", gpu_t.spans)
        .set("grgpu.sim_fps_geomean", out.fps_geomean)
        .set("grbench.runner.merge_s", get("grbench.runner.merge").busy_s)
        .set("grbench.runner.cells", llc.spans)
        .set("grbench.runner.unattributed_s", root.self_s)
        .set("tracing.wall_s", traced_wall)
        .set("tracing.overhead_frac", traced_wall / untraced_wall - 1.0);
    for (policy, busy) in tr.busy_by_detail("grcache.llc") {
        m.set(format!("grcache.llc.busy_s.{}", metric_suffix(&policy)), busy);
    }
    doc.set("layers", m);
    if let Some(path) = spans {
        tr.write_jsonl(path).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}

/// A policy name as a metric-name suffix (`GSPC+UCD` → `GSPC_UCD`).
fn metric_suffix(policy: &str) -> String {
    policy
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}
