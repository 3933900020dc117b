//! `profile-stream`: every built-in frame-graph profile at seed-drawn
//! coherence values, several frames each, replayed once by DRRIP through
//! the streamed disk tier (`.grtr` files) from an empty trace cache.
//!
//! The untraced pass calls `simulate_graph_cell` with streaming on, so
//! each cell synthesizes its frame band by band into the disk tier and
//! replays it back through the chunked reader. The traced pass drives the
//! same steps — graph synthesis, `TraceWriter`, `ChunkedReader`, and the
//! LLC — one at a time.

use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use grbench::{framecache, simulate_graph_cell, simulate_trace_cell, ExperimentConfig, RunOptions};
use grcache::LlcStats;
use grjson::Json;
use grsynth::{graph_profile, FrameGraph, GraphRenderer, GraphStream, Scale};
use grtrace::io::{ChunkedReader, TraceWriter};
use grtrace::{AccessSource, Trace};

use crate::inputs::{stream_cells, GraphCell, Rng};
use crate::span::Tracer;
use crate::{peak_rss_mb, ready, Args};

const POLICY: &str = "DRRIP";

fn config() -> ExperimentConfig {
    ExperimentConfig { scale: Scale::Quarter, frames_per_app: None }
}

fn graph(cell: &GraphCell) -> FrameGraph {
    graph_profile(cell.profile)
        .expect("built-in profile")
        .graph_with_coherence(cell.coherence_milli as f64 / 1000.0)
}

fn trace_files(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "grtr"))
            .count()
    })
}

pub fn run(args: &Args) -> Result<Json, String> {
    let seed = args.num("seed", 0u64)?;
    let checks = args.num("check", 0usize)?;
    let dir = PathBuf::from(
        std::env::var_os("GR_TRACE_CACHE").ok_or("GR_TRACE_CACHE must name an empty directory")?,
    );
    if trace_files(&dir) != 0 {
        return Err(format!("trace cache {} is not empty", dir.display()));
    }
    let cells = stream_cells(seed);
    let graphs: Vec<FrameGraph> = cells.iter().map(graph).collect();
    let cfg = config();
    let opts = RunOptions {
        threads: Some(1),
        streamed: true,
        boxed: false,
        check: false,
        probe: None,
        ..RunOptions::from_env(&[POLICY])
    };

    ready();
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(cells.len());
    let mut accesses = 0u64;
    let mut stats: Vec<LlcStats> = Vec::with_capacity(cells.len());
    for (cell, g) in cells.iter().zip(&graphs) {
        let t = Instant::now();
        let out = simulate_graph_cell(POLICY, g, cell.frame, &opts, &cfg);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        accesses += out.accesses;
        stats.push(out.stats);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    // Cold means every cell synthesized its own frame into the empty tier.
    let written = trace_files(&dir);
    let misses: u64 = stats.iter().map(LlcStats::total_misses).sum();
    let mut doc = Json::obj();
    doc.set("wall_s", wall_s)
        .set("peak_rss_mb", rss)
        .set("accesses", accesses)
        .set("cells", cells.len() as u64)
        .set("frames_synthesized", written as u64)
        .set("misses", misses)
        .set("cell_ms", Json::Arr(latencies.into_iter().map(Json::from).collect()));

    // Streamed results must equal an in-memory render of the same frame
    // replayed through the same policy.
    let mut rng = Rng::new(seed, 5);
    let memory_opts = RunOptions { streamed: false, ..opts.clone() };
    let mut failures = 0u64;
    for _ in 0..checks {
        let i = rng.below(cells.len());
        let trace = GraphRenderer::new(&graphs[i], cells[i].frame, cfg.scale).render();
        let direct = simulate_trace_cell(POLICY, &trace, &memory_opts, &cfg);
        if direct.stats != stats[i] {
            eprintln!(
                "stream check failed: cell {i} ({:?}) differs from in-memory replay",
                cells[i]
            );
            failures += 1;
        }
    }
    doc.set("checked", checks as u64).set("check_failures", failures);

    if args.flag("trace") {
        let spans = args.str("spans").ok().map(Path::new);
        let scratch = dir.join("traced");
        std::fs::create_dir_all(&scratch).map_err(|e| format!("creating {scratch:?}: {e}"))?;
        let (traced, layers) =
            traced(&cells, &graphs, &memory_opts, &cfg, &scratch, wall_s, spans)?;
        doc.set("trace_matches", traced == stats).set("layers", layers);
    }
    Ok(doc)
}

/// The traced pass over the same cells: synthesis, `.grtr` write, chunked
/// read, and LLC replay each under their own spans. Returns each cell's
/// statistics, for comparison with the untraced pass, and the per-layer
/// metrics.
fn traced(
    cells: &[GraphCell],
    graphs: &[FrameGraph],
    opts: &RunOptions,
    cfg: &ExperimentConfig,
    scratch: &Path,
    untraced_wall: f64,
    spans: Option<&Path>,
) -> Result<(Vec<LlcStats>, Json), String> {
    let io_err = |e: std::io::Error| format!("traced stream I/O: {e}");
    let (mut emitted, mut raw, mut bytes, mut misses) = (0u64, 0u64, 0u64, 0u64);
    let mut out = Vec::with_capacity(cells.len());
    let mut tr = Tracer::new();
    tr.span("grbench.runner", "", 0, |tr| -> Result<(), String> {
        for (i, (cell, g)) in cells.iter().zip(graphs).enumerate() {
            let req = i as u64 + 1;
            let path = scratch.join(format!("{}_f{}.grtr", g.cache_key(), cell.frame));
            let file = std::fs::File::create(&path).map_err(io_err)?;
            let mut writer =
                TraceWriter::new(BufWriter::new(file), g.name(), cell.frame).map_err(io_err)?;
            let mut stream = tr
                .span("grsynth", cell.profile, req, |_| GraphStream::new(g, cell.frame, cfg.scale));
            while tr.span("grsynth", cell.profile, req, |_| stream.advance()).map_err(io_err)? {
                tr.span("grtrace.io", "write", req, |_| {
                    stream.chunk().accesses.iter().try_for_each(|a| writer.push(a))
                })
                .map_err(io_err)?;
            }
            tr.span("grtrace.io", "write", req, |_| writer.finish()?.flush()).map_err(io_err)?;
            emitted += stream.emitted();
            raw += stream.work().raw_accesses;
            bytes += std::fs::metadata(&path).map_err(io_err)?.len();

            let trace = tr
                .span("grtrace.io", "read", req, |_| -> std::io::Result<Trace> {
                    let file = BufReader::new(std::fs::File::open(&path)?);
                    let mut reader = ChunkedReader::new(file, framecache::stream_chunk())?;
                    let mut trace =
                        Trace::with_capacity(g.name(), cell.frame, reader.remaining() as usize);
                    while reader.advance()? {
                        for a in reader.chunk().accesses {
                            trace.push(*a);
                        }
                    }
                    Ok(trace)
                })
                .map_err(io_err)?;
            let stats = tr.span("grcache.llc", POLICY, req, |_| {
                simulate_trace_cell(POLICY, &trace, opts, cfg).stats
            });
            misses += stats.total_misses();
            out.push(stats);
        }
        Ok(())
    })?;

    let layers = tr.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let io = tr.busy_by_detail("grtrace.io");
    let (synth, llc, root) = (get("grsynth"), get("grcache.llc"), get("grbench.runner"));
    let replayed: u64 = out.iter().map(LlcStats::total_accesses).sum();
    let mut m = Json::obj();
    m.set("grsynth.busy_s", synth.busy_s)
        .set("grsynth.frames", cells.len() as u64)
        .set("grsynth.ns_per_llc_access", synth.busy_s * 1e9 / emitted.max(1) as f64)
        .set("grcache.render.pass_ratio", emitted as f64 / raw.max(1) as f64)
        .set("grcache.render.llc_accesses", emitted)
        .set("grcache.render.raw_accesses", raw)
        .set("grtrace.io.write_s", io.get("write").copied().unwrap_or(0.0))
        .set("grtrace.io.read_s", io.get("read").copied().unwrap_or(0.0))
        .set("grtrace.io.bytes", bytes)
        .set("grcache.llc.busy_s", llc.busy_s)
        .set("grcache.llc.accesses", replayed)
        .set("grcache.llc.acc_per_s", replayed as f64 / llc.busy_s.max(1e-9))
        .set("grcache.llc.misses", misses)
        .set("grbench.runner.cells", cells.len() as u64)
        .set("grbench.runner.unattributed_s", root.self_s)
        .set("tracing.wall_s", root.busy_s)
        .set("tracing.overhead_frac", root.busy_s / untraced_wall - 1.0);
    if let Some(path) = spans {
        tr.write_jsonl(path).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok((out, m))
}
