//! Process-wide frame-trace cache.
//!
//! Every figure and table replays the same 52 synthesized frames, and a
//! `grart` tier chains a dozen runs over them, so the seed harness
//! re-rendered each frame ~10–15 times. This module synthesizes each
//! `(app, frame, scale)` exactly once per process and shares the result —
//! including the Belady next-use annotation, which every OPT replay needs —
//! behind `Arc`s, so the parallel runner's workers and successive runners
//! all read the same immutable trace.
//!
//! An optional on-disk tier (`GR_TRACE_CACHE=<dir>`) persists traces in the
//! [`grtrace::io`] binary format — plus a small `.work` sidecar carrying the
//! frame's [`FrameWork`] counters and a `.nu` sidecar carrying the Belady
//! next-use annotation — so repeated *processes* — e.g. `grsim` invocations
//! or reruns of `grart` — skip both synthesis and the offline
//! `annotate_next_use` pass entirely.
//!
//! The disk tier is also a *streaming* tier: [`ensure_on_disk`] synthesizes
//! a frame band by band straight to the file (never materializing the
//! trace), and [`disk_source`] replays it back through a bounded-memory
//! [`ChunkedReader`], so even a full-scale `GR_SCALE=full` frame fits in a
//! few megabytes of working set. `GR_STREAM_CHUNK` tunes the chunk size
//! (accesses per read; default 65536).
//!
//! Every disk-tier file is written through `write_atomic`: workers and
//! processes sharing one cache directory may write the same frame at once,
//! and a reader must never see a half-written file.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use grcache::annotate_next_use;
use grsynth::{
    AppProfile, FrameGraph, FrameRenderer, FrameStream, FrameWork, GraphRenderer, GraphStream,
    Scale,
};
use grtrace::io::{ChunkedReader, TraceWriter};
use grtrace::{AccessSource, Trace};

/// One synthesized frame: the LLC trace, the computational work counters,
/// and the lazily computed Belady next-use annotation.
#[derive(Debug)]
pub struct FrameData {
    /// The LLC access trace.
    pub trace: Arc<Trace>,
    /// Computational work of the frame (for the GPU timing model).
    pub work: FrameWork,
    next_use: OnceLock<Arc<Vec<u64>>>,
    /// Where the `.nu` sidecar lives when the disk tier is active.
    nu_path: Option<PathBuf>,
}

impl FrameData {
    /// The next-use annotation for Belady's OPT, computed once per frame
    /// and shared by every OPT replay. With the disk tier active the
    /// annotation is persisted in a `.nu` sidecar next to the `.grtr`
    /// trace, so fresh processes load it instead of re-running
    /// [`annotate_next_use`].
    pub fn next_use(&self) -> &Arc<Vec<u64>> {
        self.next_use.get_or_init(|| {
            if let Some(path) = &self.nu_path {
                if let Some(nu) = load_next_use(path, self.trace.len() as u64) {
                    return Arc::new(nu);
                }
            }
            let nu = annotate_next_use(self.trace.accesses());
            if let Some(path) = &self.nu_path {
                store_next_use(path, &nu);
            }
            Arc::new(nu)
        })
    }
}

/// Full structural validation of a `.nu` sidecar: header parses, the
/// declared count matches the trace, and the file actually holds that many
/// entries (16-byte header + 8 bytes each), so a truncated body is caught
/// before the streaming replay consumes garbage.
fn nu_sidecar_valid(path: &Path, expected: u64) -> bool {
    let check = || -> Option<()> {
        let file = std::fs::File::open(path).ok()?;
        let len = file.metadata().ok()?.len();
        let count = grtrace::io::read_nu_header(&mut io::BufReader::new(file)).ok()?;
        (count == expected && len == 16 + 8 * count).then_some(())
    };
    check().is_some()
}

fn load_next_use(path: &Path, expected: u64) -> Option<Vec<u64>> {
    let file = std::fs::File::open(path).ok()?;
    let nu = grtrace::io::read_next_use(io::BufReader::new(file)).ok()?;
    (nu.len() as u64 == expected).then_some(nu)
}

fn store_next_use(path: &Path, nu: &[u64]) {
    // Sidecar write failures are never fatal — the in-memory annotation is
    // already computed — so errors are dropped.
    let _ = write_atomic(path, |w| grtrace::io::write_next_use(w, nu));
}

/// Writes `path` without ever exposing a partial file: `fill` writes a
/// temp file in the same directory whose name is unique to this process
/// and call, which is flushed and then renamed over `path`. A concurrent
/// reader sees either the previous file or the complete new one. Temp
/// names end in `.tmp`, never in a cache extension such as `.grtr`.
fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().expect("cache paths name a file").to_os_string();
    name.push(format!(".{}-{}.tmp", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    let tmp = path.with_file_name(name);
    let written = (|| {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        fill(&mut writer)?;
        writer.flush()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Cache key: workload identity (app abbreviation or frame-graph cache
/// key), frame, scale.
type Key = (String, u32, Scale);
type Slot = Arc<OnceLock<Arc<FrameData>>>;

fn cache() -> &'static Mutex<HashMap<Key, Slot>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn disk_dir() -> Option<&'static PathBuf> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = PathBuf::from(std::env::var_os("GR_TRACE_CACHE")?);
        std::fs::create_dir_all(&dir).ok()?;
        Some(dir)
    })
    .as_ref()
}

/// The synthesized data for `(app, frame, scale)`, rendered at most once
/// per process (and per disk cache, when `GR_TRACE_CACHE` is set).
///
/// Concurrent callers asking for the same frame block on one render instead
/// of duplicating it; callers asking for different frames proceed
/// independently.
pub fn frame_data(app: &AppProfile, frame: u32, scale: Scale) -> Arc<FrameData> {
    let key: Key = (app.abbrev.to_string(), frame, scale);
    let slot = {
        let mut map = cache().lock().expect("frame cache poisoned");
        Arc::clone(map.entry(key).or_default())
    };
    Arc::clone(slot.get_or_init(|| {
        if let Some(data) = load_from_disk(app, frame, scale) {
            return Arc::new(data);
        }
        let (trace, work) = FrameRenderer::new(app, frame, scale).render_with_work();
        let data = FrameData {
            trace: Arc::new(trace),
            work,
            next_use: OnceLock::new(),
            nu_path: nu_path(app, frame, scale),
        };
        store_to_disk(app, frame, scale, &data);
        Arc::new(data)
    }))
}

/// Chunk capacity (accesses per read) for streaming replay, from
/// `GR_STREAM_CHUNK` (default 65536). Bounds the streaming tier's peak
/// memory: roughly 34 bytes per chunk slot.
pub fn stream_chunk() -> usize {
    std::env::var("GR_STREAM_CHUNK")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(grtrace::io::DEFAULT_CHUNK)
}

/// Ensures frame `(app, frame, scale)` exists in the on-disk tier,
/// synthesizing it *band by band* straight to the `.grtr` file (the frame
/// is never materialized in memory). Returns the trace path, or `None`
/// when `GR_TRACE_CACHE` is unset.
pub fn ensure_on_disk(app: &AppProfile, frame: u32, scale: Scale) -> io::Result<Option<PathBuf>> {
    let Some(dir) = disk_dir() else { return Ok(None) };
    let stem = file_stem(app, frame, scale);
    let trace_path = dir.join(format!("{stem}.grtr"));
    let work_path = dir.join(format!("{stem}.work"));
    let valid = std::fs::File::open(&trace_path)
        .ok()
        .and_then(|f| ChunkedReader::new(io::BufReader::new(f), 1).ok())
        .is_some_and(|r| r.app() == app.name && r.frame() == frame);
    if valid && work_path.exists() {
        return Ok(Some(trace_path));
    }
    let mut stream = FrameStream::new(app, frame, scale);
    write_atomic(&trace_path, |w| stream_to(w, &mut stream, app.name, frame))?;
    write_atomic(&work_path, |w| w.write_all(&write_work(&stream.work())))?;
    Ok(Some(trace_path))
}

/// A frame opened from the streaming disk tier: a bounded-memory
/// [`AccessSource`] over the `.grtr` file plus the frame's work counters.
#[derive(Debug)]
pub struct DiskSource {
    /// Chunked reader over the on-disk trace ([`stream_chunk`] accesses at
    /// a time).
    pub reader: ChunkedReader<io::BufReader<std::fs::File>>,
    /// Computational work of the frame (for the GPU timing model).
    pub work: FrameWork,
}

/// Opens frame `(app, frame, scale)` as a streaming [`AccessSource`] from
/// the disk tier, synthesizing it first if absent (see [`ensure_on_disk`]).
/// With `with_next_use` the `.nu` Belady sidecar is attached — computed and
/// persisted on first use. Returns `None` when `GR_TRACE_CACHE` is unset.
pub fn disk_source(
    app: &AppProfile,
    frame: u32,
    scale: Scale,
    with_next_use: bool,
) -> io::Result<Option<DiskSource>> {
    let Some(trace_path) = ensure_on_disk(app, frame, scale)? else { return Ok(None) };
    let work_path = trace_path.with_extension("work");
    let work = read_work(&std::fs::read(&work_path)?)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt .work sidecar"))?;
    let file = std::fs::File::open(&trace_path)?;
    let mut reader = ChunkedReader::new(io::BufReader::new(file), stream_chunk())?;
    if with_next_use {
        let nu = trace_path.with_extension("nu");
        let valid = nu_sidecar_valid(&nu, reader.remaining());
        if !valid {
            // Missing, truncated, or stale sidecar: recompute from the
            // whole trace and rewrite it explicitly — the in-memory
            // annotation may already exist, in which case `next_use()`
            // alone would not re-persist it.
            let data = frame_data(app, frame, scale);
            store_next_use(&nu, data.next_use());
        }
        reader = reader.with_next_use(io::BufReader::new(std::fs::File::open(&nu)?))?;
    }
    Ok(Some(DiskSource { reader, work }))
}

/// The synthesized data for `(graph, frame, scale)` — the frame-graph
/// analogue of [`frame_data`]. The cache key includes the graph's
/// [`FrameGraph::cache_key`] fingerprint, so two graphs sharing a name but
/// differing in any knob (coherence, passes, resolution, seed) occupy
/// distinct slots, in memory and on disk.
pub fn graph_frame_data(graph: &FrameGraph, frame: u32, scale: Scale) -> Arc<FrameData> {
    let key: Key = (graph.cache_key(), frame, scale);
    let slot = {
        let mut map = cache().lock().expect("frame cache poisoned");
        Arc::clone(map.entry(key).or_default())
    };
    Arc::clone(slot.get_or_init(|| {
        if let Some(data) = graph_load_from_disk(graph, frame, scale) {
            return Arc::new(data);
        }
        let (trace, work) = GraphRenderer::new(graph, frame, scale).render_with_work();
        let data = FrameData {
            trace: Arc::new(trace),
            work,
            next_use: OnceLock::new(),
            nu_path: graph_nu_path(graph, frame, scale),
        };
        graph_store_to_disk(graph, frame, scale, &data);
        Arc::new(data)
    }))
}

/// Ensures frame `(graph, frame, scale)` exists in the on-disk tier,
/// streamed band by band like [`ensure_on_disk`]. Returns the trace path,
/// or `None` when `GR_TRACE_CACHE` is unset.
pub fn graph_ensure_on_disk(
    graph: &FrameGraph,
    frame: u32,
    scale: Scale,
) -> io::Result<Option<PathBuf>> {
    let Some(dir) = disk_dir() else { return Ok(None) };
    let stem = graph_file_stem(graph, frame, scale);
    let trace_path = dir.join(format!("{stem}.grtr"));
    let work_path = dir.join(format!("{stem}.work"));
    let valid = std::fs::File::open(&trace_path)
        .ok()
        .and_then(|f| ChunkedReader::new(io::BufReader::new(f), 1).ok())
        .is_some_and(|r| r.app() == graph.name() && r.frame() == frame);
    if valid && work_path.exists() {
        return Ok(Some(trace_path));
    }
    let mut stream = GraphStream::new(graph, frame, scale);
    write_atomic(&trace_path, |w| stream_to(w, &mut stream, graph.name(), frame))?;
    write_atomic(&work_path, |w| w.write_all(&write_work(&stream.work())))?;
    Ok(Some(trace_path))
}

/// Drains `stream` into `.grtr` format band by band.
fn stream_to<S: AccessSource>(
    out: &mut BufWriter<File>,
    stream: &mut S,
    app: &str,
    frame: u32,
) -> io::Result<()> {
    let mut writer = TraceWriter::new(out, app, frame)?;
    while stream.advance()? {
        for a in stream.chunk().accesses {
            writer.push(a)?;
        }
    }
    writer.finish()?;
    Ok(())
}

/// Opens frame `(graph, frame, scale)` as a streaming [`AccessSource`] from
/// the disk tier — the frame-graph analogue of [`disk_source`]. Returns
/// `None` when `GR_TRACE_CACHE` is unset.
pub fn graph_disk_source(
    graph: &FrameGraph,
    frame: u32,
    scale: Scale,
    with_next_use: bool,
) -> io::Result<Option<DiskSource>> {
    let Some(trace_path) = graph_ensure_on_disk(graph, frame, scale)? else { return Ok(None) };
    let work_path = trace_path.with_extension("work");
    let work = read_work(&std::fs::read(&work_path)?)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt .work sidecar"))?;
    let file = std::fs::File::open(&trace_path)?;
    let mut reader = ChunkedReader::new(io::BufReader::new(file), stream_chunk())?;
    if with_next_use {
        let nu = trace_path.with_extension("nu");
        let valid = nu_sidecar_valid(&nu, reader.remaining());
        if !valid {
            let data = graph_frame_data(graph, frame, scale);
            store_next_use(&nu, data.next_use());
        }
        reader = reader.with_next_use(io::BufReader::new(std::fs::File::open(&nu)?))?;
    }
    Ok(Some(DiskSource { reader, work }))
}

/// Drops every cached frame (tests use this to exercise cold paths).
pub fn clear() {
    cache().lock().expect("frame cache poisoned").clear();
}

fn file_stem(app: &AppProfile, frame: u32, scale: Scale) -> String {
    format!("{}_f{}_s{}", app.abbrev, frame, scale.divisor())
}

fn graph_file_stem(graph: &FrameGraph, frame: u32, scale: Scale) -> String {
    format!("{}_f{}_s{}", graph.cache_key(), frame, scale.divisor())
}

const WORK_MAGIC: &[u8; 4] = b"GRWK";

/// The `.nu` sidecar path for a frame-graph frame, when the disk tier is
/// active.
fn graph_nu_path(graph: &FrameGraph, frame: u32, scale: Scale) -> Option<PathBuf> {
    let dir = disk_dir()?;
    Some(dir.join(format!("{}.nu", graph_file_stem(graph, frame, scale))))
}

fn graph_load_from_disk(graph: &FrameGraph, frame: u32, scale: Scale) -> Option<FrameData> {
    let dir = disk_dir()?;
    let stem = graph_file_stem(graph, frame, scale);
    let trace_file = std::fs::File::open(dir.join(format!("{stem}.grtr"))).ok()?;
    let trace = grtrace::io::read(io::BufReader::new(trace_file)).ok()?;
    if trace.app() != graph.name() || trace.frame() != frame {
        return None;
    }
    let work = read_work(&std::fs::read(dir.join(format!("{stem}.work"))).ok()?)?;
    Some(FrameData {
        trace: Arc::new(trace),
        work,
        next_use: OnceLock::new(),
        nu_path: graph_nu_path(graph, frame, scale),
    })
}

fn graph_store_to_disk(graph: &FrameGraph, frame: u32, scale: Scale, data: &FrameData) {
    let Some(dir) = disk_dir() else { return };
    store_frame(dir, &graph_file_stem(graph, frame, scale), data);
}

/// The `.nu` sidecar path for a frame, when the disk tier is active.
fn nu_path(app: &AppProfile, frame: u32, scale: Scale) -> Option<PathBuf> {
    let dir = disk_dir()?;
    Some(dir.join(format!("{}.nu", file_stem(app, frame, scale))))
}

fn load_from_disk(app: &AppProfile, frame: u32, scale: Scale) -> Option<FrameData> {
    let dir = disk_dir()?;
    let stem = file_stem(app, frame, scale);
    let trace_file = std::fs::File::open(dir.join(format!("{stem}.grtr"))).ok()?;
    let trace = grtrace::io::read(io::BufReader::new(trace_file)).ok()?;
    if trace.app() != app.name || trace.frame() != frame {
        return None;
    }
    let work = read_work(&std::fs::read(dir.join(format!("{stem}.work"))).ok()?)?;
    Some(FrameData {
        trace: Arc::new(trace),
        work,
        next_use: OnceLock::new(),
        nu_path: nu_path(app, frame, scale),
    })
}

fn store_to_disk(app: &AppProfile, frame: u32, scale: Scale, data: &FrameData) {
    let Some(dir) = disk_dir() else { return };
    store_frame(dir, &file_stem(app, frame, scale), data);
}

/// Persists a materialized frame as `<stem>.grtr` plus `<stem>.work`. A
/// cache write failure is never fatal — the in-memory tier still holds the
/// frame — so errors are dropped.
fn store_frame(dir: &Path, stem: &str, data: &FrameData) {
    let trace = dir.join(format!("{stem}.grtr"));
    let _ = write_atomic(&trace, |w| grtrace::io::write(w, &data.trace));
    let _ = write_atomic(&trace.with_extension("work"), |w| w.write_all(&write_work(&data.work)));
}

fn write_work(w: &FrameWork) -> Vec<u8> {
    let mut buf = Vec::with_capacity(36);
    buf.extend_from_slice(WORK_MAGIC);
    for v in [w.shaded_pixels, w.texel_samples, w.vertices, w.raw_accesses] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

fn read_work(bytes: &[u8]) -> Option<FrameWork> {
    let mut r = bytes;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).ok()?;
    if &magic != WORK_MAGIC {
        return None;
    }
    let mut next = || -> Option<u64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b).ok()?;
        Some(u64::from_le_bytes(b))
    };
    Some(FrameWork {
        shaded_pixels: next()?,
        texel_samples: next()?,
        vertices: next()?,
        raw_accesses: next()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_shared_trace() {
        let app = AppProfile::by_abbrev("BioShock").unwrap();
        let a = frame_data(&app, 0, Scale::Tiny);
        let b = frame_data(&app, 0, Scale::Tiny);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert!(Arc::ptr_eq(a.next_use(), b.next_use()));
    }

    #[test]
    fn cached_trace_matches_direct_render() {
        let app = AppProfile::by_abbrev("HAWX").unwrap();
        let cached = frame_data(&app, 1, Scale::Tiny);
        let direct = grsynth::generate_frame(&app, 1, Scale::Tiny);
        assert_eq!(*cached.trace, direct);
    }

    #[test]
    fn annotation_matches_offline_pass() {
        let app = AppProfile::by_abbrev("DMC").unwrap();
        let data = frame_data(&app, 0, Scale::Tiny);
        assert_eq!(**data.next_use(), annotate_next_use(data.trace.accesses()));
    }

    #[test]
    fn graph_cache_is_keyed_by_fingerprint() {
        let profile = grsynth::graph_profile("postfx").unwrap();
        let base = profile.graph();
        let a = graph_frame_data(&base, 0, Scale::Tiny);
        let b = graph_frame_data(&base, 0, Scale::Tiny);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let (direct, work) = GraphRenderer::new(&base, 0, Scale::Tiny).render_with_work();
        assert_eq!(*a.trace, direct);
        assert_eq!(a.work, work);
        // Same name, different coherence: must occupy a distinct slot.
        let tweaked = profile.graph_with_coherence(0.1);
        let c = graph_frame_data(&tweaked, 0, Scale::Tiny);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(*a.trace, *c.trace);
    }

    #[test]
    fn work_sidecar_roundtrips() {
        let w =
            FrameWork { shaded_pixels: 1, texel_samples: u64::MAX, vertices: 3, raw_accesses: 4 };
        assert_eq!(read_work(&write_work(&w)), Some(w));
        assert_eq!(read_work(b"XXXX"), None);
        assert_eq!(read_work(&write_work(&w)[..20]), None);
    }
}
