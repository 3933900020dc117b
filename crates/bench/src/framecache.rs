//! Frame-trace cache.
//!
//! Every figure and table replays the same 52 synthesized frames, and a
//! `grart` tier chains a dozen runs over them, so the seed harness
//! re-rendered each frame ~10–15 times. This module shares each rendered
//! `(app, frame, scale)` — including the Belady next-use annotation, which
//! every OPT replay needs — behind an `Arc`, so the parallel runner's
//! workers and successive runs all read the same immutable trace.
//!
//! A frame is resident only while something holds it. The cache's map
//! only dedupes: concurrent callers of [`frame_data`] for one key block on
//! one render, and a later caller gets the same `Arc` while any
//! `Arc<FrameData>` to it is alive. Once the last one drops, the trace and
//! its annotation are freed, and the next lookup renders (or loads) the
//! frame again. Two kinds of holder exist:
//!
//! - a grid ([`crate::run_grid`], [`crate::simulate_cells`]) holds each
//!   workload's frames from its first cell to its last, so a one-grid run
//!   frees every frame once its last policy has replayed it;
//! - a [`Hold`] pins every frame looked up while it lives, until the last
//!   `Hold` drops. Processes that revisit frames across grids take one.
//!   [`hold`] pins without bound: the `grart` pipeline for a whole tier,
//!   `grcheck` and `grsim`, which revisit a fixed set of frames.
//!   [`hold_within`] keeps only the most recently looked-up frames whose
//!   bytes (8 per trace access, plus 8 per access of a computed next-use
//!   annotation) fit its budget, dropping the least recently looked-up
//!   pins first. The serving path takes one for the life of the process:
//!   a daemon sees an open-ended stream of new frames (every fresh
//!   frame-graph coherence is a new key that no later job reads), next to
//!   a small hot set it keeps returning to (the Table 1 app frames), which
//!   recency keeps. While an unbounded `Hold` lives no budget applies.
//!
//! Dropping a pin never pulls a frame from under a running grid, which
//! holds its own `Arc`s; a frame whose last holder is gone is freed, and
//! asked for again it renders again under the same per-key lock.
//!
//! Frames come from a [`Frames`] source — a Table 1 application or a frame
//! graph — and one set of functions serves both, keyed by
//! [`Frames::cache_key`].
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
//! The tier heals itself: a `.grtr` is reused only if its header names the
//! frame and its length matches the record count the header declares, and
//! a `.work` only if it parses; a `.nu` only if its length matches the
//! trace. Any other file is regenerated. A record that fails to decode
//! passes those checks; it surfaces as a typed error from the reader, and
//! the runner then [`discard`]s the frame's files and replays the cell from
//! a fresh render. Nothing re-reads a file to check it on the success path.
//!
//! Every disk-tier file is written through [`write_atomic`]: workers and
//! processes sharing one cache directory may write the same frame at once,
//! and a reader must never see a half-written file.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use grcache::annotate_next_use;
use grsynth::{FrameStream, FrameWork, Frames, Scale};
use grtrace::io::{write_atomic, ChunkedReader};
use grtrace::Trace;

/// One synthesized frame: the LLC trace, the computational work counters,
/// and the lazily computed Belady next-use annotation. Dropping the last
/// `Arc` to it frees all three.
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
    /// The next-use annotation for Belady's OPT, computed at most once per
    /// resident frame and shared by every OPT replay that holds it; it lives
    /// and dies with the `FrameData`. With the disk tier active the
    /// annotation is persisted in a `.nu` sidecar next to the `.grtr`
    /// trace, so fresh processes load it instead of re-running
    /// [`annotate_next_use`].
    pub fn next_use(&self) -> &Arc<Vec<u64>> {
        if let Some(nu) = self.next_use.get() {
            return nu;
        }
        let nu = self.next_use.get_or_init(|| {
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
        });
        // The annotation grew a pinned frame; a budget may now be exceeded.
        let released = cache().trim();
        drop(released);
        nu
    }

    /// The bytes a budgeted [`Hold`] counts for this frame: 8 per trace
    /// access, plus 8 per access once the next-use annotation is computed.
    pub fn bytes(&self) -> u64 {
        let nu = self.next_use.get().map_or(0, |nu| std::mem::size_of_val(nu.as_slice()));
        (std::mem::size_of_val(self.trace.accesses()) + nu) as u64
    }
}

/// Full structural validation of a `.nu` sidecar: header parses, the
/// declared count matches the trace, and the file actually holds that many
/// entries, so a truncated body is caught before the streaming replay
/// consumes garbage.
fn nu_sidecar_valid(path: &Path, expected: u64) -> bool {
    let check = || -> Option<()> {
        let file = File::open(path).ok()?;
        let len = file.metadata().ok()?.len();
        let count = grtrace::io::read_nu_header(&mut io::BufReader::new(file)).ok()?;
        (count == expected && grtrace::io::nu_file_len(count) == Some(len)).then_some(())
    };
    check().is_some()
}

fn load_next_use(path: &Path, expected: u64) -> Option<Vec<u64>> {
    let file = File::open(path).ok()?;
    let nu = grtrace::io::read_next_use(io::BufReader::new(file)).ok()?;
    (nu.len() as u64 == expected).then_some(nu)
}

fn store_next_use(path: &Path, nu: &[u64]) {
    // Sidecar write failures are never fatal — the in-memory annotation is
    // already computed — so errors are dropped.
    let _ = write_atomic(path, |w| grtrace::io::write_next_use(w, nu));
}

/// Cache key: workload identity ([`Frames::cache_key`]), frame, scale.
type Key = (String, u32, Scale);

/// One key's entry: a weak pointer to the frame while anything holds it,
/// and a lock that serializes the key's renders.
#[derive(Default)]
struct Slot {
    frame: Mutex<Weak<FrameData>>,
    render: Mutex<()>,
}

impl Slot {
    fn frame(&self) -> MutexGuard<'_, Weak<FrameData>> {
        self.frame.lock().expect("frame slot poisoned")
    }

    /// The frame, if something still holds it.
    fn get(&self) -> Option<Arc<FrameData>> {
        self.frame().upgrade()
    }
}

/// A frame a [`Hold`] keeps, and the lookup that last returned it.
struct Pin {
    data: Arc<FrameData>,
    last: u64,
}

#[derive(Default)]
struct Cache {
    slots: HashMap<Key, Arc<Slot>>,
    /// The byte budget of each live [`Hold`]; `None` is unbounded.
    holds: Vec<Option<u64>>,
    /// The frames looked up while a [`Hold`] lived, kept until the last
    /// one drops or a budget lets them go.
    pinned: HashMap<Key, Pin>,
    /// Lookups under a [`Hold`] so far: the clock of `Pin::last`.
    lookups: u64,
    /// Pins dropped to fit a budget, over the life of the process.
    evictions: u64,
    /// Frames [`frame_data`] rendered or loaded, over the life of the
    /// process.
    renders: u64,
}

impl Cache {
    /// The budget the pins must fit: none while an unbounded [`Hold`]
    /// (or no `Hold`) lives, else the smallest live one.
    fn budget(&self) -> Option<u64> {
        if self.holds.contains(&None) {
            return None;
        }
        self.holds.iter().flatten().min().copied()
    }

    fn pinned_bytes(&self) -> u64 {
        self.pinned.values().map(|pin| pin.data.bytes()).sum()
    }

    /// Drops the least recently looked-up pins until the rest fit the
    /// budget, and returns them so the caller frees them outside the lock.
    fn trim(&mut self) -> Vec<Arc<FrameData>> {
        let mut released = Vec::new();
        let Some(budget) = self.budget() else { return released };
        // Summed afresh each round: another thread may annotate a pinned
        // frame meanwhile.
        while self.pinned_bytes() > budget {
            let oldest = self.pinned.iter().min_by_key(|(_, pin)| pin.last).map(|(k, _)| k.clone());
            let Some(pin) = oldest.and_then(|key| self.pinned.remove(&key)) else { break };
            self.evictions += 1;
            released.push(pin.data);
        }
        released
    }
}

/// The cache, locked. Every update leaves it valid, so a panic elsewhere
/// while it was locked does not poison it (and [`Hold`]'s `Drop` never
/// panics).
fn cache() -> MutexGuard<'static, Cache> {
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keeps the frames [`frame_data`] returns resident, as long as any
/// `Hold` is alive: all of them ([`hold`]), or the most recently
/// looked-up ones that fit a byte budget ([`hold_within`]). For processes
/// that revisit frames across grids; a one-grid run needs none (see the
/// [module docs](self)).
#[derive(Debug)]
#[must_use = "frames stay resident only while the Hold lives"]
pub struct Hold(Option<u64>);

/// Takes an unbounded [`Hold`]: from now until the last live `Hold` drops,
/// every frame [`frame_data`] returns stays resident.
pub fn hold() -> Hold {
    cache().holds.push(None);
    Hold(None)
}

/// Takes a [`Hold`] that keeps the most recently looked-up frames whose
/// [`FrameData::bytes`] sum to at most `budget`: a lookup moves its frame
/// to the front, and past the budget the least recently looked-up pins go
/// first (a frame some other holder has stays resident). An unbounded
/// `Hold` overrides it while it lives; of two budgets, the smaller holds.
pub fn hold_within(budget: u64) -> Hold {
    let released = {
        let mut cache = cache();
        cache.holds.push(Some(budget));
        cache.trim()
    };
    drop(released);
    Hold(Some(budget))
}

impl Drop for Hold {
    fn drop(&mut self) {
        let released = {
            let mut cache = cache();
            // Every live `Hold` has its entry; a drop never panics.
            if let Some(at) = cache.holds.iter().position(|b| *b == self.0) {
                cache.holds.swap_remove(at);
            }
            if cache.holds.is_empty() {
                std::mem::take(&mut cache.pinned).into_values().map(|pin| pin.data).collect()
            } else {
                cache.trim()
            }
        };
        // Freed outside the lock.
        drop(released);
    }
}

/// The bytes the live [`Hold`]s pin (see [`FrameData::bytes`]).
pub fn pinned_bytes() -> u64 {
    cache().pinned_bytes()
}

/// How many pins a budgeted [`Hold`] has dropped to fit its budget, over
/// the life of the process.
pub fn evictions() -> u64 {
    cache().evictions
}

/// How many frames [`frame_data`] has rendered, or loaded from the disk
/// tier, because no holder had them, over the life of the process. A
/// lookup served from memory adds nothing.
pub fn renders() -> u64 {
    cache().renders
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

/// The synthesized data for `(frames, frame, scale)`, rendered (or loaded
/// from the disk tier, when `GR_TRACE_CACHE` is set) unless a live holder
/// already has it.
///
/// The cache key is [`Frames::cache_key`], so two frame graphs sharing a
/// name but differing in any knob (coherence, passes, resolution, seed)
/// occupy distinct slots, in memory and on disk. Concurrent callers asking
/// for the same frame block on one render instead of duplicating it;
/// callers asking for different frames proceed independently. The frame
/// stays resident while the returned `Arc` (or any clone) lives, and while
/// a [`Hold`] pins it; the lookup makes it a budgeted `Hold`'s most recent.
///
/// With the disk tier active a frame whose files are whole (see
/// [`ensure_on_disk`]) is read back from them; any other frame is rendered
/// whole and then persisted, trace and `.work` sidecar.
pub fn frame_data<'a>(frames: impl Into<Frames<'a>>, frame: u32, scale: Scale) -> Arc<FrameData> {
    let frames = frames.into();
    let key: Key = (frames.cache_key(), frame, scale);
    let slot = {
        let mut cache = cache();
        if !cache.slots.contains_key(&key) {
            // Forget the keys whose frames are gone and nobody is rendering.
            cache.slots.retain(|_, s| Arc::strong_count(s) > 1 || s.frame().strong_count() > 0);
        }
        Arc::clone(cache.slots.entry(key.clone()).or_default())
    };
    let data = slot.get().unwrap_or_else(|| {
        // The lock guards no data, so a render that panicked leaves it usable.
        let _render = slot.render.lock().unwrap_or_else(PoisonError::into_inner);
        // Another caller may have rendered the frame while this one waited.
        slot.get().unwrap_or_else(|| {
            let data = Arc::new(render(frames, frame, scale));
            *slot.frame() = Arc::downgrade(&data);
            cache().renders += 1;
            data
        })
    });
    let released = {
        let mut cache = cache();
        if cache.holds.is_empty() {
            return data;
        }
        cache.lookups += 1;
        let pin = Pin { data: Arc::clone(&data), last: cache.lookups };
        cache.pinned.entry(key).and_modify(|old| old.last = pin.last).or_insert(pin);
        cache.trim()
    };
    drop(released);
    data
}

/// Loads the frame from the disk tier, or renders it (and persists it when
/// the tier is active).
fn render(frames: Frames<'_>, frame: u32, scale: Scale) -> FrameData {
    let path = trace_path(frames, frame, scale);
    let loaded = path.as_deref().and_then(|p| load_frame(p, frames, frame));
    let (trace, work) = loaded.unwrap_or_else(|| {
        let (trace, work) = frames.render(frame, scale);
        if let Some(path) = &path {
            store_frame(path, &trace, &work);
        }
        (trace, work)
    });
    let nu_path = path.map(|p| p.with_extension("nu"));
    FrameData { trace: Arc::new(trace), work, next_use: OnceLock::new(), nu_path }
}

/// The in-memory data of `(frames, frame, scale)` if something holds it —
/// a caller's `Arc`, a running grid or a [`Hold`]; never renders or loads
/// (tests use this to check residency).
pub fn resident<'a>(
    frames: impl Into<Frames<'a>>,
    frame: u32,
    scale: Scale,
) -> Option<Arc<FrameData>> {
    let key: Key = (frames.into().cache_key(), frame, scale);
    let slot = Arc::clone(cache().slots.get(&key)?);
    slot.get()
}

/// Reads a disk-tier frame back whole, when its files are whole and the
/// trace decodes.
fn load_frame(trace_path: &Path, frames: Frames<'_>, frame: u32) -> Option<(Trace, FrameWork)> {
    let work = reusable(trace_path, &trace_path.with_extension("work"), frames.name(), frame)?;
    let file = io::BufReader::new(File::open(trace_path).ok()?);
    let trace = ChunkedReader::new(file, stream_chunk()).ok()?.read_trace().ok()?;
    Some((trace, work))
}

/// Persists a rendered frame as its `.grtr` trace plus `.work` sidecar. A
/// write failure is never fatal — the in-memory tier still holds the
/// frame — so errors are dropped.
fn store_frame(trace_path: &Path, trace: &Trace, work: &FrameWork) {
    let _ = write_atomic(trace_path, |w| grtrace::io::write(w, trace));
    let _ = write_atomic(&trace_path.with_extension("work"), |w| w.write_all(&write_work(work)));
}

/// Chunk capacity (accesses per read) for streaming replay, from
/// `GR_STREAM_CHUNK` (default 65536). Bounds the streaming tier's peak
/// memory: roughly 26 bytes per chunk slot.
pub fn stream_chunk() -> usize {
    std::env::var("GR_STREAM_CHUNK")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(grtrace::io::DEFAULT_CHUNK)
}

/// Ensures frame `(frames, frame, scale)` exists in the on-disk tier,
/// synthesizing it *band by band* straight to the `.grtr` file (the frame
/// is never materialized in memory). Returns the trace path, or `None`
/// when `GR_TRACE_CACHE` is unset.
///
/// Files already on disk are reused only when they are whole: the `.grtr`
/// header names this frame, the file holds exactly the records the header
/// declares, and the `.work` sidecar parses. Anything else — a foreign,
/// truncated or missing trace, a missing or corrupt sidecar — is
/// regenerated.
pub fn ensure_on_disk<'a>(
    frames: impl Into<Frames<'a>>,
    frame: u32,
    scale: Scale,
) -> io::Result<Option<PathBuf>> {
    let frames = frames.into();
    let Some(trace_path) = trace_path(frames, frame, scale) else { return Ok(None) };
    ensure_at(&trace_path, frames, frame, scale)?;
    Ok(Some(trace_path))
}

/// Reuses the disk-tier files at `trace_path` when they are whole, else
/// streams the frame into them; returns the frame's work counters.
fn ensure_at(
    trace_path: &Path,
    frames: Frames<'_>,
    frame: u32,
    scale: Scale,
) -> io::Result<FrameWork> {
    let work_path = trace_path.with_extension("work");
    if let Some(work) = reusable(trace_path, &work_path, frames.name(), frame) {
        return Ok(work);
    }
    let mut stream = FrameStream::new(frames, frame, scale);
    write_atomic(trace_path, |w| {
        grtrace::io::write_source(w, &mut stream, frames.name(), frame).map(drop)
    })?;
    let work = stream.work();
    write_atomic(&work_path, |w| w.write_all(&write_work(&work)))?;
    Ok(work)
}

/// The work counters of a disk-tier frame whose files are whole (see
/// [`ensure_on_disk`]), or `None` when they must be regenerated.
fn reusable(trace_path: &Path, work_path: &Path, name: &str, frame: u32) -> Option<FrameWork> {
    let file = File::open(trace_path).ok()?;
    let len = file.metadata().ok()?.len();
    let header = ChunkedReader::new(io::BufReader::new(file), 1).ok()?;
    let whole = header.app() == name
        && header.frame() == frame
        && grtrace::io::trace_file_len(name, header.remaining()) == Some(len);
    if !whole {
        return None;
    }
    read_work(&std::fs::read(work_path).ok()?)
}

/// A frame opened from the streaming disk tier: a bounded-memory
/// [`grtrace::AccessSource`] over the `.grtr` file plus the frame's work
/// counters.
#[derive(Debug)]
pub struct DiskSource {
    /// Chunked reader over the on-disk trace ([`stream_chunk`] accesses at
    /// a time).
    pub reader: ChunkedReader<io::BufReader<File>>,
    /// Computational work of the frame (for the GPU timing model).
    pub work: FrameWork,
}

/// Opens frame `(frames, frame, scale)` as a streaming
/// [`grtrace::AccessSource`] from the disk tier, synthesizing it first if
/// absent or damaged (see [`ensure_on_disk`]). With `with_next_use` the
/// `.nu` Belady sidecar is attached — computed and persisted on first use
/// from a decode of the `.grtr` that is dropped afterwards. Returns `None` when
/// `GR_TRACE_CACHE` is unset.
///
/// # Errors
///
/// An `InvalidData` error means a disk-tier file failed to decode (see
/// [`discard`]); any other error is the disk tier's I/O failing.
pub fn disk_source<'a>(
    frames: impl Into<Frames<'a>>,
    frame: u32,
    scale: Scale,
    with_next_use: bool,
) -> io::Result<Option<DiskSource>> {
    let frames = frames.into();
    let Some(trace_path) = trace_path(frames, frame, scale) else { return Ok(None) };
    let work = ensure_at(&trace_path, frames, frame, scale)?;
    let file = File::open(&trace_path)?;
    let mut reader = ChunkedReader::new(io::BufReader::new(file), stream_chunk())?;
    if with_next_use {
        let nu = trace_path.with_extension("nu");
        if !nu_sidecar_valid(&nu, reader.remaining()) {
            // Missing, truncated, or stale sidecar: annotate a decode of
            // the `.grtr` and drop it, so a streamed cell never makes the
            // whole frame resident.
            let file = io::BufReader::new(File::open(&trace_path)?);
            let trace = ChunkedReader::new(file, stream_chunk())?.read_trace()?;
            store_next_use(&nu, &annotate_next_use(trace.accesses()));
        }
        reader = reader.with_next_use(io::BufReader::new(File::open(&nu)?))?;
    }
    Ok(Some(DiskSource { reader, work }))
}

/// Deletes the disk-tier files of frame `(frames, frame, scale)` — for a
/// trace that failed to decode, which the whole-file checks of
/// [`ensure_on_disk`] cannot see — so the next lookup regenerates them.
/// Missing files are not an error.
pub fn discard<'a>(frames: impl Into<Frames<'a>>, frame: u32, scale: Scale) {
    if let Some(path) = trace_path(frames.into(), frame, scale) {
        for ext in ["grtr", "work", "nu"] {
            let _ = std::fs::remove_file(path.with_extension(ext));
        }
    }
}

/// Forgets every cached frame and releases the [`Hold`]s' frames (tests use
/// this to exercise cold paths): afterwards nothing is [`resident`], and
/// the next lookup of any frame renders it again, even while an `Arc` from
/// an earlier lookup lives.
pub fn clear() {
    let released = {
        let mut cache = cache();
        cache.slots.clear();
        std::mem::take(&mut cache.pinned)
    };
    drop(released);
}

/// The file stem every disk-tier file of a frame shares:
/// `{cache_key}_f{frame}_s{divisor}`.
fn file_stem(frames: Frames<'_>, frame: u32, scale: Scale) -> String {
    format!("{}_f{}_s{}", frames.cache_key(), frame, scale.divisor())
}

/// The `.grtr` path of a frame, when the disk tier is active; the `.work`
/// and `.nu` sidecars sit next to it.
fn trace_path(frames: Frames<'_>, frame: u32, scale: Scale) -> Option<PathBuf> {
    Some(disk_dir()?.join(format!("{}.grtr", file_stem(frames, frame, scale))))
}

const WORK_MAGIC: &[u8; 4] = b"GRWK";

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

    use grsynth::AppProfile;

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
        let a = frame_data(&base, 0, Scale::Tiny);
        let b = frame_data(&base, 0, Scale::Tiny);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let (direct, work) = Frames::from(&base).render(0, Scale::Tiny);
        assert_eq!((&*a.trace, a.work), (&direct, work));
        // Same name, different coherence: must occupy a distinct slot.
        let tweaked = profile.graph_with_coherence(0.1);
        let c = frame_data(&tweaked, 0, Scale::Tiny);
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

    /// Existing cache directories stay valid: stems are
    /// `{abbrev}_f{frame}_s{divisor}` for applications and
    /// `{cache_key}_f{frame}_s{divisor}` for frame graphs, and headers
    /// carry `app.name` / `graph.name()`. The whole-frame writer and the
    /// streamed writer produce the same files, and both are reused.
    #[test]
    fn disk_tier_names_are_stable() {
        let dir = std::env::temp_dir().join(format!("grfc-names-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let app = AppProfile::by_abbrev("AssnCreed").unwrap();
        let graph = grsynth::graph_profile("postfx").unwrap().graph();
        let cases = [
            (Frames::from(&app), "AssnCreed_f1_s8".to_string(), "Assassin's Creed"),
            (Frames::from(&graph), format!("{}_f1_s8", graph.cache_key()), graph.name()),
        ];
        for (frames, stem, name) in cases {
            assert_eq!(file_stem(frames, 1, Scale::Tiny), stem);
            let path = dir.join(format!("{stem}.grtr"));
            let work = ensure_at(&path, frames, 1, Scale::Tiny).expect("disk write");
            let streamed = std::fs::read(&path).unwrap();
            let written = ChunkedReader::new(&streamed[..], 64).unwrap().read_trace().unwrap();
            let (rendered, rendered_work) = frames.render(1, Scale::Tiny);
            assert_eq!((written.app(), written.frame()), (name, 1));
            assert_eq!((&written, work), (&rendered, rendered_work));

            store_frame(&path, &rendered, &rendered_work);
            assert_eq!(std::fs::read(&path).unwrap(), streamed, "writers agree");
            assert_eq!(load_frame(&path, frames, 1), Some((rendered, rendered_work)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
