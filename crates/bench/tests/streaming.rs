//! The tentpole guarantee of the streaming access pipeline: replaying a
//! frame through any [`grtrace::AccessSource`] — an in-memory slice, a
//! chunked reader over the serialized disk format, or the band-by-band
//! synthesis stream — produces **bit-identical** LLC statistics and memory
//! logs for every policy in the registry.

use std::io::Cursor;
use std::sync::Once;

use grbench::{framecache, run_workload, ExperimentConfig, RunOptions};
use grcache::{annotate_next_use, Llc, LlcStats};
use grsynth::{AppProfile, Frames, Scale};
use grtrace::io::ChunkedReader;
use grtrace::{AccessSource, Trace};
use gspc::registry;

/// The Belady-annotated policy of the annotation and sidecar checks.
const OPT: &str = "OPT";

/// Routes the disk tier at a per-process temp directory so the streaming
/// paths are exercised even where `GR_TRACE_CACHE` is not exported.
/// `Once` synchronizes the write: every test calls this before touching
/// the environment-reading code.
fn init_disk_cache() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if std::env::var_os("GR_TRACE_CACHE").is_none() {
            let dir = std::env::temp_dir().join(format!("gr_stream_test_{}", std::process::id()));
            std::env::set_var("GR_TRACE_CACHE", &dir);
        }
    });
}

/// The reference frame: rendered whole, outside every cache, so the disk
/// tier and the synthesis stream are compared against the materialized
/// render rather than against themselves. Frame 2 lies outside the
/// two-frame workload below, so only the streamed writer ever puts it on
/// disk.
const FRAME: u32 = 2;

fn test_frame() -> (AppProfile, Trace, Vec<u64>) {
    init_disk_cache();
    let app = AppProfile::by_abbrev("BioShock").expect("profile");
    let (trace, _) = Frames::from(&app).render(FRAME, Scale::Tiny);
    let nu = annotate_next_use(trace.accesses());
    (app, trace, nu)
}

/// Runs `policy_name` over `source`, returning the stats and memory log.
fn replay_source<S: AccessSource>(
    policy_name: &str,
    mut source: S,
) -> (LlcStats, Vec<(u64, bool)>) {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) }.llc(8);
    let policy = registry::create(policy_name, &cfg).expect("registry policy");
    let mut llc = Llc::new(cfg, policy).with_memory_log();
    llc.run_source(&mut source).expect("replay failed");
    let log = llc.memory_log().expect("memory log enabled").to_vec();
    (llc.stats().clone(), log)
}

#[test]
fn every_policy_is_bit_identical_across_sources() {
    let (_, trace, nu) = test_frame();

    // Serialize once; the chunked reader decodes it back in small chunks.
    let mut buf = Vec::new();
    grtrace::io::write(&mut buf, &trace).expect("serialize trace");
    let mut nu_buf = Vec::new();
    grtrace::io::write_next_use(&mut nu_buf, &nu).expect("serialize next-use");

    for entry in registry::ALL_POLICIES {
        let annotated = registry::needs_next_use(entry.name);

        let (base_stats, base_log) = if annotated {
            replay_source(entry.name, trace.source_annotated(&nu))
        } else {
            replay_source(entry.name, trace.source())
        };

        // An intentionally awkward chunk size exercises chunk boundaries.
        let reader = ChunkedReader::new(Cursor::new(&buf), 777).expect("open serialized trace");
        let reader = if annotated {
            reader.with_next_use(Cursor::new(nu_buf.clone())).expect("attach sidecar")
        } else {
            reader
        };
        let (stream_stats, stream_log) = replay_source(entry.name, reader);

        assert_eq!(base_stats, stream_stats, "stats diverged for {}", entry.name);
        assert_eq!(base_log, stream_log, "memory log diverged for {}", entry.name);
    }
}

#[test]
fn disk_tier_streams_bit_identically() {
    let (app, trace, nu) = test_frame();

    let path = framecache::ensure_on_disk(&app, FRAME, Scale::Tiny)
        .expect("disk tier I/O")
        .expect("GR_TRACE_CACHE is set by init_disk_cache");
    assert!(path.exists());

    // OPT through the disk tier: the .nu sidecar must be created and used.
    let src = framecache::disk_source(&app, FRAME, Scale::Tiny, true)
        .expect("disk tier I/O")
        .expect("GR_TRACE_CACHE is set");
    assert!(path.with_extension("nu").exists(), ".nu sidecar must be persisted");
    let (disk_stats, disk_log) = replay_source(OPT, src.reader);
    let (base_stats, base_log) = replay_source(OPT, trace.source_annotated(&nu));
    assert_eq!(base_stats, disk_stats);
    assert_eq!(base_log, disk_log);

    // A policy that needs no annotation streams from disk too.
    let src = framecache::disk_source(&app, FRAME, Scale::Tiny, false)
        .expect("disk tier I/O")
        .expect("GR_TRACE_CACHE is set");
    assert_eq!(src.reader.remaining(), trace.len() as u64);
    let (disk_stats, _) = replay_source("DRRIP", src.reader);
    let (base_stats, _) = replay_source("DRRIP", trace.source());
    assert_eq!(base_stats, disk_stats);
}

#[test]
fn synthesis_stream_feeds_llc_identically() {
    let (app, trace, _) = test_frame();
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) }.llc(8);

    let mut direct = Llc::new(cfg, registry::create("GSPC", &cfg).expect("policy"));
    direct.run_source(&mut trace.source()).expect("slice replay");

    let mut streamed = Llc::new(cfg, registry::create("GSPC", &cfg).expect("policy"));
    let mut stream = grsynth::FrameStream::new(&app, FRAME, Scale::Tiny);
    let served = streamed.run_source(&mut stream).expect("synthesis stream");

    assert_eq!(served, trace.len() as u64);
    assert_eq!(direct.stats(), streamed.stats());
}

#[test]
fn streamed_workload_matches_materialized() {
    init_disk_cache();
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(2) };
    let policies = [OPT, "GSPC", "DRRIP"];
    let base = run_workload(&RunOptions { streamed: false, ..RunOptions::misses(&policies) }, &cfg);
    let streamed =
        run_workload(&RunOptions { streamed: true, ..RunOptions::misses(&policies) }, &cfg);
    for policy in &policies {
        for app in &base.apps {
            assert_eq!(
                base.get(policy, app).stats,
                streamed.get(policy, app).stats,
                "streamed stats diverged for ({policy}, {app})"
            );
        }
    }
}

/// A cached `.grtr` whose length and header are intact but whose last
/// record carries an unknown stream code passes every whole-file check of
/// the disk tier; only the decoder sees it. A streamed cell over it must
/// drop the frame's files and replay from a fresh render, with the stats of
/// the in-memory replay, rather than panic on every replay for good.
#[test]
fn corrupt_cached_trace_is_replaced_not_fatal() {
    init_disk_cache();
    // Frame 3 lies outside every other workload in this file.
    const CORRUPT_FRAME: u32 = 3;
    let tiny = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let app = AppProfile::by_abbrev("HAWX").expect("profile");
    for policy in ["DRRIP", OPT] {
        let opts = RunOptions { streamed: false, ..RunOptions::misses(&[policy]) };
        let expected = grbench::simulate_cell(policy, &app, CORRUPT_FRAME, &opts, &tiny).stats;
        let path = framecache::ensure_on_disk(&app, CORRUPT_FRAME, Scale::Tiny)
            .expect("disk tier I/O")
            .expect("GR_TRACE_CACHE is set by init_disk_cache");
        let mut bytes = std::fs::read(&path).expect("read cached trace");
        let stream_byte = bytes.len() - 2;
        bytes[stream_byte] = 200;
        std::fs::write(&path, &bytes).expect("corrupt cached trace");

        let streamed = RunOptions { streamed: true, ..opts };
        for round in 0..2 {
            let got = grbench::simulate_cell(policy, &app, CORRUPT_FRAME, &streamed, &tiny);
            assert_eq!(got.stats, expected, "{policy}, round {round}");
            framecache::clear();
        }
        let healed = framecache::ensure_on_disk(&app, CORRUPT_FRAME, Scale::Tiny)
            .expect("disk tier I/O")
            .expect("GR_TRACE_CACHE is set");
        let healed = std::fs::read(healed).expect("read regenerated trace");
        assert_ne!(healed[stream_byte], 200, "{policy}: the damaged file was kept");
    }
}

/// A cold streamed OPT cell builds the frame's `.nu` sidecar from a
/// decode of the `.grtr` it drops afterwards: the frame is not left
/// resident in the process-wide cache, and the sidecar is the annotation
/// of the trace on disk.
#[test]
fn cold_streamed_opt_cell_leaves_no_resident_frame() {
    init_disk_cache();
    // Frame 4 lies outside every other workload in this file.
    const COLD_FRAME: u32 = 4;
    let tiny = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let app = AppProfile::by_abbrev("Dirt").expect("profile");
    framecache::discard(&app, COLD_FRAME, Scale::Tiny);
    let streamed = RunOptions { streamed: true, ..RunOptions::misses(&[OPT]) };
    let got = grbench::simulate_cell(OPT, &app, COLD_FRAME, &streamed, &tiny);
    assert!(
        framecache::resident(&app, COLD_FRAME, Scale::Tiny).is_none(),
        "the streamed cell pinned its frame in memory"
    );

    let path = framecache::ensure_on_disk(&app, COLD_FRAME, Scale::Tiny)
        .expect("disk tier I/O")
        .expect("GR_TRACE_CACHE is set by init_disk_cache");
    let file = std::io::BufReader::new(std::fs::File::open(&path).expect("open trace"));
    let trace = ChunkedReader::new(file, 4096).expect("header").read_trace().expect("decode");
    let nu = std::fs::File::open(path.with_extension("nu")).expect("sidecar written");
    let nu = grtrace::io::read_next_use(std::io::BufReader::new(nu)).expect("sidecar decodes");
    assert_eq!(nu, annotate_next_use(trace.accesses()));

    let in_memory = RunOptions { streamed: false, ..streamed };
    let expected = grbench::simulate_cell(OPT, &app, COLD_FRAME, &in_memory, &tiny);
    assert_eq!(got.stats, expected.stats);
}

/// A cached `.grtr` record whose address no access can hold fails the
/// decode that builds a missing `.nu` sidecar; the streamed OPT cell must
/// then drop the frame's files and replay from a fresh render, not panic.
#[test]
fn unpackable_address_while_annotating_is_replaced_not_fatal() {
    init_disk_cache();
    // Frame 5 lies outside every other workload in this file.
    const DAMAGED_FRAME: u32 = 5;
    let tiny = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let app = AppProfile::by_abbrev("HAWX").expect("profile");
    let opts = RunOptions { streamed: false, ..RunOptions::misses(&[OPT]) };
    let expected = grbench::simulate_cell(OPT, &app, DAMAGED_FRAME, &opts, &tiny).stats;
    framecache::clear();
    let path = framecache::ensure_on_disk(&app, DAMAGED_FRAME, Scale::Tiny)
        .expect("disk tier I/O")
        .expect("GR_TRACE_CACHE is set by init_disk_cache");
    let _ = std::fs::remove_file(path.with_extension("nu"));
    let mut bytes = std::fs::read(&path).expect("read cached trace");
    // The last record's address: its top byte sets bit 63.
    let top = bytes.len() - 3;
    bytes[top] = 0x80;
    std::fs::write(&path, &bytes).expect("damage cached trace");

    let streamed = RunOptions { streamed: true, ..opts };
    let got = grbench::simulate_cell(OPT, &app, DAMAGED_FRAME, &streamed, &tiny);
    assert_eq!(got.stats, expected);
    let healed = std::fs::read(&path).expect("read regenerated trace");
    assert_ne!(healed[top], 0x80, "the damaged file was kept");
}
