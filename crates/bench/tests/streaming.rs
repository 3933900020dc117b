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
    let (disk_stats, disk_log) = replay_source("OPT", src.reader);
    let (base_stats, base_log) = replay_source("OPT", trace.source_annotated(&nu));
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
    let policies = ["OPT", "GSPC", "DRRIP"];
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
