//! The streamed disk tier must be self-healing: a corrupt, stale, or
//! truncated `.nu` Belady sidecar, `.work` sidecar or `.grtr` trace is
//! detected and regenerated, never replayed into wrong OPT numbers or a
//! panic.
//!
//! A single `#[test]` covers every scenario because the disk tier's
//! directory (`GR_TRACE_CACHE`) is latched process-wide on first use.

use grbench::framecache;
use grcache::{annotate_next_use, Llc};
use grsynth::{AppProfile, Frames, Scale};
use grtrace::AccessSource;
use gspc::registry;
use std::path::Path;

/// OPT misses replayed from `source`.
fn opt_misses(mut source: impl AccessSource) -> u64 {
    let cfg = grcache::LlcConfig { size_bytes: 64 * 1024, ways: 16, banks: 4, sample_period: 64 };
    let mut llc = Llc::new(cfg, registry::create("OPT", &cfg).unwrap());
    llc.run_source(&mut source).expect("replay");
    llc.stats().total_misses()
}

/// OPT misses replayed through the streaming disk tier.
fn streamed_opt_misses(app: &AppProfile) -> u64 {
    opt_misses(
        framecache::disk_source(app, 0, Scale::Tiny, true)
            .expect("disk tier usable")
            .expect("GR_TRACE_CACHE is set")
            .reader,
    )
}

fn nu_file(dir: &Path) -> std::path::PathBuf {
    let nu: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir listable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "nu"))
        .collect();
    assert_eq!(nu.len(), 1, "expected exactly one .nu sidecar, found {nu:?}");
    nu.into_iter().next().unwrap()
}

#[test]
fn corrupt_or_truncated_sidecars_are_regenerated_not_trusted() {
    let dir = std::env::temp_dir().join(format!("grnu-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create cache dir");
    // Latch the disk tier to our private directory before any framecache
    // call in this process.
    std::env::set_var("GR_TRACE_CACHE", &dir);

    let app = AppProfile::by_abbrev("BioShock").expect("profile exists");

    // Baseline: a whole render replayed in memory, outside every cache.
    let (trace, _) = Frames::from(&app).render(0, Scale::Tiny);
    let expected = opt_misses(trace.source_annotated(&annotate_next_use(trace.accesses())));

    // First streamed replay writes the trace and sidecar to disk.
    assert_eq!(streamed_opt_misses(&app), expected, "pristine sidecar");
    let nu = nu_file(&dir);
    let good = std::fs::read(&nu).expect("read sidecar");

    // Scenario 1: garbage magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&nu, &bad).unwrap();
    assert_eq!(streamed_opt_misses(&app), expected, "corrupt magic must heal");
    assert_eq!(std::fs::read(&nu).unwrap(), good, "sidecar rewritten");

    // Scenario 2: plausible header, wrong count.
    let mut bad = good.clone();
    bad[8..16].copy_from_slice(&1u64.to_le_bytes());
    std::fs::write(&nu, &bad).unwrap();
    assert_eq!(streamed_opt_misses(&app), expected, "stale count must heal");
    assert_eq!(std::fs::read(&nu).unwrap(), good);

    // Scenario 3: correct header, truncated body — the case a header-only
    // check waves through.
    std::fs::write(&nu, &good[..good.len() / 2]).unwrap();
    assert_eq!(streamed_opt_misses(&app), expected, "truncated body must heal");
    assert_eq!(std::fs::read(&nu).unwrap(), good);

    // Scenario 4: sidecar deleted outright.
    std::fs::remove_file(&nu).unwrap();
    assert_eq!(streamed_opt_misses(&app), expected, "missing sidecar must heal");
    assert_eq!(std::fs::read(&nu).unwrap(), good);

    // The trace and its `.work` sidecar heal the same way. A check that
    // only parses the trace header and sees that `.work` exists would
    // replay each damage below into a panic, on every retry.
    let (grtr, work) = (nu.with_extension("grtr"), nu.with_extension("work"));
    let good_trace = std::fs::read(&grtr).expect("read trace");
    let good_work = std::fs::read(&work).expect("read .work");

    // Scenario 5: garbage `.work`.
    std::fs::write(&work, vec![0xAB; good_work.len()]).unwrap();
    assert_eq!(streamed_opt_misses(&app), expected, "garbage .work must heal");
    assert_eq!(std::fs::read(&work).unwrap(), good_work);

    // Scenario 6: truncated `.work`.
    std::fs::write(&work, &good_work[..good_work.len() / 2]).unwrap();
    assert_eq!(streamed_opt_misses(&app), expected, "truncated .work must heal");
    assert_eq!(std::fs::read(&work).unwrap(), good_work);

    // Scenario 7: `.grtr` cut mid-body, header intact.
    std::fs::write(&grtr, &good_trace[..good_trace.len() / 2]).unwrap();
    assert_eq!(streamed_opt_misses(&app), expected, "truncated trace must heal");
    assert_eq!(std::fs::read(&grtr).unwrap(), good_trace);

    // Scenario 8: `.grtr` header declaring `u64::MAX` records, a count no
    // file can hold; the expected length must not overflow.
    let count_at = grtrace::io::trace_file_len(app.name, 0).expect("header length") as usize - 8;
    let mut bad = good_trace.clone();
    bad[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&grtr, &bad).unwrap();
    assert_eq!(streamed_opt_misses(&app), expected, "damaged count must heal");
    assert_eq!(std::fs::read(&grtr).unwrap(), good_trace);

    std::fs::remove_dir_all(&dir).ok();
}
