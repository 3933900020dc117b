//! Determinism property of the frame-graph workload generator: every
//! built-in profile at a fixed seed must emit **byte-identical** `.gtrace`
//! files regardless of the thread environment (`GR_THREADS=1` vs `8`) and
//! regardless of whether the frame is streamed band by band or fully
//! materialized first. The streamed files come from real `grsim dump
//! --profile` processes, so the property covers the exact bytes a user
//! would ship.

use std::process::Command;

use grsynth::{Frames, Scale, GRAPH_PROFILES};

fn dump(profile: &str, threads: &str, path: &std::path::Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_grsim"))
        .env("GR_THREADS", threads)
        .env("GR_SCALE", "tiny")
        .args(["dump", "--profile", profile, "0", path.to_str().expect("utf8 path")])
        .args(["--coherence", "0.5"])
        .output()
        .expect("spawn grsim");
    assert!(
        out.status.success(),
        "dump --profile {profile} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(path).expect("read dumped trace")
}

/// `GR_THREADS=1` and `GR_THREADS=8` processes, plus an in-process
/// materialized render, all serialize to the same bytes for every profile.
#[test]
fn every_profile_dumps_identical_bytes_across_threads_and_paths() {
    let dir = std::env::temp_dir().join("gr-profile-determinism");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for profile in GRAPH_PROFILES {
        let one = dump(profile.name, "1", &dir.join(format!("{}_t1.gtrace", profile.name)));
        let eight = dump(profile.name, "8", &dir.join(format!("{}_t8.gtrace", profile.name)));
        assert_eq!(one, eight, "{}: GR_THREADS=1 vs 8 bytes differ", profile.name);

        // Materialized path: render the whole frame in memory, then
        // serialize. Must match the banded streaming writer bit for bit.
        let graph = profile.graph_with_coherence(0.5);
        let trace = Frames::from(&graph).render(0, Scale::Tiny).0;
        let mut materialized = Vec::new();
        grtrace::io::write(&mut materialized, &trace).expect("serialize in memory");
        assert_eq!(one, materialized, "{}: streamed vs materialized bytes differ", profile.name);

        // And the file must survive the validating importer unchanged.
        let imported = grtrace::import(&one[..]).expect("dumped file imports cleanly");
        assert_eq!(imported, trace, "{}: import round-trip changed the trace", profile.name);
    }
}
