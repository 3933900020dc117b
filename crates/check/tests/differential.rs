//! The headline differential campaign: every registry policy replayed
//! against the reference model (and its oracle, where one exists) on
//! seeded fuzz traces, plus a mutation self-test proving the harness
//! actually catches fast-path corruption.

use grcheck::fuzz::{
    self, differential_replay, dump_reproducer, shrink, synth_trace, Fault, FuzzConfig,
};
use grcheck::optcheck::opt_misses;
use grtrace::Access;

/// Every registry policy (plus two parameterized GSPZTC spellings)
/// replays at least 10k seeded accesses against the reference model with
/// zero divergences, and no bypass-free policy beats the Belady bound.
#[test]
fn every_policy_agrees_with_its_reference_on_10k_accesses() {
    let llc = fuzz::fuzz_llc();
    for name in FuzzConfig::all_policies() {
        let mut replayed = 0usize;
        for case in 0..3u32 {
            let accesses = synth_trace(0xD1FF, case, 4096);
            let bound = opt_misses(&llc, &accesses);
            let stats = differential_replay(&llc, &name, &accesses, Fault::None)
                .unwrap_or_else(|d| panic!("{name} case {case}: {d:?}"));
            if stats.bypassed_reads + stats.bypassed_writes == 0 {
                assert!(
                    stats.total_misses() >= bound,
                    "{name} case {case} beat OPT: {} < {bound}",
                    stats.total_misses()
                );
            }
            replayed += accesses.len();
        }
        assert!(replayed >= 10_000, "{name}: only {replayed} accesses replayed");
    }
}

/// The same campaign on a small, differently shaped LLC (fewer ways, odd
/// bank count) so set-mapping bugs can't hide behind the default
/// geometry. `WayPart` is skipped: it asserts a 16-way cache.
#[test]
fn alternate_geometry_agrees_too() {
    let llc = fuzz::alt_llc();
    for name in FuzzConfig::all_policies() {
        if name == "WayPart" {
            continue;
        }
        for case in 0..2u32 {
            let accesses = synth_trace(0xA17, case, 4096);
            differential_replay(&llc, &name, &accesses, Fault::None)
                .unwrap_or_else(|d| panic!("{name} case {case}: {d:?}"));
        }
    }
}

/// Mutation self-test: corrupt the fast path's packed mirror tag after
/// the first access and demand the harness (a) notices, (b) shrinks the
/// reproducer to a handful of accesses, and (c) round-trips it through a
/// `.gtrace` artifact. Ignored in the default run because it exists to
/// validate the harness, not the simulator; CI runs it explicitly with
/// `cargo test -- --ignored`.
#[test]
#[ignore = "harness self-test; run explicitly with --ignored"]
fn injected_mirror_desync_is_caught_shrunk_and_dumped() {
    let llc = fuzz::fuzz_llc();
    let mut accesses = synth_trace(7, 0, 4096);
    // Guarantee a re-probe of the corrupted block so the desync is
    // reachable even if the generator never revisits it.
    let first = accesses[0];
    accesses.push(Access::load(first.addr(), first.stream()));

    let divergence = differential_replay(&llc, "DRRIP", &accesses, Fault::MirrorDesyncAfterFirst)
        .expect_err("corrupted mirror tag must diverge");
    assert!(divergence.index > 0, "corruption applies after access 0");

    let shrunk = shrink(&llc, "DRRIP", &accesses, Fault::MirrorDesyncAfterFirst);
    assert!(shrunk.len() <= 100, "reproducer did not shrink: {} accesses remain", shrunk.len());
    differential_replay(&llc, "DRRIP", &shrunk, Fault::MirrorDesyncAfterFirst)
        .expect_err("shrunk reproducer must still diverge");

    let dir = std::env::temp_dir().join(format!("grcheck-selftest-{}", std::process::id()));
    let path = dump_reproducer(&dir, "DRRIP", 7, 0, &shrunk).expect("dump reproducer");
    let trace = grtrace::import_file(&path).expect("reproducer imports");
    assert_eq!(trace.accesses(), &shrunk[..], "artifact round-trip");
    std::fs::remove_dir_all(&dir).ok();
}
