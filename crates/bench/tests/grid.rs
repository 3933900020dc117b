//! `run_grid` is the one fold: over application, frame-graph and imported
//! trace workloads it must equal the per-cell replays folded by hand in
//! ascending frame order, at any thread count.

use grbench::{
    run_frame_sequence, run_grid, simulate_cell, simulate_trace_cell, AppAgg, CellResult,
    ExperimentConfig, GridSource, RunOptions,
};
use grdram::TimingParams;
use grgpu::GpuConfig;
use grsynth::{AppProfile, Scale};
use grtrace::Trace;
use gspc::registry;

fn cfg() -> ExperimentConfig {
    ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(2) }
}

/// Every Belady-annotated registry row, in table order.
fn annotated() -> Vec<&'static str> {
    registry::ALL_POLICIES.iter().filter(|e| e.needs_next_use()).map(|e| e.name).collect()
}

/// The first plain registry row, the first annotated one and the last
/// Figure 12 row (a UCD wrapper).
fn mixed_policies() -> [&'static str; 3] {
    let plain = registry::ALL_POLICIES.iter().find(|e| !e.needs_next_use()).expect("plain row");
    let ucd = registry::in_group(registry::GROUP_FIG12).last().expect("Figure 12 rows");
    [plain.name, annotated()[0], ucd.name]
}

/// Frame `frame` of the `cpu-like` profile, written as a `.gtrace` byte
/// stream and imported back.
fn imported_trace(frame: u32) -> Trace {
    let graph = grsynth::graph_profile("cpu-like").expect("builtin profile").graph();
    let rendered = grsynth::Frames::from(&graph).render(frame, Scale::Tiny).0;
    let mut bytes = Vec::new();
    grtrace::io::write(&mut bytes, &rendered).expect("write trace");
    grtrace::import(&bytes[..]).expect("import trace")
}

/// Folds `cells` the way a serial sweep would.
fn fold(cells: impl IntoIterator<Item = CellResult>) -> AppAgg {
    let mut agg = AppAgg::default();
    for cell in cells {
        agg.frames += 1;
        agg.frame_ns_total += cell.frame_ns;
        agg.stats.merge(&cell.stats);
        agg.chars.merge(cell.chars.as_ref().expect("characterization requested"));
    }
    agg
}

fn assert_same(got: &AppAgg, want: &AppAgg, what: &str) {
    assert_eq!(got.stats, want.stats, "{what}: stats");
    assert_eq!(got.chars, want.chars, "{what}: chars");
    assert_eq!(got.frame_ns_total.to_bits(), want.frame_ns_total.to_bits(), "{what}: frame_ns");
    assert_eq!(got.frames, want.frames, "{what}: frames");
}

#[test]
fn grid_equals_per_cell_folds_at_any_thread_count() {
    let cfg = cfg();
    let policies = mixed_policies();
    let app = AppProfile::by_abbrev("BioShock").expect("known app");
    let graph = grsynth::graph_profile("postfx").expect("builtin profile").graph();
    let trace = imported_trace(1);
    let workloads = [
        ("BioShock", GridSource::Frames((&app).into(), 2)),
        ("postfx", GridSource::Frames((&graph).into(), 2)),
        ("import", GridSource::Trace(&trace)),
    ];
    let base = RunOptions {
        characterize: true,
        timing: Some((GpuConfig::baseline(), TimingParams::ddr3_1600())),
        ..RunOptions::misses(&policies)
    };
    for threads in [1, 4] {
        let opts = RunOptions { threads: Some(threads), ..base.clone() };
        let r = run_grid(&workloads, &opts, &cfg);
        assert_eq!(r.apps, ["BioShock", "postfx", "import"]);
        for policy in policies {
            let cell = |frames: grsynth::Frames<'_>, frame| {
                simulate_cell(policy, frames, frame, &base, &cfg)
            };
            let want = [
                fold((0..2).map(|frame| cell((&app).into(), frame))),
                fold((0..2).map(|frame| cell((&graph).into(), frame))),
                fold([simulate_trace_cell(policy, &trace, &base, &cfg)]),
            ];
            for ((label, _), want) in workloads.iter().zip(&want) {
                let what = format!("{policy}/{label} at {threads} threads");
                assert_same(r.get(policy, label), want, &what);
            }
        }
    }
}

/// Every annotated policy over a trace shares that trace's next-use
/// annotation; each must still match its own single-cell replay, and two
/// traces in one grid must not share theirs.
#[test]
fn shared_trace_annotation_changes_nothing() {
    let cfg = cfg();
    let traces = [imported_trace(0), imported_trace(1)];
    let policies = annotated();
    assert!(policies.len() >= 2, "the registry has OPT and GOPT");
    let opts = RunOptions { threads: Some(2), ..RunOptions::misses(&policies) };
    let workloads = [("f0", GridSource::Trace(&traces[0])), ("f1", GridSource::Trace(&traces[1]))];
    let r = run_grid(&workloads, &opts, &cfg);
    for &policy in &policies {
        for ((label, _), trace) in workloads.iter().zip(&traces) {
            let cell = simulate_trace_cell(policy, trace, &opts, &cfg);
            assert_eq!(r.get(policy, label).stats, cell.stats, "{policy}/{label}");
            assert_eq!(r.get(policy, label).frames, 1);
        }
    }
}

/// The invariant checker on a persistent-LLC sequence is a pure observer.
#[test]
fn checked_sequence_matches_unchecked() {
    let cfg = cfg();
    let app = AppProfile::by_abbrev("HAWX").expect("known app");
    for policy in mixed_policies() {
        let plain = RunOptions { check: false, ..RunOptions::misses(&[]) };
        let checked = RunOptions { check: true, ..plain.clone() };
        let want = run_frame_sequence(policy, &app, 0..2, &plain, &cfg);
        assert_eq!(want.len(), 2);
        assert_eq!(run_frame_sequence(policy, &app, 0..2, &checked, &cfg), want, "{policy}");
    }
}
