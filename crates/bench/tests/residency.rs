//! Frame residency follows its holders: a grid keeps a workload's frames
//! only from its first cell to its last, a `framecache::Hold` keeps every
//! frame for as long as it lives, and neither changes a result.
//!
//! The tests share the process-wide frame cache and a `Hold` is seen by
//! every thread, so they take turns through `serial`.

use std::sync::{Arc, Barrier, Mutex, MutexGuard, Weak};

use grbench::framecache::{self, FrameData};
use grbench::{run_grid, ExperimentConfig, GridSource, RunOptions, WorkloadResults};
use grdram::TimingParams;
use grgpu::GpuConfig;
use grsynth::{AppProfile, Scale};
use gspc::registry;

const APPS: [&str; 2] = ["BioShock", "HAWX"];
const FRAMES: u32 = 2;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(FRAMES) }
}

fn apps() -> Vec<AppProfile> {
    APPS.iter().map(|a| AppProfile::by_abbrev(a).expect("Table 1 app")).collect()
}

/// The first plain registry row and the first Belady-annotated one, so
/// the grid also holds next-use annotations.
fn policies() -> Vec<&'static str> {
    let row = |annotated: bool| {
        let entry = registry::ALL_POLICIES.iter().find(|e| e.needs_next_use() == annotated);
        entry.expect("the registry has plain and annotated rows").name
    };
    vec![row(false), row(true)]
}

/// 2 apps x 2 frames x 2 policies, with characterization and timing on.
fn grid(apps: &[AppProfile], threads: usize) -> WorkloadResults {
    let workloads: Vec<_> =
        apps.iter().map(|app| (app.abbrev, GridSource::Frames(app.into(), FRAMES))).collect();
    let opts = RunOptions {
        threads: Some(threads),
        streamed: false,
        characterize: true,
        timing: Some((GpuConfig::baseline(), TimingParams::ddr3_1600())),
        ..RunOptions::misses(&policies())
    };
    run_grid(&workloads, &opts, &cfg())
}

/// Every byte a grid's results carry, wall-clock fields aside.
fn bytes(r: &WorkloadResults) -> String {
    let mut out = format!("{:?} {:?}", r.apps, r.policies);
    for pi in 0..r.policies.len() {
        for ai in 0..r.apps.len() {
            out += &format!("\n{:?}", r.get_indexed(pi, ai));
        }
    }
    out
}

fn resident(apps: &[AppProfile]) -> Vec<Option<Arc<FrameData>>> {
    apps.iter()
        .flat_map(|app| (0..FRAMES).map(move |f| framecache::resident(app, f, Scale::Tiny)))
        .collect()
}

/// Without a `Hold` a grid leaves no frame resident, and a `Hold` changes
/// no byte of its results.
#[test]
fn grid_releases_its_frames_and_a_hold_changes_no_result() {
    let _serial = serial();
    let apps = apps();
    for threads in [1, 4] {
        framecache::clear();
        let released = grid(&apps, threads);
        let left = resident(&apps).iter().filter(|f| f.is_some()).count();
        assert_eq!(left, 0, "{left} frames resident after a {threads}-thread grid");
        let hold = framecache::hold();
        let held = grid(&apps, threads);
        drop(hold);
        assert_eq!(bytes(&released), bytes(&held), "{threads} threads: a Hold moved a result");
    }
}

#[test]
fn hold_keeps_frames_across_grids() {
    let _serial = serial();
    framecache::clear();
    let apps = apps();
    let hold = framecache::hold();
    grid(&apps, 1);
    let first: Vec<Weak<FrameData>> = resident(&apps)
        .iter()
        .map(|f| Arc::downgrade(f.as_ref().expect("resident under a Hold")))
        .collect();
    grid(&apps, 4);
    for (now, before) in resident(&apps).iter().zip(&first) {
        let now = now.as_ref().expect("still resident under a Hold");
        assert!(Weak::ptr_eq(&Arc::downgrade(now), before), "the second grid rendered a frame");
    }
    drop(hold);
    assert!(resident(&apps).iter().all(Option::is_none), "the last Hold released its frames");
}

/// Concurrent lookups of one key share one render, and the frame goes
/// when its last holder drops it.
#[test]
fn lookups_share_one_render_while_held() {
    let _serial = serial();
    framecache::clear();
    let graph =
        grsynth::graph_profile("postfx").expect("builtin profile").graph_with_coherence(0.37);
    let start = Barrier::new(4);
    let lookup = || {
        start.wait();
        framecache::frame_data(&graph, 0, Scale::Tiny)
    };
    let frames: Vec<Arc<FrameData>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(lookup)).collect();
        handles.into_iter().map(|h| h.join().expect("lookup")).collect()
    });
    assert!(frames.iter().all(|f| Arc::ptr_eq(f, &frames[0])), "one render per key");
    let annotation = Arc::downgrade(frames[0].next_use());
    let frame = Arc::downgrade(&frames[0]);
    drop(frames);
    assert!(framecache::resident(&graph, 0, Scale::Tiny).is_none());
    assert!(frame.upgrade().is_none() && annotation.upgrade().is_none(), "frame leaked");
}
