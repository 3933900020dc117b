//! A timed cell's heap during replay is its LLC and policy state plus a
//! fixed allowance: the DDR3 model schedules each DRAM transfer as the LLC
//! emits it, so no cell records its memory log or copies it into a
//! request list, and the heap does not grow with the frame's misses.
//!
//! One test in its own process: the counting allocator sees every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use grbench::{framecache, simulate_cell, ExperimentConfig, RunOptions};
use grcache::Llc;
use grdram::TimingParams;
use grgpu::GpuConfig;
use grsynth::{AppProfile, Scale};
use gspc::registry;

/// Heap a timed cell may use beyond its LLC and policy: the DDR3 model's
/// windows and bank state, the statistics it returns, and the cell's
/// result. A quarter-scale frame's memory log is megabytes.
const ALLOWANCE: usize = 16 * 1024;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their peak.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result and the most heap it held at once
/// above what was live when it started.
fn heap_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

#[test]
fn a_timed_cell_holds_no_memory_log() {
    let cfg = ExperimentConfig { scale: Scale::Quarter, frames_per_app: Some(1) };
    let app = AppProfile::by_abbrev("BioShock").expect("known app");
    // Any plain registry row will do; the first is the DRRIP baseline.
    let policy =
        registry::ALL_POLICIES.iter().find(|e| !e.needs_next_use()).expect("plain row").name;
    let llc_cfg = cfg.llc(8);
    let opts = RunOptions {
        timing: Some((GpuConfig::baseline(), TimingParams::ddr3_1600())),
        threads: Some(1),
        streamed: false,
        check: false,
        ..RunOptions::misses(&[policy])
    };
    // The frame is rendered before the measurement and held through it.
    let _frame = framecache::frame_data(&app, 0, cfg.scale);
    let (llc, state) = heap_peak(|| {
        Llc::new(llc_cfg, registry::create(policy, &llc_cfg).expect("registered policy"))
    });
    drop(llc);
    // A first replay settles anything built once per process.
    let warm = simulate_cell(policy, &app, 0, &opts, &cfg);
    let (cell, peak) = heap_peak(|| simulate_cell(policy, &app, 0, &opts, &cfg));
    assert_eq!(cell.frame_ns.to_bits(), warm.frame_ns.to_bits());
    assert!(cell.frame_ns > 0.0, "the cell timed no frame");
    // A log of the cell's transfers (16 bytes each) would not fit.
    let log_bytes = cell.stats.total_misses() as usize * 16;
    assert!(log_bytes > 4 * ALLOWANCE, "the frame is too small to tell: {log_bytes} log bytes");
    assert!(
        peak <= state + ALLOWANCE,
        "a timed replay peaked at {peak} heap bytes; the LLC and policy take {state}, \
         the allowance is {ALLOWANCE}, and the memory log would take {log_bytes}"
    );
}
