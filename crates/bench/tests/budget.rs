//! A budgeted `framecache::Hold` keeps the most recently looked-up frames
//! that fit its byte budget, lets the least recently looked-up pins go
//! first, and never frees (or renders again) a frame another holder has.
//!
//! The tests share the process-wide frame cache and a `Hold` is seen by
//! every thread, so they take turns through `serial` and start cold.

use std::sync::{Arc, Mutex, MutexGuard};

use grbench::framecache::{self, FrameData};
use grsynth::{AppProfile, Scale};

const APPS: [&str; 4] = ["BioShock", "HAWX", "Dirt", "DMC"];

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    framecache::clear();
    guard
}

fn app(i: usize) -> AppProfile {
    AppProfile::by_abbrev(APPS[i]).expect("Table 1 app")
}

fn lookup(i: usize) -> Arc<FrameData> {
    framecache::frame_data(&app(i), 0, Scale::Tiny)
}

fn resident(i: usize) -> bool {
    framecache::resident(&app(i), 0, Scale::Tiny).is_some()
}

/// Each app's frame-0 bytes, measured with no `Hold` (so nothing stays).
fn sizes() -> Vec<u64> {
    (0..APPS.len()).map(|i| lookup(i).bytes()).collect()
}

/// Looking a frame up again makes it the most recent: past the budget the
/// least recently looked-up pin goes, not the oldest render and not the
/// newest lookup.
#[test]
fn the_least_recently_looked_up_pin_goes_first() {
    let _serial = serial();
    let size = sizes();
    assert!((0..APPS.len()).all(|i| !resident(i)), "no Hold, no residency");
    let budget = size[0] + size[1] + size[2];
    let evictions = framecache::evictions();
    let hold = framecache::hold_within(budget);
    for i in 0..3 {
        lookup(i);
    }
    assert_eq!(framecache::pinned_bytes(), budget);
    assert!((0..3).all(resident));
    assert_eq!(framecache::evictions(), evictions);

    lookup(0);
    lookup(3);
    assert!(framecache::pinned_bytes() <= budget, "pins past the budget");
    assert!(resident(0), "the recently looked-up frame was evicted");
    assert!(resident(3), "the newest frame was evicted");
    assert!(!resident(1), "the least recently looked-up frame stayed");
    assert!(framecache::evictions() > evictions);

    drop(hold);
    assert_eq!(framecache::pinned_bytes(), 0);
    assert!((0..APPS.len()).all(|i| !resident(i)));
}

/// A frame a grid (or any caller) holds by its `Arc` outlives its pin:
/// evicting the pin frees nothing, and the next lookup returns the same
/// frame instead of rendering it again.
#[test]
fn an_evicted_pin_of_a_held_frame_neither_frees_nor_renders_it() {
    let _serial = serial();
    let size = sizes();
    let evictions = framecache::evictions();
    let _hold = framecache::hold_within(size[0].max(size[1]));
    let held = lookup(0);
    lookup(1);
    assert!(framecache::evictions() > evictions, "frame 0's pin was kept past the budget");
    assert!(resident(0), "a held frame was freed");
    assert!(Arc::ptr_eq(&held, &lookup(0)), "a held frame was rendered again");
    drop(held);
    // The last lookup pinned frame 0 again and let frame 1 go.
    assert!(resident(0) && !resident(1));
}

/// Computing a pinned frame's next-use annotation adds its bytes; past the
/// budget the least recently looked-up pin goes at once.
#[test]
fn an_annotation_counts_against_the_budget() {
    let _serial = serial();
    let size = sizes();
    let _hold = framecache::hold_within(size[0] + size[1]);
    lookup(0);
    let newest = lookup(1);
    assert!(resident(0));
    newest.next_use();
    assert_eq!(newest.bytes(), 2 * size[1]);
    assert!(!resident(0), "the annotation took the pins past the budget");
    assert!(framecache::pinned_bytes() <= size[0] + size[1]);
}

/// While an unbounded `Hold` lives no budget applies; when it drops, the
/// budgeted one trims the pins to fit.
#[test]
fn an_unbounded_hold_overrides_the_budget() {
    let _serial = serial();
    let size = sizes();
    let budget = *size.iter().max().expect("four apps");
    let _budgeted = framecache::hold_within(budget);
    let unbounded = framecache::hold();
    for i in 0..APPS.len() {
        lookup(i);
    }
    assert_eq!(framecache::pinned_bytes(), size.iter().sum::<u64>());
    drop(unbounded);
    assert!(framecache::pinned_bytes() <= budget);
    assert!(resident(APPS.len() - 1), "the most recent frame should stay");
}
