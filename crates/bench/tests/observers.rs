//! Observers watch a replay; they never steer it. The runner builds one
//! monomorphized replay per combination of characterization, timing and
//! invariant checking, and every combination must leave the LLC statistics
//! of every registry policy exactly as the bare replay has them.

use grbench::{simulate_cell, CellResult, ExperimentConfig, RunOptions};
use grdram::TimingParams;
use grgpu::GpuConfig;
use grsynth::{AppProfile, Scale};
use gspc::registry;

#[test]
fn no_observer_combination_changes_llc_stats() {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let app = AppProfile::by_abbrev("HAWX").expect("known app");
    let timing = Some((GpuConfig::baseline(), TimingParams::ddr3_1600()));
    for entry in registry::ALL_POLICIES {
        let cell = |characterize: bool, timed: bool, check: bool| -> CellResult {
            let opts = RunOptions {
                characterize,
                timing: if timed { timing } else { None },
                check,
                ..RunOptions::misses(&[])
            };
            simulate_cell(entry.name, &app, 0, &opts, &cfg)
        };
        let bare = cell(false, false, false);
        assert!(bare.accesses > 0, "{} replayed nothing", entry.name);
        let full = cell(true, true, false);
        for bits in 1..8u8 {
            let (characterize, timed, check) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let got = cell(characterize, timed, check);
            let what = format!(
                "{} with characterize={characterize} timing={timed} check={check}",
                entry.name
            );
            assert_eq!(got.stats, bare.stats, "{what}: LLC stats moved");
            assert_eq!(got.accesses, bare.accesses, "{what}: access count moved");
            if characterize {
                assert_eq!(got.chars, full.chars, "{what}: characterization moved");
            }
            if timed {
                assert_eq!(
                    got.frame_ns.to_bits(),
                    full.frame_ns.to_bits(),
                    "{what}: frame time moved"
                );
            }
        }
    }
}
