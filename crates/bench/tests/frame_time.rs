//! Pins the exact frame-time path: real tiny-scale frames replayed
//! through the LLC with the Figure 15 machine attached, so every memory
//! log goes through the DDR3 scheduler and the interval model. The
//! constants were recorded before the scheduler's window search was
//! rewritten; any change to the schedule it computes moves `frame_ns`.

use grbench::{figures, simulate_cell, ExperimentConfig, RunOptions};
use grsynth::{AppProfile, Scale};

/// The policies each app is replayed under.
const POLICIES: [&str; 2] = ["DRRIP", "GSPC+UCD"];

/// One cell's accesses, misses, writebacks and `frame_ns` bits.
type Cell = (u64, u64, u64, u64);

/// Per app, per policy in `POLICIES` order. The frame times are
/// 195765.476, 188436.725, 252827.768 and 216835.493 ns.
const PINNED: [(&str, [Cell; 2]); 2] = [
    (
        "BioShock",
        [(34682, 22650, 6851, 4685966463389651652), (34682, 21323, 4351, 4685714649414636538)],
    ),
    (
        "HAWX",
        [(40294, 22889, 10462, 4687927108811143980), (40294, 20564, 6473, 4686690423630256126)],
    ),
];

#[test]
fn fig15_frame_times_on_real_logs_are_pinned() {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let panel = figures::fig15();
    let opts = RunOptions {
        timing: Some((panel.gpu, panel.dram)),
        llc_paper_mb: panel.llc_mb,
        threads: Some(1),
        streamed: false,
        check: false,
        ..RunOptions::from_env(&[])
    };
    for (abbrev, cells) in PINNED {
        let app = AppProfile::by_abbrev(abbrev).expect("Table 1 app");
        for (policy, expected) in POLICIES.into_iter().zip(cells) {
            let cell = simulate_cell(policy, &app, 0, &opts, &cfg);
            let seen = (
                cell.accesses,
                cell.stats.total_misses(),
                cell.stats.writebacks,
                cell.frame_ns.to_bits(),
            );
            assert_eq!(seen, expected, "{abbrev} under {policy} (frame_ns {})", cell.frame_ns);
        }
    }
}
