//! Pins the exact frame-time path: real tiny-scale frames replayed
//! through the LLC with each Figure 15–17 machine attached, so every
//! memory log goes through the DDR3 scheduler and the interval model.
//! The Figure 15 constants were recorded before the scheduler's window
//! search was rewritten, the Figure 16 and 17 ones before those figures
//! moved onto this path; any change to the schedule it computes moves
//! `frame_ns`.

use grbench::{figures, framecache, simulate_cell, ExperimentConfig, RunOptions};
use grsynth::{AppProfile, Scale};

/// The policies each app is replayed under.
const POLICIES: [&str; 2] = ["DRRIP", "GSPC+UCD"];

/// One cell's accesses, misses, writebacks and `frame_ns` bits.
type Cell = (u64, u64, u64, u64);

/// One app's cells, per policy in `POLICIES` order.
type AppCells = (&'static str, [Cell; 2]);

/// Per panel, in [`figures::all_panels`] order, then per app. The
/// BioShock DRRIP frame times are 195765.476, 143070.499, 152329.864 and
/// 205244.506 ns.
const PINNED: [(&str, [AppCells; 2]); 4] = [
    (
        "fig15",
        [
            (
                "BioShock",
                [
                    (34682, 22650, 6851, 4685966463389651652),
                    (34682, 21323, 4351, 4685714649414636538),
                ],
            ),
            (
                "HAWX",
                [
                    (40294, 22889, 10462, 4687927108811143980),
                    (40294, 20564, 6473, 4686690423630256126),
                ],
            ),
        ],
    ),
    (
        "fig16",
        [
            (
                "BioShock",
                [
                    (34682, 20135, 4393, 4684155877754036208),
                    (34682, 18992, 2852, 4684420248020929265),
                ],
            ),
            (
                "HAWX",
                [
                    (40294, 19263, 6642, 4685431131447728112),
                    (40294, 18186, 4397, 4685267152285003590),
                ],
            ),
        ],
    ),
    (
        "fig17-upper",
        [
            (
                "BioShock",
                [
                    (34682, 22650, 6851, 4684474027114158767),
                    (34682, 21323, 4351, 4684222552733996382),
                ],
            ),
            (
                "HAWX",
                [
                    (40294, 22889, 10462, 4686053563249756816),
                    (40294, 20564, 6473, 4685010060961997889),
                ],
            ),
        ],
    ),
    (
        "fig17-lower",
        [
            (
                "BioShock",
                [
                    (34682, 22650, 6851, 4686292160369935441),
                    (34682, 21323, 4351, 4685988588856972865),
                ],
            ),
            (
                "HAWX",
                [
                    (40294, 22889, 10462, 4688290964389327039),
                    (40294, 20564, 6473, 4687002549903213617),
                ],
            ),
        ],
    ),
];

#[test]
fn panel_frame_times_on_real_logs_are_pinned() {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    // Every panel replays the same frames.
    let _hold = framecache::hold();
    for (panel, (key, apps)) in figures::all_panels().into_iter().zip(PINNED) {
        assert_eq!(panel.key, key, "PINNED follows the panel order");
        let opts = RunOptions {
            timing: Some((panel.gpu, panel.dram)),
            llc_paper_mb: panel.llc_mb,
            threads: Some(1),
            streamed: false,
            check: false,
            ..RunOptions::from_env(&[])
        };
        for (abbrev, cells) in apps {
            let app = AppProfile::by_abbrev(abbrev).expect("Table 1 app");
            for (policy, expected) in POLICIES.into_iter().zip(cells) {
                let cell = simulate_cell(policy, &app, 0, &opts, &cfg);
                let seen = (
                    cell.accesses,
                    cell.stats.total_misses(),
                    cell.stats.writebacks,
                    cell.frame_ns.to_bits(),
                );
                assert_eq!(
                    seen, expected,
                    "{key}: {abbrev} under {policy} (frame_ns {})",
                    cell.frame_ns
                );
            }
        }
    }
}
