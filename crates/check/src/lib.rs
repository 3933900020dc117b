//! Differential verification of the LLC simulator.
//!
//! Three independent layers, each catching bugs the others cannot:
//!
//! * [`refmodel`] + [`oracle`] — a naive Vec-of-structs reference LLC
//!   ([`refmodel::RefLlc`]) replays every access alongside the production
//!   fast path, driving either a second clone of the registry policy
//!   (catches fast-path structural bugs: mirror desync, probe masks,
//!   victim indexing) or an independently written oracle policy
//!   (catches policy-logic bugs shared by both replays).
//! * [`optcheck`] — an independent Belady simulation giving a miss-count
//!   lower bound no bypass-free online policy may beat.
//! * [`fuzz`] — a deterministic, seeded trace generator plus a shrinking
//!   differential replayer. Divergences are minimized to a handful of
//!   accesses and dumped as `.gtrace` reproducers.
//!
//! * [`refdram`] — the same discipline for the DDR3 model: a naive
//!   FR-FCFS reference ([`refdram::RefDram`]) that must match
//!   [`grdram::DramSim`] on every statistic, bit for bit, on seeded
//!   request streams and on real frames' memory logs.
//!
//! [`conform`] closes the loop against the paper itself: it replays real
//! cached frames and asserts figure-level properties (per-stream hit-rate
//! goldens, GSPC-vs-baseline miss ratios, OPT agreement).
//!
//! The `grcheck` binary drives fuzz campaigns (`grcheck fuzz --seed N`),
//! the conformance suite (`grcheck conformance`), and a timed
//! `GR_CHECK`-style invariant sweep (`grcheck invariants`). The fourth
//! layer — structural invariants asserted during replay — lives in
//! `grcache::observe` and switches on with `GR_CHECK=1`.

pub mod conform;
pub mod fuzz;
pub mod optcheck;
pub mod oracle;
pub mod refdram;
pub mod refmodel;
