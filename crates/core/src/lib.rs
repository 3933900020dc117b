//! Graphics stream-aware probabilistic caching (GSPC) and every baseline
//! LLC policy evaluated by the paper.
//!
//! The paper derives three increasingly better policies for the LLC of a
//! GPU running 3D scene rendering workloads:
//!
//! 1. [`Gspztc`] — probabilistic insertion for the Z and texture streams,
//!    driven by per-bank `FILL`/`HIT` counters learned in SRRIP-managed
//!    sample sets; render targets pinned at RRPV 0,
//! 2. [`GspztcTse`] — adds *texture sampler epochs* (a 2-bit per-block
//!    state machine distinguishing `E0`, `E1`, `E≥2`, and render targets),
//! 3. [`Gspc`] — adds dynamic render-target protection based on the
//!    observed render-target → texture consumption probability.
//!
//! Baselines: [`Nru`], [`Lru`], [`Srrip`], [`Drrip`] (2- and 4-bit),
//! [`GsDrrip`] (per-stream dueling), [`ShipMem`] (memory-region signature
//! hit prediction), and [`Belady`] (offline optimal). The [`Ucd`] wrapper
//! adds "uncached displayable color" to any policy.
//!
//! # Example
//!
//! ```
//! use grcache::{Llc, LlcConfig};
//! use grtrace::{Access, StreamId};
//! use gspc::Gspc;
//!
//! let cfg = LlcConfig::mb(8);
//! let mut llc = Llc::new(cfg, Gspc::new(&cfg));
//! llc.access(&Access::store(0x1000, StreamId::RenderTarget));
//! llc.access(&Access::load(0x1000, StreamId::Texture)); // dynamic texturing
//! assert_eq!(llc.stats().total_hits(), 1);
//! ```

mod belady;
mod counters;
mod duel;
mod gs_drrip;
mod gspc_policy;
mod gspztc;
mod lru;
mod nru;
pub mod overhead;
mod partition;
pub mod registry;
mod rrip;
mod ship;
mod tse;
mod ucd;

pub use belady::Belady;
pub use counters::{GspcCounters, SatCounter};
pub use duel::{Duel, Leader};
pub use gs_drrip::GsDrrip;
pub use gspc_policy::Gspc;
pub use gspztc::Gspztc;
pub use lru::Lru;
pub use nru::Nru;
pub use partition::{StaticWayPartition, UcpLite};
pub use rrip::{Brrip, Drrip, RripMeta, Srrip};
pub use ship::ShipMem;
pub use tse::GspztcTse;
pub use ucd::Ucd;

/// Default probabilistic threshold parameter `t` (Section 5.1): a stream is
/// inserted at the distant RRPV when its observed reuse probability in the
/// sample sets falls below `1/(t+1)`.
pub const DEFAULT_T: u32 = 8;
