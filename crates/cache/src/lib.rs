//! Set-associative cache models, the GPU render-cache hierarchy, and the
//! banked last-level cache (LLC) simulator used throughout the reproduction.
//!
//! The crate is layered:
//!
//! * [`basic`] — a plain write-back/write-allocate LRU cache used for the
//!   small per-stream *render caches* (vertex, Z, HiZ, stencil, render
//!   target, texture hierarchy),
//! * [`render`] — the full render-cache hierarchy that filters raw pipeline
//!   accesses into the LLC access stream, exactly as the paper's detailed
//!   GPU simulator feeds its offline LLC model,
//! * [`policy`] — the replacement-policy interface the LLC delegates to
//!   (implemented by the `gspc` crate),
//! * [`llc`] — the non-inclusive/non-exclusive banked LLC simulator with
//!   GSPC sample-set identification and per-stream statistics,
//! * [`observe`] — composable per-access event sinks (memory log,
//!   characterization) the LLC is generic over; the default null observer
//!   keeps the uninstrumented hot path branch-free,
//! * [`chartrack`] — characterization instrumentation (texture epochs,
//!   inter-stream reuse, render-target consumption) behind Figures 6–9,
//! * [`optgen`] — the offline next-use annotator that enables Belady's
//!   optimal policy.
//!
//! # Example
//!
//! ```
//! use grcache::{CacheConfig, LruCache, Lookup};
//!
//! let mut cache = LruCache::new(CacheConfig::kb(16, 16));
//! assert!(matches!(cache.access(0x10, false), Lookup::Miss { .. }));
//! assert!(matches!(cache.access(0x10, false), Lookup::Hit));
//! ```

pub mod basic;
pub mod chartrack;
pub mod config;
pub mod llc;
pub mod observe;
pub mod optgen;
pub mod policy;
pub mod render;
pub mod stats;

pub use basic::{Lookup, LruCache};
pub use chartrack::{CharReport, CharTracker};
pub use config::{CacheConfig, LlcConfig, LlcGeometry};
pub use llc::{AccessResult, Llc};
pub use observe::{InvariantObserver, LlcObserver, MemoryLog, NullObserver, SetSnapshot};
pub use optgen::annotate_next_use;
pub use policy::{AccessInfo, Block, FillInfo, Policy};
pub use render::{RenderCaches, TextureHierarchyConfig};
pub use stats::LlcStats;
