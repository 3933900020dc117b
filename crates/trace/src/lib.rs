//! Graphics stream and LLC access-trace primitives.
//!
//! A 3D rendering pipeline produces memory accesses belonging to distinct
//! *streams* (vertex, depth, render target, texture sampler, ...). This crate
//! defines the vocabulary shared by the whole workspace:
//!
//! * [`StreamId`] — which pipeline structure an access touches,
//! * [`PolicyClass`] — the four-way partition (Z / texture / render target /
//!   other) that the paper's LLC policies reason about,
//! * [`Access`] — one load or store,
//! * [`Trace`] — an ordered sequence of accesses for one rendered frame,
//! * [`StreamStats`] — per-stream access accounting (Figure 4 of the paper),
//! * [`AccessSource`] — pull-based, chunked access streaming (in-memory
//!   slices, the [`io`] disk format, or chained multi-frame sequences).
//!
//! # Example
//!
//! ```
//! use grtrace::{Access, StreamId, Trace};
//!
//! let mut trace = Trace::new("demo", 0);
//! trace.push(Access::load(0x1000, StreamId::Texture));
//! trace.push(Access::store(0x2000, StreamId::RenderTarget));
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.stats().total(), 2);
//! ```

mod access;
mod addr;
pub mod import;
pub mod io;
mod source;
mod stats;
mod stream;
mod trace;

pub use access::Access;
pub use addr::{block_addr, BLOCK_BYTES, BLOCK_SHIFT};
pub use import::{import, import_file, validate, ImportError, Validated, MAX_IMPORT_ADDR};
pub use source::{AccessSource, ChainSource, Chunk, SliceSource};
pub use stats::StreamStats;
pub use stream::{PolicyClass, StreamId};
pub use trace::Trace;
