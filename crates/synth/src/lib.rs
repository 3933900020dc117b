//! Synthetic DirectX-style 3D frame rendering workloads.
//!
//! The paper evaluates on 52 frames captured from eight DirectX games and
//! four benchmark applications — proprietary traces we cannot obtain. This
//! crate synthesizes the closest equivalent: a parameterized model of the
//! DirectX 10/11 rendering pipeline that emits raw per-stage memory
//! accesses (input assembly, depth pre-pass, HiZ/Z testing, pixel shading
//! with static and *dynamic* texturing, blending, post-processing, and
//! present), filters them through the paper's render-cache hierarchy
//! ([`grcache::RenderCaches`]), and yields the LLC access [`Trace`] for one
//! frame.
//!
//! Each of the twelve [`AppProfile`]s keeps the real application's
//! resolution and DirectX version (Table 1) and adds reuse knobs —
//! render-target → texture consumption rate, static texture working-set
//! size, overdraw, blending — calibrated so the synthesized traces
//! reproduce the paper's characterization: the stream mix of Figure 4, the
//! dynamic-texturing inter-stream reuse of Figure 6, and the epoch death
//! ratios of Figures 7 and 9.
//!
//! One staged renderer produces every frame. The application profiles and
//! composable [`FrameGraph`] workloads are two pass sets over one emission
//! kit (raw access emission, tile and band addressing, geometry, texture
//! region walks, present) and one driver of eight render bands plus a tail.
//! [`Frames`] names either source, and it is what every layer below
//! synthesis takes: it carries the cache key and the name its traces carry,
//! and renders a frame whole or, through [`FrameStream`], band by band.
//!
//! # Example
//!
//! ```
//! use grsynth::{AppProfile, Scale};
//!
//! let apps = AppProfile::all();
//! assert_eq!(apps.len(), 12);
//! let total_frames: u32 = apps.iter().map(|a| a.frames).sum();
//! assert_eq!(total_frames, 52);
//!
//! let trace = grsynth::generate_frame(&apps[0], 0, Scale::Tiny);
//! assert!(!trace.is_empty());
//! ```

mod frame;
mod graph;
mod profile;
mod profiles;
mod render;
pub mod rng;
mod stream;
mod surface;

pub use frame::generate_frame;
pub use graph::{FrameGraph, PassKind};
pub use profile::{AppProfile, Scale};
pub use profiles::{graph_profile, GraphProfile, GRAPH_PROFILES};
pub use render::{FrameWork, GraphRenderer};
pub use stream::{FrameStream, Frames, GraphStream};
pub use surface::{Surface, SurfaceAllocator, SurfaceKind};

pub use grtrace::Trace;
