//! Composable frame-graph workload synthesis.
//!
//! [`FrameGraph`] describes one frame of a *modern* rendering pipeline as
//! an ordered list of typed passes — depth pre-pass, shadow-map render
//! (consumed much later as a sampled texture), deferred G-buffer fill and
//! resolve, forward shading, post-process ping-pong chains, GPU-driven
//! indirect draw bursts, and stream-free compute kernels. A graph renders
//! as the frame-graph pass set of the one staged renderer: the same
//! emission kit, filtered through [`grcache::RenderCaches`], emitted band by
//! band over the same stages as an application frame, and handed out
//! through the [`AccessSource`] chunk protocol by the same [`FrameStream`] —
//! bit-identical streamed or materialized.
//!
//! The **coherence knob** (0..=1) controls how much of the per-frame
//! working set recurs frame to frame: at 1.0 consecutive frames touch the
//! same texture regions, geometry window, and compute hot set (maximal
//! persistent-LLC reuse); at 0.0 the working set drifts far each frame, so
//! `grsim sequence` observes warm-over-cold savings decaying with the
//! knob.
//!
//! [`FrameStream`]: crate::FrameStream
//! [`AccessSource`]: grtrace::AccessSource

use grtrace::StreamId;

use crate::render::{band, fmix, half_blocks, tiles_of, Kit, Surfaces};
use crate::render::{BANDS, TEX_REGION_BLOCKS, TILE_PX};
use crate::rng::zipf_rank;
use crate::{Scale, Surface, SurfaceAllocator, SurfaceKind};

/// Shader-constant blocks each frame-graph pass binds.
const CONSTANT_BLOCKS: u64 = 32;
/// Bands the deferred resolve trails G-buffer production by: half the
/// frame, so most G-buffer consumption is far-flung PROD/CONS reuse.
const DEFERRED_LAG: u32 = 4;

/// One typed pass in a [`FrameGraph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PassKind {
    /// Geometry-only depth pre-pass laying down HiZ and Z.
    ZPrepass,
    /// Depth-only render into shadow cascade `cascade` (resolution halves
    /// per cascade); later passes sample the map as a texture — the
    /// Z-produced / TEX-consumed cross-stream reuse.
    ShadowMap {
        /// Cascade index (0 = largest map).
        cascade: u32,
    },
    /// Deferred G-buffer fill: depth test plus `targets` simultaneous
    /// full-resolution render-target writes per tile.
    GBuffer {
        /// Simultaneously bound MRT targets (1..=8).
        targets: u32,
    },
    /// Deferred resolve: reads the *entire* G-buffer (written half a frame
    /// earlier) and any shadow maps as textures, lights into the back
    /// buffer.
    DeferredLighting,
    /// Forward shading pass sampling static textures and shadow maps.
    Forward {
        /// Average fragments per pixel (1.0..=2.0).
        overdraw: f64,
    },
    /// Post-process chain: `passes` full-screen RT→TEX ping-pong hops
    /// ending back in the back buffer.
    PostFx {
        /// Chain length (>= 1).
        passes: u32,
    },
    /// GPU-driven rendering: per band, `bursts` multi-draw-indirect bursts
    /// each fetching args (Other) then streaming an index/vertex run from
    /// a random offset.
    IndirectDraws {
        /// Draw bursts per render band (>= 1).
        bursts: u32,
    },
    /// Stream-free CPU/graph-analytics kernel over a linear buffer of
    /// `2^footprint_log2` bytes (scaled like textures): a streaming scan
    /// mixed with zipf-distributed pointer chasing at rate `chase`. Every
    /// access is [`StreamId::Other`].
    Compute {
        /// log2 of the full-scale working-set bytes (16..=32).
        footprint_log2: u32,
        /// Pointer-chase probes per scanned block (0..=1).
        chase: f64,
    },
    /// Present: read the back buffer, write the displayable color stream.
    /// Must be the last pass when present.
    Present,
}

/// A validated description of one frame's render passes plus the
/// inter-frame coherence knob.
///
/// # Example
///
/// ```
/// use grsynth::{FrameGraph, Frames, PassKind, Scale};
///
/// let graph = FrameGraph::new("mini-deferred", 640, 360)
///     .pass(PassKind::ZPrepass)
///     .pass(PassKind::GBuffer { targets: 2 })
///     .pass(PassKind::DeferredLighting)
///     .pass(PassKind::Present);
/// graph.validate().unwrap();
/// let (trace, _) = Frames::from(&graph).render(0, Scale::Tiny);
/// assert_eq!(trace.app(), "mini-deferred");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrameGraph {
    name: String,
    width: u32,
    height: u32,
    texture_mb: u64,
    triangles_k: u32,
    coherence: f64,
    seed: u64,
    passes: Vec<PassKind>,
}

/// FNV-1a over `bytes`, folded into `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FrameGraph {
    /// Starts a graph named `name` at full-scale resolution
    /// `width`×`height` with no passes, coherence 1.0, and a seed derived
    /// from the name. Chain [`FrameGraph::pass`] and the other builder
    /// methods, then [`FrameGraph::validate`].
    pub fn new(name: &str, width: u32, height: u32) -> Self {
        FrameGraph {
            name: name.to_string(),
            width,
            height,
            texture_mb: 64,
            triangles_k: 512,
            coherence: 1.0,
            seed: fnv1a(0xCBF2_9CE4_8422_2325, name.as_bytes()),
            passes: Vec::new(),
        }
    }

    /// Appends a pass.
    pub fn pass(mut self, p: PassKind) -> Self {
        self.passes.push(p);
        self
    }

    /// Sets the full-scale static-texture footprint in megabytes.
    pub fn texture_mb(mut self, mb: u64) -> Self {
        self.texture_mb = mb;
        self
    }

    /// Sets the scene complexity in thousands of triangles.
    pub fn triangles_k(mut self, k: u32) -> Self {
        self.triangles_k = k;
        self
    }

    /// Sets the inter-frame coherence knob (0 = working set drifts far
    /// each frame, 1 = frames touch the same working set).
    pub fn coherence(mut self, c: f64) -> Self {
        self.coherence = c;
        self
    }

    /// Overrides the synthesis seed (defaults to a hash of the name).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The graph name — also the `app` identity of every trace it emits.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coherence knob value.
    pub fn frame_coherence(&self) -> f64 {
        self.coherence
    }

    /// The pass list.
    pub fn passes(&self) -> &[PassKind] {
        &self.passes
    }

    /// Coherence quantized to per-mille, the precision actually used by
    /// the synthesis (and by canonical job specs, dodging float
    /// formatting).
    pub fn coherence_milli(&self) -> u64 {
        (self.coherence.clamp(0.0, 1.0) * 1000.0).round() as u64
    }

    /// Checks the graph is well-formed.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self.name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "graph name {:?} must be non-empty [A-Za-z0-9_-] (it names traces and cache files)",
                self.name
            ));
        }
        if self.width < 64 || self.height < 64 {
            return Err("frame graph dimensions must be at least 64x64".into());
        }
        if !(0.0..=1.0).contains(&self.coherence) {
            return Err("coherence must be within 0..=1".into());
        }
        if self.texture_mb == 0 || self.texture_mb > 4096 {
            return Err("texture_mb must be in 1..=4096".into());
        }
        if self.passes.is_empty() {
            return Err("frame graph needs at least one pass".into());
        }
        let mut saw_gbuffer = false;
        for (i, p) in self.passes.iter().enumerate() {
            match *p {
                PassKind::ShadowMap { cascade } if cascade >= 8 => {
                    return Err("ShadowMap cascade must be in 0..8".into());
                }
                PassKind::GBuffer { targets } if !(1..=8).contains(&targets) => {
                    return Err("GBuffer targets must be in 1..=8".into());
                }
                PassKind::GBuffer { .. } => saw_gbuffer = true,
                PassKind::DeferredLighting if !saw_gbuffer => {
                    return Err("DeferredLighting requires an earlier GBuffer pass".into());
                }
                PassKind::Forward { overdraw } if !(1.0..=2.0).contains(&overdraw) => {
                    return Err("Forward overdraw must be in 1..=2".into());
                }
                PassKind::PostFx { passes } if !(1..=16).contains(&passes) => {
                    return Err("PostFx passes must be in 1..=16".into());
                }
                PassKind::IndirectDraws { bursts } if !(1..=4096).contains(&bursts) => {
                    return Err("IndirectDraws bursts must be in 1..=4096".into());
                }
                PassKind::Compute { footprint_log2, chase } => {
                    if !(16..=32).contains(&footprint_log2) {
                        return Err("Compute footprint_log2 must be in 16..=32".into());
                    }
                    if !(0.0..=1.0).contains(&chase) {
                        return Err("Compute chase must be in 0..=1".into());
                    }
                }
                PassKind::Present if i + 1 != self.passes.len() => {
                    return Err("Present must be the last pass".into());
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// A structural fingerprint covering every knob that shapes emission;
    /// two graphs with equal fingerprints emit identical traces.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(0xCBF2_9CE4_8422_2325, self.name.as_bytes());
        for v in [
            u64::from(self.width),
            u64::from(self.height),
            self.texture_mb,
            u64::from(self.triangles_k),
            self.coherence_milli(),
            self.seed,
        ] {
            h = fnv1a(h, &v.to_le_bytes());
        }
        for p in &self.passes {
            let (tag, a, b): (u8, u64, u64) = match *p {
                PassKind::ZPrepass => (1, 0, 0),
                PassKind::ShadowMap { cascade } => (2, u64::from(cascade), 0),
                PassKind::GBuffer { targets } => (3, u64::from(targets), 0),
                PassKind::DeferredLighting => (4, 0, 0),
                PassKind::Forward { overdraw } => (5, (overdraw * 1000.0).round() as u64, 0),
                PassKind::PostFx { passes } => (6, u64::from(passes), 0),
                PassKind::IndirectDraws { bursts } => (7, u64::from(bursts), 0),
                PassKind::Compute { footprint_log2, chase } => {
                    (8, u64::from(footprint_log2), (chase * 1000.0).round() as u64)
                }
                PassKind::Present => (9, 0, 0),
            };
            h = fnv1a(h, &[tag]);
            h = fnv1a(h, &a.to_le_bytes());
            h = fnv1a(h, &b.to_le_bytes());
        }
        h
    }

    /// A filesystem-safe identity for trace-cache keys and file stems.
    pub fn cache_key(&self) -> String {
        format!("g-{}-{:016x}", self.name, self.fingerprint())
    }

    /// Scaled frame width, mirroring [`AppProfile::scaled_width`].
    ///
    /// [`AppProfile::scaled_width`]: crate::AppProfile::scaled_width
    pub fn scaled_width(&self, scale: Scale) -> u32 {
        (self.width / scale.divisor()).max(64)
    }

    /// Scaled frame height.
    pub fn scaled_height(&self, scale: Scale) -> u32 {
        (self.height / scale.divisor()).max(64)
    }

    /// Scaled static-texture bytes (shrinks with the divisor squared).
    pub fn scaled_texture_bytes(&self, scale: Scale) -> u64 {
        let d2 = u64::from(scale.divisor()) * u64::from(scale.divisor());
        self.texture_mb * 1024 * 1024 / d2
    }
}

/// How far a frame-indexed working-set origin drifts at this coherence:
/// zero at full coherence, about a third of the space per frame at zero.
fn drift(frame: u32, milli: u64, modulus: u64) -> u64 {
    if modulus <= 1 {
        return 0;
    }
    u64::from(frame) * (modulus / 3 + 1) % modulus * (1000 - milli) / 1000 % modulus
}

/// The frame-graph passes' own surfaces and cursors.
#[derive(Debug)]
pub(crate) struct GraphPasses<'a> {
    graph: &'a FrameGraph,
    frame_idx: u32,
    milli: u64,
    has_zprepass: bool,
    /// One depth surface per `ShadowMap` pass, in pass order.
    shadow: Vec<Surface>,
    /// G-buffer MRT targets (max `targets` over `GBuffer` passes).
    gbuffer: Vec<Surface>,
    pingpong: Option<[Surface; 2]>,
    indirect_args: Option<Surface>,
    compute_buf: Option<Surface>,
    tex_walk: u64,
    geom_shift: u64,
    compute_origin: u64,
}

impl<'a> GraphPasses<'a> {
    /// Allocates frame `frame_idx` of `graph`: the shared surfaces and this
    /// set's own, in the order that sets every address.
    ///
    /// # Panics
    ///
    /// Panics if `graph.validate()` fails.
    pub(crate) fn new(graph: &'a FrameGraph, frame_idx: u32, scale: Scale) -> (Kit, Self) {
        if let Err(e) = graph.validate() {
            panic!("invalid frame graph: {e}");
        }
        let width = graph.scaled_width(scale);
        let height = graph.scaled_height(scale);
        let mut alloc = SurfaceAllocator::new();
        let [back, front, depth, hiz] = Surfaces::screen(&mut alloc, width, height);
        let static_tex = Surfaces::static_texture(&mut alloc, graph.scaled_texture_bytes(scale));
        let mut shadow = Vec::new();
        let mut gbuffer_targets = 0;
        let mut want_pingpong = false;
        let mut want_args = false;
        let mut compute_log2 = None;
        let mut has_zprepass = false;
        for p in &graph.passes {
            match *p {
                PassKind::ZPrepass => has_zprepass = true,
                PassKind::ShadowMap { cascade } => {
                    // Square depth-only map, resolution halving per cascade.
                    let dim = (height >> cascade).max(32);
                    shadow.push(alloc.alloc(SurfaceKind::Depth, dim, (dim / 2).max(4)));
                }
                PassKind::GBuffer { targets } => gbuffer_targets = gbuffer_targets.max(targets),
                PassKind::PostFx { .. } => want_pingpong = true,
                PassKind::IndirectDraws { .. } => want_args = true,
                PassKind::Compute { footprint_log2, .. } => compute_log2 = Some(footprint_log2),
                _ => {}
            }
        }
        let gbuffer = (0..gbuffer_targets)
            .map(|_| alloc.alloc(SurfaceKind::RenderTarget, width, height))
            .collect();
        let pingpong = want_pingpong.then(|| {
            [
                alloc.alloc(SurfaceKind::RenderTarget, width, height),
                alloc.alloc(SurfaceKind::RenderTarget, width, height),
            ]
        });
        let (vertices, indices) = Surfaces::geometry_buffers(&mut alloc, graph.triangles_k, scale);
        let indirect_args =
            want_args.then(|| alloc.alloc_linear(SurfaceKind::Constants, 64 * 1024));
        let d2 = u64::from(scale.divisor()) * u64::from(scale.divisor());
        let compute_buf = compute_log2
            .map(|f| alloc.alloc_linear(SurfaceKind::Constants, ((1u64 << f) / d2).max(64 * 1024)));
        let constants = Surfaces::constants(&mut alloc);
        let surfaces =
            Surfaces { back, front, depth, hiz, static_tex, vertices, indices, constants };
        let kit = Kit::new(graph.seed, &graph.name, frame_idx, 1 << 18, surfaces);
        let milli = graph.coherence_milli();
        let compute_blocks = compute_buf.map_or(1, |b| b.total_blocks());
        let passes = GraphPasses {
            graph,
            frame_idx,
            milli,
            has_zprepass,
            shadow,
            gbuffer,
            pingpong,
            indirect_args,
            compute_buf,
            tex_walk: drift(frame_idx, milli, kit.tex_regions()),
            geom_shift: drift(frame_idx, milli, vertices.total_blocks()),
            compute_origin: drift(frame_idx, milli, compute_blocks),
        };
        (kit, passes)
    }

    /// Render band `s`: every pass in graph order; the deferred resolve
    /// trails the G-buffer fill by half the frame.
    pub(crate) fn run_band(&mut self, k: &mut Kit, s: u32) {
        let graph = self.graph;
        let mut shadow_idx = 0usize;
        for p in &graph.passes {
            match *p {
                PassKind::ZPrepass => {
                    k.geometry(0.8 / f64::from(BANDS), self.geom_shift, CONSTANT_BLOCKS);
                    k.depth_prepass(s);
                }
                PassKind::ShadowMap { .. } => {
                    self.shadow_render(k, shadow_idx, s);
                    shadow_idx += 1;
                }
                PassKind::GBuffer { targets } => self.gbuffer_fill(k, targets, s),
                PassKind::DeferredLighting if s >= DEFERRED_LAG => {
                    self.deferred_resolve(k, s - DEFERRED_LAG);
                }
                PassKind::Forward { overdraw } => self.forward(k, overdraw, s),
                PassKind::PostFx { passes } => self.postfx_chain(k, passes, s),
                PassKind::IndirectDraws { bursts } => self.indirect_draws(k, bursts, s),
                PassKind::Compute { chase, .. } => self.compute(k, chase, s),
                PassKind::DeferredLighting | PassKind::Present => {}
            }
        }
    }

    /// The tail: the deferred resolve's last trailing bands, then present.
    pub(crate) fn run_tail(&mut self, k: &mut Kit) {
        let graph = self.graph;
        for p in &graph.passes {
            match *p {
                PassKind::DeferredLighting => {
                    for b in (BANDS - DEFERRED_LAG)..BANDS {
                        self.deferred_resolve(k, b);
                    }
                }
                PassKind::Present => k.present(),
                _ => {}
            }
        }
    }

    /// Deterministic per-block consumption gate at `rate_milli`/1000.
    fn gate(&self, block_addr: u64, rate_milli: u64) -> bool {
        fmix(block_addr ^ self.graph.seed) % 1000 < rate_milli
    }

    /// Remaps a texture region: a `(1 - coherence)` fraction of regions
    /// shifts to a frame-unique neighborhood, so that fraction of the
    /// texture working set never recurs across frames.
    fn perturb_region(&self, region: u64, regions: u64) -> u64 {
        if self.milli >= 1000 || regions <= 1 {
            return region % regions;
        }
        if fmix(region ^ self.graph.seed.rotate_left(17)) % 1000 >= self.milli {
            // Frame-keyed rehash: the region lands somewhere unrelated
            // each frame, so it never contributes inter-frame reuse.
            let mut k = region
                ^ self.graph.seed
                ^ u64::from(self.frame_idx).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            k = (k ^ (k >> 29)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
            k ^= k >> 32;
            k % regions
        } else {
            region % regions
        }
    }

    /// Samples `footprint` static-texture blocks: a drifting region walk
    /// (origin set by the coherence drift) plus a small frame-invariant hot
    /// set, with the coherence perturbation applied to walked regions.
    fn sample_texture(&mut self, k: &mut Kit, footprint: usize) {
        let regions = k.tex_regions();
        // Hot regions are coherent by nature, never perturbed.
        let region = k.hot_region(regions).unwrap_or_else(|| {
            self.tex_walk = self.tex_walk.wrapping_add(1);
            let walked = (self.tex_walk + zipf_rank(&mut k.rng, 24) as u64) % regions;
            self.perturb_region(walked, regions)
        });
        k.sample_region(region * TEX_REGION_BLOCKS, footprint);
        k.work.texel_samples += footprint as u64 * 4;
    }

    /// Depth-only shadow-map render band for cascade surface `i`.
    fn shadow_render(&mut self, k: &mut Kit, i: usize, s: u32) {
        k.geometry(0.3 / f64::from(BANDS), self.geom_shift, CONSTANT_BLOCKS);
        let sm = self.shadow[i];
        let tw = sm.width().div_ceil(TILE_PX);
        let th = (sm.height() * 2).div_ceil(TILE_PX);
        let (y0, y1) = band(th, s);
        for ty in y0..y1 {
            for tx in 0..tw {
                // Overlapping casters re-test previously written depth.
                let reread = k.rng.gen_bool(0.3);
                for b in half_blocks(&sm, tx, ty) {
                    if reread {
                        k.emit(b, StreamId::Z, false);
                    }
                    k.emit(b, StreamId::Z, true);
                }
            }
        }
    }

    /// Samples the shadow map `si` where screen tile `(tx, ty)` lands,
    /// with a PCF neighborhood tap — Z-stream-produced blocks consumed as
    /// textures, far from their production.
    fn sample_shadow(&self, k: &mut Kit, si: usize, tx: u32, ty: u32, tw: u32, th: u32) {
        let sm = self.shadow[si];
        let stw = sm.width().div_ceil(TILE_PX);
        let sth = (sm.height() * 2).div_ceil(TILE_PX);
        let sx = (tx * stw / tw.max(1)).min(stw - 1);
        let sy = (ty * sth / th.max(1)).min(sth - 1);
        for b in half_blocks(&sm, sx, sy) {
            if self.gate(b, 700) {
                k.emit(b, StreamId::Texture, false);
            }
        }
        if k.rng.gen_bool(0.5) {
            let nx = (sx + 1).min(stw - 1);
            for b in half_blocks(&sm, nx, sy) {
                if self.gate(b, 700) {
                    k.emit(b, StreamId::Texture, false);
                }
            }
        }
    }

    /// G-buffer fill band: depth test plus `targets` MRT writes per tile.
    fn gbuffer_fill(&mut self, k: &mut Kit, targets: u32, s: u32) {
        k.geometry(1.0 / f64::from(BANDS), self.geom_shift, CONSTANT_BLOCKS);
        let (tw, th) = tiles_of(&k.back);
        let (y0, y1) = band(th, s);
        for ty in y0..y1 {
            for tx in 0..tw {
                k.hiz_test(tx, ty, !self.has_zprepass);
                k.z_test(tx, ty, !self.has_zprepass);
                k.work.shaded_pixels += u64::from(TILE_PX * TILE_PX);
                self.sample_texture(k, 6);
                for &target in self.gbuffer.iter().take(targets as usize) {
                    k.tile(target, tx, ty, StreamId::RenderTarget, true);
                }
            }
        }
    }

    /// Deferred resolve of back-buffer band `band_idx`: full G-buffer and
    /// shadow-map consumption, lit into the back buffer.
    fn deferred_resolve(&mut self, k: &mut Kit, band_idx: u32) {
        k.geometry(0.05 / f64::from(BANDS), self.geom_shift, CONSTANT_BLOCKS);
        let (tw, th) = tiles_of(&k.back);
        let (y0, y1) = band(th, band_idx);
        for ty in y0..y1 {
            for tx in 0..tw {
                k.work.shaded_pixels += u64::from(TILE_PX * TILE_PX);
                // The resolve reads every G-buffer texel exactly once —
                // total RT→TEX consumption, the strongest PROD/CONS case.
                for &target in &self.gbuffer {
                    k.tile(target, tx, ty, StreamId::Texture, false);
                }
                for si in 0..self.shadow.len() {
                    self.sample_shadow(k, si, tx, ty, tw, th);
                }
                self.sample_texture(k, 2);
                k.tile_rmw(k.back, tx, ty, StreamId::RenderTarget);
            }
        }
    }

    /// Forward shading band with overdraw, static textures, shadow maps.
    fn forward(&mut self, k: &mut Kit, overdraw: f64, s: u32) {
        k.geometry(1.0 / f64::from(BANDS), self.geom_shift, CONSTANT_BLOCKS);
        let (tw, th) = tiles_of(&k.back);
        let (y0, y1) = band(th, s);
        let extra = (overdraw - 1.0).clamp(0.0, 1.0);
        for ty in y0..y1 {
            for tx in 0..tw {
                k.hiz_test(tx, ty, !self.has_zprepass);
                let rounds = 1 + u32::from(k.rng.gen_bool(extra));
                for round in 0..rounds {
                    k.z_test(tx, ty, !self.has_zprepass && round == 0);
                    if round > 0 && k.rng.gen_bool(0.5) {
                        continue;
                    }
                    k.work.shaded_pixels += u64::from(TILE_PX * TILE_PX);
                    self.sample_texture(k, 6);
                    for si in 0..self.shadow.len() {
                        self.sample_shadow(k, si, tx, ty, tw, th);
                    }
                    k.blend(k.back, tx, ty, 0.25);
                }
            }
        }
    }

    /// One band of an `n`-hop full-screen ping-pong chain ending in the
    /// back buffer.
    fn postfx_chain(&mut self, k: &mut Kit, n: u32, s: u32) {
        k.geometry(0.01 / f64::from(BANDS), self.geom_shift, CONSTANT_BLOCKS);
        let pp = self.pingpong.expect("validated PostFx graphs allocate ping-pong targets");
        let (tw, th) = tiles_of(&k.back);
        let (y0, y1) = band(th, s);
        for p in 0..n {
            let src = if p == 0 { k.back } else { pp[((p - 1) % 2) as usize] };
            let dst = if p + 1 == n { k.back } else { pp[(p % 2) as usize] };
            for ty in y0..y1 {
                for tx in 0..tw {
                    k.tile(src, tx, ty, StreamId::Texture, false);
                    // Blur kernels also tap the row above.
                    if ty > y0 && k.rng.gen_bool(0.5) {
                        k.tile(src, tx, ty - 1, StreamId::Texture, false);
                    }
                    k.tile(dst, tx, ty, StreamId::RenderTarget, true);
                }
            }
        }
    }

    /// `bursts` multi-draw-indirect bursts: args fetch, then an
    /// index/vertex run from a random (coherence-shifted) offset.
    fn indirect_draws(&mut self, k: &mut Kit, bursts: u32, s: u32) {
        let args = self.indirect_args.expect("validated IndirectDraws graphs allocate args");
        let atotal = args.total_blocks();
        let itotal = k.indices.total_blocks();
        let vtotal = k.vertices.total_blocks();
        let shift = self.geom_shift;
        for bi in 0..u64::from(bursts) {
            let cursor = (u64::from(s) * u64::from(bursts) + bi) % atotal;
            k.emit(args.block_by_index(cursor), StreamId::Other, false);
            // GPU culling occasionally rewrites the args in place.
            if k.rng.gen_bool(0.1) {
                k.emit(args.block_by_index(cursor), StreamId::Other, true);
            }
            let ibase = (shift + k.rng.next_u64()) % itotal;
            for i in 0..12 {
                let a = k.indices.block_by_index((ibase + i) % itotal);
                k.emit(a, StreamId::VertexIndex, false);
            }
            let vbase = (shift + k.rng.next_u64()) % vtotal;
            for i in 0..20 {
                let a = k.vertices.block_by_index((vbase + i) % vtotal);
                k.emit(a, StreamId::Vertex, false);
            }
            k.work.vertices += 20 * 4;
        }
    }

    /// Stream-free compute band: scan this band's slice of the buffer,
    /// interleaved with zipf-distributed pointer chasing over a
    /// (coherence-shifted) hot set. Everything is `StreamId::Other`.
    fn compute(&mut self, k: &mut Kit, chase: f64, s: u32) {
        let buf = self.compute_buf.expect("validated Compute graphs allocate a buffer");
        let total = buf.total_blocks();
        let b0 = total * u64::from(s) / u64::from(BANDS);
        let b1 = total * u64::from(s + 1) / u64::from(BANDS);
        let origin = self.compute_origin;
        let hot = (total as usize).min(4096);
        for i in b0..b1 {
            k.emit(buf.block_by_index((origin + i) % total), StreamId::Other, false);
            if i % 8 == 0 {
                k.emit(buf.block_by_index((origin + i) % total), StreamId::Other, true);
            }
            if k.rng.next_f64() < chase {
                let target = (origin + zipf_rank(&mut k.rng, hot) as u64) % total;
                let write = k.rng.gen_bool(0.12);
                k.emit(buf.block_by_index(target), StreamId::Other, write);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Frames;
    use std::collections::HashSet;

    fn deferred(coherence: f64) -> FrameGraph {
        FrameGraph::new("t-deferred", 640, 360)
            .texture_mb(128)
            .coherence(coherence)
            .pass(PassKind::ZPrepass)
            .pass(PassKind::GBuffer { targets: 3 })
            .pass(PassKind::DeferredLighting)
            .pass(PassKind::PostFx { passes: 2 })
            .pass(PassKind::Present)
    }

    #[test]
    fn validation_rejects_malformed_graphs() {
        let cases: [(FrameGraph, &str); 6] = [
            (FrameGraph::new("x", 640, 360), "at least one pass"),
            (FrameGraph::new("bad name", 640, 360).pass(PassKind::Present), "graph name"),
            (FrameGraph::new("x", 32, 360).pass(PassKind::Present), "at least 64x64"),
            (FrameGraph::new("x", 640, 360).coherence(1.5).pass(PassKind::Present), "coherence"),
            (FrameGraph::new("x", 640, 360).pass(PassKind::DeferredLighting), "earlier GBuffer"),
            (
                FrameGraph::new("x", 640, 360).pass(PassKind::Present).pass(PassKind::ZPrepass),
                "last pass",
            ),
        ];
        for (graph, fragment) in cases {
            let err = graph.validate().expect_err(fragment);
            assert!(err.contains(fragment), "error {err:?} missing {fragment:?}");
        }
        deferred(0.5).validate().unwrap();
    }

    #[test]
    fn compute_graph_is_stream_free() {
        let g = FrameGraph::new("t-cpu", 64, 64)
            .texture_mb(1)
            .pass(PassKind::Compute { footprint_log2: 22, chase: 0.3 });
        let (t, _) = Frames::from(&g).render(0, Scale::Tiny);
        assert!(!t.is_empty());
        for a in t.accesses() {
            assert_eq!(a.stream(), StreamId::Other, "compute graphs emit only Other");
        }
    }

    /// Fraction of frame-1 texture blocks already touched by frame 0.
    /// Texture is the stream the knob perturbs; render targets and depth
    /// legitimately keep the same addresses every frame, so the probe
    /// graph is forward-only — its texture traffic is all static-atlas
    /// sampling.
    fn overlap(coherence: f64) -> f64 {
        let g = FrameGraph::new("t-fwd", 640, 360)
            .texture_mb(128)
            .coherence(coherence)
            .pass(PassKind::Forward { overdraw: 1.2 })
            .seeded(7);
        let tex_blocks = |frame: u32| -> HashSet<u64> {
            Frames::from(&g)
                .render(frame, Scale::Tiny)
                .0
                .accesses()
                .iter()
                .filter(|a| a.stream() == StreamId::Texture)
                .map(|a| a.block())
                .collect()
        };
        let f0 = tex_blocks(0);
        let f1 = tex_blocks(1);
        f1.intersection(&f0).count() as f64 / f1.len().max(1) as f64
    }

    #[test]
    fn coherence_knob_controls_interframe_overlap() {
        let high = overlap(1.0);
        let mid = overlap(0.5);
        let low = overlap(0.0);
        assert!(high > mid && mid > low, "overlap must decay: {high:.3} / {mid:.3} / {low:.3}");
        assert!(high - low > 0.1, "knob range too weak: {high:.3} vs {low:.3}");
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = deferred(0.5);
        assert_eq!(base.fingerprint(), deferred(0.5).fingerprint());
        assert_ne!(base.fingerprint(), deferred(0.6).fingerprint());
        assert_ne!(base.fingerprint(), deferred(0.5).seeded(9).fingerprint());
        assert_ne!(base.fingerprint(), deferred(0.5).texture_mb(32).fingerprint());
        assert_ne!(base.fingerprint(), deferred(0.5).pass(PassKind::ZPrepass).fingerprint());
        assert!(base.cache_key().starts_with("g-t-deferred-"));
    }
}
