//! The one staged renderer and the emission kit every pass is written in.
//!
//! A [`Renderer`] renders one frame of a [`Frames`] source. It owns, in a
//! [`Kit`], the state both pipelines share: the frame's RNG, the render
//! caches, the LLC trace, the work counters, and the screen, static-texture,
//! geometry and constants surfaces. The kit also holds the emission
//! primitives, each defined once: raw access emission, tile and band
//! addressing, per-tile reads, writes, blends and depth tests,
//! input-assembler traffic, the static-texture region walk, the depth
//! pre-pass and present.
//!
//! What differs between sources is a *pass set*: [`AppPasses`] for the
//! Table 1 applications, [`GraphPasses`] for frame graphs. Each keeps only
//! its own surfaces and cursors. The stage driver picks the set with one
//! `match` per stage: eight horizontal render bands, then a tail that
//! finishes trailing work, presents and flushes the caches. Rendering whole
//! and streaming band by band (`FrameStream`) run the same stages in the same
//! order, so both produce the same access sequence.

use grcache::RenderCaches;
use grtrace::{Access, StreamId, Trace};

use crate::frame::AppPasses;
use crate::graph::GraphPasses;
use crate::rng::{frame_rng, FrameRng};
use crate::{Frames, Scale, Surface, SurfaceAllocator, SurfaceKind};

/// Pixels per screen tile edge (8×8-pixel tiles, i.e. 2×2 surface blocks).
pub(crate) const TILE_PX: u32 = 8;
/// Static-texture "material region" size in blocks (4 KB regions).
pub(crate) const TEX_REGION_BLOCKS: u64 = 64;
/// Render bands per frame; every pass is interleaved band by band.
pub(crate) const BANDS: u32 = 8;
/// Stages per frame: the render bands plus the tail (trailing lighting or
/// deferred resolve, present, cache flush).
pub(crate) const STAGES: u32 = BANDS + 1;

/// Computational work performed while rendering a frame, used by the GPU
/// timing model to convert cache behaviour into frame time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameWork {
    /// Pixels shaded by the pixel shader (including overdraw).
    pub shaded_pixels: u64,
    /// Texels fetched by the samplers (before any cache filtering).
    pub texel_samples: u64,
    /// Vertices transformed by the vertex shader.
    pub vertices: u64,
    /// Raw pipeline accesses issued to the render caches.
    pub raw_accesses: u64,
}

/// Renders one frame of an application profile or a frame graph through the
/// render caches.
#[derive(Debug)]
pub struct Renderer<'a> {
    kit: Kit,
    passes: Passes<'a>,
}

/// The frame-graph spelling of the renderer, kept because the benchmark's
/// sources name it; it goes when the benchmark may be edited. Everything
/// else renders through [`Frames::render`].
pub type GraphRenderer<'a> = Renderer<'a>;

/// The pass set a [`Renderer`] drives.
#[derive(Debug)]
enum Passes<'a> {
    App(AppPasses<'a>),
    Graph(GraphPasses<'a>),
}

impl<'a> Renderer<'a> {
    /// Prepares the surfaces and caches for frame `frame_idx` of `frames`.
    ///
    /// # Panics
    ///
    /// Panics if a frame graph fails [`FrameGraph::validate`].
    ///
    /// [`FrameGraph::validate`]: crate::FrameGraph::validate
    pub fn new(frames: impl Into<Frames<'a>>, frame_idx: u32, scale: Scale) -> Self {
        let (kit, passes) = match frames.into() {
            Frames::App(app) => {
                let (kit, passes) = AppPasses::new(app, frame_idx, scale);
                (kit, Passes::App(passes))
            }
            Frames::Graph(graph) => {
                let (kit, passes) = GraphPasses::new(graph, frame_idx, scale);
                (kit, Passes::Graph(passes))
            }
        };
        Renderer { kit, passes }
    }

    /// Runs every stage and returns the LLC trace.
    pub fn render(self) -> Trace {
        self.render_with_work().0
    }

    /// Renders the frame, returning the LLC trace and the shader / sampler /
    /// geometry work performed.
    pub fn render_with_work(mut self) -> (Trace, FrameWork) {
        for s in 0..STAGES {
            self.run_stage(s);
        }
        (self.kit.trace, self.kit.work)
    }

    /// Runs pipeline stage `s` (`0..STAGES`), appending its accesses to the
    /// internal trace. Stages must run in order, each exactly once;
    /// [`Renderer::render_with_work`] does exactly that, and the streaming
    /// `FrameStream` interleaves [`Renderer::take_emitted`] between stages.
    pub(crate) fn run_stage(&mut self, s: u32) {
        debug_assert!(s < STAGES, "stage out of range");
        let kit = &mut self.kit;
        match &mut self.passes {
            Passes::App(passes) if s < BANDS => passes.run_band(kit, s),
            Passes::App(passes) => passes.run_tail(kit),
            Passes::Graph(passes) if s < BANDS => passes.run_band(kit, s),
            Passes::Graph(passes) => passes.run_tail(kit),
        }
        if s == BANDS {
            kit.caches.flush(&mut kit.trace);
        }
    }

    /// Drains the accesses emitted so far (streaming hand-off between
    /// stages); the trace keeps its identity and cumulative stats.
    pub(crate) fn take_emitted(&mut self) -> Vec<Access> {
        self.kit.trace.take_accesses()
    }

    /// The work counters accumulated so far (complete once every stage ran).
    pub(crate) fn work(&self) -> FrameWork {
        self.kit.work
    }
}

/// The surfaces both pass sets draw on. Each pass set allocates them
/// interleaved with its own surfaces, in its own order: the allocator is a
/// bump allocator, so that order sets every address.
pub(crate) struct Surfaces {
    pub(crate) back: Surface,
    pub(crate) front: Surface,
    pub(crate) depth: Surface,
    pub(crate) hiz: Surface,
    pub(crate) static_tex: Surface,
    pub(crate) vertices: Surface,
    pub(crate) indices: Surface,
    pub(crate) constants: Surface,
}

impl Surfaces {
    /// The back and front buffers, then depth and HiZ.
    pub(crate) fn screen(alloc: &mut SurfaceAllocator, width: u32, height: u32) -> [Surface; 4] {
        let back = alloc.alloc(SurfaceKind::BackBuffer, width, height);
        let front = alloc.alloc(SurfaceKind::FrontBuffer, width, height);
        // Depth is stored 2:1 compressed (GPUs compress Z aggressively to
        // save bandwidth), so the Z surface has half the back buffer's
        // footprint and each tile covers two Z blocks.
        let depth = alloc.alloc(SurfaceKind::Depth, width, (height / 2).max(4));
        // A multi-level HiZ pyramid: modeled at half vertical resolution,
        // so each 8x8-pixel tile covers two HiZ blocks.
        let hiz = alloc.alloc(SurfaceKind::HiZ, width.max(4), (height / 2).max(4));
        [back, front, depth, hiz]
    }

    /// A square static-texture atlas of at least `bytes` (and 64 KB).
    pub(crate) fn static_texture(alloc: &mut SurfaceAllocator, bytes: u64) -> Surface {
        let side_blocks = ((bytes.max(64 * 1024) / 64) as f64).sqrt().ceil() as u32;
        let side_px = side_blocks * Surface::PIXELS_PER_BLOCK_EDGE;
        alloc.alloc(SurfaceKind::StaticTexture, side_px, side_px)
    }

    /// The vertex and index buffers for a scene of `triangles_k` thousand
    /// triangles. Vertex traffic scales with the pixel count (divisor
    /// squared) so the stream mix is scale-invariant.
    pub(crate) fn geometry_buffers(
        alloc: &mut SurfaceAllocator,
        triangles_k: u32,
        scale: Scale,
    ) -> (Surface, Surface) {
        let d2 = u64::from(scale.divisor()) * u64::from(scale.divisor());
        let vertices = alloc.alloc_linear(
            SurfaceKind::VertexBuffer,
            (u64::from(triangles_k) * 1024 * 4 / d2).max(4096),
        );
        let indices = alloc.alloc_linear(SurfaceKind::IndexBuffer, vertices.size_bytes() / 8);
        (vertices, indices)
    }

    /// The shader code and constants buffer.
    pub(crate) fn constants(alloc: &mut SurfaceAllocator) -> Surface {
        alloc.alloc_linear(SurfaceKind::Constants, 64 * 1024)
    }
}

/// The shared rendering state and the emission primitives every pass is
/// written in.
#[derive(Debug)]
pub(crate) struct Kit {
    pub(crate) rng: FrameRng,
    caches: RenderCaches,
    trace: Trace,
    pub(crate) work: FrameWork,
    pub(crate) back: Surface,
    front: Surface,
    depth: Surface,
    hiz: Surface,
    static_tex: Surface,
    pub(crate) vertices: Surface,
    pub(crate) indices: Surface,
    constants: Surface,
}

impl Kit {
    /// The state for frame `frame_idx` of the source named `name` (every
    /// trace carries it) with RNG seed `seed`; the trace starts with room for
    /// `trace_capacity` accesses.
    pub(crate) fn new(
        seed: u64,
        name: &str,
        frame_idx: u32,
        trace_capacity: usize,
        surfaces: Surfaces,
    ) -> Kit {
        let Surfaces { back, front, depth, hiz, static_tex, vertices, indices, constants } =
            surfaces;
        Kit {
            rng: frame_rng(seed, frame_idx),
            caches: RenderCaches::new(),
            trace: Trace::with_capacity(name, frame_idx, trace_capacity),
            work: FrameWork::default(),
            back,
            front,
            depth,
            hiz,
            static_tex,
            vertices,
            indices,
            constants,
        }
    }

    /// Issues one raw pipeline access to the render caches.
    #[inline]
    pub(crate) fn emit(&mut self, addr: u64, stream: StreamId, write: bool) {
        let access = if write { Access::store(addr, stream) } else { Access::load(addr, stream) };
        self.work.raw_accesses += 1;
        self.caches.filter(access, &mut self.trace);
    }

    /// Input-assembler traffic for a pass covering `fraction` of the scene.
    /// The index and vertex windows start `shift` blocks in (frame graphs
    /// drift it with the coherence knob), and the pass binds
    /// `constant_blocks` blocks of shader code and constants.
    pub(crate) fn geometry(&mut self, fraction: f64, shift: u64, constant_blocks: u64) {
        let ib = self.indices.total_blocks();
        let vb = self.vertices.total_blocks();
        let idx_blocks = (ib as f64 * fraction) as u64;
        let vtx_blocks = (vb as f64 * fraction) as u64;
        for i in 0..idx_blocks {
            let addr = self.indices.block_by_index((shift + i) % ib);
            self.emit(addr, StreamId::VertexIndex, false);
        }
        // Four 16-byte vertices per 64-byte block.
        self.work.vertices += vtx_blocks * 4;
        for i in 0..vtx_blocks {
            let addr = self.vertices.block_by_index((shift + i) % vb);
            self.emit(addr, StreamId::Vertex, false);
            // Indexed geometry re-reads shared vertices of nearby triangles.
            if i > 4 && self.rng.gen_bool(0.3) {
                let back = 1 + self.rng.next_u64() % 4;
                let addr = self.vertices.block_by_index((shift + i - back) % vb);
                self.emit(addr, StreamId::Vertex, false);
            }
        }
        // The window rotates as different shaders bind.
        let total = self.constants.total_blocks();
        let base = self.rng.next_u64() % total;
        for i in 0..constant_blocks {
            let addr = self.constants.block_by_index((base + i) % total);
            self.emit(addr, StreamId::Other, false);
        }
    }

    /// Number of material regions in the static-texture atlas.
    pub(crate) fn tex_regions(&self) -> u64 {
        (self.static_tex.total_blocks() / TEX_REGION_BLOCKS).max(1)
    }

    /// With probability 0.02, one of eight persistently hot regions (UI
    /// atlases, detail maps, LUTs) whose blocks stay live across the whole
    /// frame.
    pub(crate) fn hot_region(&mut self, regions: u64) -> Option<u64> {
        self.rng.gen_bool(0.02).then(|| (self.rng.next_u64() % 8) * 997 % regions)
    }

    /// Samples `footprint` static-texture blocks of the region starting at
    /// block `region_base`. Two thirds walk a deterministic prefix of the
    /// region (the blocks every visitor of this material touches — the top
    /// mip levels); the rest scatter (anisotropy, lower mips).
    pub(crate) fn sample_region(&mut self, region_base: u64, footprint: usize) {
        let total = self.static_tex.total_blocks();
        for i in 0..footprint as u64 {
            let b = if i % 3 < 2 {
                region_base + (i - i / 3) % TEX_REGION_BLOCKS
            } else {
                region_base + self.rng.next_u64() % TEX_REGION_BLOCKS
            };
            self.emit(self.static_tex.block_by_index(b % total), StreamId::Texture, false);
        }
    }

    /// The tile work of depth-pre-pass band `s`: HiZ read and write, and the
    /// frame's first touch of the depth buffer, a pure write. The caller
    /// issues the pass's geometry first.
    pub(crate) fn depth_prepass(&mut self, s: u32) {
        let (tw, th) = tiles_of(&self.back);
        let (y0, y1) = band(th, s);
        for ty in y0..y1 {
            for tx in 0..tw {
                self.hiz_test(tx, ty, true);
                for b in half_blocks(&self.depth, tx, ty) {
                    self.emit(b, StreamId::Z, true);
                }
            }
        }
    }

    /// The hierarchical depth test of tile `(tx, ty)`: read the two HiZ
    /// blocks, and update them unless a depth pre-pass already did.
    pub(crate) fn hiz_test(&mut self, tx: u32, ty: u32, update: bool) {
        for hb in half_blocks(&self.hiz, tx, ty) {
            self.emit(hb, StreamId::HiZ, false);
            if update {
                self.emit(hb, StreamId::HiZ, true);
            }
        }
    }

    /// Reads (or writes) the four blocks of tile `(tx, ty)` on `surface`.
    pub(crate) fn tile(
        &mut self,
        surface: Surface,
        tx: u32,
        ty: u32,
        stream: StreamId,
        write: bool,
    ) {
        for b in tile_blocks(&surface, tx, ty) {
            self.emit(b, stream, write);
        }
    }

    /// Reads, then writes back, each block of tile `(tx, ty)` on `surface`.
    pub(crate) fn tile_rmw(&mut self, surface: Surface, tx: u32, ty: u32, stream: StreamId) {
        for b in tile_blocks(&surface, tx, ty) {
            self.emit(b, stream, false);
            self.emit(b, stream, true);
        }
    }

    /// The depth test of tile `(tx, ty)`: read the two compressed Z blocks,
    /// writing each back right after its read if `update`.
    pub(crate) fn z_test(&mut self, tx: u32, ty: u32, update: bool) {
        for b in half_blocks(&self.depth, tx, ty) {
            self.emit(b, StreamId::Z, false);
            if update {
                self.emit(b, StreamId::Z, true);
            }
        }
    }

    /// Output merger on tile `(tx, ty)` of `target`: each block is read back
    /// for blending with probability `rate`, then written.
    pub(crate) fn blend(&mut self, target: Surface, tx: u32, ty: u32, rate: f64) {
        for b in tile_blocks(&target, tx, ty) {
            if self.rng.gen_bool(rate) {
                self.emit(b, StreamId::RenderTarget, false);
            }
            self.emit(b, StreamId::RenderTarget, true);
        }
    }

    /// Present: the composition engine reads the back buffer and writes the
    /// displayable color stream (written once, never reused).
    pub(crate) fn present(&mut self) {
        let blocks = self.front.total_blocks();
        for i in 0..blocks {
            if i % 4 == 0 {
                let b = self.back.block_by_index(i % self.back.total_blocks());
                self.emit(b, StreamId::Texture, false);
            }
            let f = self.front.block_by_index(i);
            self.emit(f, StreamId::Display, true);
        }
    }
}

/// The four surface blocks covered by tile `(tx, ty)` on `surface`.
pub(crate) fn tile_blocks(surface: &Surface, tx: u32, ty: u32) -> [u64; 4] {
    let px = tx * TILE_PX;
    let py = ty * TILE_PX;
    [
        surface.block_at_pixel(px, py),
        surface.block_at_pixel(px + 4, py),
        surface.block_at_pixel(px, py + 4),
        surface.block_at_pixel(px + 4, py + 4),
    ]
}

/// The two blocks a tile covers on a half-height (2:1 compressed) surface:
/// depth, HiZ, shadow maps.
pub(crate) fn half_blocks(surface: &Surface, tx: u32, ty: u32) -> [u64; 2] {
    let x0 = (tx * TILE_PX).min(surface.width() - 1);
    let x1 = (tx * TILE_PX + 4).min(surface.width() - 1);
    let y = (ty * TILE_PX / 2).min(surface.height() - 1);
    [surface.block_at_pixel(x0, y), surface.block_at_pixel(x1, y)]
}

/// The tile grid `(columns, rows)` of `surface`.
pub(crate) fn tiles_of(surface: &Surface) -> (u32, u32) {
    (surface.width().div_ceil(TILE_PX), surface.height().div_ceil(TILE_PX))
}

/// The tile-row range `[start, end)` of render band `s` over `th` rows.
pub(crate) fn band(th: u32, s: u32) -> (u32, u32) {
    (th * s / BANDS, th * (s + 1) / BANDS)
}

/// The 64-bit finalizer of MurmurHash3 (first round) behind every
/// deterministic per-block and per-region choice, so a choice does not
/// depend on traversal order.
pub(crate) fn fmix(h: u64) -> u64 {
    let h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}
