//! The application pass set: one frame of DirectX-style rendering for a
//! Table 1 application profile.
//!
//! The pass structure mirrors Section 2.1 of the paper:
//!
//! 1. *Offscreen passes* render shadow maps / reflections / intermediate
//!    targets into dedicated render-target surfaces (render-to-texture),
//! 2. an optional *depth pre-pass* lays down the Z buffer,
//! 3. the *main pass* rasterizes the scene into the back buffer: HiZ and Z
//!    tests, pixel shading that samples static textures *and* the
//!    offscreen render targets (dynamic texturing — the paper's primary
//!    inter-stream reuse), blending reads, render-target writes,
//! 4. *post-processing passes* re-sample the back buffer and write it
//!    again,
//! 5. *present* reads the final back buffer and writes the displayable
//!    color stream to the front buffer.
//!
//! The frame is rendered in horizontal screen bands, with every pass
//! interleaved band by band: GPUs pipeline consecutive passes, and real
//! frames switch render targets hundreds of times, so production and
//! consumption of dynamic textures overlap in time rather than forming long
//! disjoint phases. Within one band the pass order above is preserved, with
//! the lighting work that consumes each render-to-texture target trailing its
//! production by one band.

use std::collections::VecDeque;

use grtrace::StreamId;

use crate::render::{band, fmix, half_blocks, tile_blocks, tiles_of, Kit, Surfaces};
use crate::render::{BANDS, TEX_REGION_BLOCKS, TILE_PX};
use crate::rng::zipf_rank;
use crate::{AppProfile, Frames, Scale, Surface, SurfaceAllocator, SurfaceKind, Trace};

/// Shader-constant blocks each application pass binds.
const CONSTANT_BLOCKS: u64 = 48;
/// Maximum length of the static-texture revisit history.
const TEX_HISTORY: usize = 16384;

/// The application passes' own surfaces and cursors.
#[derive(Debug)]
pub(crate) struct AppPasses<'a> {
    profile: &'a AppProfile,
    stencil: Surface,
    offscreen: Vec<Surface>,
    off_depth: Surface,
    /// Auxiliary render target (second MRT binding) used by DX11 profiles.
    mrt: Surface,
    scratch: Surface,
    /// Rolling cursor through the scratch surface's blocks.
    scratch_cursor: u64,
    /// Region bases of recently sampled materials, oldest first.
    tex_history: VecDeque<u64>,
    tex_walk: u64,
    /// `[min, max)` revisit distance (in history entries) for the
    /// far-flung texture reuse; scales with the workload so the reuse sits
    /// just beyond a thrashing policy's retention at every scale.
    revisit_window: (usize, usize),
}

impl<'a> AppPasses<'a> {
    /// Allocates frame `frame_idx` of `profile`: the shared surfaces and this
    /// set's own, in the order that sets every address.
    pub(crate) fn new(profile: &'a AppProfile, frame_idx: u32, scale: Scale) -> (Kit, Self) {
        let width = profile.scaled_width(scale);
        let height = profile.scaled_height(scale);
        let mut alloc = SurfaceAllocator::new();
        let [back, front, depth, hiz] = Surfaces::screen(&mut alloc, width, height);
        let stencil = alloc.alloc(SurfaceKind::Stencil, width, height);
        let static_tex = Surfaces::static_texture(&mut alloc, profile.scaled_texture_bytes(scale));
        let ow = ((width as f64 * profile.offscreen_scale) as u32).max(32);
        let oh = ((height as f64 * profile.offscreen_scale) as u32).max(32);
        let offscreen = (0..profile.offscreen_passes)
            .map(|_| alloc.alloc(SurfaceKind::RenderTarget, ow, oh))
            .collect();
        let off_depth = alloc.alloc(SurfaceKind::Depth, ow, (oh / 2).max(4));
        let (vertices, indices) =
            Surfaces::geometry_buffers(&mut alloc, profile.triangles_k, scale);
        let mrt = alloc.alloc(SurfaceKind::RenderTarget, width, height);
        // Scratch render targets continuously produced and shortly after
        // consumed during the main pass (per-object reflections, particle
        // buffers, UI composition): real frames switch render targets
        // constantly, so render-to-texture consumption never pauses.
        let scratch = alloc.alloc(SurfaceKind::RenderTarget, width / 2, height / 4);
        let constants = Surfaces::constants(&mut alloc);
        let surfaces =
            Surfaces { back, front, depth, hiz, static_tex, vertices, indices, constants };
        let d2 = (scale.divisor() * scale.divisor()) as usize;
        let passes = AppPasses {
            profile,
            stencil,
            offscreen,
            off_depth,
            mrt,
            scratch,
            scratch_cursor: 0,
            tex_history: VecDeque::new(),
            // Consecutive frames see mostly the same materials, shifted by
            // camera motion: the walk starts where the previous frame's
            // drift would have carried it.
            tex_walk: u64::from(frame_idx) * 131,
            revisit_window: ((3072 / d2).max(24), (8192 / d2).max(72)),
        };
        (Kit::new(profile.seed, profile.name, frame_idx, 1 << 20, surfaces), passes)
    }

    /// Render band `s`: render-to-texture targets (each band consumed by the
    /// trailing lighting work), depth pre-pass, main pass (which samples the
    /// targets — the inter-stream reuse of Figure 6), transparency effects,
    /// post-processing.
    pub(crate) fn run_band(&mut self, k: &mut Kit, s: u32) {
        for i in 0..self.offscreen.len() {
            let target = self.offscreen[i];
            self.offscreen_chunk(k, target, s);
            // Lighting trails production by one band.
            if s >= 1 {
                self.lighting_chunk(k, target, s - 1);
            }
        }
        if self.profile.depth_prepass {
            k.geometry(0.8 / f64::from(BANDS), 0, CONSTANT_BLOCKS);
            k.depth_prepass(s);
        }
        self.main_pass(k, s);
        self.effects_pass(k, s);
        for _ in 0..self.profile.post_passes {
            self.post_pass(k, s);
        }
    }

    /// The tail: the last lighting band of every target, then present.
    pub(crate) fn run_tail(&mut self, k: &mut Kit) {
        for i in 0..self.offscreen.len() {
            let target = self.offscreen[i];
            self.lighting_chunk(k, target, BANDS - 1);
        }
        k.present();
    }

    /// Samples `footprint` static texture blocks for one tile.
    ///
    /// Revisits target the *medium* distance deliberately: regions touched
    /// in roughly the last 100–640 tiles are past the reach of the texture
    /// L3 (which absorbs short-range reuse) but plausibly still LLC
    /// resident — this is the far-flung `E0`/`E1` intra-stream reuse the
    /// paper characterizes in Figure 7, whose survival depends on the LLC
    /// policy.
    fn sample_static_texture(&mut self, k: &mut Kit, footprint: usize) {
        let regions = k.tex_regions();
        let roll = k.rng.next_f64();
        let (rv_min, rv_max) = self.revisit_window;
        let len = self.tex_history.len();
        let medium_revisit = roll < self.profile.tex_revisit && len > rv_min + rv_min / 8;
        let region_base = if medium_revisit {
            let window = (len - rv_min).min(rv_max - rv_min);
            let d = rv_min + ((k.rng.next_u64() as usize) % window);
            // Each region is far-revisited at most once (E1 texture blocks
            // rarely see further reuse — the paper's E1 death ratio is
            // 0.73 even under Belady's optimal), so take it out of the
            // history once consumed.
            self.tex_history.swap_remove_back(len - 1 - d).expect("revisit index is in the history")
        } else if roll < self.profile.tex_revisit + 0.04 && len > 0 {
            // Occasional long-range revisit (usually cold by now).
            self.tex_history[len - 1 - zipf_rank(&mut k.rng, len)]
        } else {
            // Fresh material: a drifting walk across the texture atlas
            // (the camera sweeping the scene's materials), plus a tiny set
            // of persistently hot regions (the `E≥2` texture population of
            // Figure 7).
            self.tex_walk = self.tex_walk.wrapping_add(1);
            let region = k
                .hot_region(regions)
                .unwrap_or_else(|| (self.tex_walk + zipf_rank(&mut k.rng, 24) as u64) % regions);
            region * TEX_REGION_BLOCKS
        };
        if !medium_revisit {
            if self.tex_history.len() == TEX_HISTORY {
                self.tex_history.pop_front();
            }
            self.tex_history.push_back(region_base);
        }
        k.sample_region(region_base, footprint);
    }

    /// One band of an offscreen render-to-texture pass (shadow map,
    /// reflection, ...).
    fn offscreen_chunk(&mut self, k: &mut Kit, target: Surface, s: u32) {
        k.geometry(0.15 / f64::from(BANDS), 0, CONSTANT_BLOCKS);
        let (tw, th) = tiles_of(&target);
        let (y0, y1) = band(th, s);
        let footprint = (self.profile.tex_samples_per_pixel * 5.0).round().max(3.0) as usize;
        for ty in y0..y1 {
            for tx in 0..tw {
                // Depth test on the offscreen depth buffer.
                for b in half_blocks(&self.off_depth, tx, ty) {
                    k.emit(b, StreamId::Z, false);
                    k.emit(b, StreamId::Z, true);
                }
                // Shading with static textures (reflections and shadow
                // casters sample materials too); this traffic also puts
                // realistic pressure on the LLC between render-target
                // production and its far-flung consumption.
                self.sample_static_texture(k, footprint);
                k.blend(target, tx, ty, self.profile.blend_rate);
            }
        }
    }

    /// One band of the lighting/composition work that *consumes* a
    /// previously rendered offscreen target as a dynamic texture, blending
    /// the result into the back buffer (render-to-texture consumption).
    fn lighting_chunk(&mut self, k: &mut Kit, source: Surface, s: u32) {
        k.geometry(0.02 / f64::from(BANDS), 0, CONSTANT_BLOCKS);
        let (tw, th) = tiles_of(&source);
        let (y0, y1) = band(th, s);
        let (btw, bth) = tiles_of(&k.back);
        for ty in y0..y1 {
            for tx in 0..tw {
                // The lighting work only touches a third of the target
                // here; the main pass samples the rest much later, so most
                // render-to-texture consumption is far-flung while enough
                // near consumption keeps the sample counters trained.
                if tx % 3 != 0 {
                    continue;
                }
                // Sample the dynamic texture where this light touches it.
                for b in tile_blocks(&source, tx, ty) {
                    if self.consumable(b) {
                        k.emit(b, StreamId::Texture, false);
                    }
                }
                self.sample_static_texture(k, 2);
                // Accumulate into the corresponding back-buffer tile.
                let bx = (tx * btw / tw.max(1)).min(btw - 1);
                let by = (ty * bth / th.max(1)).min(bth - 1);
                k.tile_rmw(k.back, bx, by, StreamId::RenderTarget);
            }
        }
    }

    /// Whether this offscreen block is consumed as a dynamic texture: a
    /// deterministic per-block choice, so exactly ~rate of each surface is
    /// consumed, independent of traversal order.
    fn consumable(&self, block_addr: u64) -> bool {
        (fmix(block_addr ^ self.profile.seed) % 1024) as f64 / 1024.0 < self.profile.rt_to_tex_rate
    }

    /// The main pass: full scene into the back buffer.
    fn main_pass(&mut self, k: &mut Kit, s: u32) {
        k.geometry(1.0 / f64::from(BANDS), 0, CONSTANT_BLOCKS);
        let (tw, th) = tiles_of(&k.back);
        let prepass = self.profile.depth_prepass;
        let overdraw_extra = (self.profile.overdraw - 1.0).clamp(0.0, 1.0);
        let footprint = (self.profile.tex_samples_per_pixel * 7.0).round().max(4.0) as usize;
        let (y0, y1) = band(th, s);
        for ty in y0..y1 {
            for tx in 0..tw {
                k.hiz_test(tx, ty, !prepass);
                // Early depth test; extra fragment rounds model overdraw.
                // After a depth pre-pass the HiZ test culls half the tiles
                // outright, so the fine-grained Z buffer is not even read.
                let rounds = 1 + u32::from(k.rng.gen_bool(overdraw_extra));
                for round in 0..rounds {
                    let hiz_culled = prepass && k.rng.gen_bool(0.5);
                    // Without a pre-pass the surviving fragments of the
                    // first round update the depth buffer.
                    if !hiz_culled {
                        k.z_test(tx, ty, !prepass && round == 0);
                    }
                    // Fragments rejected by the early tests do not shade.
                    if round > 0 && k.rng.gen_bool(0.5) {
                        continue;
                    }
                    self.shade_tile(k, tx, ty, footprint);
                }

                // Stencil test on a fraction of the tiles.
                if k.rng.gen_bool(self.profile.stencil_rate) {
                    k.tile_rmw(self.stencil, tx, ty, StreamId::Stencil);
                }
            }
            // Per-row render-target churn: produce a strip of scratch
            // render target, and consume the strip produced two rows ago
            // as a texture (at the application's consumption rate).
            self.scratch_churn(k, 64);
        }
    }

    /// Produces `n` scratch render-target blocks and consumes the `n`
    /// blocks produced two calls earlier.
    fn scratch_churn(&mut self, k: &mut Kit, n: u64) {
        let total = self.scratch.total_blocks();
        for i in 0..n {
            let b = self.scratch.block_by_index((self.scratch_cursor + i) % total);
            k.emit(b, StreamId::RenderTarget, true);
        }
        if self.scratch_cursor >= 2 * n {
            for i in 0..n {
                let b = self.scratch.block_by_index((self.scratch_cursor - 2 * n + i) % total);
                if self.consumable(b) {
                    k.emit(b, StreamId::Texture, false);
                }
            }
        }
        self.scratch_cursor += n;
    }

    /// Pixel shading + output merger for one tile of the main pass.
    fn shade_tile(&mut self, k: &mut Kit, tx: u32, ty: u32, footprint: usize) {
        k.work.shaded_pixels += u64::from(TILE_PX * TILE_PX);
        k.work.texel_samples +=
            (self.profile.tex_samples_per_pixel * f64::from(TILE_PX * TILE_PX) * 4.0) as u64;
        self.sample_static_texture(k, footprint);
        // Dynamic texturing: the main pass re-samples the offscreen
        // targets — the far-flung render-to-texture reuse of Figure 6. It
        // samples the region produced two bands earlier, so the target
        // block must survive roughly two RRIP aging rounds between
        // production and this consumption: a fully protected insertion
        // (RRPV 0) usually makes it, an intermediate one (RRPV 2) usually
        // does not. This is precisely the reuse window where the paper's
        // policies separate.
        let (tw, th) = tiles_of(&k.back);
        let lag_rows = th / BANDS;
        if ty >= lag_rows {
            let sy = ty - lag_rows;
            for target in &self.offscreen {
                let scale_y = |row: u32| {
                    ((u64::from(row) * u64::from(target.height()) / u64::from(th * TILE_PX)) as u32)
                        / TILE_PX
                };
                let oty = scale_y(sy);
                // Only the first back-buffer row mapping onto each target
                // row samples it, so a target block is far-consumed once.
                if sy > 0 && scale_y(sy - 1) == oty {
                    continue;
                }
                let otx = ((u64::from(tx) * u64::from(target.width()) / u64::from(tw * TILE_PX))
                    as u32)
                    / TILE_PX;
                // The lighting work took every third column; the main
                // pass consumes the other two thirds, far from production.
                if otx.is_multiple_of(3) {
                    continue;
                }
                for b in tile_blocks(target, otx, oty) {
                    if self.consumable(b) {
                        k.emit(b, StreamId::Texture, false);
                    }
                }
            }
        }
        k.blend(k.back, tx, ty, self.profile.blend_rate);
        // DirectX 11 profiles bind a second render target (DirectX 10
        // allows up to eight simultaneously bound targets).
        if self.profile.dx_version >= 11 {
            k.tile(self.mrt, tx, ty, StreamId::RenderTarget, true);
        }
    }

    /// Transparency/particle effects: soft particles re-read the depth
    /// buffer (its second, far-flung reuse) and blend into the back buffer.
    fn effects_pass(&mut self, k: &mut Kit, s: u32) {
        k.geometry(0.05 / f64::from(BANDS), 0, CONSTANT_BLOCKS);
        let (tw, th) = tiles_of(&k.back);
        let (y0, y1) = band(th, s);
        for ty in y0..y1 {
            for tx in 0..tw {
                if !k.rng.gen_bool(0.45) {
                    continue;
                }
                k.z_test(tx, ty, false);
                self.sample_static_texture(k, 2);
                k.tile_rmw(k.back, tx, ty, StreamId::RenderTarget);
            }
            self.scratch_churn(k, 32);
        }
    }

    /// Full-screen post-processing: re-sample the back buffer, write it.
    fn post_pass(&mut self, k: &mut Kit, s: u32) {
        k.geometry(0.01 / f64::from(BANDS), 0, CONSTANT_BLOCKS);
        let (tw, th) = tiles_of(&k.back);
        let (y0, y1) = band(th, s);
        for ty in y0..y1 {
            for tx in 0..tw {
                k.tile(k.back, tx, ty, StreamId::Texture, false);
                k.tile(k.back, tx, ty, StreamId::RenderTarget, true);
            }
            self.scratch_churn(k, 32);
        }
    }
}

/// Synthesizes the LLC access trace for one frame.
///
/// # Example
///
/// ```
/// use grsynth::{generate_frame, AppProfile, Scale};
///
/// let app = AppProfile::by_abbrev("DMC").unwrap();
/// let trace = generate_frame(&app, 0, Scale::Tiny);
/// assert_eq!((trace.app(), trace.frame()), ("Devil May Cry 4", 0));
/// ```
pub fn generate_frame(app: &AppProfile, frame: u32, scale: Scale) -> Trace {
    Frames::from(app).render(frame, scale).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(abbrev: &str) -> AppProfile {
        AppProfile::by_abbrev(abbrev).unwrap()
    }

    #[test]
    fn rt_and_tex_dominate_llc_traffic() {
        let t = generate_frame(&app("3DMarkVAGT1"), 0, Scale::Tiny);
        let s = t.stats();
        let rt_tex = s.fraction(StreamId::RenderTarget) + s.fraction(StreamId::Texture);
        assert!(rt_tex > 0.5, "RT+TEX should dominate, got {rt_tex:.2}");
    }

    #[test]
    fn display_is_write_only_and_bounded() {
        let t = generate_frame(&app("HAWX"), 0, Scale::Tiny);
        let s = t.stats();
        assert_eq!(s.reads(StreamId::Display), 0);
        assert!(s.fraction(StreamId::Display) < 0.15);
    }

    #[test]
    fn larger_scale_means_more_traffic() {
        let a = app("Dirt");
        let tiny = generate_frame(&a, 0, Scale::Tiny);
        let quarter = generate_frame(&a, 0, Scale::Quarter);
        assert!(quarter.len() > 2 * tiny.len());
    }
}
