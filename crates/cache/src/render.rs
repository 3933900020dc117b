//! The GPU's internal render caches.
//!
//! The GPU traditionally includes a small independent on-die cache for each
//! access stream: vertex and vertex-index caches, HiZ cache, Z cache,
//! stencil cache, render-target (color) cache, and a multi-level texture
//! cache hierarchy. Their *misses* (plus dirty writebacks) constitute the
//! streams seen by the LLC. This module reproduces the configuration of the
//! paper's Section 4:
//!
//! | cache        | size   | ways |
//! |--------------|--------|------|
//! | vertex index | 1 KB   | 16   |
//! | vertex       | 16 KB  | 128  |
//! | HiZ          | 12 KB  | 24   |
//! | stencil      | 16 KB  | 16   |
//! | render target| 24 KB  | 24   |
//! | Z            | 32 KB  | 32   |
//! | texture L3   | 384 KB | 48   |
//!
//! The paper leaves the first two texture levels unspecified; we model a
//! 16 KB 8-way L1 and a 64 KB 16-way L2 (typical of contemporaneous GPUs),
//! configurable via [`TextureHierarchyConfig`]. Displayable color and the
//! "other" stream (shader code, constants) are lightly cached through a
//! small buffer.

use grtrace::{Access, StreamId, Trace};

use crate::{CacheConfig, Lookup, LruCache};

/// Texture cache hierarchy geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextureHierarchyConfig {
    /// First-level texture cache.
    pub l1: CacheConfig,
    /// Second-level texture cache.
    pub l2: CacheConfig,
    /// Third-level texture cache (384 KB 48-way in the paper).
    pub l3: CacheConfig,
}

impl Default for TextureHierarchyConfig {
    fn default() -> Self {
        TextureHierarchyConfig {
            l1: CacheConfig::kb(16, 8),
            l2: CacheConfig::kb(64, 16),
            l3: CacheConfig::kb(384, 48),
        }
    }
}

/// The full render-cache hierarchy standing between the pipeline and the LLC.
///
/// Feed raw pipeline accesses through [`RenderCaches::filter`]; the accesses
/// that miss (and the dirty writebacks they displace) are appended to the
/// output [`Trace`] and form the LLC access stream.
///
/// # Example
///
/// ```
/// use grcache::RenderCaches;
/// use grtrace::{Access, StreamId, Trace};
///
/// let mut rc = RenderCaches::new();
/// let mut llc_trace = Trace::new("demo", 0);
/// rc.filter(Access::load(0x100, StreamId::Texture), &mut llc_trace);
/// rc.filter(Access::load(0x100, StreamId::Texture), &mut llc_trace); // L1 hit
/// assert_eq!(llc_trace.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RenderCaches {
    vertex: LruCache,
    vertex_index: LruCache,
    hiz: LruCache,
    z: LruCache,
    stencil: LruCache,
    rt: LruCache,
    other: LruCache,
    tex_l1: LruCache,
    tex_l2: LruCache,
    tex_l3: LruCache,
}

impl RenderCaches {
    /// Creates the hierarchy with the paper's geometry and default texture
    /// L1/L2 sizes.
    pub fn new() -> Self {
        Self::with_texture_hierarchy(TextureHierarchyConfig::default())
    }

    /// Creates the hierarchy with a custom texture cache configuration.
    pub fn with_texture_hierarchy(tex: TextureHierarchyConfig) -> Self {
        RenderCaches {
            vertex: LruCache::new(CacheConfig::kb(16, 128)),
            vertex_index: LruCache::new(CacheConfig::kb(1, 16)),
            hiz: LruCache::new(CacheConfig::kb(12, 24)),
            z: LruCache::new(CacheConfig::kb(32, 32)),
            stencil: LruCache::new(CacheConfig::kb(16, 16)),
            rt: LruCache::new(CacheConfig::kb(24, 24)),
            other: LruCache::new(CacheConfig::kb(8, 8)),
            tex_l1: LruCache::new(tex.l1),
            tex_l2: LruCache::new(tex.l2),
            tex_l3: LruCache::new(tex.l3),
        }
    }

    /// Routes one raw pipeline access through its render cache; misses and
    /// dirty writebacks are appended to `llc_trace` as LLC accesses.
    ///
    /// Displayable color is not cached internally (it is produced once and
    /// handed to the display engine), so every display access reaches the
    /// LLC directly.
    pub fn filter(&mut self, access: Access, llc_trace: &mut Trace) {
        let stream = access.stream();
        match stream {
            StreamId::Display => {
                llc_trace.push(access);
            }
            StreamId::Texture => {
                // Read-only three-level hierarchy; a miss cascades downward
                // and only an L3 miss reaches the LLC.
                let block = access.block();
                if self.tex_l1.access(block, false) == Lookup::Hit {
                    return;
                }
                if self.tex_l2.access(block, false) == Lookup::Hit {
                    return;
                }
                if self.tex_l3.access(block, false) == Lookup::Hit {
                    return;
                }
                llc_trace.push(access);
            }
            _ => {
                let cache = self.cache_for(stream);
                match cache.access(access.block(), access.write()) {
                    Lookup::Hit => {}
                    Lookup::Miss { writeback } => {
                        llc_trace.push(access);
                        if let Some(wb_block) = writeback {
                            llc_trace.push(Access::store(wb_block * 64, stream));
                        }
                    }
                }
            }
        }
    }

    fn cache_for(&mut self, stream: StreamId) -> &mut LruCache {
        match stream {
            StreamId::Vertex => &mut self.vertex,
            StreamId::VertexIndex => &mut self.vertex_index,
            StreamId::HiZ => &mut self.hiz,
            StreamId::Z => &mut self.z,
            StreamId::Stencil => &mut self.stencil,
            StreamId::RenderTarget => &mut self.rt,
            StreamId::Other => &mut self.other,
            StreamId::Texture | StreamId::Display => {
                unreachable!("texture and display are routed separately")
            }
        }
    }

    /// Flushes all dirty render-cache blocks into `llc_trace` as stores.
    /// Call at end-of-frame so pending color/depth data reaches the LLC.
    pub fn flush(&mut self, llc_trace: &mut Trace) {
        for (stream, cache) in [
            (StreamId::HiZ, &mut self.hiz),
            (StreamId::Z, &mut self.z),
            (StreamId::Stencil, &mut self.stencil),
            (StreamId::RenderTarget, &mut self.rt),
            (StreamId::Other, &mut self.other),
        ] {
            for block in cache.flush_dirty() {
                llc_trace.push(Access::store(block * 64, stream));
            }
        }
    }
}

impl Default for RenderCaches {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn texture_hit_filters_llc_traffic() {
        let mut rc = RenderCaches::new();
        let mut out = Trace::new("t", 0);
        for _ in 0..10 {
            rc.filter(Access::load(0x40, StreamId::Texture), &mut out);
        }
        assert_eq!(out.len(), 1, "only the first access misses to the LLC");
    }

    #[test]
    fn display_is_never_cached_internally() {
        let mut rc = RenderCaches::new();
        let mut out = Trace::new("t", 0);
        for _ in 0..5 {
            rc.filter(Access::store(0x1000, StreamId::Display), &mut out);
        }
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn dirty_rt_eviction_emits_store_to_llc() {
        let mut rc = RenderCaches::new();
        let mut out = Trace::new("t", 0);
        // The RT cache is 24 KB / 24-way / 16 sets. Fill one set with
        // dirty blocks until it overflows: blocks k*16 all map to set 0.
        for k in 0..25u64 {
            rc.filter(Access::store(k * 16 * 64, StreamId::RenderTarget), &mut out);
        }
        let wb = out.iter().filter(|a| a.write() && a.stream() == StreamId::RenderTarget).count();
        // 25 store misses + at least 1 dirty writeback.
        assert!(wb > 25, "expected stores plus writebacks, got {wb}");
    }

    #[test]
    fn flush_drains_dirty_blocks() {
        let mut rc = RenderCaches::new();
        let mut out = Trace::new("t", 0);
        rc.filter(Access::store(0, StreamId::Z), &mut out);
        let before = out.len();
        rc.flush(&mut out);
        assert_eq!(out.len(), before + 1);
        assert!(out.accesses()[before].write());
        assert_eq!(out.accesses()[before].stream(), StreamId::Z);
    }

    #[test]
    fn streams_use_independent_caches() {
        let mut rc = RenderCaches::new();
        let mut out = Trace::new("t", 0);
        rc.filter(Access::load(0, StreamId::Z), &mut out);
        // Same address from a different stream still misses (separate caches).
        rc.filter(Access::load(0, StreamId::Stencil), &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn texture_levels_cascade() {
        let cfg = TextureHierarchyConfig {
            l1: CacheConfig { size_bytes: 2 * 64, ways: 2 },
            l2: CacheConfig { size_bytes: 4 * 64, ways: 4 },
            l3: CacheConfig { size_bytes: 8 * 64, ways: 8 },
        };
        let mut rc = RenderCaches::with_texture_hierarchy(cfg);
        let mut out = Trace::new("t", 0);
        // Touch 4 distinct blocks: all miss L1 (2 blocks) but block 0 and 1
        // survive in L2/L3.
        for b in 0..4u64 {
            rc.filter(Access::load(b * 64, StreamId::Texture), &mut out);
        }
        assert_eq!(out.len(), 4);
        // Block 0 was evicted from tiny L1 but lives in L2: no LLC traffic.
        rc.filter(Access::load(0, StreamId::Texture), &mut out);
        assert_eq!(out.len(), 4);
    }
}
