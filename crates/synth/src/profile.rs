//! The twelve application profiles (Table 1 plus synthetic reuse knobs).

/// Resolution scaling applied to a profile before synthesis.
///
/// Full scale renders the application's native resolution (Table 1); the
/// smaller scales divide both dimensions, shrinking traces proportionally
/// for faster experimentation. Every reuse *ratio* is scale-invariant by
/// construction (surface sizes, texture working sets, and pass structure
/// shrink together).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Native resolution.
    Full,
    /// Half width and height (¼ of the pixels).
    Half,
    /// Quarter width and height (1/16 of the pixels).
    Quarter,
    /// One-eighth width and height; for unit tests.
    Tiny,
}

impl Scale {
    /// The divisor applied to each dimension.
    pub fn divisor(self) -> u32 {
        match self {
            Scale::Full => 1,
            Scale::Half => 2,
            Scale::Quarter => 4,
            Scale::Tiny => 8,
        }
    }

    /// The conventional environment-variable spelling (`GR_SCALE`, job
    /// specs, artifact fields), inverse of [`Scale::from_name`].
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Half => "half",
            Scale::Quarter => "quarter",
            Scale::Tiny => "tiny",
        }
    }

    /// Parses the conventional environment-variable spelling, in any case.
    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Full, Scale::Half, Scale::Quarter, Scale::Tiny]
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

/// A synthetic stand-in for one of the paper's DirectX applications.
///
/// The identity fields (name, DirectX version, resolution, frame count)
/// follow Table 1. The remaining knobs control the *reuse structure* of
/// the synthesized frames and were calibrated against the paper's
/// characterization figures; see `DESIGN.md` for the mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Full application name.
    pub name: &'static str,
    /// Abbreviated name used in the figures.
    pub abbrev: &'static str,
    /// DirectX version (10 or 11).
    pub dx_version: u32,
    /// Native frame width in pixels.
    pub width: u32,
    /// Native frame height in pixels.
    pub height: u32,
    /// Number of captured frames (the 12 apps total 52).
    pub frames: u32,
    /// Render-to-texture passes preceding the main pass (shadow maps,
    /// reflections, G-buffer-ish inputs).
    pub offscreen_passes: u32,
    /// Linear size of offscreen render targets relative to the screen.
    pub offscreen_scale: f64,
    /// Probability that an offscreen render-target block is later sampled
    /// as a texture (drives the Figure 6 inter-stream reuse; Assassin's
    /// Creed reaches 0.9).
    pub rt_to_tex_rate: f64,
    /// Static texture working set touched per frame, in MB at full scale.
    pub static_texture_mb: f64,
    /// Texture samples issued per shaded pixel.
    pub tex_samples_per_pixel: f64,
    /// Probability that a tile re-samples an already-touched static
    /// texture region (drives E1/E2 texture reuse).
    pub tex_revisit: f64,
    /// Average fragments per pixel in the main pass (depth complexity).
    pub overdraw: f64,
    /// Whether a depth pre-pass writes Z before the main pass re-reads it.
    pub depth_prepass: bool,
    /// Fraction of render-target writes preceded by a blending read.
    pub blend_rate: f64,
    /// Fraction of tiles performing stencil tests.
    pub stencil_rate: f64,
    /// Thousands of triangles per frame (vertex/index traffic).
    pub triangles_k: u32,
    /// Full-screen post-processing passes that re-sample the back buffer.
    pub post_passes: u32,
    /// Base RNG seed; each frame perturbs it.
    pub seed: u64,
}

impl AppProfile {
    /// The twelve applications of Table 1, with frame counts summing to 52.
    pub fn all() -> Vec<AppProfile> {
        vec![
            AppProfile {
                name: "3D Mark Vantage GT1",
                abbrev: "3DMarkVAGT1",
                dx_version: 10,
                width: 1920,
                height: 1200,
                frames: 4,
                offscreen_passes: 3,
                offscreen_scale: 0.30,
                rt_to_tex_rate: 0.62,
                static_texture_mb: 48.0,
                tex_samples_per_pixel: 2.4,
                tex_revisit: 0.15,
                overdraw: 1.6,
                depth_prepass: true,
                blend_rate: 0.35,
                stencil_rate: 0.05,
                triangles_k: 900,
                post_passes: 2,
                seed: 0x3d3d_0001,
            },
            AppProfile {
                name: "3D Mark Vantage GT2",
                abbrev: "3DMarkVAGT2",
                dx_version: 10,
                width: 1920,
                height: 1200,
                frames: 4,
                offscreen_passes: 4,
                offscreen_scale: 0.30,
                rt_to_tex_rate: 0.58,
                static_texture_mb: 56.0,
                tex_samples_per_pixel: 2.6,
                tex_revisit: 0.18,
                overdraw: 1.8,
                depth_prepass: true,
                blend_rate: 0.40,
                stencil_rate: 0.05,
                triangles_k: 1100,
                post_passes: 2,
                seed: 0x3d3d_0002,
            },
            AppProfile {
                name: "Assassin's Creed",
                abbrev: "AssnCreed",
                dx_version: 10,
                width: 1680,
                height: 1050,
                frames: 5,
                // Heavy render-to-texture use: almost every offscreen RT is
                // consumed (the paper reports up to 90 % potential
                // consumption).
                offscreen_passes: 5,
                offscreen_scale: 0.35,
                rt_to_tex_rate: 0.90,
                static_texture_mb: 28.0,
                tex_samples_per_pixel: 2.0,
                tex_revisit: 0.24,
                overdraw: 1.5,
                depth_prepass: true,
                blend_rate: 0.30,
                stencil_rate: 0.10,
                triangles_k: 700,
                post_passes: 2,
                seed: 0xac5e_0001,
            },
            AppProfile {
                name: "BioShock",
                abbrev: "BioShock",
                dx_version: 10,
                width: 1920,
                height: 1200,
                frames: 4,
                offscreen_passes: 2,
                offscreen_scale: 0.30,
                rt_to_tex_rate: 0.55,
                static_texture_mb: 64.0,
                tex_samples_per_pixel: 2.2,
                tex_revisit: 0.12,
                overdraw: 1.7,
                depth_prepass: false,
                blend_rate: 0.45,
                stencil_rate: 0.15,
                triangles_k: 800,
                post_passes: 1,
                seed: 0xb105_0001,
            },
            AppProfile {
                name: "Devil May Cry 4",
                abbrev: "DMC",
                dx_version: 10,
                width: 1680,
                height: 1050,
                frames: 5,
                // Produces many offscreen targets but consumes few: the
                // dynamic RT management of full GSPC is what rescues DMC.
                offscreen_passes: 4,
                offscreen_scale: 0.45,
                rt_to_tex_rate: 0.18,
                static_texture_mb: 40.0,
                tex_samples_per_pixel: 2.8,
                tex_revisit: 0.21,
                overdraw: 2.2,
                depth_prepass: false,
                blend_rate: 0.55,
                stencil_rate: 0.08,
                triangles_k: 600,
                post_passes: 2,
                seed: 0xd3c4_0001,
            },
            AppProfile {
                name: "Civilization V",
                abbrev: "Civilization",
                dx_version: 11,
                width: 1920,
                height: 1200,
                frames: 4,
                offscreen_passes: 2,
                offscreen_scale: 0.25,
                rt_to_tex_rate: 0.65,
                static_texture_mb: 72.0,
                tex_samples_per_pixel: 2.0,
                tex_revisit: 0.25,
                overdraw: 1.3,
                depth_prepass: true,
                blend_rate: 0.25,
                stencil_rate: 0.02,
                triangles_k: 1200,
                post_passes: 1,
                seed: 0xc115_0001,
            },
            AppProfile {
                name: "Dirt 2",
                abbrev: "Dirt",
                dx_version: 11,
                width: 1680,
                height: 1050,
                frames: 4,
                // Few consumable RTs; like DMC, static RT pinning backfires.
                offscreen_passes: 3,
                offscreen_scale: 0.45,
                rt_to_tex_rate: 0.22,
                static_texture_mb: 52.0,
                tex_samples_per_pixel: 2.4,
                tex_revisit: 0.09,
                overdraw: 1.9,
                depth_prepass: true,
                blend_rate: 0.50,
                stencil_rate: 0.04,
                triangles_k: 1000,
                post_passes: 3,
                seed: 0xd124_0001,
            },
            AppProfile {
                name: "HAWX 2",
                abbrev: "HAWX",
                dx_version: 11,
                width: 1920,
                height: 1200,
                frames: 4,
                offscreen_passes: 2,
                offscreen_scale: 0.30,
                rt_to_tex_rate: 0.50,
                static_texture_mb: 36.0,
                tex_samples_per_pixel: 1.8,
                tex_revisit: 0.15,
                overdraw: 1.2,
                depth_prepass: false,
                blend_rate: 0.20,
                stencil_rate: 0.02,
                triangles_k: 1400,
                post_passes: 2,
                seed: 0x4a3c_0001,
            },
            AppProfile {
                name: "Unigine Heaven 2.1",
                abbrev: "Heaven",
                dx_version: 11,
                width: 2560,
                height: 1600,
                frames: 5,
                // Enormous resolution and texture footprint: the LLC is
                // overwhelmed and every policy struggles (smallest gains).
                offscreen_passes: 2,
                offscreen_scale: 0.30,
                rt_to_tex_rate: 0.45,
                static_texture_mb: 120.0,
                tex_samples_per_pixel: 2.6,
                tex_revisit: 0.08,
                overdraw: 2.0,
                depth_prepass: true,
                blend_rate: 0.35,
                stencil_rate: 0.06,
                triangles_k: 2200,
                post_passes: 2,
                seed: 0x43a7_0001,
            },
            AppProfile {
                name: "Lost Planet 2",
                abbrev: "LostPlanet",
                dx_version: 11,
                width: 1920,
                height: 1200,
                frames: 5,
                offscreen_passes: 4,
                offscreen_scale: 0.35,
                rt_to_tex_rate: 0.70,
                static_texture_mb: 44.0,
                tex_samples_per_pixel: 2.5,
                tex_revisit: 0.18,
                overdraw: 1.8,
                depth_prepass: false,
                blend_rate: 0.40,
                stencil_rate: 0.12,
                triangles_k: 900,
                post_passes: 2,
                seed: 0x105c_0001,
            },
            AppProfile {
                name: "Stalker COP",
                abbrev: "StalkerCOP",
                dx_version: 11,
                width: 1680,
                height: 1050,
                frames: 4,
                offscreen_passes: 3,
                offscreen_scale: 0.30,
                rt_to_tex_rate: 0.60,
                static_texture_mb: 60.0,
                tex_samples_per_pixel: 2.3,
                tex_revisit: 0.14,
                overdraw: 1.6,
                depth_prepass: true,
                blend_rate: 0.30,
                stencil_rate: 0.20,
                triangles_k: 800,
                post_passes: 3,
                seed: 0x57a1_0001,
            },
            AppProfile {
                name: "Unigine 3D engine",
                abbrev: "Unigine",
                dx_version: 11,
                width: 1920,
                height: 1200,
                frames: 4,
                offscreen_passes: 3,
                offscreen_scale: 0.30,
                rt_to_tex_rate: 0.55,
                static_texture_mb: 68.0,
                tex_samples_per_pixel: 2.4,
                tex_revisit: 0.11,
                overdraw: 1.7,
                depth_prepass: true,
                blend_rate: 0.35,
                stencil_rate: 0.05,
                triangles_k: 1300,
                post_passes: 2,
                seed: 0x0419_0001,
            },
        ]
    }

    /// Looks up a profile by its abbreviated name.
    pub fn by_abbrev(abbrev: &str) -> Option<AppProfile> {
        Self::all().into_iter().find(|a| a.abbrev == abbrev)
    }

    /// Scaled frame width.
    pub fn scaled_width(&self, scale: Scale) -> u32 {
        (self.width / scale.divisor()).max(64)
    }

    /// Scaled frame height.
    pub fn scaled_height(&self, scale: Scale) -> u32 {
        (self.height / scale.divisor()).max(64)
    }

    /// Static texture working set in bytes at the given scale (scales with
    /// the pixel count so reuse ratios are scale-invariant).
    pub fn scaled_texture_bytes(&self, scale: Scale) -> u64 {
        let d = scale.divisor() as f64;
        ((self.static_texture_mb * 1024.0 * 1024.0) / (d * d)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Full, Scale::Half, Scale::Quarter, Scale::Tiny] {
            assert_eq!(Scale::from_name(scale.name()), Some(scale));
        }
        assert_eq!(Scale::from_name("QUARTER"), Some(Scale::Quarter));
        assert_eq!(Scale::from_name("eighth"), None);
    }

    #[test]
    fn twelve_apps_fifty_two_frames() {
        let apps = AppProfile::all();
        assert_eq!(apps.len(), 12);
        assert_eq!(apps.iter().map(|a| a.frames).sum::<u32>(), 52);
    }

    #[test]
    fn table1_identities() {
        let apps = AppProfile::all();
        let find = |ab: &str| apps.iter().find(|a| a.abbrev == ab).unwrap();
        assert_eq!(find("AssnCreed").dx_version, 10);
        assert_eq!((find("AssnCreed").width, find("AssnCreed").height), (1680, 1050));
        assert_eq!(find("Heaven").width, 2560);
        assert_eq!(find("Civilization").dx_version, 11);
        assert_eq!(apps.iter().filter(|a| a.dx_version == 10).count(), 5);
        assert_eq!(apps.iter().filter(|a| a.dx_version == 11).count(), 7);
    }

    #[test]
    fn abbrevs_unique() {
        let apps = AppProfile::all();
        let mut names: Vec<_> = apps.iter().map(|a| a.abbrev).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn seeds_unique() {
        let apps = AppProfile::all();
        let mut seeds: Vec<_> = apps.iter().map(|a| a.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
    }

    #[test]
    fn scaling_reduces_dimensions() {
        let app = AppProfile::by_abbrev("BioShock").unwrap();
        assert_eq!(app.scaled_width(Scale::Full), 1920);
        assert_eq!(app.scaled_width(Scale::Half), 960);
        assert_eq!(app.scaled_width(Scale::Tiny), 240);
        assert!(app.scaled_texture_bytes(Scale::Half) < app.scaled_texture_bytes(Scale::Full));
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_name("half"), Some(Scale::Half));
        assert_eq!(Scale::from_name("FULL"), Some(Scale::Full));
        assert_eq!(Scale::from_name("huge"), None);
    }

    #[test]
    fn probabilities_are_valid() {
        for a in AppProfile::all() {
            for p in [a.rt_to_tex_rate, a.tex_revisit, a.blend_rate, a.stencil_rate] {
                assert!((0.0..=1.0).contains(&p), "{}: {p}", a.abbrev);
            }
            assert!(a.overdraw >= 1.0);
            assert!(a.tex_samples_per_pixel > 0.0);
        }
    }
}
