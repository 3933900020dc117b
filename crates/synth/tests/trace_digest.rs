//! Pins the synthesized LLC traces bit for bit.
//!
//! Each case renders frames and folds every LLC access (`addr`, stream,
//! write) plus the four [`FrameWork`] counters into one FNV-1a digest.
//! Every application and every built-in graph profile is pinned at tiny
//! scale; one full-scale frame covers the paths only large frames reach
//! (the texture-revisit history fills and evicts). The goldens see synthesis only through LLC statistics;
//! these digests move on any change to the generators or to the render-cache
//! filter (`grcache::RenderCaches`, `grcache::LruCache`) that alters a single
//! access, its order, or a counter.

use grsynth::{graph_profile, AppProfile, FrameWork, Frames, Scale, Trace, GRAPH_PROFILES};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Digest of one rendered frame: its accesses in order, then its counters.
fn digest(h: u64, trace: &Trace, work: FrameWork) -> u64 {
    let mut h = trace.iter().fold(h, |h, a| {
        let h = fnv1a(h, &a.addr().to_le_bytes());
        fnv1a(h, &[a.stream().index() as u8, u8::from(a.write())])
    });
    for v in [work.shaded_pixels, work.texel_samples, work.vertices, work.raw_accesses] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    h
}

fn frames_digest(frames: Frames<'_>, count: u32, scale: Scale) -> u64 {
    (0..count).fold(FNV_OFFSET, |h, f| {
        let (trace, work) = frames.render(f, scale);
        digest(h, &trace, work)
    })
}

/// Compares every case before failing, so one run prints all the digests.
fn check(cases: Vec<(String, u64, u64)>) {
    let wrong: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, _)| format!("{label}: {got:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

#[test]
fn app_traces_are_pinned() {
    let expected = [
        ("3DMarkVAGT1", 0x0b7b_624c_9f65_655b),
        ("3DMarkVAGT2", 0xe970_e7a0_7b20_33b5),
        ("AssnCreed", 0xe606_f46e_1601_4c15),
        ("BioShock", 0x4fe8_82d4_7edb_172e),
        ("DMC", 0x1a60_16e0_ad31_269a),
        ("Civilization", 0x63d3_bfe8_727e_82ac),
        ("Dirt", 0x4819_dc58_44c8_519d),
        ("HAWX", 0x1d34_193d_8590_628a),
        ("Heaven", 0x3c72_757e_8176_80fe),
        ("LostPlanet", 0x22fb_6b67_7508_0693),
        ("StalkerCOP", 0xead4_038c_40e9_8d3c),
        ("Unigine", 0x981b_9a8c_bdee_c599),
    ];
    assert_eq!(expected.len(), AppProfile::all().len(), "every application is pinned");
    check(
        expected
            .into_iter()
            .map(|(abbrev, want)| {
                let app = AppProfile::by_abbrev(abbrev).unwrap();
                let got = frames_digest(Frames::from(&app), 2, Scale::Tiny);
                (format!("{abbrev} frames 0-1"), got, want)
            })
            .collect(),
    );
}

/// Full scale is the only scale at which the static-texture revisit
/// history fills and starts evicting its oldest entries.
#[test]
fn full_scale_app_frame_is_pinned() {
    let app = AppProfile::by_abbrev("Civilization").unwrap();
    let got = frames_digest(Frames::from(&app), 1, Scale::Full);
    check(vec![("Civilization full-scale frame 0".into(), got, 0x7075_135f_729c_f8cf)]);
}

#[test]
fn graph_traces_are_pinned() {
    let expected = [
        ("deferred", [0x262f_6752_1903_d5d4, 0xc9e3_8324_b373_3264]),
        ("shadowed", [0xdfcd_75dd_578f_a6e7, 0x778b_f3e4_6e8f_c96c]),
        ("postfx", [0x6dc6_86ab_9768_ed14, 0x361d_2bfc_3342_dcd4]),
        ("indirect", [0xcd3f_ee72_40ce_fe4a, 0x14ae_8ff3_380e_3882]),
        ("cpu-like", [0x9d16_2d11_5f43_4ced, 0xf03d_c65f_f98f_b595]),
    ];
    assert_eq!(expected.len(), GRAPH_PROFILES.len(), "every built-in profile is pinned");
    let mut cases = Vec::new();
    for (name, wants) in expected {
        let profile = graph_profile(name).unwrap();
        for (coherence, want) in [0.2, 0.8].into_iter().zip(wants) {
            let graph = profile.graph_with_coherence(coherence);
            let got = frames_digest(Frames::from(&graph), 2, Scale::Tiny);
            cases.push((format!("{name} coherence {coherence} frames 0-1"), got, want));
        }
    }
    check(cases);
}
