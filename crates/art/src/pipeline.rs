//! The two artifact tiers and the figures that build them.
//!
//! Every artifact is computed in-process from `grbench`. Each
//! normalized-miss figure (1, 11, 12, 14 and the partitioning ablation)
//! is one [`run_workload`] over its baseline and policies; the
//! characterization counters behind Figures 5–9 and 13 share one
//! characterizing run; each Figure 15–17 FPS panel is one timed
//! `run_workload` ([`PerfConfig::run`]), every frame's own memory log
//! going through the DDR3 and GPU interval models on the same exact
//! path the frame-time tests pin. The frame-graph profiles and the cold
//! column of the inter-frame ablation are one [`run_grid`] each; the
//! stream mix (Figure 4) and the other ablations read the shared frame
//! cache directly.
//!
//! Every grid folds its cells in `run_grid`'s one canonical order, so the
//! artifacts are byte-identical at any `GR_THREADS` and with or without
//! the streamed disk tier.

use grbench::figures::{self, PerfConfig};
use grbench::{
    framecache, run_frame_sequence, run_grid, run_workload, ExperimentConfig, GridSource,
    RunOptions, WorkloadResults,
};
use grcache::{CharReport, Llc, LlcConfig, LlcStats};
use grcheck::conform;
use grjson::Json;
use grsynth::{AppProfile, Scale, GRAPH_PROFILES};
use grtrace::{PolicyClass, StreamId, StreamStats};
use gspc::{overhead, registry, Drrip, Gspc};

use crate::artifact::Cell::{self, Count, Fixed, Text};
use crate::artifact::{fixed, markdown_table, Artifact, Table};

/// One pipeline tier: how much of the study to reproduce.
pub struct Tier {
    /// Tier name (also the default output subdirectory).
    pub name: &'static str,
    /// Rendering scale for every replay.
    pub scale: Scale,
    /// Frames per app (clamped per app by the harness).
    pub frames: u32,
    /// Apps covered by the conformance panel section.
    pub conform_apps: usize,
    /// Whether to emit the Figure 16/17 machine panels on top of the
    /// kick-tires set.
    pub full: bool,
}

impl Tier {
    /// The harness configuration of the tier's in-process figures.
    fn config(&self) -> ExperimentConfig {
        ExperimentConfig { scale: self.scale, frames_per_app: Some(self.frames) }
    }

    /// `fields` followed by the tier's scale and frames: the document
    /// fields of an artifact replayed at the tier's workload.
    fn workload(&self, mut fields: Json) -> Json {
        fields.set("scale", self.scale.name()).set("frames", u64::from(self.frames));
        fields
    }
}

/// The kick-tires tier: every figure and table at tiny scale, in seconds.
pub fn kick_tires() -> Tier {
    Tier { name: "kick-tires", scale: Scale::Tiny, frames: 1, conform_apps: 2, full: false }
}

/// The full tier: every app over its captured frames at half scale.
pub fn full() -> Tier {
    Tier { name: "full", scale: Scale::Half, frames: 52, conform_apps: 12, full: true }
}

/// Everything a tier run produces.
pub struct PipelineOutput {
    /// The artifacts, in emission order.
    pub artifacts: Vec<Artifact>,
    /// Whether every conformance section passed.
    pub conformance_pass: bool,
}

/// Builds `tier`'s artifacts, in paper order. Every frame stays resident
/// for the whole tier, since most figures replay the same frames.
pub fn run(tier: &Tier) -> PipelineOutput {
    let _hold = framecache::hold();
    let step = |what: &str| eprintln!("grart: [{}] {what}", tier.name);
    let [fig01, fig11, fig12, fig14, partitioning] = miss_figures();

    let mut artifacts = vec![table1()];
    step(fig01.key);
    artifacts.push(normalized_misses(tier, &fig01));
    step("fig04 and the fig05-09/fig13 characterization");
    artifacts.push(fig04(tier));
    let characterized = characterize(tier);
    artifacts.extend(characterization(tier, &characterized));
    for figure in [&fig11, &fig12] {
        step(figure.key);
        artifacts.push(normalized_misses(tier, figure));
    }
    artifacts.push(fig13(tier, &characterized));
    step(fig14.key);
    artifacts.push(normalized_misses(tier, &fig14));

    let panels: Vec<PerfConfig> =
        if tier.full { figures::all_panels().to_vec() } else { vec![figures::fig15()] };
    for panel in &panels {
        step(panel.key);
        artifacts.push(figure_panel(tier, panel));
    }

    artifacts.push(table6());
    artifacts.push(overhead_report());
    step(partitioning.key);
    artifacts.push(normalized_misses(tier, &partitioning));
    step("inter-frame and sample-density ablations");
    artifacts.push(interframe(tier));
    artifacts.push(sample_density(tier));
    step("frame-graph profiles");
    artifacts.push(profiles(tier));

    step("conformance panel");
    let (conformance, pass) = conformance(tier);
    artifacts.push(conformance);

    PipelineOutput { artifacts, conformance_pass: pass }
}

/// `num / den`, the denominator guarded so an empty cell reads 0, not NaN.
fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Table 1: the workload inventory, straight from the profiles.
fn table1() -> Artifact {
    const TITLE: &str = "Table 1: application workloads";
    let apps = AppProfile::all();
    let mut table = Table::new(TITLE, "abbrev", &["name", "dx", "resolution", "frames"])
        .headings(&["app", "name", "DX", "resolution", "frames"]);
    for app in &apps {
        table.row(
            app.abbrev,
            vec![
                Text(app.name.into()),
                Count(app.dx_version.into()),
                Text(format!("{}x{}", app.width, app.height)),
                Count(app.frames.into()),
            ],
        );
    }
    let total_frames: u64 = apps.iter().map(|a| u64::from(a.frames)).sum();
    table.footer(vec!["ALL".into(), "-".into(), "-".into(), "-".into(), total_frames.to_string()]);

    let (rows, markdown) = table.finish();
    let mut doc = Json::obj();
    doc.set("title", TITLE).set("apps", rows).set("total_frames", total_frames);
    Artifact { name: "table1".into(), doc, markdown }
}

/// A figure of LLC misses normalized to a baseline policy.
struct MissFigure {
    key: &'static str,
    title: &'static str,
    policies: Vec<&'static str>,
    baseline: &'static str,
    llc_mb: u64,
}

/// The Figure 12 policy set: the registry rows in the `fig12` group, in
/// table order (the registry's own tests pin the membership).
fn fig12_policies() -> Vec<&'static str> {
    registry::in_group(registry::GROUP_FIG12).map(|e| e.name).collect()
}

/// Figures 1, 11, 12, 14 and the partitioning ablation. Section 1.1.1
/// of the paper argues that partitioning cannot exploit the
/// inter-stream sharing of graphics data; the ablation measures it.
fn miss_figures() -> [MissFigure; 5] {
    let figure = |key, title, policies: &[&'static str], baseline| MissFigure {
        key,
        title,
        policies: policies.to_vec(),
        baseline,
        llc_mb: 8,
    };
    [
        figure(
            "fig01",
            "Figure 1: LLC misses of NRU and Belady's OPT normalized to two-bit DRRIP",
            &["NRU", "OPT"],
            "DRRIP",
        ),
        figure(
            "fig11",
            "Figure 11: GSPZTC misses normalized to threshold t=16",
            &["GSPZTC(t=2)", "GSPZTC(t=4)", "GSPZTC(t=8)"],
            "GSPZTC(t=16)",
        ),
        figure(
            "fig12",
            "Figure 12: LLC misses normalized to two-bit DRRIP",
            &fig12_policies(),
            "DRRIP",
        ),
        figure(
            "fig14",
            "Figure 14: iso-overhead policies, misses normalized to DRRIP",
            &["LRU", "DRRIP-4", "GS-DRRIP-4", "GSPC"],
            "DRRIP",
        ),
        figure(
            "ablation-partitioning",
            "Ablation: way partitioning vs stream-aware caching, misses normalized to DRRIP",
            &["WayPart", "UCP-lite", "GSPC"],
            "DRRIP",
        ),
    ]
}

/// One normalized-miss figure: one run over the baseline and the
/// figure's policies, and each policy's misses over the baseline's per
/// app and workload-wide.
fn normalized_misses(tier: &Tier, figure: &MissFigure) -> Artifact {
    let mut names = vec![figure.baseline];
    names.extend(figure.policies.iter().filter(|p| **p != figure.baseline));
    let opts = RunOptions { llc_paper_mb: figure.llc_mb, ..RunOptions::from_env(&names) };
    let r = run_workload(&opts, &tier.config());
    let misses =
        |policy: &str| -> Vec<u64> { r.apps.iter().map(|a| r.misses(policy, a)).collect() };
    let baseline = misses(figure.baseline);

    let mut keys: Vec<&str> = r.apps.iter().map(String::as_str).collect();
    keys.push("ALL");
    let mut table = Table::new(figure.title, "policy", &keys).grouped("normalized_misses");
    for policy in &figure.policies {
        let ours = misses(policy);
        let mut cells: Vec<Cell> =
            ours.iter().zip(&baseline).map(|(m, b)| Fixed(ratio(*m, *b), 4)).collect();
        cells.push(Fixed(ratio(ours.iter().sum(), baseline.iter().sum()), 4));
        table.row(policy, cells);
    }

    let mut fields = Json::obj();
    fields.set("baseline", figure.baseline).set("llc_mb", figure.llc_mb);
    table.into_artifact(figure.key, tier.workload(fields))
}

/// Figure 4: each stream's share of the LLC accesses, per app and
/// workload-wide, counted from the synthesized traces.
fn fig04(tier: &Tier) -> Artifact {
    let cfg = tier.config();
    let mut keys = vec!["accesses"];
    keys.extend(StreamId::ALL.iter().map(|s| s.label()));
    let mut table = Table::new("Figure 4: stream-wise distribution of LLC accesses", "app", &keys);
    let row = |table: &mut Table, label: &str, stats: &StreamStats| {
        let shares = StreamId::ALL.iter().map(|s| Fixed(stats.fraction(*s), 4));
        table.row(label, std::iter::once(Count(stats.total())).chain(shares).collect());
    };

    let mut total = StreamStats::new();
    for app in AppProfile::all() {
        let mut stats = StreamStats::new();
        for frame in 0..cfg.frames_for(app.frames) {
            stats.merge(framecache::frame_data(&app, frame, cfg.scale).trace.stats());
        }
        row(&mut table, app.abbrev, &stats);
        total.merge(&stats);
    }
    row(&mut table, "ALL", &total);
    table.into_artifact("fig04", tier.workload(Json::obj()))
}

/// The Figure 5–9 policies: Belady's OPT, two-bit DRRIP and NRU.
const FIG05_POLICIES: [&str; 3] = ["OPT", "DRRIP", "NRU"];

/// The Figure 13 policies: DRRIP and the proposals built on it.
const FIG13_POLICIES: [&str; 6] = ["DRRIP", "GS-DRRIP", "GSPZTC", "GSPZTC+TSE", "GSPC", "GSPC+UCD"];

/// One characterizing run over the union of the Figure 5–9 and
/// Figure 13 policies; it feeds all six figures.
fn characterize(tier: &Tier) -> WorkloadResults {
    let mut policies = FIG05_POLICIES.to_vec();
    policies.extend(FIG13_POLICIES.iter().filter(|p| !FIG05_POLICIES.contains(p)));
    let opts = RunOptions { characterize: true, ..RunOptions::from_env(&policies) };
    run_workload(&opts, &tier.config())
}

/// `policy`'s statistics and characterization counters, summed over
/// every app.
fn merged(r: &WorkloadResults, policy: &str) -> (LlcStats, CharReport) {
    let (mut stats, mut chars) = (LlcStats::new(), CharReport::default());
    for app in &r.apps {
        let agg = r.get(policy, app);
        stats.merge(&agg.stats);
        chars.merge(&agg.chars);
    }
    (stats, chars)
}

/// A table of one row per policy, its cells drawn from the policy's
/// merged counters.
fn per_policy(
    r: &WorkloadResults,
    title: &str,
    policies: &[&str],
    keys: &[&str],
    head: &[&str],
    cells: impl Fn(&LlcStats, &CharReport) -> Vec<Cell>,
) -> Table {
    let mut table = Table::new(title, "policy", keys).headings(head);
    for policy in policies {
        let (stats, chars) = merged(r, policy);
        table.row(policy, cells(&stats, &chars));
    }
    table
}

/// Figures 5–9: hit rates, inter-stream reuse and epoch behaviour under
/// OPT, DRRIP and NRU.
fn characterization(tier: &Tier, r: &WorkloadResults) -> Vec<Artifact> {
    let fig05 = per_policy(
        r,
        "Figure 5: TEX / RT / Z hit rates",
        &FIG05_POLICIES,
        &["tex_hit_rate", "rt_hit_rate", "z_hit_rate"],
        &["policy", "TEX hit", "RT hit", "Z hit"],
        |stats, _| {
            vec![
                Fixed(stats.class_hit_rate(PolicyClass::Tex), 4),
                Fixed(stats.hit_rate(StreamId::RenderTarget), 4),
                Fixed(stats.hit_rate(StreamId::Z), 4),
            ]
        },
    );
    let fig06 = per_policy(
        r,
        "Figure 6: texture reuse classification and RT->TEX consumption",
        &FIG05_POLICIES,
        &["tex_inter_hits", "tex_intra_hits", "tex_inter_fraction", "rt_consumption"],
        &["policy", "inter hits", "intra hits", "inter frac", "RT consumed"],
        |_, chars| {
            vec![
                Count(chars.tex_inter_hits),
                Count(chars.tex_intra_hits),
                Fixed(chars.tex_inter_fraction(), 4),
                Fixed(chars.rt_consumption_rate(), 4),
            ]
        },
    );

    const EPOCHS: [&str; 4] = ["E0", "E1", "E2", "E>=3"];
    let (_, opt) = merged(r, "OPT");
    let mut fig07 = Table::new(
        "Figure 7: texture epochs under Belady's OPT",
        "epoch",
        &["entries", "hits", "hit_share", "death_ratio"],
    );
    let share = opt.tex_epoch_hit_distribution();
    for (k, epoch) in EPOCHS.iter().enumerate() {
        // Death ratios are tracked for E0..E2 only.
        let death = if k < 3 { Fixed(opt.tex_death_ratio(k), 4) } else { Text("-".into()) };
        fig07.row(
            epoch,
            vec![
                Count(opt.tex_epoch_entries[k]),
                Count(opt.tex_hits_from_epoch[k]),
                Fixed(share[k], 4),
                death,
            ],
        );
    }

    let (drrip, _) = merged(r, "DRRIP");
    let mut fig08 = Table::new(
        "Figure 8: fills at the distant RRPV under two-bit DRRIP",
        "class",
        &["fills", "distant_fills", "distant_fraction"],
    );
    for class in [PolicyClass::Rt, PolicyClass::Tex] {
        fig08.row(
            class.label(),
            vec![
                Count(drrip.fills(class)),
                Count(drrip.distant_fills(class)),
                Fixed(drrip.distant_fill_fraction(class), 4),
            ],
        );
    }

    let mut fig09 = Table::new(
        "Figure 9: Z-stream epoch death ratios under Belady's OPT",
        "epoch",
        &["entries", "death_ratio"],
    );
    for (k, epoch) in EPOCHS[..3].iter().enumerate() {
        fig09.row(epoch, vec![Count(opt.z_epoch_entries[k]), Fixed(opt.z_death_ratio(k), 4)]);
    }

    [("fig05", fig05), ("fig06", fig06), ("fig07", fig07), ("fig08", fig08), ("fig09", fig09)]
        .into_iter()
        .map(|(name, table)| table.into_artifact(name, tier.workload(Json::obj())))
        .collect()
}

/// Figure 13: the hit-rate analysis of DRRIP and the proposals.
fn fig13(tier: &Tier, r: &WorkloadResults) -> Artifact {
    per_policy(
        r,
        "Figure 13: hit-rate analysis",
        &FIG13_POLICIES,
        &["tex_hit_rate", "rt_consumption", "rt_hit_rate", "z_hit_rate"],
        &["policy", "TEX hit", "RT->TEX cons", "RT hit", "Z hit"],
        |stats, chars| {
            vec![
                Fixed(stats.class_hit_rate(PolicyClass::Tex), 4),
                Fixed(chars.rt_consumption_rate(), 4),
                Fixed(stats.hit_rate(StreamId::RenderTarget), 4),
                Fixed(stats.hit_rate(StreamId::Z), 4),
            ]
        },
    )
    .into_artifact("fig13", tier.workload(Json::obj()))
}

/// One Figure 15–17 panel: exact per-frame FPS per app, normalized to
/// the panel baseline, plus GSPC's absolute workload FPS and each
/// contender's DRAM traffic (misses plus writebacks) over the
/// baseline's, so an FPS gain can be read against the traffic cut.
fn figure_panel(tier: &Tier, panel: &PerfConfig) -> Artifact {
    let r = panel.run(&tier.config());
    let fps = |policy: &str, apps: &[String]| figures::fps(apps.iter().map(|a| r.get(policy, a)));
    let traffic = |policy: &str| -> u64 {
        r.apps
            .iter()
            .map(|a| &r.get(policy, a).stats)
            .map(|s| s.total_misses() + s.writebacks)
            .sum()
    };

    let contenders: Vec<&str> = figures::perf_contenders().collect();
    let mut table = Table::new(panel.title, "app", &contenders).grouped("normalized_fps");
    let rows = r.apps.iter().map(|a| (a.as_str(), std::slice::from_ref(a)));
    for (label, apps) in rows.chain([("ALL", &r.apps[..])]) {
        let base = fps(figures::PERF_BASELINE, apps);
        table.row(label, contenders.iter().map(|c| Fixed(fps(c, apps) / base, 4)).collect());
    }
    let gspc_fps = fps("GSPC+UCD", &r.apps);
    table.footer(vec!["avg FPS (GSPC+UCD)".into(), fixed(gspc_fps, 1), "-".into(), "-".into()]);

    let mut fields = Json::obj();
    fields.set("baseline", figures::PERF_BASELINE).set("llc_mb", panel.llc_mb);
    let mut artifact = table.into_artifact(panel.key, tier.workload(fields));
    artifact.doc.set("gspc_fps", fixed(gspc_fps, 1));

    let base_traffic = traffic(figures::PERF_BASELINE);
    let mut normalized_traffic = Json::obj();
    let mut shown = Vec::new();
    for contender in &contenders {
        let value = fixed(ratio(traffic(contender), base_traffic), 4);
        shown.push(format!("{contender} {value}"));
        normalized_traffic.set(*contender, value);
    }
    artifact.doc.set("normalized_traffic", normalized_traffic);
    artifact.markdown += &format!(
        "\nDRAM traffic (misses + writebacks) over {}: {}\n",
        figures::PERF_BASELINE,
        shown.join(", ")
    );
    artifact
}

/// Table 6: the evaluated policies, from the registry.
fn table6() -> Artifact {
    let mut table = Table::new("Table 6: evaluated policies", "policy", &["description"]);
    for entry in registry::ALL_POLICIES {
        table.row(entry.name, vec![Text(entry.description.into())]);
    }
    table.into_artifact("table6", Json::obj())
}

/// Section 4: GSPC's storage overhead beyond two-bit DRRIP, on the
/// paper's native 8 MB LLC whatever the tier's scale.
fn overhead_report() -> Artifact {
    let llc = LlcConfig::mb(8);
    let o = overhead::measure(&Gspc::new(&llc), &llc, overhead::gspc_counter_bits(&llc));
    let mut table =
        Table::new("Section 4: hardware overhead on the native 8 MB LLC", "metric", &["value"]);
    table.row("extra_state_bits_per_block", vec![Count(o.extra_state_bits_per_block.into())]);
    table.row("extra_block_bits", vec![Count(o.extra_block_bits)]);
    table.row("counter_bits", vec![Count(o.counter_bits)]);
    table.row("fraction_of_data_array", vec![Fixed(o.fraction_of_data_array, 6)]);
    let mut fields = Json::obj();
    fields.set("policy", o.policy).set("llc_mb", 8u64);
    table.into_artifact("overhead", fields)
}

/// Frames per sequence in the inter-frame ablation. A one-frame
/// sequence has no inter-frame reuse to measure, so this length does
/// not follow the tier's frame count.
const SEQUENCE_FRAMES: u32 = 3;

/// Ablation: misses over a frame sequence replayed through one
/// persistent LLC (warm) against a fresh LLC per frame (cold, the
/// paper's methodology), on the first four apps.
fn interframe(tier: &Tier) -> Artifact {
    const POLICIES: [&str; 2] = ["DRRIP", "GSPC+UCD"];
    let (cfg, opts) = (tier.config(), RunOptions::from_env(&POLICIES));
    let apps = &AppProfile::all()[..4];
    let sequence_len = |app: &AppProfile| app.frames.min(SEQUENCE_FRAMES);
    let workloads: Vec<_> = apps
        .iter()
        .map(|app| (app.abbrev, GridSource::Frames(app.into(), sequence_len(app))))
        .collect();
    let cold = run_grid(&workloads, &opts, &cfg);
    let mut table = Table::new(
        "Ablation: inter-frame reuse (one LLC across a frame sequence)",
        "policy",
        &["app", "frames", "cold_misses", "warm_misses", "saved"],
    );
    let mut row = |policy: &str, app: &str, frames: u32, cold: u64, warm: u64| {
        let cells = vec![
            Text(app.into()),
            Count(frames.into()),
            Count(cold),
            Count(warm),
            Fixed(1.0 - ratio(warm, cold), 4),
        ];
        table.row(policy, cells);
    };
    for policy in POLICIES {
        let (mut frames_total, mut cold_total, mut warm_total) = (0, 0, 0);
        for app in apps {
            let frames = sequence_len(app);
            let warm = run_frame_sequence(policy, app, 0..frames, &opts, &cfg);
            let warm = warm.last().map_or(0, LlcStats::total_misses);
            let cold = cold.misses(policy, app.abbrev);
            row(policy, app.abbrev, frames, cold, warm);
            (frames_total, cold_total, warm_total) =
                (frames_total + frames, cold_total + cold, warm_total + warm);
        }
        row(policy, "ALL", frames_total, cold_total, warm_total);
    }
    let mut fields = Json::obj();
    fields.set("llc_mb", 8u64).set("scale", tier.scale.name());
    table.into_artifact("ablation-interframe", fields)
}

/// Ablation: GSPC's misses over two-bit DRRIP's as the density of
/// GSPC's sample sets varies, on the first frame of every app.
fn sample_density(tier: &Tier) -> Artifact {
    fn replay_misses<P: grcache::Policy>(mut llc: Llc<P>, trace: &grtrace::Trace) -> u64 {
        llc.run_source(&mut trace.source()).expect("in-memory replay");
        llc.stats().total_misses()
    }
    let cfg = tier.config();
    let mut table = Table::new(
        "Ablation: GSPC sample-set density (sample sets per 1024)",
        "density",
        &["sample_period", "gspc_misses", "drrip_misses", "normalized"],
    );
    for period in [128usize, 64, 32] {
        let llc = LlcConfig { sample_period: period, ..cfg.llc(8) };
        let (mut gspc, mut drrip) = (0, 0);
        for app in AppProfile::all() {
            let trace = &framecache::frame_data(&app, 0, cfg.scale).trace;
            gspc += replay_misses(Llc::new(llc, Gspc::new(&llc)), trace);
            drrip += replay_misses(Llc::new(llc, Drrip::new(2)), trace);
        }
        let cells =
            vec![Count(period as u64), Count(gspc), Count(drrip), Fixed(ratio(gspc, drrip), 4)];
        table.row(&format!("{}/1024", 1024 / period), cells);
    }
    let mut fields = Json::obj();
    fields.set("llc_mb", 8u64).set("scale", tier.scale.name()).set("frames", 1u64);
    table.into_artifact("ablation-sample-density", fields)
}

/// Frame-graph profiles: DRRIP vs GSPC hit rates per built-in profile,
/// each at its default coherence over the tier's frames.
fn profiles(tier: &Tier) -> Artifact {
    const POLICIES: [&str; 2] = ["DRRIP", "GSPC"];
    let (cfg, opts) = (tier.config(), RunOptions::from_env(&POLICIES));
    let keys = POLICIES.map(|policy| format!("{policy}_hit_rate"));
    let mut table = Table::new("Frame-graph profiles: overall hit rates", "profile", &keys)
        .headings(&["profile", "DRRIP", "GSPC"]);
    let graphs: Vec<_> = GRAPH_PROFILES.iter().map(|profile| profile.graph()).collect();
    let workloads: Vec<_> = GRAPH_PROFILES
        .iter()
        .zip(&graphs)
        .map(|(profile, graph)| {
            (profile.name, GridSource::Frames(graph.into(), cfg.frames_for(profile.frames)))
        })
        .collect();
    let r = run_grid(&workloads, &opts, &cfg);
    for profile in GRAPH_PROFILES {
        let row = POLICIES.map(|policy| {
            let stats = &r.get(policy, profile.name).stats;
            Fixed(ratio(stats.total_hits(), stats.total_accesses()), 4)
        });
        table.row(profile.name, row.into());
    }
    table.into_artifact("profiles", tier.workload(Json::obj()))
}

/// The conformance panel, profile goldens, and the pinned Figure 15
/// ordering, rendered as one artifact. Sections run at their pinned
/// configurations (tiny scale), regardless of the tier's replay scale.
fn conformance(tier: &Tier) -> (Artifact, bool) {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let sections = [
        ("panel", conform::run(&cfg, tier.conform_apps, 8)),
        ("profiles", conform::run_profiles(8)),
        ("figure_ordering", conform::run_figure_ordering()),
    ];

    let mut pass = true;
    let mut sections_json = Json::obj();
    let mut rows_md = Vec::new();
    for (name, report) in &sections {
        pass &= report.is_pass();
        let mut section = Json::obj();
        section
            .set("checks", report.checks)
            .set(
                "failures",
                Json::Arr(report.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            )
            .set("pass", report.is_pass());
        sections_json.set(*name, section);
        rows_md.push(vec![
            (*name).to_string(),
            report.checks.to_string(),
            report.failures.len().to_string(),
            if report.is_pass() { "pass".into() } else { "FAIL".into() },
        ]);
    }

    let mut doc = Json::obj();
    doc.set("title", "Conformance panel").set("sections", sections_json).set("pass", pass);
    let markdown = markdown_table(
        "Conformance panel",
        &["section", "checks", "failures", "verdict"],
        &rows_md,
    );
    (Artifact { name: "conformance".into(), doc, markdown }, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_pinned() {
        let kick = kick_tires();
        assert_eq!(kick.scale, Scale::Tiny);
        assert_eq!(kick.frames, 1);
        assert!(!kick.full);
        let full = full();
        assert_eq!(full.frames, 52);
        assert!(full.full);
    }

    #[test]
    fn table1_matches_the_profiles() {
        let artifact = table1();
        let apps = artifact.doc.get("apps").expect("apps array");
        let Json::Arr(rows) = apps else { panic!("apps must be an array") };
        assert_eq!(rows.len(), 12);
        assert_eq!(
            artifact.doc.get("total_frames"),
            Some(&Json::UInt(52)),
            "Table 1 frame counts sum to 52"
        );
        assert!(artifact.markdown.contains("| ALL |"));
    }
}
