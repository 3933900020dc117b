//! Job execution: turning a canonical [`JobSpec`] into its result payload.
//!
//! This is the one function both the daemon's worker pool and the offline
//! side of `crates/serve/tests/daemon.rs` call, so "service result ==
//! direct run" is bit-for-bit checkable: every job is one
//! [`grbench::run_grid`] — the same replay path and (policy, workload,
//! frame) fold order as the offline tools — serialized by the same
//! [`grjson`] code, whatever the thread count. The payload deliberately carries **no wall-clock
//! fields** — every byte is a pure function of the spec, which is what
//! makes content-addressed caching sound.

use std::sync::OnceLock;

use grbench::{framecache, run_grid, AppAgg, GridSource, RunOptions};
use grjson::Json;
use grsynth::AppProfile;
use grtrace::{PolicyClass, StreamId, Trace};

use crate::spec::{JobSpec, TraceRef};

/// The frame bytes (see [`grbench::framecache::FrameData::bytes`]) the
/// serving path keeps resident between jobs: 32 MiB. A daemon's hot set is
/// the Table 1 app frames it replays under new policies and capacities;
/// at its default quarter scale the twelve frame-0 traces take about
/// 18 MB, so they fit with room for the frame graphs of the jobs in
/// flight. In a scratch sweep of the budget on `serve-mixed` (30 s runs),
/// 16 MiB evicted the app frames between replays (replay p50 35 ms
/// against 23 ms), while 48 and 64 MiB only raised peak RSS.
pub const FRAME_CACHE_BUDGET: u64 = 32 << 20;

/// The result of executing one job.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The JSON payload served back to clients and stored in the result
    /// cache. Deterministic for a given spec.
    pub payload: String,
    /// LLC accesses replayed while producing the payload (metrics fodder;
    /// not part of the payload).
    pub accesses: u64,
    /// Seconds spent inside replay loops (metrics fodder).
    pub replay_seconds: f64,
}

/// Executes `spec` and builds its payload. `base` supplies the execution
/// knobs the spec does not own (threads, streamed/boxed/check) — the
/// daemon snapshots these once at startup.
///
/// The spec's workloads — its apps, its frame-graph profile, or its
/// imported trace — go through one [`grbench::run_grid`] over the spec's
/// policies on `base.threads` workers, and the aggregates are serialized
/// per policy, then per workload, so the payload is byte-identical at any
/// thread count.
///
/// The first call takes a [`framecache::Hold`] within
/// [`FRAME_CACHE_BUDGET`] for the rest of the process: jobs replay the
/// same app frames under new policies and capacities, so the most recently
/// used frames stay resident for later jobs, while frames no job has asked
/// for since (a frame graph at a coherence nobody resubmits) are freed
/// once newer ones fill the budget.
///
/// # Errors
///
/// A trace job whose `.gtrace` file no longer holds the bytes the spec's
/// digest names (rewritten, truncated or deleted since submission) fails
/// with "trace file … changed between submit and execute".
pub fn try_execute(spec: &JobSpec, base: &RunOptions) -> Result<JobOutput, String> {
    static HOLD: OnceLock<framecache::Hold> = OnceLock::new();
    HOLD.get_or_init(|| framecache::hold_within(FRAME_CACHE_BUDGET));
    let cfg = spec.config();
    let opts = RunOptions {
        policies: spec.policies.clone(),
        characterize: spec.characterize,
        timing: None,
        llc_paper_mb: spec.llc_mb,
        ..base.clone()
    };

    let trace = spec.trace.as_ref().map(load_trace).transpose()?;
    let apps: Vec<AppProfile> = spec
        .apps
        .iter()
        .map(|a| AppProfile::by_abbrev(a).expect("spec apps were validated"))
        .collect();
    let graph = spec.profile.as_deref().map(|name| {
        let profile = grsynth::graph_profile(name).expect("spec profile was validated");
        let coherence = spec.coherence_milli.unwrap_or(1000) as f64 / 1000.0;
        (name, profile.graph_with_coherence(coherence), profile.frames)
    });
    // Imported traces are keyed by the app name in their header, profiles
    // by profile name, apps by abbreviation.
    let workloads: Vec<(&str, GridSource<'_>)> = match (&trace, &graph) {
        (Some(trace), _) => vec![(trace.app(), GridSource::Trace(trace))],
        (None, Some((name, graph, nframes))) => {
            vec![(*name, GridSource::Frames(graph.into(), cfg.frames_for(*nframes)))]
        }
        (None, None) => apps
            .iter()
            .map(|app| (app.abbrev, GridSource::Frames(app.into(), cfg.frames_for(app.frames))))
            .collect(),
    };
    let r = run_grid(&workloads, &opts, &cfg);

    let mut per_policy = Json::obj();
    for (pi, policy) in r.policies.iter().enumerate() {
        let mut workload_obj = Json::obj();
        for (wi, label) in r.apps.iter().enumerate() {
            let entry = stats_entry(r.get_indexed(pi, wi), spec.characterize);
            workload_obj.set(label.clone(), entry);
        }
        per_policy.set(policy.clone(), workload_obj);
    }

    let mut doc = Json::obj();
    doc.set("id", spec.id()).set("spec", spec.canonical_json()).set("results", per_policy);

    let (accesses, replay_seconds) = (r.perf.llc_accesses, r.perf.replay_seconds);
    Ok(JobOutput { payload: doc.to_string_pretty(), accesses, replay_seconds })
}

/// [`try_execute`] for callers that treat a failed job as a bug: offline
/// verification and benchmarks, whose specs name no file that can change.
///
/// # Panics
///
/// Panics with the error [`try_execute`] returns.
pub fn execute(spec: &JobSpec, base: &RunOptions) -> JobOutput {
    try_execute(spec, base).unwrap_or_else(|e| panic!("{e}"))
}

/// Reads and decodes a trace job's `.gtrace` file. The canonical id covers
/// the *content digest*, so the bytes are re-verified here: serving
/// results for bytes that changed since submission would poison the
/// content-addressed cache.
fn load_trace(trace_ref: &TraceRef) -> Result<Trace, String> {
    let changed = || format!("trace file {} changed between submit and execute", trace_ref.path);
    let bytes = std::fs::read(&trace_ref.path).map_err(|_| changed())?;
    if crate::hash::sha256_hex(&bytes) != trace_ref.digest {
        return Err(changed());
    }
    grtrace::import(&bytes[..]).map_err(|_| changed())
}

/// The per-workload result entry every workload kind shares, so payload
/// consumers see one shape regardless of where the accesses came from:
/// the LLC counters summed over the aggregate's frames.
fn stats_entry(agg: &AppAgg, characterize: bool) -> Json {
    let stats = &agg.stats;
    let mut entry = Json::obj();
    entry
        .set("frames", u64::from(agg.frames))
        .set("accesses", stats.total_accesses())
        .set("hits", stats.total_hits())
        .set("misses", stats.total_misses())
        .set("writebacks", stats.writebacks)
        .set("tex_hit_rate", stats.class_hit_rate(PolicyClass::Tex))
        .set("rt_hit_rate", stats.hit_rate(StreamId::RenderTarget))
        .set("z_hit_rate", stats.hit_rate(StreamId::Z));
    if characterize {
        entry.set("rt_consumption", agg.chars.rt_consumption_rate());
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use grbench::{simulate_cell, simulate_trace_cell};
    use grcache::LlcStats;
    use grsynth::Scale;

    fn spec(body: &str) -> JobSpec {
        JobSpec::parse(body, Scale::Tiny).expect("valid spec")
    }

    /// The keystone property of the result cache: payloads are a pure
    /// function of the spec — two executions yield identical bytes.
    #[test]
    fn payload_is_deterministic() {
        let s = spec(r#"{"policies": ["NRU"], "apps": ["HAWX"]}"#);
        let base = RunOptions::from_env(&[]);
        let a = execute(&s, &base);
        let b = execute(&s, &base);
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.accesses, b.accesses);
        assert!(a.accesses > 0);
    }

    /// Two-bit DRRIP, the first Belady-annotated registry policy and the
    /// first parameterized fuzz spelling: one policy of each replay shape,
    /// drawn from the registry instead of spelled out.
    fn covered_policies() -> [&'static str; 3] {
        let annotated = gspc::registry::ALL_POLICIES
            .iter()
            .find(|e| e.needs_next_use())
            .expect("the registry has an annotated policy");
        ["DRRIP", annotated.name, gspc::registry::PARAMETERIZED[0].fuzz_spellings[0]]
    }

    /// A spec body over `policies` plus the `extra` fields.
    fn body(policies: &[&str], extra: &[(&str, Json)]) -> String {
        let mut doc = Json::obj();
        doc.set("policies", Json::Arr(policies.iter().map(|p| Json::from(*p)).collect()));
        for (key, value) in extra {
            doc.set(*key, value.clone());
        }
        doc.to_string_pretty()
    }

    /// The payload entry for `policy` on `workload`.
    fn entry<'d>(doc: &'d Json, policy: &str, workload: &str) -> &'d Json {
        doc.get("results")
            .and_then(|p| p.get(policy))
            .and_then(|p| p.get(workload))
            .unwrap_or_else(|| panic!("payload entry {policy}/{workload}"))
    }

    /// The entry's exact counters equal `stats`'.
    fn assert_counts(entry: &Json, stats: &LlcStats, what: &str) {
        let want = [
            ("misses", stats.total_misses()),
            ("hits", stats.total_hits()),
            ("accesses", stats.total_accesses()),
        ];
        for (key, value) in want {
            assert_eq!(entry.get(key), Some(&Json::UInt(value)), "{what}: {key}");
        }
    }

    /// The payload must agree with the offline `run_workload` aggregation
    /// path cell for cell, on every app and every replay shape.
    #[test]
    fn payload_matches_run_workload() {
        let policies = covered_policies();
        let s = spec(&body(&policies, &[("characterize", Json::Bool(true))]));
        assert_eq!(s.apps.len(), 12, "an omitted app list means every app");
        let out = execute(&s, &RunOptions::from_env(&[]));
        let doc = Json::parse(&out.payload).unwrap();

        let opts = RunOptions { characterize: true, ..RunOptions::from_env(&policies) };
        let r = grbench::run_workload(&opts, &s.config());
        for policy in policies {
            for app in &r.apps {
                let (agg, entry) = (r.get(policy, app), entry(&doc, policy, app));
                assert_counts(entry, &agg.stats, &format!("{policy}/{app}"));
                assert_eq!(
                    entry.get("rt_consumption").and_then(Json::as_f64),
                    Some(agg.chars.rt_consumption_rate())
                );
            }
        }
    }

    /// A profile job at its default coherence must agree cell for cell
    /// with the direct `simulate_cell` replay of the profile's graph.
    #[test]
    fn profile_payload_matches_direct_graph_replay() {
        let policies = covered_policies();
        let s = spec(&body(&policies, &[("profile", "postfx".into()), ("frames", 2u64.into())]));
        let out = execute(&s, &RunOptions::from_env(&[]));
        let doc = Json::parse(&out.payload).unwrap();

        let profile = grsynth::graph_profile("postfx").unwrap();
        let (graph, cfg, opts) = (profile.graph(), s.config(), RunOptions::from_env(&[]));
        for policy in policies {
            let mut stats = LlcStats::new();
            for frame in 0..cfg.frames_for(profile.frames) {
                stats.merge(&simulate_cell(policy, &graph, frame, &opts, &cfg).stats);
            }
            assert_counts(entry(&doc, policy, "postfx"), &stats, policy);
        }
    }

    /// Writes frame `frame` of the `cpu-like` profile at tiny scale to
    /// `name` in a test temp dir; returns the path and the trace.
    fn write_trace(name: &str, frame: u32) -> (std::path::PathBuf, Trace) {
        let dir = std::env::temp_dir().join("grserve-job-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(name);
        let graph = grsynth::graph_profile("cpu-like").unwrap().graph();
        let trace = grsynth::Frames::from(&graph).render(frame, grsynth::Scale::Tiny).0;
        let file = std::fs::File::create(&path).expect("create trace file");
        let mut writer = std::io::BufWriter::new(file);
        grtrace::io::write(&mut writer, &trace).expect("write trace");
        std::io::Write::flush(&mut writer).expect("flush trace");
        (path, trace)
    }

    /// A trace job spec over `policies` replaying the file at `path`.
    fn trace_spec(policies: &[&str], path: &std::path::Path) -> JobSpec {
        spec(&body(policies, &[("trace", path.to_str().unwrap().into())]))
    }

    /// A trace job replays the imported bytes and keys the result by the
    /// app name recorded in the trace header; two executions are
    /// byte-identical.
    #[test]
    fn trace_payload_is_deterministic_and_matches_direct_replay() {
        let (path, trace) = write_trace("job.gtrace", 0);
        let s = trace_spec(&["DRRIP"], &path);
        let base = RunOptions::from_env(&[]);
        let a = execute(&s, &base);
        let b = execute(&s, &base);
        assert_eq!(a.payload, b.payload, "trace payloads must be deterministic");

        let cell = simulate_trace_cell("DRRIP", &trace, &base, &s.config());
        let doc = Json::parse(&a.payload).unwrap();
        let entry = doc
            .get("results")
            .and_then(|p| p.get("DRRIP"))
            .and_then(|p| p.get("cpu-like"))
            .expect("payload entry keyed by trace app");
        assert_eq!(
            entry.get("misses").and_then(Json::as_f64),
            Some(cell.stats.total_misses() as f64)
        );
    }

    /// `characterize: false` keeps the observer detached and the field out
    /// of the payload.
    #[test]
    fn characterization_is_opt_in() {
        let s = spec(r#"{"policies": ["NRU"], "apps": ["HAWX"]}"#);
        let out = execute(&s, &RunOptions::from_env(&[]));
        let doc = Json::parse(&out.payload).unwrap();
        let entry = doc
            .get("results")
            .and_then(|p| p.get("NRU"))
            .and_then(|p| p.get("HAWX"))
            .expect("payload entry");
        assert!(entry.get("rt_consumption").is_none());
        assert!(entry.get("misses").is_some());
        assert!(entry.get("work").is_none(), "payload entries carry no work counters");
    }

    /// `execute` at `threads: Some(1)` and `Some(4)` must produce the same
    /// bytes: the fan-out returns cells in input order and the fold is
    /// sequential.
    fn assert_thread_invariant(s: &JobSpec, what: &str) {
        let base = RunOptions::from_env(&[]);
        let serial = execute(s, &RunOptions { threads: Some(1), ..base.clone() });
        let fanned = execute(s, &RunOptions { threads: Some(4), ..base });
        assert_eq!(serial.payload, fanned.payload, "{what}: payload depends on threads");
        assert_eq!(serial.accesses, fanned.accesses, "{what}: access count depends on threads");
    }

    /// An app grid over a plain, a Belady-annotated and a parameterized
    /// policy, several apps and two frames each.
    #[test]
    fn app_grid_payload_is_thread_count_invariant() {
        let apps = Json::Arr(["HAWX", "BioShock", "Dirt"].map(Json::from).to_vec());
        let extra = [("apps", apps), ("frames", 2u64.into()), ("characterize", true.into())];
        assert_thread_invariant(&spec(&body(&covered_policies(), &extra)), "app grid");
    }

    #[test]
    fn profile_payload_is_thread_count_invariant() {
        let extra = [("profile", "postfx".into()), ("frames", 2u64.into())];
        assert_thread_invariant(&spec(&body(&covered_policies(), &extra)), "profile");
    }

    #[test]
    fn trace_payload_is_thread_count_invariant() {
        let (path, _) = write_trace("threads.gtrace", 1);
        assert_thread_invariant(&trace_spec(&covered_policies(), &path), "trace");
    }

    /// A `.gtrace` file rewritten after its spec was parsed (the digest in
    /// the id no longer matches) is a typed error, not a panic.
    #[test]
    fn changed_trace_file_is_a_typed_error() {
        let (path, _) = write_trace("changed.gtrace", 0);
        let s = trace_spec(&covered_policies()[..1], &path);
        write_trace("changed.gtrace", 1);
        let err = try_execute(&s, &RunOptions::from_env(&[])).expect_err("digest mismatch");
        let want = format!("trace file {} changed between submit and execute", path.display());
        assert_eq!(err, want);
        std::fs::remove_file(&path).expect("remove trace file");
        let err = try_execute(&s, &RunOptions::from_env(&[])).expect_err("missing file");
        assert_eq!(err, want);
    }
}
