//! Job execution: turning a canonical [`JobSpec`] into its result payload.
//!
//! This is the one function both the daemon's worker pool and `grload`'s
//! offline verification call, so "service result == direct run" is
//! bit-for-bit checkable: same [`grbench::simulate_cell`] replay path,
//! same canonical (policy, app) aggregation order, same [`grjson`]
//! serialization. The payload deliberately carries **no wall-clock
//! fields** — every byte is a pure function of the spec, which is what
//! makes content-addressed caching sound.

use grbench::{simulate_cell, simulate_trace_cell, RunOptions};
use grcache::{CharReport, LlcStats};
use grjson::Json;
use grsynth::{AppProfile, Frames};
use grtrace::{PolicyClass, StreamId};

use crate::spec::JobSpec;

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
/// daemon snapshots these once at startup via [`RunOptions::from_env`].
pub fn execute(spec: &JobSpec, base: &RunOptions) -> JobOutput {
    let cfg = spec.config();
    let opts = RunOptions {
        policies: Vec::new(),
        characterize: spec.characterize,
        timing: None,
        llc_paper_mb: spec.llc_mb,
        ..base.clone()
    };

    let mut accesses = 0u64;
    let mut replay_seconds = 0.0f64;
    let mut per_policy = Json::obj();
    if let Some(trace_ref) = &spec.trace {
        // Imported `.gtrace` workload: one frame, replayed per policy.
        // The canonical id covers the *content digest*, so re-verify it —
        // serving results for bytes that changed since submission would
        // poison the content-addressed cache.
        let bytes = std::fs::read(&trace_ref.path).expect("trace file readable at execute time");
        assert_eq!(
            crate::hash::sha256_hex(&bytes),
            trace_ref.digest,
            "trace file {} changed between submit and execute",
            trace_ref.path
        );
        let trace = grtrace::import(&bytes[..]).expect("trace was validated at parse time");
        for policy in &spec.policies {
            let cell = simulate_trace_cell(policy, &trace, &opts, &cfg);
            accesses += cell.accesses;
            replay_seconds += cell.replay_seconds;
            let mut stats = LlcStats::new();
            stats.merge(&cell.stats);
            let mut chars = CharReport::default();
            if let Some(c) = &cell.chars {
                chars.merge(c);
            }
            let mut workload_obj = Json::obj();
            let entry = stats_entry(&stats, &chars, 1, spec.characterize);
            workload_obj.set(trace_ref.app.clone(), entry);
            per_policy.set(policy.clone(), workload_obj);
        }
    } else {
        // Application grid or frame-graph profile: one per-frame
        // aggregation over (label, frames, frame count), keyed by the app
        // abbreviation or the profile name.
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
        let workloads: Vec<(&str, Frames<'_>, u32)> = match &graph {
            Some((name, graph, nframes)) => vec![(*name, graph.into(), *nframes)],
            None => apps.iter().map(|app| (app.abbrev, app.into(), app.frames)).collect(),
        };
        for policy in &spec.policies {
            let mut workload_obj = Json::obj();
            for &(label, frames, nframes) in &workloads {
                let mut stats = LlcStats::new();
                let mut chars = CharReport::default();
                let mut count = 0u64;
                for frame in 0..cfg.frames_for(nframes) {
                    let cell = simulate_cell(policy, frames, frame, &opts, &cfg);
                    stats.merge(&cell.stats);
                    if let Some(c) = &cell.chars {
                        chars.merge(c);
                    }
                    count += 1;
                    accesses += cell.accesses;
                    replay_seconds += cell.replay_seconds;
                }
                let entry = stats_entry(&stats, &chars, count, spec.characterize);
                workload_obj.set(label, entry);
            }
            per_policy.set(policy.clone(), workload_obj);
        }
    }

    let mut doc = Json::obj();
    doc.set("id", spec.id()).set("spec", spec.canonical_json()).set("results", per_policy);

    JobOutput { payload: doc.to_string_pretty(), accesses, replay_seconds }
}

/// The per-workload result entry every workload kind shares, so payload
/// consumers see one shape regardless of where the accesses came from:
/// the LLC counters summed over `frames` frames.
fn stats_entry(stats: &LlcStats, chars: &CharReport, frames: u64, characterize: bool) -> Json {
    let mut entry = Json::obj();
    entry
        .set("frames", frames)
        .set("accesses", stats.total_accesses())
        .set("hits", stats.total_hits())
        .set("misses", stats.total_misses())
        .set("writebacks", stats.writebacks)
        .set("tex_hit_rate", stats.class_hit_rate(PolicyClass::Tex))
        .set("rt_hit_rate", stats.hit_rate(StreamId::RenderTarget))
        .set("z_hit_rate", stats.hit_rate(StreamId::Z));
    if characterize {
        entry.set("rt_consumption", chars.rt_consumption_rate());
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A trace job replays the imported bytes and keys the result by the
    /// app name recorded in the trace header; two executions are
    /// byte-identical.
    #[test]
    fn trace_payload_is_deterministic_and_matches_direct_replay() {
        let dir = std::env::temp_dir().join("grserve-job-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("job.gtrace");
        let graph = grsynth::graph_profile("cpu-like").unwrap().graph();
        let trace = grsynth::GraphRenderer::new(&graph, 0, grsynth::Scale::Tiny).render();
        let file = std::fs::File::create(&path).expect("create trace file");
        let mut writer = std::io::BufWriter::new(file);
        grtrace::io::write(&mut writer, &trace).expect("write trace");
        std::io::Write::flush(&mut writer).expect("flush trace");

        let s =
            spec(&format!(r#"{{"policies": ["DRRIP"], "trace": {:?}}}"#, path.to_str().unwrap()));
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
}
