//! Job specifications: request parsing, validation, canonicalization, and
//! content addressing.
//!
//! A job names a slice of the (app, frame, policy) grid plus the LLC
//! geometry to replay it against. Two textually different requests that
//! mean the same slice (reordered apps, duplicate policies, defaulted
//! fields) normalize to one **canonical spec**; the SHA-256 digest of the
//! canonical JSON — covering the resolved app list, frame count, policy
//! list, derived LLC geometry, scale, and observer set — is the job id
//! and the result-cache key. Identical work therefore dedupes across
//! requests, processes, and (through the disk tier) daemon restarts.

use grbench::ExperimentConfig;
use grjson::Json;
use grsynth::{AppProfile, Scale};
use gspc::registry;

use crate::hash;

/// Spec format version, embedded in the canonical encoding so a future
/// payload change invalidates old cache entries instead of serving them.
///
/// v2: result entries gained `frames` and a `work` counter object.
/// v3: the `work` object is gone again; FPS is timed in-process on each
/// frame's memory log, never derived from payload counts.
const SPEC_VERSION: u64 = 3;

/// A validated reference to an external `.gtrace` file workload.
///
/// The *path* is daemon-local and deliberately excluded from the canonical
/// encoding; identity is the content digest plus the header metadata, so
/// two daemons holding the same bytes at different paths coalesce to one
/// job id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRef {
    /// Daemon-local filesystem path the trace is (re)read from.
    pub path: String,
    /// SHA-256 over the file bytes, lowercase hex.
    pub digest: String,
    /// Application name recorded in the trace header.
    pub app: String,
    /// Frame number recorded in the trace header.
    pub frame: u32,
    /// Access count recorded in the trace header.
    pub count: u64,
}

/// A validated, canonicalized job specification.
///
/// A spec names exactly one workload kind: the app grid (`apps`
/// non-empty), a built-in frame-graph profile (`profile` set), or an
/// imported trace (`trace` set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Application abbreviations, deduplicated, in Table 1 order. Empty
    /// for profile and trace workloads.
    pub apps: Vec<String>,
    /// Built-in frame-graph profile name (see
    /// [`grsynth::GRAPH_PROFILES`]), canonical lowercase.
    pub profile: Option<String>,
    /// Inter-frame coherence in per-mille (0..=1000), present iff
    /// `profile` is — defaulted from the profile when the request omits
    /// it, so equal work always hashes equal.
    pub coherence_milli: Option<u64>,
    /// External `.gtrace` workload, validated at parse time.
    pub trace: Option<TraceRef>,
    /// Frames per application (each app clamped to its captured count).
    pub frames: u32,
    /// Policy registry names, deduplicated, in request order.
    pub policies: Vec<String>,
    /// LLC capacity in paper-equivalent megabytes.
    pub llc_mb: u64,
    /// Rendering scale (shrinks the LLC by the square of the divisor, as
    /// everywhere else in the harness).
    pub scale: Scale,
    /// Attach the characterization observer and include its report.
    pub characterize: bool,
}

impl JobSpec {
    /// Parses and validates a `POST /v1/jobs` body. `default_scale` fills
    /// a missing `"scale"` field (the daemon passes its startup scale).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field; the server
    /// returns it in a 400 body.
    pub fn parse(body: &str, default_scale: Scale) -> Result<JobSpec, String> {
        let doc = Json::parse(body).map_err(|e| format!("body is not valid JSON: {e}"))?;
        let entries = doc.entries().ok_or("job spec must be a JSON object")?;

        for (key, _) in entries {
            if !matches!(
                key.as_str(),
                "apps"
                    | "frames"
                    | "policies"
                    | "llc_mb"
                    | "scale"
                    | "characterize"
                    | "profile"
                    | "coherence"
                    | "trace"
            ) {
                return Err(format!("unknown field {key:?}"));
            }
        }

        // Exactly one workload kind per spec: the app grid (default), a
        // frame-graph profile, or an imported trace.
        if doc.get("profile").is_some() && doc.get("apps").is_some() {
            return Err("profile and apps are mutually exclusive".into());
        }
        if doc.get("trace").is_some() {
            for conflicting in ["apps", "profile", "coherence", "frames"] {
                if doc.get(conflicting).is_some() {
                    return Err(format!("trace and {conflicting} are mutually exclusive"));
                }
            }
        }
        if doc.get("coherence").is_some() && doc.get("profile").is_none() {
            return Err("coherence requires a profile".into());
        }

        let policies = match doc.get("policies") {
            Some(Json::Arr(items)) if !items.is_empty() => {
                let mut out: Vec<String> = Vec::new();
                for item in items {
                    let name = item.as_str().ok_or("policies entries must be strings")?;
                    // One parse path for every layer: a spelling is valid
                    // here iff the registry resolves it (table names,
                    // aliases, and parameterized forms alike).
                    if registry::resolve(name).is_none() {
                        return Err(format!("unknown policy {name:?}; see GET /v1/policies"));
                    }
                    if !out.iter().any(|p| p == name) {
                        out.push(name.to_string());
                    }
                }
                out
            }
            Some(_) => return Err("policies must be a non-empty array".into()),
            None => return Err("missing required field \"policies\"".into()),
        };

        let profile = match doc.get("profile") {
            None => None,
            Some(Json::Str(s)) => Some(
                grsynth::graph_profile(s)
                    .ok_or_else(|| format!("unknown profile {s:?}; see GET /v1/profiles"))?,
            ),
            Some(_) => return Err("profile must be a string".into()),
        };

        let coherence_milli = match (&profile, doc.get("coherence")) {
            (None, _) => None,
            // Defaulting from the profile (rather than leaving the field
            // absent) keeps the id a pure function of the work: an
            // explicit request at the default coherence and an implicit
            // one hash identically.
            (Some(p), None) => Some((p.default_coherence.clamp(0.0, 1.0) * 1000.0).round() as u64),
            (Some(_), Some(j)) => {
                let c = j.as_f64().ok_or("coherence must be a number in 0..=1")?;
                if !(0.0..=1.0).contains(&c) {
                    return Err("coherence must be a number in 0..=1".into());
                }
                Some((c * 1000.0).round() as u64)
            }
        };

        let trace = match doc.get("trace") {
            None => None,
            Some(Json::Str(path)) => {
                let bytes =
                    std::fs::read(path).map_err(|e| format!("cannot read trace {path:?}: {e}"))?;
                // Every import check, without building the trace: the
                // worker imports the file again when it runs the job.
                let header = grtrace::validate(&bytes[..])
                    .map_err(|e| format!("cannot import trace {path:?}: {e}"))?;
                Some(TraceRef {
                    path: path.clone(),
                    digest: hash::sha256_hex(&bytes),
                    app: header.app,
                    frame: header.frame,
                    count: header.count,
                })
            }
            Some(_) => return Err("trace must be a string path".into()),
        };

        let all_apps = AppProfile::all();
        let apps = if profile.is_some() || trace.is_some() {
            Vec::new()
        } else {
            match doc.get("apps") {
                None => all_apps.iter().map(|a| a.abbrev.to_string()).collect(),
                Some(Json::Arr(items)) if items.is_empty() => {
                    all_apps.iter().map(|a| a.abbrev.to_string()).collect()
                }
                Some(Json::Arr(items)) => {
                    let mut requested = Vec::new();
                    for item in items {
                        let name = item.as_str().ok_or("apps entries must be strings")?;
                        if AppProfile::by_abbrev(name).is_none() {
                            return Err(format!("unknown app {name:?}; see GET /v1/apps"));
                        }
                        requested.push(name);
                    }
                    // Canonical order is Table 1 order, regardless of request
                    // order — reordered requests hash identically.
                    all_apps
                        .iter()
                        .filter(|a| requested.contains(&a.abbrev))
                        .map(|a| a.abbrev.to_string())
                        .collect()
                }
                Some(_) => return Err("apps must be an array of abbreviations".into()),
            }
        };

        let frames = match doc.get("frames") {
            None => 1,
            Some(Json::UInt(n @ 1..=52)) => *n as u32,
            Some(_) => return Err("frames must be an integer in 1..=52".into()),
        };

        let llc_mb = match doc.get("llc_mb") {
            None => 8,
            Some(Json::UInt(n @ 1..=64)) => *n,
            Some(_) => return Err("llc_mb must be an integer in 1..=64".into()),
        };

        let scale = match doc.get("scale") {
            None => default_scale,
            Some(Json::Str(s)) => Scale::from_name(s)
                .ok_or_else(|| format!("unknown scale {s:?} (full|half|quarter|tiny)"))?,
            Some(_) => return Err("scale must be a string".into()),
        };
        // The LLC shrinks with the scale, and a capacity whose derived set
        // count is not a power of two would replay a smaller cache.
        let llc = ExperimentConfig { scale, frames_per_app: None }.llc(llc_mb);
        if let Err(e) = llc.validate() {
            return Err(format!(
                "llc_mb {llc_mb} at scale {} gives an LLC with {} sets per bank: {e}",
                scale.name(),
                llc.sets_per_bank()
            ));
        }

        let characterize = match doc.get("characterize") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("characterize must be a boolean".into()),
        };

        Ok(JobSpec {
            apps,
            profile: profile.map(|p| p.name.to_string()),
            coherence_milli,
            trace,
            frames,
            policies,
            llc_mb,
            scale,
            characterize,
        })
    }

    /// The experiment configuration this spec runs under.
    pub fn config(&self) -> ExperimentConfig {
        ExperimentConfig { scale: self.scale, frames_per_app: Some(self.frames) }
    }

    /// The canonical JSON encoding — the content that is addressed.
    ///
    /// Includes the *derived* LLC geometry, not just `llc_mb`: if the
    /// scale→geometry rule ever changes, every cache key changes with it
    /// and stale results can never be served.
    pub fn canonical_json(&self) -> Json {
        let llc = self.config().llc(self.llc_mb);
        let mut geometry = Json::obj();
        geometry
            .set("size_bytes", llc.size_bytes)
            .set("ways", llc.ways as u64)
            .set("banks", llc.banks as u64)
            .set("sample_period", llc.sample_period as u64);
        let mut doc = Json::obj();
        doc.set("version", SPEC_VERSION)
            .set("scale", self.scale.name())
            .set("apps", Json::Arr(self.apps.iter().map(|a| Json::from(a.as_str())).collect()))
            .set("frames", self.frames)
            .set(
                "policies",
                Json::Arr(self.policies.iter().map(|p| Json::from(p.as_str())).collect()),
            )
            .set("llc_mb", self.llc_mb)
            .set("characterize", self.characterize)
            .set("geometry", geometry);
        // Workload-kind keys are only present when the kind is — app-grid
        // specs keep the exact canonical bytes (and therefore ids) they
        // had before profiles and trace imports existed.
        if let Some(profile) = &self.profile {
            doc.set("profile", profile.as_str());
            // Per-mille integer, not a float: `grjson` prints `Num(0.85)`
            // and `Num(0.850)` inputs identically but other writers may
            // not, and an integer canonicalization can never drift.
            doc.set("coherence_milli", self.coherence_milli.unwrap_or(1000));
        }
        if let Some(trace) = &self.trace {
            let mut tr = Json::obj();
            tr.set("digest", trace.digest.as_str())
                .set("app", trace.app.as_str())
                .set("frame", u64::from(trace.frame))
                .set("count", trace.count);
            doc.set("trace", tr);
        }
        doc
    }

    /// The job id: SHA-256 over the canonical JSON bytes, lowercase hex.
    pub fn id(&self) -> String {
        hash::sha256_hex(self.canonical_json().to_string_pretty().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_fills_defaults() {
        let spec = JobSpec::parse(r#"{"policies": ["NRU"]}"#, Scale::Tiny).unwrap();
        assert_eq!(spec.apps.len(), 12, "missing apps = whole workload");
        assert_eq!(spec.frames, 1);
        assert_eq!(spec.llc_mb, 8);
        assert_eq!(spec.scale, Scale::Tiny);
        assert!(!spec.characterize);
    }

    #[test]
    fn equivalent_requests_share_one_id() {
        let a = JobSpec::parse(
            r#"{"policies": ["NRU", "DRRIP", "NRU"], "apps": ["HAWX", "BioShock"]}"#,
            Scale::Tiny,
        )
        .unwrap();
        let b = JobSpec::parse(
            r#"{"apps": ["BioShock", "HAWX", "BioShock"], "frames": 1,
                "policies": ["NRU", "DRRIP"], "llc_mb": 8, "scale": "tiny",
                "characterize": false}"#,
            Scale::Full,
        )
        .unwrap();
        assert_eq!(a, b, "defaults, duplicates, and app order must normalize away");
        assert_eq!(a.id(), b.id());
        assert_eq!(a.id().len(), 64);
    }

    #[test]
    fn policy_order_is_significant_but_duplicates_are_not() {
        let ab = JobSpec::parse(r#"{"policies": ["NRU", "DRRIP"]}"#, Scale::Tiny).unwrap();
        let ba = JobSpec::parse(r#"{"policies": ["DRRIP", "NRU"]}"#, Scale::Tiny).unwrap();
        // Policy order shapes the payload, so it stays in the identity.
        assert_ne!(ab.id(), ba.id());
    }

    #[test]
    fn every_knob_changes_the_id() {
        let base = JobSpec::parse(r#"{"policies": ["NRU"]}"#, Scale::Tiny).unwrap();
        let variants = [
            r#"{"policies": ["LRU"]}"#,
            r#"{"policies": ["NRU"], "apps": ["HAWX"]}"#,
            r#"{"policies": ["NRU"], "frames": 2}"#,
            r#"{"policies": ["NRU"], "llc_mb": 16}"#,
            r#"{"policies": ["NRU"], "scale": "quarter"}"#,
            r#"{"policies": ["NRU"], "characterize": true}"#,
        ];
        for body in variants {
            let spec = JobSpec::parse(body, Scale::Tiny).unwrap();
            assert_ne!(spec.id(), base.id(), "variant {body} collided with base");
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let cases = [
            ("not json", "valid JSON"),
            ("[1, 2]", "must be a JSON object"),
            ("{}", "missing required field"),
            (r#"{"policies": []}"#, "non-empty"),
            (r#"{"policies": ["PLRU"]}"#, "unknown policy"),
            (r#"{"policies": [1]}"#, "must be strings"),
            (r#"{"policies": ["NRU"], "apps": ["NotAnApp"]}"#, "unknown app"),
            (r#"{"policies": ["NRU"], "frames": 0}"#, "1..=52"),
            (r#"{"policies": ["NRU"], "frames": 53}"#, "1..=52"),
            (r#"{"policies": ["NRU"], "llc_mb": 0}"#, "1..=64"),
            (r#"{"policies": ["NRU"], "scale": "huge"}"#, "unknown scale"),
            (r#"{"policies": ["NRU"], "characterize": "yes"}"#, "boolean"),
            (r#"{"policies": ["NRU"], "color": "red"}"#, "unknown field"),
        ];
        for (body, fragment) in cases {
            let err = JobSpec::parse(body, Scale::Tiny).expect_err(body);
            assert!(err.contains(fragment), "{body}: error {err:?} missing {fragment:?}");
        }
    }

    fn dump_profile_trace(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("grserve-spec-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(format!("{name}.gtrace"));
        let graph = grsynth::graph_profile("cpu-like").expect("builtin").graph();
        let trace = grsynth::Frames::from(&graph).render(0, Scale::Tiny).0;
        let file = std::fs::File::create(&path).expect("create trace file");
        let mut writer = std::io::BufWriter::new(file);
        grtrace::io::write(&mut writer, &trace).expect("write trace");
        std::io::Write::flush(&mut writer).expect("flush trace");
        path
    }

    #[test]
    fn profile_spec_canonicalizes_coherence() {
        let implicit =
            JobSpec::parse(r#"{"policies": ["NRU"], "profile": "deferred"}"#, Scale::Tiny).unwrap();
        assert_eq!(implicit.profile.as_deref(), Some("deferred"));
        assert_eq!(implicit.coherence_milli, Some(850), "default coherence is canonicalized");
        assert!(implicit.apps.is_empty());

        // Case-insensitive lookup resolves to the canonical spelling, and
        // an explicit request at the default coherence hashes identically.
        let explicit = JobSpec::parse(
            r#"{"policies": ["NRU"], "profile": "Deferred", "coherence": 0.85}"#,
            Scale::Tiny,
        )
        .unwrap();
        assert_eq!(implicit, explicit);
        assert_eq!(implicit.id(), explicit.id());

        // A different coherence is different work.
        let drifted = JobSpec::parse(
            r#"{"policies": ["NRU"], "profile": "deferred", "coherence": 0.25}"#,
            Scale::Tiny,
        )
        .unwrap();
        assert_eq!(drifted.coherence_milli, Some(250));
        assert_ne!(drifted.id(), implicit.id());

        let doc = implicit.canonical_json();
        assert_eq!(doc.get("coherence_milli").and_then(Json::as_f64), Some(850.0));
        assert!(doc.get("trace").is_none());
    }

    #[test]
    fn trace_spec_is_addressed_by_content_not_path() {
        let a = dump_profile_trace("content-a");
        let b = dump_profile_trace("content-b");
        let spec_for = |path: &std::path::Path| {
            JobSpec::parse(
                &format!(r#"{{"policies": ["NRU"], "trace": {:?}}}"#, path.to_str().unwrap()),
                Scale::Tiny,
            )
            .unwrap()
        };
        let sa = spec_for(&a);
        let sb = spec_for(&b);
        let ta = sa.trace.as_ref().expect("trace ref");
        assert_eq!(ta.app, "cpu-like");
        assert_eq!(ta.frame, 0);
        assert!(ta.count > 0);
        // Same bytes at two paths: one job id.
        assert_eq!(sa.id(), sb.id());
        let doc = sa.canonical_json();
        let tr = doc.get("trace").expect("trace object");
        assert_eq!(tr.get("digest").and_then(Json::as_str), Some(ta.digest.as_str()));
        assert!(doc.to_string_pretty().find(a.to_str().unwrap()).is_none(), "path must not leak");
    }

    #[test]
    fn workload_kinds_are_mutually_exclusive() {
        let trace = dump_profile_trace("exclusive");
        let trace = trace.to_str().unwrap();
        let cases = [
            (
                r#"{"policies": ["NRU"], "profile": "deferred", "apps": ["HAWX"]}"#.to_string(),
                "mutually exclusive",
            ),
            (
                format!(r#"{{"policies": ["NRU"], "trace": {trace:?}, "apps": ["HAWX"]}}"#),
                "mutually exclusive",
            ),
            (
                format!(r#"{{"policies": ["NRU"], "trace": {trace:?}, "profile": "deferred"}}"#),
                "mutually exclusive",
            ),
            (
                format!(r#"{{"policies": ["NRU"], "trace": {trace:?}, "frames": 2}}"#),
                "mutually exclusive",
            ),
            (r#"{"policies": ["NRU"], "coherence": 0.5}"#.to_string(), "requires a profile"),
            (r#"{"policies": ["NRU"], "profile": "nope"}"#.to_string(), "unknown profile"),
            (
                r#"{"policies": ["NRU"], "profile": "deferred", "coherence": 1.5}"#.to_string(),
                "0..=1",
            ),
            (r#"{"policies": ["NRU"], "trace": 7}"#.to_string(), "string path"),
            (
                r#"{"policies": ["NRU"], "trace": "/no/such/file.gtrace"}"#.to_string(),
                "cannot read trace",
            ),
        ];
        for (body, fragment) in cases {
            let err = JobSpec::parse(&body, Scale::Tiny).expect_err(&body);
            assert!(err.contains(fragment), "{body}: error {err:?} missing {fragment:?}");
        }
        // A malformed file is a parse-time 400, not a worker panic.
        let dir = std::env::temp_dir().join("grserve-spec-tests");
        let bad = dir.join("bad.gtrace");
        std::fs::write(&bad, b"XXXX").expect("write bad file");
        let body = format!(r#"{{"policies": ["NRU"], "trace": {:?}}}"#, bad.to_str().unwrap());
        let err = JobSpec::parse(&body, Scale::Tiny).expect_err("bad magic");
        assert!(err.contains("cannot import trace"), "error {err:?}");
    }

    #[test]
    fn llc_mb_must_give_a_power_of_two_geometry() {
        // 3 MB at half scale is 768 KB, 192 sets per bank; at tiny scale it
        // clamps to the 64 KB floor, 16 sets per bank.
        let parse = |scale: &str| {
            let policy = registry::ALL_POLICIES[0].name;
            let body = format!(r#"{{"policies": ["{policy}"], "llc_mb": 3, "scale": "{scale}"}}"#);
            JobSpec::parse(&body, Scale::Full)
        };
        let err = parse("half").expect_err("192 sets per bank");
        assert!(err.contains("llc_mb 3") && err.contains("scale half"), "error {err:?}");
        assert_eq!(parse("tiny").expect("64 KB LLC").llc_mb, 3);
    }

    #[test]
    fn parameterized_gspztc_is_accepted() {
        let spec = JobSpec::parse(r#"{"policies": ["GSPZTC(t=2)"]}"#, Scale::Tiny).unwrap();
        assert_eq!(spec.policies, vec!["GSPZTC(t=2)".to_string()]);
    }

    #[test]
    fn canonical_json_embeds_derived_geometry() {
        let spec =
            JobSpec::parse(r#"{"policies": ["NRU"], "scale": "tiny"}"#, Scale::Half).unwrap();
        let doc = spec.canonical_json();
        let geometry = doc.get("geometry").expect("geometry object");
        // tiny = divisor 8 → 8 MB / 64 = 128 KB.
        assert_eq!(geometry.get("size_bytes").and_then(Json::as_f64), Some(131072.0));
        assert_eq!(geometry.get("ways").and_then(Json::as_f64), Some(16.0));
    }
}
