//! Structural artifact diffing with a per-cell tolerance schema.
//!
//! `grart diff GOLDEN OUT` walks every `*.json` artifact in the golden
//! tree (except `manifest.json`, whose digests exist for provenance,
//! not gating) and compares it against the candidate. A candidate
//! artifact with no golden is drift as well: an artifact nothing gates
//! must be committed before it counts as reproduced.
//!
//! * **Structure is exact** — both sides must have the same keys in
//!   the same order, the same array lengths, the same value kinds. A
//!   missing artifact or a renamed row is drift, full stop.
//! * **Integers are exact** — counts (accesses, misses, frames) are
//!   deterministic replay outputs; any change is a behavior change.
//! * **Fixed-precision number strings are compared by value** within
//!   tolerance: absolute for small magnitudes (hit rates, normalized
//!   ratios), relative for large ones (FPS). This is what lets the
//!   goldens survive model-parameter tuning that shifts a rate by
//!   half a percent while still catching real regressions.

use std::path::Path;

use grjson::Json;

/// Absolute tolerance for small-magnitude values (rates, ratios).
const ABS_TOLERANCE: f64 = 0.02;

/// Relative tolerance for large-magnitude values (FPS, latencies).
const REL_TOLERANCE: f64 = 0.02;

/// Magnitude threshold separating the two tolerance regimes.
const ABS_REGIME_MAX: f64 = 1.5;

/// Compares two artifact directories; returns the list of drift
/// descriptions (empty = pass).
///
/// # Errors
///
/// I/O or parse problems reading either tree.
pub fn diff_dirs(golden: &Path, candidate: &Path) -> Result<Vec<String>, String> {
    let names = artifact_names(golden)?;
    if names.is_empty() {
        return Err(format!("golden dir {} holds no artifacts", golden.display()));
    }

    // An artifact without a golden is never gated, so it is drift too.
    let mut drift: Vec<String> = artifact_names(candidate)?
        .into_iter()
        .filter(|name| !names.contains(name))
        .map(|name| format!("{name}: no golden"))
        .collect();
    for name in &names {
        let golden_doc = load(&golden.join(name))?;
        let candidate_path = candidate.join(name);
        if !candidate_path.exists() {
            drift.push(format!("{name}: missing from candidate"));
            continue;
        }
        let candidate_doc = load(&candidate_path)?;
        compare(name, &golden_doc, &candidate_doc, &mut drift);
    }
    Ok(drift)
}

/// The sorted `*.json` artifact names in `dir`, `manifest.json` aside.
fn artifact_names(dir: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read artifact dir {}: {e}", dir.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.ends_with(".json") && name != "manifest.json").then_some(name)
        })
        .collect();
    names.sort();
    Ok(names)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))
}

/// Recursively compares `g` and `c`, appending drift under `path`.
fn compare(path: &str, g: &Json, c: &Json, drift: &mut Vec<String>) {
    match (g, c) {
        (Json::Obj(ge), Json::Obj(ce)) => {
            if ge.len() != ce.len() || ge.iter().zip(ce.iter()).any(|((gk, _), (ck, _))| gk != ck) {
                let gk: Vec<&str> = ge.iter().map(|(k, _)| k.as_str()).collect();
                let ck: Vec<&str> = ce.iter().map(|(k, _)| k.as_str()).collect();
                drift.push(format!("{path}: keys {gk:?} became {ck:?}"));
                return;
            }
            for ((key, gv), (_, cv)) in ge.iter().zip(ce.iter()) {
                compare(&format!("{path}.{key}"), gv, cv, drift);
            }
        }
        (Json::Arr(ga), Json::Arr(ca)) => {
            if ga.len() != ca.len() {
                drift.push(format!("{path}: length {} became {}", ga.len(), ca.len()));
                return;
            }
            for (i, (gv, cv)) in ga.iter().zip(ca.iter()).enumerate() {
                compare(&format!("{path}[{i}]"), gv, cv, drift);
            }
        }
        (Json::Str(gs), Json::Str(cs)) => {
            // Fixed-precision number strings diff by value; everything
            // else (labels, policy names) byte-exactly.
            match (gs.parse::<f64>(), cs.parse::<f64>()) {
                (Ok(gx), Ok(cx)) => {
                    if !within_tolerance(gx, cx) {
                        drift.push(format!("{path}: {gx} drifted to {cx}"));
                    }
                }
                _ => {
                    if gs != cs {
                        drift.push(format!("{path}: {gs:?} became {cs:?}"));
                    }
                }
            }
        }
        // Counts and every other scalar: exact.
        _ => {
            if g != c {
                drift.push(format!("{path}: {} became {}", summary(g), summary(c)));
            }
        }
    }
}

/// The per-cell tolerance rule: absolute for rate-sized magnitudes,
/// relative for larger values.
fn within_tolerance(golden: f64, candidate: f64) -> bool {
    if golden.abs() <= ABS_REGIME_MAX {
        (candidate - golden).abs() <= ABS_TOLERANCE
    } else {
        (candidate - golden).abs() <= REL_TOLERANCE * golden.abs()
    }
}

fn summary(j: &Json) -> String {
    let mut full = j.to_string_pretty();
    if full.len() > 60 {
        full.truncate(57);
        full.push_str("...");
    }
    full.replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_without_goldens_are_drift() {
        let root = std::env::temp_dir().join(format!("grart-diff-test-{}", std::process::id()));
        let (golden, candidate) = (root.join("golden"), root.join("candidate"));
        for dir in [&golden, &candidate] {
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(dir.join("fig01.json"), r#"{"a": 1}"#).unwrap();
            std::fs::write(dir.join("manifest.json"), r#"{"artifacts": {}}"#).unwrap();
        }
        assert!(diff_dirs(&golden, &candidate).unwrap().is_empty());

        std::fs::write(candidate.join("fig04.json"), r#"{"a": 1}"#).unwrap();
        std::fs::write(candidate.join("fig04.md"), "# not an artifact document").unwrap();
        assert_eq!(diff_dirs(&golden, &candidate).unwrap(), ["fig04.json: no golden"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tolerance_regimes() {
        assert!(within_tolerance(0.50, 0.51));
        assert!(!within_tolerance(0.50, 0.53));
        assert!(within_tolerance(400.0, 405.0));
        assert!(!within_tolerance(400.0, 420.0));
    }

    #[test]
    fn structural_drift_is_reported() {
        let g = Json::parse(r#"{"a": 1, "b": "0.50", "c": "NRU"}"#).unwrap();
        let same = Json::parse(r#"{"a": 1, "b": "0.51", "c": "NRU"}"#).unwrap();
        let mut drift = Vec::new();
        compare("t", &g, &same, &mut drift);
        assert!(drift.is_empty(), "{drift:?}");

        for (bad, fragment) in [
            (r#"{"a": 2, "b": "0.50", "c": "NRU"}"#, "t.a"),
            (r#"{"a": 1, "b": "0.60", "c": "NRU"}"#, "t.b"),
            (r#"{"a": 1, "b": "0.50", "c": "LRU"}"#, "t.c"),
            (r#"{"a": 1, "b": "0.50"}"#, "keys"),
        ] {
            let c = Json::parse(bad).unwrap();
            let mut drift = Vec::new();
            compare("t", &g, &c, &mut drift);
            assert_eq!(drift.len(), 1, "{bad}: {drift:?}");
            assert!(drift[0].contains(fragment), "{bad}: {drift:?}");
        }
    }
}
