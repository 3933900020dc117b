//! End-to-end pipeline properties: determinism and golden diffing.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use grart::{artifact, diff, pipeline};
use grjson::Json;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grart-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_kick_tires(dir: &Path) -> pipeline::PipelineOutput {
    let output = pipeline::run(&pipeline::kick_tires());
    artifact::write_all(dir, &output.artifacts).expect("artifacts write");
    output
}

/// One kick-tires run, shared by the tests that only read
/// it. No test outlives it, so it goes to Cargo's per-target scratch
/// directory instead of being removed; the process id keeps concurrent
/// test processes apart.
fn shared_run() -> &'static Path {
    static RUN: OnceLock<PathBuf> = OnceLock::new();
    RUN.get_or_init(|| {
        let name = format!("grart-kick-tires-{}", std::process::id());
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        run_kick_tires(&dir);
        dir
    })
}

fn tree_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read artifact dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf-8 name");
            (name, std::fs::read(entry.path()).expect("read artifact"))
        })
        .collect();
    files.sort();
    files
}

/// Two runs write byte-identical trees, the self-diff
/// passes, and a perturbed artifact is caught with a nonzero drift.
#[test]
fn kick_tires_is_deterministic_and_diffable() {
    let a = shared_run();
    let b = temp_dir("det-b");
    let out = run_kick_tires(&b);
    assert!(out.conformance_pass, "conformance must pass at the pinned configuration");
    let names: Vec<&str> = out.artifacts.iter().map(|x| x.name.as_str()).collect();
    assert_eq!(
        names.join(" "),
        "table1 fig01 fig04 fig05 fig06 fig07 fig08 fig09 fig11 fig12 fig13 fig14 fig15 \
         table6 overhead ablation-partitioning ablation-interframe ablation-sample-density \
         profiles conformance",
        "kick-tires artifact set is pinned"
    );
    assert_eq!(tree_bytes(a), tree_bytes(&b), "artifact trees must be byte-identical");

    assert!(diff::diff_dirs(a, &b).expect("diff runs").is_empty(), "self-diff is clean");

    // Perturb one normalized cell beyond tolerance: diff must flag it.
    let fig12 = b.join("fig12.json");
    let text = std::fs::read_to_string(&fig12).expect("read fig12");
    let perturbed = text.replacen("\"1.0", "\"9.0", 1);
    assert_ne!(text, perturbed, "fixture assumes a cell starting 1.0...");
    std::fs::write(&fig12, perturbed).expect("write perturbed");
    let drift = diff::diff_dirs(a, &b).expect("diff runs");
    assert_eq!(drift.len(), 1, "exactly the perturbed cell drifts: {drift:?}");
    assert!(drift[0].contains("fig12"), "{drift:?}");

    // A missing artifact is drift too.
    std::fs::remove_file(b.join("fig15.json")).expect("remove artifact");
    let drift = diff::diff_dirs(a, &b).expect("diff runs");
    assert!(drift.iter().any(|d| d.contains("missing")), "{drift:?}");

    let _ = std::fs::remove_dir_all(&b);
}

/// The inter-frame ablation parses, carries its frame counts as
/// integers, and never has a persistent (warm) LLC miss more than cold
/// starts do.
#[test]
fn interframe_ablation_warm_never_exceeds_cold() {
    let path = shared_run().join("ablation-interframe.json");
    let text = std::fs::read_to_string(&path).expect("read inter-frame artifact");
    let doc = Json::parse(&text).expect("inter-frame artifact parses");
    let Some(Json::Arr(rows)) = doc.get("rows") else { panic!("rows array") };
    assert!(!rows.is_empty());
    for row in rows {
        let count = |key: &str| match row.get(key) {
            Some(Json::UInt(n)) => *n,
            other => panic!("{key} is {other:?}, expected an integer"),
        };
        assert!(count("frames") > 0);
        let (warm, cold) = (count("warm_misses"), count("cold_misses"));
        assert!(warm > 0 && cold > 0);
        assert!(warm <= cold, "a persistent LLC cannot miss more than cold starts: {row:?}");
    }
}
