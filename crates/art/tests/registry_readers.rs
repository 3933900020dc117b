//! Every policy registry row has a reader.
//!
//! A row rides every registry-wide matrix (differential fuzz, invariant
//! sweep, streaming equivalence, the served vocabulary), so it must pay for
//! that with a result something reads: either it is a conformance-panel
//! member, or a committed kick-tires golden other than `table6` (which
//! lists every row and so reads none in particular) names it, as a string
//! value (a figure row's `policy` field) or as an object key (Fig 15's
//! per-policy columns).

use std::path::Path;

use grjson::Json;
use gspc::registry::ALL_POLICIES;

/// Every string in `json`: values and object keys.
fn strings<'a>(json: &'a Json, out: &mut Vec<&'a str>) {
    match json {
        Json::Str(s) => out.push(s),
        Json::Arr(items) => items.iter().for_each(|v| strings(v, out)),
        Json::Obj(fields) => fields.iter().for_each(|(key, value)| {
            out.push(key);
            strings(value, out);
        }),
        Json::Null | Json::Bool(_) | Json::UInt(_) | Json::Num(_) => {}
    }
}

#[test]
fn every_registry_row_has_a_reader() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/goldens/kick-tires");
    let docs: Vec<Json> = std::fs::read_dir(&dir)
        .expect("read kick-tires goldens")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json") && !p.ends_with("table6.json"))
        .map(|p| Json::parse(&std::fs::read_to_string(&p).expect("read golden")).expect("parse"))
        .collect();
    assert!(docs.len() > 10, "expected the kick-tires goldens under {}", dir.display());
    let mut named = Vec::new();
    docs.iter().for_each(|doc| strings(doc, &mut named));
    let unread: Vec<&str> = ALL_POLICIES
        .iter()
        .filter(|e| !e.meta.conformance.panel && !named.contains(&e.name))
        .map(|e| e.name)
        .collect();
    assert!(unread.is_empty(), "registry rows no figure, ablation or panel reads: {unread:?}");
}
