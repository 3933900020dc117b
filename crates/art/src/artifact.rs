//! Artifact documents: deterministic JSON plus rendered markdown.
//!
//! Artifact JSON never carries a raw float: every derived number is
//! formatted to a fixed precision and stored as a **string** (counts
//! stay integers). `grjson` prints `f64`s in shortest form, which is
//! deterministic for one binary but makes tolerance-based diffing
//! ambiguous and byte-stability hostage to float printing; a
//! fixed-precision string is the same bytes everywhere, and
//! [`crate::diff`] parses it back when it needs the value.

use std::io;
use std::path::Path;

use grjson::Json;

/// One table or figure: a JSON document and its markdown rendering.
pub struct Artifact {
    /// File stem under the output directory (`table1`, `fig12`, ...).
    pub name: String,
    /// The JSON document (written as `NAME.json`).
    pub doc: Json,
    /// The rendered markdown (written as `NAME.md`).
    pub markdown: String,
}

/// Formats a derived number at fixed precision for artifact JSON.
pub fn fixed(value: f64, places: usize) -> String {
    format!("{value:.places$}")
}

/// One table cell. Its JSON value and its markdown text come from the
/// same number, so the two renderings cannot disagree.
#[derive(Debug)]
pub(crate) enum Cell {
    /// An exact count, kept a JSON integer so the diff gates it exactly.
    Count(u64),
    /// A derived number at fixed precision (see [`fixed`]).
    Fixed(f64, usize),
    /// A label.
    Text(String),
}

impl Cell {
    fn json(&self) -> Json {
        match self {
            Cell::Count(n) => Json::UInt(*n),
            _ => Json::Str(self.text()),
        }
    }

    fn text(&self) -> String {
        match self {
            Cell::Count(n) => n.to_string(),
            Cell::Fixed(value, places) => fixed(*value, *places),
            Cell::Text(text) => text.clone(),
        }
    }
}

/// A table held once and rendered twice: as an artifact's JSON row
/// objects and as its markdown.
///
/// Each row is a label plus one [`Cell`] per value column. A JSON row is
/// `{label_key: label, key: cell, ...}`, or with [`Table::grouped`]
/// `{label_key: label, group: {key: cell, ...}}`. The markdown heads the
/// label column with `label_key` and each value column with its key
/// unless [`Table::headings`] renames them.
#[derive(Default)]
pub(crate) struct Table {
    title: String,
    label_key: String,
    group: Option<String>,
    keys: Vec<String>,
    head: Vec<String>,
    json: Vec<Json>,
    md: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with flat JSON rows.
    pub fn new<K: AsRef<str>>(title: &str, label_key: &str, keys: &[K]) -> Table {
        let keys: Vec<String> = keys.iter().map(|k| k.as_ref().to_string()).collect();
        let head = std::iter::once(label_key.to_string()).chain(keys.iter().cloned()).collect();
        Table { title: title.into(), label_key: label_key.into(), keys, head, ..Table::default() }
    }

    /// Nests every row's value cells under the JSON key `group`.
    pub fn grouped(mut self, group: &str) -> Table {
        self.group = Some(group.into());
        self
    }

    /// Replaces the markdown column headings (label column first).
    pub fn headings(mut self, head: &[&str]) -> Table {
        self.head = head.iter().map(|h| h.to_string()).collect();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when `cells` does not hold one cell per value column.
    pub fn row(&mut self, label: &str, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.keys.len(), "{}: row {label} is ragged", self.title);
        let values: Vec<(String, Json)> =
            self.keys.iter().cloned().zip(cells.iter().map(Cell::json)).collect();
        let label_entry = (self.label_key.clone(), Json::from(label));
        self.json.push(match &self.group {
            Some(group) => Json::Obj(vec![label_entry, (group.clone(), Json::Obj(values))]),
            None => Json::Obj(std::iter::once(label_entry).chain(values).collect()),
        });
        self.md
            .push(std::iter::once(label.to_string()).chain(cells.iter().map(Cell::text)).collect());
    }

    /// Appends a markdown-only row: a summary the JSON document carries
    /// as a field of its own.
    pub fn footer(&mut self, cells: Vec<String>) {
        self.md.push(cells);
    }

    /// The table as artifact `name`: a document holding the title, then
    /// the entries of the object `fields`, then the rows.
    pub fn into_artifact(self, name: &str, fields: Json) -> Artifact {
        let mut doc = Json::obj();
        doc.set("title", self.title.clone());
        if let Json::Obj(entries) = fields {
            for (key, value) in entries {
                doc.set(key, value);
            }
        }
        let (rows, markdown) = self.finish();
        doc.set("rows", rows);
        Artifact { name: name.into(), doc, markdown }
    }

    /// The JSON `rows` array and the rendered markdown.
    pub fn finish(self) -> (Json, String) {
        let head: Vec<&str> = self.head.iter().map(String::as_str).collect();
        (Json::Arr(self.json), markdown_table(&self.title, &head, &self.md))
    }
}

/// Renders a markdown table.
pub fn markdown_table(title: &str, head: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("# {title}\n\n");
    out.push_str(&format!("| {} |\n", head.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(head.len())));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Writes every artifact (JSON + markdown) plus a `manifest.json` of
/// SHA-256 digests into `dir`, creating it as needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_all(dir: &Path, artifacts: &[Artifact]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut digests = Json::obj();
    for artifact in artifacts {
        let json = artifact.doc.to_string_pretty();
        std::fs::write(dir.join(format!("{}.json", artifact.name)), &json)?;
        std::fs::write(dir.join(format!("{}.md", artifact.name)), &artifact.markdown)?;
        digests.set(artifact.name.clone(), grserve::hash::sha256_hex(json.as_bytes()));
    }
    let mut manifest = Json::obj();
    manifest.set("artifacts", digests);
    std::fs::write(dir.join("manifest.json"), manifest.to_string_pretty())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_precision_is_stable() {
        assert_eq!(fixed(0.96341, 4), "0.9634");
        assert_eq!(fixed(2.0, 4), "2.0000");
        assert_eq!(fixed(123.456, 1), "123.5");
    }

    #[test]
    fn table_renders_json_and_markdown_from_the_same_cells() {
        let mut table = Table::new("T", "policy", &["hits", "rate"]).headings(&["p", "h", "r"]);
        table.row("x", vec![Cell::Count(7), Cell::Fixed(0.5, 2)]);
        table.footer(vec!["ALL".into(), "7".into(), "-".into()]);
        let (rows, md) = table.finish();
        assert_eq!(rows, Json::parse(r#"[{"policy": "x", "hits": 7, "rate": "0.50"}]"#).unwrap());
        assert_eq!(md, "# T\n\n| p | h | r |\n|---|---|---|\n| x | 7 | 0.50 |\n| ALL | 7 | - |\n");

        let mut grouped = Table::new("G", "app", &["x"]).grouped("values");
        grouped.row("HAWX", vec![Cell::Text("a".into())]);
        let artifact = grouped.into_artifact("g", Json::obj());
        let expected = r#"{"title": "G", "rows": [{"app": "HAWX", "values": {"x": "a"}}]}"#;
        assert_eq!(artifact.doc, Json::parse(expected).unwrap());
    }

    #[test]
    fn write_all_emits_manifest_digests() {
        let dir = std::env::temp_dir().join(format!("grart-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut doc = Json::obj();
        doc.set("x", 1u64);
        let artifacts = vec![Artifact { name: "t".into(), doc, markdown: "# t\n".into() }];
        write_all(&dir, &artifacts).expect("write artifacts");
        let json = std::fs::read_to_string(dir.join("t.json")).expect("json written");
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        let parsed = Json::parse(&manifest).expect("manifest parses");
        assert_eq!(
            parsed.get("artifacts").and_then(|a| a.get("t")).and_then(Json::as_str),
            Some(grserve::hash::sha256_hex(json.as_bytes()).as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
