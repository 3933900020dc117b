//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span carries a layer name, an optional detail (the policy or request
//! class), start and end times relative to the tracer's origin, its parent
//! span, and the id of the request or cell it belongs to. Spans stay in
//! memory until [`Tracer::write_jsonl`] writes them out at the end of a
//! run. A layer's self time is the sum of its spans' durations minus the
//! parts their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    detail: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Busy time and self time of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub busy_s: f64,
    pub self_s: f64,
    pub spans: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span. `f` gets the tracer back so it can open child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            detail: detail.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Per-layer busy and self time, keyed by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let layer = out.entry(s.name).or_default();
            layer.busy_s += dur as f64 * 1e-9;
            layer.self_s += dur.saturating_sub(child) as f64 * 1e-9;
            layer.spans += 1;
        }
        out
    }

    /// Busy seconds per detail value of the spans named `name`.
    pub fn busy_by_detail(&self, name: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.detail.clone()).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of the spans named `name` with detail `detail`.
    pub fn durations(&self, name: &str, detail: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.detail == detail)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","detail":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.detail, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
