//! The one frame source and its band-by-band stream.
//!
//! [`Frames`] names where a keyed sequence of synthesized frames comes
//! from — a Table 1 application or a frame graph — and owns the facts that
//! differ between the two outside the renderer: the cache key and the name
//! every trace of it carries. Every layer below synthesis takes a `Frames`
//! instead of keeping one copy per workload kind.
//!
//! [`FrameStream`] drives the renderer one pipeline stage at a time
//! and hands each stage's accesses out through the [`AccessSource`] chunk
//! protocol, so a frame is never materialized as one giant `Vec`. Peak
//! memory is bounded by the largest single stage's emission (roughly one
//! render band) instead of the whole frame.
//!
//! The access sequence is bit-identical to the materialized render: the
//! renderer runs the same stages in the same order; the stream merely
//! drains the trace buffer between stages.

use std::io;

use grtrace::{Access, AccessSource, Chunk, Trace};

use crate::render::{Renderer, STAGES};
use crate::{AppProfile, FrameGraph, FrameWork, Scale};

/// Where a sequence of synthesized frames comes from.
///
/// # Example
///
/// ```
/// use grsynth::{AppProfile, Frames, Scale};
///
/// let app = AppProfile::by_abbrev("AssnCreed").unwrap();
/// let frames = Frames::from(&app);
/// assert_eq!(frames.cache_key(), "AssnCreed");
/// assert_eq!(frames.name(), "Assassin's Creed");
/// let (trace, work) = frames.render(0, Scale::Tiny);
/// assert_eq!(trace.app(), frames.name());
/// assert!(!trace.is_empty() && work.shaded_pixels > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub enum Frames<'a> {
    /// A Table 1 application profile.
    App(&'a AppProfile),
    /// A frame-graph workload.
    Graph(&'a FrameGraph),
}

impl<'a> Frames<'a> {
    /// The identity frame caches key on: the application abbreviation, or
    /// the graph's [`FrameGraph::cache_key`] fingerprint (so two graphs
    /// sharing a name but differing in any knob never share a frame).
    pub fn cache_key(self) -> String {
        match self {
            Frames::App(app) => app.abbrev.to_string(),
            Frames::Graph(graph) => graph.cache_key(),
        }
    }

    /// The workload name: every trace rendered or streamed from this
    /// source carries it, in memory and in serialized headers.
    pub fn name(self) -> &'a str {
        match self {
            Frames::App(app) => app.name,
            Frames::Graph(graph) => graph.name(),
        }
    }

    /// Renders frame `frame` whole, returning the LLC trace (named
    /// [`Frames::name`]) and the work counters; [`FrameStream::new`]
    /// renders it band by band instead.
    ///
    /// # Panics
    ///
    /// Panics if a frame graph fails [`FrameGraph::validate`].
    pub fn render(self, frame: u32, scale: Scale) -> (Trace, FrameWork) {
        Renderer::new(self, frame, scale).render_with_work()
    }
}

impl<'a> From<&'a AppProfile> for Frames<'a> {
    fn from(app: &'a AppProfile) -> Self {
        Frames::App(app)
    }
}

impl<'a> From<&'a FrameGraph> for Frames<'a> {
    fn from(graph: &'a FrameGraph) -> Self {
        Frames::Graph(graph)
    }
}

/// A pull-based [`AccessSource`] that synthesizes one frame band by band.
///
/// # Example
///
/// ```
/// use grsynth::{AppProfile, FrameStream, Scale};
/// use grtrace::AccessSource;
///
/// let profile = AppProfile::by_abbrev("BioShock").expect("profile");
/// let mut stream = FrameStream::new(&profile, 0, Scale::Tiny);
/// let mut total = 0u64;
/// while stream.advance().unwrap() {
///     total += stream.chunk().accesses.len() as u64;
/// }
/// assert!(total > 0);
/// let work = stream.work(); // complete once the stream is exhausted
/// assert!(work.shaded_pixels > 0);
/// ```
pub struct FrameStream<'a> {
    renderer: Renderer<'a>,
    next_stage: u32,
    buf: Vec<Access>,
    emitted: u64,
}

/// The frame-graph spelling of [`FrameStream`], kept because the
/// benchmark's sources name it; it goes when the benchmark may be edited.
pub type GraphStream<'a> = FrameStream<'a>;

impl<'a> FrameStream<'a> {
    /// Prepares frame `frame_idx` of `frames` for streaming synthesis.
    ///
    /// # Panics
    ///
    /// Panics if a frame graph fails [`FrameGraph::validate`].
    pub fn new(frames: impl Into<Frames<'a>>, frame_idx: u32, scale: Scale) -> Self {
        let renderer = Renderer::new(frames, frame_idx, scale);
        FrameStream { renderer, next_stage: 0, buf: Vec::new(), emitted: 0 }
    }

    /// The shader / sampler / geometry work counters accumulated so far.
    /// Complete (equal to the materialized render's) once the stream is
    /// exhausted.
    pub fn work(&self) -> FrameWork {
        self.renderer.work()
    }

    /// Accesses handed out through [`AccessSource::chunk`] so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl AccessSource for FrameStream<'_> {
    fn advance(&mut self) -> io::Result<bool> {
        loop {
            if self.next_stage >= STAGES {
                self.buf.clear();
                return Ok(false);
            }
            self.renderer.run_stage(self.next_stage);
            self.next_stage += 1;
            self.buf = self.renderer.take_emitted();
            if !self.buf.is_empty() {
                self.emitted += self.buf.len() as u64;
                return Ok(true);
            }
        }
    }

    fn chunk(&self) -> Chunk<'_> {
        Chunk { accesses: &self.buf, next_uses: None }
    }
}

impl std::fmt::Debug for FrameStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameStream")
            .field("next_stage", &self.next_stage)
            .field("buffered", &self.buf.len())
            .field("emitted", &self.emitted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_chunked_not_monolithic() {
        let profile = AppProfile::by_abbrev("HAWX").expect("profile");
        let mut stream = FrameStream::new(&profile, 0, Scale::Tiny);
        let mut chunks = 0;
        let mut total = 0usize;
        while stream.advance().unwrap() {
            chunks += 1;
            let c = stream.chunk();
            assert!(!c.accesses.is_empty());
            assert!(c.next_uses.is_none());
            total += c.accesses.len();
        }
        assert!(chunks > 1, "a frame must span several stages, got {chunks}");
        assert_eq!(total as u64, stream.emitted());
        // Exhausted stream stays exhausted.
        assert!(!stream.advance().unwrap());
        assert!(stream.chunk().accesses.is_empty());
    }

    /// Every application and frame-graph profile renders the same frame
    /// twice alike, a different frame differently, and every major stream
    /// unless its passes are all stream-free compute.
    #[test]
    fn every_source_is_deterministic_and_complete() {
        use crate::PassKind;
        use grtrace::StreamId;

        let apps = AppProfile::all();
        let graphs: Vec<FrameGraph> =
            crate::GRAPH_PROFILES.iter().map(|p| p.graph_with_coherence(1.0)).collect();
        for frames in apps.iter().map(Frames::from).chain(graphs.iter().map(Frames::from)) {
            let name = frames.name();
            let (trace, work) = frames.render(0, Scale::Tiny);
            assert!(
                frames.render(0, Scale::Tiny) == (trace.clone(), work),
                "{name} not deterministic"
            );
            let next = frames.render(1, Scale::Tiny).0;
            assert!(trace.accesses() != next.accesses(), "{name}: frames 0 and 1 are identical");
            let stream_free = matches!(frames, Frames::Graph(g)
                if g.passes().iter().all(|p| matches!(p, PassKind::Compute { .. })));
            if stream_free {
                continue;
            }
            let stats = trace.stats();
            for stream in [
                StreamId::Vertex,
                StreamId::HiZ,
                StreamId::Z,
                StreamId::RenderTarget,
                StreamId::Texture,
                StreamId::Display,
            ] {
                assert!(stats.accesses(stream) > 0, "{name} is missing stream {stream}");
            }
        }
    }

    /// Every application and frame-graph profile streams exactly the
    /// trace and work counters of its whole render.
    #[test]
    fn every_source_streams_identically() {
        let apps = AppProfile::all();
        let graphs: Vec<FrameGraph> =
            crate::GRAPH_PROFILES.iter().map(|p| p.graph_with_coherence(0.6)).collect();
        for frames in apps.iter().map(Frames::from).chain(graphs.iter().map(Frames::from)) {
            let mut stream = FrameStream::new(frames, 1, Scale::Tiny);
            let mut streamed = Trace::new(frames.name(), 1);
            while stream.advance().unwrap() {
                stream.chunk().accesses.iter().for_each(|&a| streamed.push(a));
            }
            assert_eq!(
                frames.render(1, Scale::Tiny),
                (streamed, stream.work()),
                "{}",
                frames.name()
            );
        }
    }
}
