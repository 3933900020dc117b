use crate::{Access, StreamStats};

/// An ordered sequence of accesses produced while rendering one frame.
///
/// A `Trace` corresponds to what the paper calls "the LLC load/store access
/// trace collected from the detailed simulator for each frame": the stream of
/// render-cache misses and writebacks presented to the LLC, in program order.
///
/// # Example
///
/// ```
/// use grtrace::{Access, StreamId, Trace};
///
/// let mut t = Trace::new("BioShock", 3);
/// t.push(Access::load(0, StreamId::Vertex));
/// assert_eq!(t.app(), "BioShock");
/// assert_eq!(t.frame(), 3);
/// assert_eq!(t.iter().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    app: String,
    frame: u32,
    accesses: Vec<Access>,
    stats: StreamStats,
}

impl Trace {
    /// Creates an empty trace for frame `frame` of application `app`.
    pub fn new(app: impl Into<String>, frame: u32) -> Self {
        Trace { app: app.into(), frame, accesses: Vec::new(), stats: StreamStats::new() }
    }

    /// Creates an empty trace with capacity for `cap` accesses.
    pub fn with_capacity(app: impl Into<String>, frame: u32, cap: usize) -> Self {
        Trace {
            app: app.into(),
            frame,
            accesses: Vec::with_capacity(cap),
            stats: StreamStats::new(),
        }
    }

    /// Application name this trace was rendered from.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Frame number within the application capture.
    pub fn frame(&self) -> u32 {
        self.frame
    }

    /// Appends one access.
    #[inline]
    pub fn push(&mut self, access: Access) {
        self.stats.record(&access);
        self.accesses.push(access);
    }

    /// Number of accesses in the trace.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// `true` when the trace holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses in order.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Iterates over the accesses in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.accesses.iter()
    }

    /// Per-stream access statistics (maintained incrementally on `push`).
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Drops spare capacity, so a trace kept for the life of a process
    /// holds exactly its accesses.
    pub fn shrink_to_fit(&mut self) {
        self.accesses.shrink_to_fit();
    }

    /// Drains the buffered accesses, leaving the trace empty but keeping
    /// the app/frame identity and the cumulative [`Trace::stats`].
    ///
    /// This is the hand-off the streaming pipeline uses: a producer pushes
    /// one band's worth of accesses, the consumer takes them, and the trace
    /// keeps accounting for everything ever pushed.
    pub fn take_accesses(&mut self) -> Vec<Access> {
        std::mem::take(&mut self.accesses)
    }
}

impl Extend<Access> for Trace {
    fn extend<T: IntoIterator<Item = Access>>(&mut self, iter: T) {
        for a in iter {
            self.push(a);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamId;

    #[test]
    fn push_updates_stats() {
        let mut t = Trace::new("app", 0);
        t.push(Access::load(0, StreamId::Z));
        t.push(Access::store(64, StreamId::Z));
        assert_eq!(t.stats().accesses(StreamId::Z), 2);
        assert_eq!(t.stats().writes(StreamId::Z), 1);
    }

    #[test]
    fn extend_matches_push() {
        let mut a = Trace::new("x", 0);
        let mut b = Trace::new("x", 0);
        let items =
            vec![Access::load(0, StreamId::Texture), Access::store(64, StreamId::RenderTarget)];
        for item in &items {
            a.push(*item);
        }
        b.extend(items);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("e", 1);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.frame(), 1);
    }

    #[test]
    fn iteration_preserves_order() {
        let mut t = Trace::new("o", 0);
        for i in 0..10u64 {
            t.push(Access::load(i * 64, StreamId::Vertex));
        }
        let addrs: Vec<u64> = t.iter().map(|a| a.addr()).collect();
        assert_eq!(addrs, (0..10).map(|i| i * 64).collect::<Vec<_>>());
    }
}
