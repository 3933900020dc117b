use crate::{Access, StreamId};

/// Per-stream access accounting.
///
/// This is the measurement behind Figure 4 of the paper (stream-wise
/// distribution of the LLC accesses): how many accesses, loads, and stores
/// each graphics stream contributed.
///
/// # Example
///
/// ```
/// use grtrace::{Access, StreamId, StreamStats};
///
/// let mut stats = StreamStats::new();
/// stats.record(&Access::load(0, StreamId::Texture));
/// stats.record(&Access::store(64, StreamId::Texture));
/// assert_eq!(stats.accesses(StreamId::Texture), 2);
/// assert_eq!(stats.writes(StreamId::Texture), 1);
/// assert!((stats.fraction(StreamId::Texture) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    accesses: [u64; 9],
    writes: [u64; 9],
}

impl StreamStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access.
    #[inline]
    pub fn record(&mut self, access: &Access) {
        let i = access.stream().index();
        self.accesses[i] += 1;
        if access.write() {
            self.writes[i] += 1;
        }
    }

    /// Number of accesses seen for `stream`.
    pub fn accesses(&self, stream: StreamId) -> u64 {
        self.accesses[stream.index()]
    }

    /// Number of stores seen for `stream`.
    pub fn writes(&self, stream: StreamId) -> u64 {
        self.writes[stream.index()]
    }

    /// Number of loads seen for `stream`.
    pub fn reads(&self, stream: StreamId) -> u64 {
        self.accesses(stream) - self.writes(stream)
    }

    /// Total number of accesses across all streams.
    pub fn total(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Fraction of all accesses contributed by `stream` (0 when empty).
    pub fn fraction(&self, stream: StreamId) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.accesses(stream) as f64 / total as f64
        }
    }

    /// Merges another set of statistics into this one.
    pub fn merge(&mut self, other: &StreamStats) {
        for i in 0..9 {
            self.accesses[i] += other.accesses[i];
            self.writes[i] += other.writes[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_zero_fractions() {
        let stats = StreamStats::new();
        assert_eq!(stats.total(), 0);
        for s in StreamId::ALL {
            assert_eq!(stats.fraction(s), 0.0);
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut stats = StreamStats::new();
        for (i, s) in StreamId::ALL.iter().enumerate() {
            for k in 0..=i as u64 {
                stats.record(&Access::load(k * 64, *s));
            }
        }
        let sum: f64 = StreamId::ALL.iter().map(|s| stats.fraction(*s)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reads_plus_writes_equals_accesses() {
        let mut stats = StreamStats::new();
        stats.record(&Access::load(0, StreamId::Z));
        stats.record(&Access::store(64, StreamId::Z));
        stats.record(&Access::store(128, StreamId::Z));
        assert_eq!(stats.reads(StreamId::Z) + stats.writes(StreamId::Z), 3);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StreamStats::new();
        a.record(&Access::load(0, StreamId::Texture));
        let mut b = StreamStats::new();
        b.record(&Access::store(0, StreamId::Texture));
        b.record(&Access::load(0, StreamId::Vertex));
        a.merge(&b);
        assert_eq!(a.accesses(StreamId::Texture), 2);
        assert_eq!(a.accesses(StreamId::Vertex), 1);
        assert_eq!(a.total(), 3);
    }
}
