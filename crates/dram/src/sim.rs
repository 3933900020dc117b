//! FR-FCFS DRAM request scheduling and timing.

use crate::TimingParams;

/// One 64-byte memory request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Cache-block address (64 B granularity).
    pub block: u64,
    /// `true` for a writeback, `false` for a demand read.
    pub write: bool,
    /// Arrival time at the memory controller, in nanoseconds.
    pub arrival_ns: f64,
}

/// Aggregate results of a DRAM simulation run.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Demand reads serviced.
    pub reads: u64,
    /// Writebacks serviced.
    pub writes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that needed precharge + activate.
    pub row_misses: u64,
    /// Mean request latency (arrival to last data beat) in nanoseconds.
    pub avg_latency_ns: f64,
    /// Time the busiest channel's data bus was occupied, in nanoseconds.
    pub busy_ns: f64,
    /// Completion time of the last request, in nanoseconds.
    pub makespan_ns: f64,
    /// Rank-wide refreshes performed (tREFI cadence).
    pub refreshes: u64,
    /// Read/write bus turnarounds paid.
    pub turnarounds: u64,
}

impl DramStats {
    /// Row-hit rate across all serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Delivered bandwidth in bytes per nanosecond.
    pub fn bandwidth(&self) -> f64 {
        if self.makespan_ns == 0.0 {
            0.0
        } else {
            ((self.reads + self.writes) * 64) as f64 / self.makespan_ns
        }
    }
}

/// FR-FCFS window size (requests considered for row-hit reordering).
const WINDOW: usize = 16;

/// The oldest pending requests of one channel, in age order, with the
/// per-slot facts the scheduler picks by kept as bitmasks: bit `k` of
/// `writes` is set when slot `k` is a write, and bit `k` of `row_hits`
/// when slot `k`'s bank-row key equals its bank's open key. Bits at and
/// above `len` are always clear.
#[derive(Debug, Clone)]
struct Window {
    keys: [u64; WINDOW],
    arrivals: [f64; WINDOW],
    len: usize,
    writes: u32,
    row_hits: u32,
}

impl Window {
    fn live(&self) -> u32 {
        (1 << self.len) - 1
    }

    /// Slots that have arrived by `now`: the longest prefix with
    /// `arrival <= now` (arrivals are sorted, so it is a prefix; slot 0
    /// always qualifies because `now` is at least its arrival). Only a
    /// lone request can carry a NaN arrival — `push` rejects any pair
    /// with one — and a one-slot window takes the `live` branch.
    fn arrived(&self, now: f64) -> u32 {
        if self.arrivals[self.len - 1] > now {
            let mut n = 1;
            while self.arrivals[n] <= now {
                n += 1;
            }
            (1 << n) - 1
        } else {
            self.live()
        }
    }

    /// Slots whose bank-row key is `key`.
    fn matching(&self, key: u64) -> u32 {
        let mut m = 0;
        for (k, &slot) in self.keys.iter().enumerate() {
            m |= u32::from(slot == key) << k;
        }
        m & self.live()
    }

    fn push(&mut self, key: u64, arrival_ns: f64, write: bool, row_hit: bool) {
        self.keys[self.len] = key;
        self.arrivals[self.len] = arrival_ns;
        self.writes |= u32::from(write) << self.len;
        self.row_hits |= u32::from(row_hit) << self.len;
        self.len += 1;
    }

    /// Removes slot `pos`, shifting the younger slots down one.
    fn take(&mut self, pos: usize) -> (u64, f64, bool) {
        let out = (self.keys[pos], self.arrivals[pos], (self.writes >> pos) & 1 == 1);
        self.keys.copy_within(pos + 1..self.len, pos);
        self.arrivals.copy_within(pos + 1..self.len, pos);
        let low = (1u32 << pos) - 1;
        self.writes = (self.writes & low) | ((self.writes >> 1) & !low);
        self.row_hits = (self.row_hits & low) | ((self.row_hits >> 1) & !low);
        self.len -= 1;
        out
    }
}

/// One channel's scheduling state: its window of pending requests, its
/// banks' open rows and readiness, its data bus, and its share of the
/// statistics that are summed per channel.
#[derive(Debug, Clone)]
struct Channel {
    window: Window,
    open: Vec<Option<u64>>,
    ready_ns: Vec<f64>,
    bus_free_ns: f64,
    busy_ns: f64,
    latency_ns: f64,
    last_was_write: bool,
    next_refresh_ns: f64,
}

/// The timing constants of one parameter set, in nanoseconds, and the
/// address decode: computed once, by the expressions the schedule has
/// always used.
#[derive(Debug, Clone, Copy)]
struct Timing {
    channel_mask: u64,
    channel_bits: u32,
    column_bits: u32,
    bank_mask: u64,
    burst_ns: f64,
    hit_ns: f64,
    miss_ns: f64,
    activate_ns: f64,
    write_recovery_ns: f64,
    turnaround_ns: f64,
    refresh_ns: f64,
    refi_ns: f64,
}

impl Timing {
    fn new(p: &TimingParams) -> Self {
        Timing {
            channel_mask: p.channels as u64 - 1,
            channel_bits: p.channels.trailing_zeros(),
            column_bits: (p.row_bytes / 64).trailing_zeros(),
            bank_mask: p.banks as u64 - 1,
            burst_ns: f64::from(p.burst_clocks()) * p.tck_ns,
            hit_ns: f64::from(p.t_cas) * p.tck_ns,
            miss_ns: f64::from(p.t_rp + p.t_rcd + p.t_cas) * p.tck_ns,
            activate_ns: f64::from(p.t_rp + p.t_rcd) * p.tck_ns,
            write_recovery_ns: f64::from(p.t_wr) * p.tck_ns,
            turnaround_ns: f64::from(p.t_turnaround) * p.tck_ns,
            refresh_ns: f64::from(p.t_rfc) * p.tck_ns,
            refi_ns: p.t_refi_ns,
        }
    }

    /// A request's bank-row key: its block address with the channel and
    /// column bits dropped. Its bank is the key's low bits, so two
    /// requests share a bank and row exactly when their keys are equal.
    fn key_of(&self, block: u64) -> u64 {
        (block >> self.channel_bits) >> self.column_bits
    }
}

impl Channel {
    fn new(p: &TimingParams) -> Self {
        Channel {
            window: Window {
                keys: [0; WINDOW],
                arrivals: [0.0; WINDOW],
                len: 0,
                writes: 0,
                row_hits: 0,
            },
            open: vec![None; p.banks],
            ready_ns: vec![0.0; p.banks],
            bus_free_ns: 0.0,
            busy_ns: 0.0,
            latency_ns: 0.0,
            last_was_write: false,
            next_refresh_ns: if p.t_refi_ns > 0.0 { p.t_refi_ns } else { f64::MAX },
        }
    }

    /// Adds a request to the window, which must have a free slot.
    fn enqueue(&mut self, t: &Timing, r: Request) {
        let key = t.key_of(r.block);
        let row_hit = self.open[(key & t.bank_mask) as usize] == Some(key);
        self.window.push(key, r.arrival_ns, r.write, row_hit);
    }

    /// Services one request of the (non-empty) window.
    fn schedule(&mut self, t: &Timing, stats: &mut DramStats) {
        let window = &mut self.window;
        let now = self.bus_free_ns.max(window.arrivals[0]);
        // FR-FCFS with write batching: prefer a row hit among the
        // arrived window; failing that, a request that keeps the bus
        // direction (controllers group reads and writes to amortize
        // turnarounds); finally the oldest.
        let arrived = window.arrived(now);
        let same_dir = if self.last_was_write { window.writes } else { !window.writes };
        let pick = if window.row_hits & arrived != 0 {
            window.row_hits & arrived
        } else {
            same_dir & arrived
        };
        let pos = if pick == 0 { 0 } else { pick.trailing_zeros() as usize };
        let (key, arrival_ns, write) = window.take(pos);
        let bank = (key & t.bank_mask) as usize;
        // Rank-wide refresh: when the refresh deadline passes, all banks
        // stall for tRFC and every row closes.
        if now >= self.next_refresh_ns {
            while now >= self.next_refresh_ns {
                let refresh_start = self.next_refresh_ns.max(self.bus_free_ns);
                for ready in &mut self.ready_ns {
                    *ready = ready.max(refresh_start + t.refresh_ns);
                }
                self.next_refresh_ns += t.refi_ns;
                stats.refreshes += 1;
            }
            self.open.fill(None);
            window.row_hits = 0;
        }
        // `ready_ns` is when the bank can accept its next command; the CAS
        // latency pipelines behind the data bursts.
        let issue = arrival_ns.max(self.ready_ns[bank]);
        let hit = self.open[bank] == Some(key);
        let access_ns = if hit { t.hit_ns } else { t.miss_ns };
        // Switching the bus between reads and writes pays a turnaround
        // penalty.
        let turnaround = if self.last_was_write != write && self.busy_ns > 0.0 {
            stats.turnarounds += 1;
            t.turnaround_ns
        } else {
            0.0
        };
        let data_start = (issue + access_ns).max(self.bus_free_ns + turnaround);
        let done = data_start + t.burst_ns;
        self.ready_ns[bank] =
            if hit { issue + t.burst_ns } else { issue + t.activate_ns + t.burst_ns };
        // Writes hold the bank for the write-recovery window.
        if write {
            self.ready_ns[bank] = self.ready_ns[bank].max(done + t.write_recovery_ns);
        }
        if hit {
            stats.row_hits += 1;
        } else {
            // The bank's row changes: its pending requests stop hitting
            // the old row and start hitting the new one.
            stats.row_misses += 1;
            if let Some(old) = self.open[bank] {
                window.row_hits &= !window.matching(old);
            }
            self.open[bank] = Some(key);
            window.row_hits |= window.matching(key);
        }
        if write {
            stats.writes += 1;
        } else {
            stats.reads += 1;
        }
        self.last_was_write = write;
        self.bus_free_ns = done;
        self.busy_ns += t.burst_ns;
        self.latency_ns += done - arrival_ns;
        stats.makespan_ns = stats.makespan_ns.max(done);
    }
}

/// A dual-channel, multi-bank DDR3 timing simulator.
///
/// Requests are distributed to channels and banks by address bits; within
/// each channel a small window is scanned for row hits before falling back
/// to the oldest request (first-ready, first-come-first-served).
///
/// The simulator is incremental: [`DramSim::push`] feeds it one request
/// at a time, in arrival order, and [`DramSim::finish`] drains what is
/// pending and returns the statistics. It holds only each channel's
/// 16-slot window and bank state, never the request stream. A channel
/// services a request whenever its window is full and another request
/// arrives for it, so its window is always its oldest 16 unserviced
/// requests and the schedule is the one a scheduler seeing the whole
/// stream at once would pick. [`DramSim::run`] is `push` over a slice
/// followed by `finish`.
#[derive(Debug, Clone)]
pub struct DramSim {
    params: TimingParams,
    timing: Timing,
    channels: Vec<Channel>,
    /// The statistics so far that `finish` does not compute: the counts,
    /// summed over channels, and `makespan_ns`, their maximum.
    stats: DramStats,
    pushed: u64,
    last_arrival_ns: f64,
}

impl DramSim {
    /// Creates a simulator with the given timing parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `channels` and `banks` are powers of two and
    /// `row_bytes` is a power of two of at least 64: requests are routed
    /// by address bits, so any other geometry would silently leave
    /// channels or banks unused.
    pub fn new(params: TimingParams) -> Self {
        assert!(
            params.channels.is_power_of_two(),
            "TimingParams::channels must be a power of two, got {}",
            params.channels
        );
        assert!(
            params.banks.is_power_of_two(),
            "TimingParams::banks must be a power of two, got {}",
            params.banks
        );
        assert!(
            params.row_bytes >= 64 && params.row_bytes.is_power_of_two(),
            "TimingParams::row_bytes must be a power of two of at least 64, got {}",
            params.row_bytes
        );
        DramSim {
            params,
            timing: Timing::new(&params),
            channels: (0..params.channels).map(|_| Channel::new(&params)).collect(),
            stats: DramStats::default(),
            pushed: 0,
            last_arrival_ns: 0.0,
        }
    }

    /// The timing parameters in force.
    pub fn params(&self) -> TimingParams {
        self.params
    }

    /// Adds one request. If its channel's window is full, the channel
    /// first services one of the requests already in it.
    ///
    /// # Panics
    ///
    /// Panics if `r` arrives before the request pushed before it.
    #[inline]
    pub fn push(&mut self, r: Request) {
        if self.pushed > 0 {
            assert!(r.arrival_ns >= self.last_arrival_ns, "requests must be sorted by arrival");
        }
        self.pushed += 1;
        self.last_arrival_ns = r.arrival_ns;
        let ch = &mut self.channels[(r.block & self.timing.channel_mask) as usize];
        if ch.window.len == WINDOW {
            ch.schedule(&self.timing, &mut self.stats);
        }
        ch.enqueue(&self.timing, r);
    }

    /// Services every pending request, channel by channel, and returns
    /// the statistics of everything pushed since the simulator was made
    /// or last finished. The simulator is then empty and ready for a new
    /// stream.
    ///
    /// `avg_latency_ns` is the channels' latency sums, added in channel
    /// order, over the request count.
    pub fn finish(&mut self) -> DramStats {
        let fresh = DramSim::new(self.params);
        let DramSim { timing, mut channels, mut stats, pushed, .. } =
            std::mem::replace(self, fresh);
        let mut total_latency = 0.0;
        for ch in &mut channels {
            while ch.window.len > 0 {
                ch.schedule(&timing, &mut stats);
            }
            stats.busy_ns = stats.busy_ns.max(ch.busy_ns);
            total_latency += ch.latency_ns;
        }
        if pushed > 0 {
            stats.avg_latency_ns = total_latency / pushed as f64;
        }
        stats
    }

    /// Services `requests` (must be sorted by `arrival_ns`) and returns
    /// aggregate statistics: [`DramSim::push`] on each, then
    /// [`DramSim::finish`].
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not monotonically non-decreasing.
    pub fn run(&mut self, requests: &[Request]) -> DramStats {
        for &r in requests {
            self.push(r);
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(blocks: &[u64], spacing_ns: f64) -> Vec<Request> {
        blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| Request { block: b, write: false, arrival_ns: i as f64 * spacing_ns })
            .collect()
    }

    #[test]
    fn empty_run() {
        let mut sim = DramSim::new(TimingParams::ddr3_1600());
        let stats = sim.run(&[]);
        assert_eq!(stats.reads + stats.writes, 0);
    }

    #[test]
    fn sequential_blocks_hit_open_rows() {
        // Blocks 0..64 within one row per channel: first access per
        // channel misses, the rest hit.
        let mut sim = DramSim::new(TimingParams::ddr3_1600());
        let stats = sim.run(&reads(&(0..64).collect::<Vec<_>>(), 100.0));
        assert_eq!(stats.row_misses, 2); // one per channel
        assert_eq!(stats.row_hits, 62);
        assert!(stats.row_hit_rate() > 0.9);
    }

    #[test]
    fn row_conflicts_pay_full_latency() {
        // Alternate between two rows of the same bank of one channel.
        let p = TimingParams::ddr3_1600();
        let row_stride_blocks = (p.row_bytes / 64) * p.banks as u64 * p.channels as u64;
        let blocks: Vec<u64> = (0..32).map(|i| (i % 2) * row_stride_blocks).collect();
        let mut sim = DramSim::new(p);
        let stats = sim.run(&reads(&blocks, 1000.0));
        assert_eq!(stats.row_hits, 0);
        assert!(stats.avg_latency_ns >= p.row_miss_ns());
    }

    #[test]
    fn faster_dram_is_faster() {
        let blocks: Vec<u64> = (0..1000).map(|i| i * 17).collect();
        let slow = DramSim::new(TimingParams::ddr3_1600()).run(&reads(&blocks, 2.0));
        let fast = DramSim::new(TimingParams::ddr3_1867()).run(&reads(&blocks, 2.0));
        assert!(fast.avg_latency_ns < slow.avg_latency_ns);
        assert!(fast.makespan_ns < slow.makespan_ns);
    }

    #[test]
    fn bandwidth_saturates_under_load() {
        // Back-to-back row hits approach peak bandwidth.
        let p = TimingParams::ddr3_1600();
        let blocks: Vec<u64> = (0..10_000).collect();
        let stats = DramSim::new(p).run(&reads(&blocks, 0.0));
        assert!(stats.bandwidth() > 0.7 * p.peak_bandwidth());
        assert!(stats.bandwidth() <= p.peak_bandwidth() * 1.001);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        // Row A, row B (same bank), then row A again, all arrived: the
        // scheduler should service the second row-A request right after
        // the first, before switching to row B.
        let p = TimingParams::ddr3_1600();
        let row_stride = (p.row_bytes / 64) * p.banks as u64 * p.channels as u64;
        let reqs = vec![
            Request { block: 0, write: false, arrival_ns: 0.0 },
            Request { block: row_stride, write: false, arrival_ns: 0.0 },
            Request { block: 2, write: false, arrival_ns: 0.0 },
        ];
        let stats = DramSim::new(p).run(&reqs);
        assert_eq!(stats.row_hits, 1, "the second row-A access should hit");
    }

    #[test]
    fn writes_are_counted() {
        let reqs = vec![
            Request { block: 0, write: true, arrival_ns: 0.0 },
            Request { block: 1, write: false, arrival_ns: 1.0 },
        ];
        let stats = DramSim::new(TimingParams::ddr3_1600()).run(&reqs);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
    }

    #[test]
    #[should_panic(expected = "requests must be sorted by arrival")]
    fn unsorted_arrivals_are_rejected() {
        let reqs = vec![
            Request { block: 0, write: false, arrival_ns: 5.0 },
            Request { block: 1, write: false, arrival_ns: 1.0 },
        ];
        DramSim::new(TimingParams::ddr3_1600()).run(&reqs);
    }

    #[test]
    #[should_panic(expected = "requests must be sorted by arrival")]
    fn unsorted_pushes_are_rejected() {
        let mut sim = DramSim::new(TimingParams::ddr3_1600());
        sim.push(Request { block: 0, write: false, arrival_ns: 5.0 });
        sim.push(Request { block: 1, write: false, arrival_ns: 1.0 });
    }

    #[test]
    fn pushing_one_by_one_matches_run() {
        // Streams long enough to fill and refill every window: spaced,
        // simultaneous and bursty arrivals over a few hot rows, mixed
        // reads and writes, under both presets and a refresh-heavy one.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed >> 33
        };
        let presets = [
            TimingParams::ddr3_1600(),
            TimingParams::ddr3_1867(),
            TimingParams { t_refi_ns: 200.0, ..TimingParams::ddr3_1600() },
        ];
        for p in presets {
            for spacing in [0.0, 1.5, 40.0] {
                let mut now = 0.0;
                let reqs: Vec<Request> = (0..3000)
                    .map(|i| {
                        if i % 64 == 0 {
                            now += 500.0;
                        }
                        now += spacing * (next() % 3) as f64;
                        let row = next() % 4 * (p.row_bytes / 64) * (p.banks * p.channels) as u64;
                        Request {
                            block: row + next() % 64,
                            write: next() % 5 == 0,
                            arrival_ns: now,
                        }
                    })
                    .collect();
                let whole = DramSim::new(p).run(&reqs);
                let mut sim = DramSim::new(p);
                for &r in &reqs {
                    sim.push(r);
                }
                let pushed = sim.finish();
                assert_eq!(format!("{pushed:?}"), format!("{whole:?}"), "spacing {spacing}");
                assert_eq!(pushed.reads + pushed.writes, reqs.len() as u64);
                // `finish` leaves an empty simulator behind.
                let again = sim.run(&reqs);
                assert_eq!(format!("{again:?}"), format!("{whole:?}"), "spacing {spacing}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "TimingParams::channels must be a power of two, got 3")]
    fn three_channels_are_rejected() {
        DramSim::new(TimingParams { channels: 3, ..TimingParams::ddr3_1600() });
    }

    #[test]
    #[should_panic(expected = "TimingParams::banks must be a power of two, got 6")]
    fn six_banks_are_rejected() {
        DramSim::new(TimingParams { banks: 6, ..TimingParams::ddr3_1600() });
    }

    #[test]
    #[should_panic(
        expected = "TimingParams::row_bytes must be a power of two of at least 64, got 32"
    )]
    fn rows_below_one_block_are_rejected() {
        DramSim::new(TimingParams { row_bytes: 32, ..TimingParams::ddr3_1600() });
    }

    #[test]
    fn channels_work_in_parallel() {
        // All-even blocks load one channel; even+odd spread across two.
        let even: Vec<u64> = (0..2000).map(|i| i * 2).collect();
        let spread: Vec<u64> = (0..2000).collect();
        let s1 = DramSim::new(TimingParams::ddr3_1600()).run(&reads(&even, 0.0));
        let s2 = DramSim::new(TimingParams::ddr3_1600()).run(&reads(&spread, 0.0));
        assert!(s2.makespan_ns < s1.makespan_ns * 0.7);
    }
}
