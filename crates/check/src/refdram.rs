//! An exact reference for the DDR3 scheduler, and a differential fuzzer
//! that holds [`grdram::DramSim`] to it.
//!
//! [`RefDram`] is the FR-FCFS-with-write-batching algorithm written as
//! plainly as possible: one `VecDeque` of pending requests per channel, a
//! window scan that re-decodes every address it looks at, and `Option`
//! open rows. It shares nothing with grdram but the public types
//! ([`Request`], [`DramStats`], [`TimingParams`]), and performs every
//! floating-point operation in the same order, so the two must agree on
//! every [`DramStats`] field down to the bit.
//!
//! [`gen_case`] draws seeded request streams over the geometry and timing
//! space (both presets, heavy refresh, 1–4 channels, 1–8 banks, 64 B–8 KB
//! rows, simultaneous, jittered, spaced and bursty arrivals, a few hot
//! rows per bank); [`differential`] compares the two models on one
//! stream and [`shrink`] reduces a divergence to a minimal stream. The
//! [`Mutation`]s exist only here, in the reference, so the campaign can
//! prove it notices a scheduler that is wrong in a small way.

use std::collections::VecDeque;

use grdram::{DramSim, DramStats, Request, TimingParams};
use grsynth::rng::FrameRng;

/// A deliberate fault in the reference, for the harness self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The faithful reference.
    None,
    /// Reorder within 15 requests instead of 16.
    Window15,
    /// Skip the same-direction preference: with no row hit in the
    /// window, always issue the oldest request.
    NoSameDirection,
}

/// Requests the scheduler may reorder among (the oldest `WINDOW`).
const WINDOW: usize = 16;

/// One channel of the reference: its pending requests in arrival order
/// and the state of its banks and data bus.
struct RefChannel {
    pending: VecDeque<Request>,
    open_row: Vec<Option<u64>>,
    bank_ready_ns: Vec<f64>,
    bus_free_ns: f64,
    busy_ns: f64,
    last_was_write: bool,
    next_refresh_ns: f64,
    latency_ns: f64,
}

/// The reference FR-FCFS DDR3 model.
#[derive(Debug, Clone, Copy)]
pub struct RefDram {
    p: TimingParams,
    mutation: Mutation,
}

impl RefDram {
    /// A reference for `p` carrying `mutation` ([`Mutation::None`] for
    /// the faithful one).
    pub fn new(p: TimingParams, mutation: Mutation) -> Self {
        RefDram { p, mutation }
    }

    /// `(channel, bank, row)` of a block, by division and remainder.
    fn locate(&self, block: u64) -> (usize, usize, u64) {
        let p = &self.p;
        let channels = p.channels as u64;
        let banks = p.banks as u64;
        let line = block / channels / (p.row_bytes / 64);
        ((block % channels) as usize, (line % banks) as usize, line / banks)
    }

    /// Services `requests` (sorted by arrival) and returns the statistics.
    pub fn run(&self, requests: &[Request]) -> DramStats {
        let p = self.p;
        let mut stats = DramStats::default();
        if requests.is_empty() {
            return stats;
        }
        let mut channels: Vec<RefChannel> = (0..p.channels)
            .map(|_| RefChannel {
                pending: VecDeque::new(),
                open_row: vec![None; p.banks],
                bank_ready_ns: vec![0.0; p.banks],
                bus_free_ns: 0.0,
                busy_ns: 0.0,
                last_was_write: false,
                next_refresh_ns: if p.t_refi_ns > 0.0 { p.t_refi_ns } else { f64::MAX },
                latency_ns: 0.0,
            })
            .collect();
        for r in requests {
            channels[self.locate(r.block).0].pending.push_back(*r);
        }
        let window = if self.mutation == Mutation::Window15 { WINDOW - 1 } else { WINDOW };

        for ch in &mut channels {
            while let Some(head) = ch.pending.front() {
                let now = ch.bus_free_ns.max(head.arrival_ns);
                // First arrived row hit, else first arrived request in
                // the bus's current direction, else the oldest.
                let mut hit_at = None;
                let mut same_dir_at = None;
                for (pos, r) in ch.pending.iter().take(window).enumerate() {
                    if r.arrival_ns > now {
                        break;
                    }
                    let (_, bank, row) = self.locate(r.block);
                    if ch.open_row[bank] == Some(row) {
                        hit_at = Some(pos);
                        break;
                    }
                    if same_dir_at.is_none()
                        && r.write == ch.last_was_write
                        && self.mutation != Mutation::NoSameDirection
                    {
                        same_dir_at = Some(pos);
                    }
                }
                let pos = hit_at.or(same_dir_at).unwrap_or(0);
                let r = ch.pending.remove(pos).expect("picked request is pending");
                let (_, bank, row) = self.locate(r.block);

                while now >= ch.next_refresh_ns {
                    let start = ch.next_refresh_ns.max(ch.bus_free_ns);
                    for b in 0..p.banks {
                        ch.open_row[b] = None;
                        ch.bank_ready_ns[b] =
                            ch.bank_ready_ns[b].max(start + f64::from(p.t_rfc) * p.tck_ns);
                    }
                    ch.next_refresh_ns += p.t_refi_ns;
                    stats.refreshes += 1;
                }

                let hit = ch.open_row[bank] == Some(row);
                let issue = r.arrival_ns.max(ch.bank_ready_ns[bank]);
                let access_ns = if hit {
                    f64::from(p.t_cas) * p.tck_ns
                } else {
                    f64::from(p.t_rp + p.t_rcd + p.t_cas) * p.tck_ns
                };
                let mut turnaround_ns = 0.0;
                if ch.last_was_write != r.write && ch.busy_ns > 0.0 {
                    stats.turnarounds += 1;
                    turnaround_ns = f64::from(p.t_turnaround) * p.tck_ns;
                }
                let burst_ns = f64::from(p.burst_clocks()) * p.tck_ns;
                let done = (issue + access_ns).max(ch.bus_free_ns + turnaround_ns) + burst_ns;
                ch.open_row[bank] = Some(row);
                ch.bank_ready_ns[bank] = if hit {
                    issue + burst_ns
                } else {
                    issue + f64::from(p.t_rp + p.t_rcd) * p.tck_ns + burst_ns
                };
                if r.write {
                    ch.bank_ready_ns[bank] =
                        ch.bank_ready_ns[bank].max(done + f64::from(p.t_wr) * p.tck_ns);
                    stats.writes += 1;
                } else {
                    stats.reads += 1;
                }
                if hit {
                    stats.row_hits += 1;
                } else {
                    stats.row_misses += 1;
                }
                ch.last_was_write = r.write;
                ch.bus_free_ns = done;
                ch.busy_ns += burst_ns;
                ch.latency_ns += done - r.arrival_ns;
                stats.makespan_ns = stats.makespan_ns.max(done);
            }
        }
        stats.busy_ns = channels.iter().map(|c| c.busy_ns).fold(0.0, f64::max);
        // Each channel sums its own latencies; the sums add in channel
        // order.
        let total_latency: f64 = channels.iter().fold(0.0, |sum, c| sum + c.latency_ns);
        stats.avg_latency_ns = total_latency / requests.len() as f64;
        stats
    }
}

/// Compares every field of two runs, floats by their bits; names the
/// first field that differs.
fn compare(fast: &DramStats, reference: &DramStats) -> Result<(), String> {
    let counts = [
        ("reads", fast.reads, reference.reads),
        ("writes", fast.writes, reference.writes),
        ("row_hits", fast.row_hits, reference.row_hits),
        ("row_misses", fast.row_misses, reference.row_misses),
        ("refreshes", fast.refreshes, reference.refreshes),
        ("turnarounds", fast.turnarounds, reference.turnarounds),
    ];
    let times = [
        ("avg_latency_ns", fast.avg_latency_ns, reference.avg_latency_ns),
        ("busy_ns", fast.busy_ns, reference.busy_ns),
        ("makespan_ns", fast.makespan_ns, reference.makespan_ns),
    ];
    for (field, f, r) in counts {
        if f != r {
            return Err(format!("{field}: grdram {f} vs reference {r}"));
        }
    }
    for (field, f, r) in times {
        if f.to_bits() != r.to_bits() {
            return Err(format!("{field}: grdram {f:?} vs reference {r:?}"));
        }
    }
    Ok(())
}

/// Runs `requests` through [`DramSim`] and a [`RefDram`] carrying
/// `mutation`; returns grdram's statistics when every field agrees.
pub fn differential(
    p: TimingParams,
    requests: &[Request],
    mutation: Mutation,
) -> Result<DramStats, String> {
    let fast = DramSim::new(p).run(requests);
    let reference = RefDram::new(p, mutation).run(requests);
    compare(&fast, &reference).map(|()| fast)
}

/// Greedy ddmin over the request stream, in the style of
/// [`crate::fuzz::shrink`]: removes chunks of halving size while the
/// divergence persists. Any subsequence of a sorted stream is sorted, so
/// every candidate is a valid input.
pub fn shrink(p: TimingParams, requests: &[Request], mutation: Mutation) -> Vec<Request> {
    let diverges = |reqs: &[Request]| differential(p, reqs, mutation).is_err();
    let mut cur = requests.to_vec();
    if !diverges(&cur) {
        return cur;
    }
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if diverges(&candidate) {
                cur = candidate;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    cur
}

/// Draws one fuzz case: a memory system and a sorted request stream of
/// at most `max_len` requests. Deterministic in `(seed, case, max_len)`.
pub fn gen_case(seed: u64, case: u32, max_len: usize) -> (TimingParams, Vec<Request>) {
    let mut rng =
        FrameRng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(case.into()));
    let mut below = |n: u64| rng.next_u64() % n;

    let mut p = if below(2) == 0 { TimingParams::ddr3_1600() } else { TimingParams::ddr3_1867() };
    p.t_refi_ns = match below(3) {
        0 => 0.0,
        1 => 50.0 + below(501) as f64,
        _ => p.t_refi_ns,
    };
    p.channels = 1 << below(3);
    p.banks = 1 << below(4);
    p.row_bytes = 64 << below(8);
    let cols = p.row_bytes / 64;

    // A few hot rows per bank, so hits, conflicts and bus turnarounds
    // interleave; now and then a block anywhere in the address space.
    let rows = 1 + below(4);
    let write_pct = below(61);
    let len = 1 + below(max_len as u64) as usize;
    let mut blocks = Vec::with_capacity(len);
    for _ in 0..len {
        let block = if below(50) == 0 {
            below(u64::MAX)
        } else {
            let line = below(rows) * p.banks as u64 + below(p.banks as u64);
            (line * cols + below(cols.min(4))) * p.channels as u64 + below(p.channels as u64)
        };
        blocks.push((block, below(100) < write_pct));
    }

    // Arrival shapes: all at once, jittered, evenly spaced, or bursts.
    let shape = below(4);
    let spacing = [0.5, 2.0, 5.0, 20.0, 100.0][below(5) as usize];
    let mut t = 0.0;
    let requests = blocks
        .into_iter()
        .enumerate()
        .map(|(i, (block, write))| {
            t += match shape {
                0 => 0.0,
                1 => (below(1000) as f64 / 1000.0) * spacing,
                2 => spacing,
                _ if i % (1 + below(24) as usize) == 0 => spacing * 10.0,
                _ => 0.0,
            };
            Request { block, write, arrival_ns: t }
        })
        .collect();
    (p, requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    use grbench::{framecache, ExperimentConfig};
    use grcache::{Llc, MemoryLog};
    use grsynth::{AppProfile, Scale};
    use gspc::registry;

    /// Runs `cases` generated cases against the reference; panics with a
    /// shrunk reproducer on the first divergence. Returns the summed
    /// statistics so callers can check what the campaign exercised.
    fn campaign(seed: u64, cases: u32, max_len: usize) -> DramStats {
        let mut sum = DramStats::default();
        for case in 0..cases {
            let (p, reqs) = gen_case(seed, case, max_len);
            match differential(p, &reqs, Mutation::None) {
                Ok(s) => {
                    sum.row_hits += s.row_hits;
                    sum.row_misses += s.row_misses;
                    sum.refreshes += s.refreshes;
                    sum.turnarounds += s.turnarounds;
                    sum.writes += s.writes;
                    sum.reads += s.reads;
                }
                Err(e) => {
                    let small = shrink(p, &reqs, Mutation::None);
                    panic!("seed {seed} case {case}: {e}\nparams {p:?}\nreproducer {small:?}");
                }
            }
        }
        sum
    }

    #[test]
    fn fuzzed_streams_match_the_reference_bit_for_bit() {
        let sum = campaign(0xD7A3, 400, 96);
        // The campaign really exercises every scheduler branch.
        assert!(sum.row_hits > 0 && sum.row_misses > 0, "{sum:?}");
        assert!(sum.refreshes > 0 && sum.turnarounds > 0, "{sum:?}");
        assert!(sum.reads > 0 && sum.writes > 0, "{sum:?}");
    }

    #[test]
    fn generator_covers_the_geometry_and_arrival_space() {
        let mut channels = [false; 3];
        let mut banks = [false; 4];
        let mut rows = [false; 8];
        let (mut no_refresh, mut heavy_refresh, mut fast_preset, mut long_window) =
            (false, false, false, false);
        for case in 0..400 {
            let (p, reqs) = gen_case(0xD7A3, case, 96);
            channels[p.channels.trailing_zeros() as usize] = true;
            banks[p.banks.trailing_zeros() as usize] = true;
            rows[(p.row_bytes / 64).trailing_zeros() as usize] = true;
            no_refresh |= p.t_refi_ns == 0.0;
            heavy_refresh |= (50.0..=550.0).contains(&p.t_refi_ns);
            fast_preset |= p.t_cas == TimingParams::ddr3_1867().t_cas;
            long_window |= reqs.iter().filter(|r| r.arrival_ns == 0.0).count() > 2 * WINDOW;
            assert!(reqs.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        }
        assert!(channels.iter().chain(&banks).chain(&rows).all(|&seen| seen));
        assert!(no_refresh && heavy_refresh && fast_preset && long_window);
    }

    /// The DRAM-bound memory logs of real tiny-scale frames, under the
    /// Figure 15 and Figure 17 (upper) memory systems, agree bit for bit.
    #[test]
    fn real_memory_logs_match_the_reference() {
        let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
        let llc_cfg = cfg.llc(8);
        for abbrev in ["BioShock", "HAWX"] {
            let app = AppProfile::by_abbrev(abbrev).expect("Table 1 app");
            let data = framecache::frame_data(&app, 0, Scale::Tiny);
            for policy in ["DRRIP", "GSPC+UCD"] {
                let created = registry::create(policy, &llc_cfg).expect("registry policy");
                let mut llc = Llc::with_observer(llc_cfg, created, MemoryLog::new());
                llc.run_source(&mut data.trace.source()).expect("in-memory replay");
                let reqs: Vec<Request> = llc
                    .memory_log()
                    .expect("memory log attached")
                    .iter()
                    .map(|&(block, write)| Request { block, write, arrival_ns: 0.0 })
                    .collect();
                assert!(reqs.len() > 1000, "{abbrev}/{policy}: only {} requests", reqs.len());
                for p in [TimingParams::ddr3_1600(), TimingParams::ddr3_1867()] {
                    differential(p, &reqs, Mutation::None)
                        .unwrap_or_else(|e| panic!("{abbrev}/{policy} on {}: {e}", p.name));
                }
            }
        }
    }

    /// The long campaign: 20k cases on a second seed, with longer streams.
    #[test]
    #[ignore = "long campaign; run explicitly with --ignored"]
    fn long_campaign_matches_the_reference() {
        campaign(0x5EED_D7A3, 20_000, 160);
    }

    /// Harness self-test: each reference mutation is found within the
    /// campaign and shrunk to a small reproducer — at most eight requests
    /// for the lost direction preference; a window one slot short can
    /// only show with more than 15 requests pending, so there the bound
    /// is one past the window.
    #[test]
    #[ignore = "harness self-test; run explicitly with --ignored"]
    fn mutated_reference_is_caught_and_shrunk() {
        for (mutation, bound) in [(Mutation::NoSameDirection, 8), (Mutation::Window15, WINDOW + 1)]
        {
            let (p, reqs) = (0..2000)
                .map(|case| gen_case(0xBAD, case, 96))
                .find(|(p, reqs)| differential(*p, reqs, mutation).is_err())
                .unwrap_or_else(|| panic!("{mutation:?} was never detected"));
            let small = shrink(p, &reqs, mutation);
            assert!(small.len() <= bound, "{mutation:?}: {} requests remain", small.len());
            differential(p, &small, mutation).expect_err("shrunk stream must still diverge");
            differential(p, &small, Mutation::None).expect("the faithful reference agrees");
        }
    }
}
