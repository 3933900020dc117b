//! Seeded workload inputs. The same seed always yields the same inputs;
//! the simulator only ever sees what these functions generate.

use grsynth::{AppProfile, GRAPH_PROFILES};
use gspc::registry;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted by `stream` so each workload draws an
    /// independent sequence from the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Frames per application in the paper sweep (`run_workload` always
/// replays frames `0..FRAMES` of every app).
pub const SWEEP_FRAMES: u32 = 2;

/// The paper sweep: the Figure 12 policy group plus DRRIP and OPT, in a
/// seed-chosen order, on the paper's baseline 8 MB LLC. `run_workload`
/// replays fixed frames, and a seed-chosen LLC size would change the work
/// per access, so the seed only reorders the cells.
pub struct SweepInputs {
    pub llc_mb: u64,
    pub policies: Vec<String>,
}

impl SweepInputs {
    pub fn from_seed(seed: u64) -> SweepInputs {
        let mut rng = Rng::new(seed, 1);
        let mut policies = registry::group_names(registry::GROUP_FIG12);
        for extra in ["DRRIP", "OPT"] {
            if !policies.iter().any(|p| p == extra) {
                policies.push(extra.to_string());
            }
        }
        rng.shuffle(&mut policies);
        SweepInputs { llc_mb: 8, policies }
    }
}

/// Coherence values drawn per frame-graph profile in the stream workload.
pub const STREAM_COHERENCES: usize = 4;
/// Frames replayed per (profile, coherence) design point.
pub const STREAM_FRAMES: u32 = 4;

/// One frame-graph cell: a built-in profile at a coherence, one frame.
#[derive(Debug, Clone)]
pub struct GraphCell {
    pub profile: &'static str,
    pub coherence_milli: u64,
    pub frame: u32,
}

/// Every built-in profile × seed-drawn distinct coherences × frames.
pub fn stream_cells(seed: u64) -> Vec<GraphCell> {
    let mut rng = Rng::new(seed, 2);
    let mut cells = Vec::new();
    for profile in GRAPH_PROFILES {
        let mut drawn: Vec<u64> = Vec::new();
        while drawn.len() < STREAM_COHERENCES {
            let c = rng.below(1001) as u64;
            if !drawn.contains(&c) {
                drawn.push(c);
            }
        }
        for &c in &drawn {
            for frame in 0..STREAM_FRAMES {
                cells.push(GraphCell { profile: profile.name, coherence_milli: c, frame });
            }
        }
    }
    cells
}

/// A request class of the serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// New profile coherence: the frame cache and the result cache miss.
    Synth,
    /// New (LLC size, policy) pair on app frames set-up already warmed.
    Replay,
    /// Resubmission of a spec that has already completed.
    Hit,
    /// A spec the daemon never ran whose result an earlier daemon left in
    /// the disk tier of the result cache.
    Stored,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Synth, Class::Replay, Class::Hit, Class::Stored];

    pub fn name(self) -> &'static str {
        match self {
            Class::Synth => "synth",
            Class::Replay => "replay",
            Class::Hit => "hit",
            Class::Stored => "stored",
        }
    }

    /// Whether the daemon must execute a request of this class.
    pub fn is_cold(self) -> bool {
        matches!(self, Class::Synth | Class::Replay)
    }
}

/// One scheduled request: its class, its `POST /v1/jobs` body, and the
/// offset from the start of the run at which it is due.
#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    pub body: String,
    pub due_s: f64,
}

/// Apps replayed by `replay` requests; set-up warms frame 0 of each.
const SERVE_APPS: usize = 12;

/// The warm-up spec set-up submits: frame 0 of every app, one policy. It
/// is also the first spec `hit` requests may resubmit.
pub fn warm_spec() -> String {
    r#"{"frames": 1, "policies": ["NRU"], "llc_mb": 8}"#.to_string()
}

/// A `hit` only resubmits specs due at least this long before it, so the
/// resubmitted job has completed at the offered rate.
const HIT_AGE_S: f64 = 1.5;

/// Requests per second the open loop offers. The daemon spends 27-38 ms of
/// CPU per cold request of this mix (2-vCPU VM), so with 70% of requests
/// cold one worker completes about 40 requests/s, and 22/s keeps it a
/// little over half busy.
pub const SERVE_RATE: f64 = 22.0;

/// Deals its items in seeded shuffled rounds: each round hands out every
/// item once, so any run of whole rounds holds each item equally often.
struct Deck<T> {
    items: Vec<T>,
    left: Vec<T>,
}

impl<T: Clone> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        Deck { items, left: Vec::new() }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left = self.items.clone();
            rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("refilled above")
    }
}

/// (LLC size, policy) pairs dealt from one deck of sizes and one of
/// policies, never the same pair twice for one app.
struct Pairs {
    sizes: Deck<u64>,
    policies: Deck<&'static str>,
    used: Vec<(usize, u64, &'static str)>,
}

impl Pairs {
    fn new() -> Pairs {
        let policies =
            registry::ALL_POLICIES.iter().filter(|e| !e.needs_next_use()).map(|e| e.name);
        Pairs {
            sizes: Deck::new(vec![1, 2, 4, 16, 32, 64]),
            policies: Deck::new(policies.collect()),
            used: Vec::new(),
        }
    }

    fn fresh(&mut self, rng: &mut Rng, app: usize) -> (u64, &'static str) {
        let m = self.sizes.deal(rng);
        loop {
            let p = self.policies.deal(rng);
            if !self.used.contains(&(app, m, p)) {
                self.used.push((app, m, p));
                return (m, p);
            }
        }
    }
}

/// The open-loop schedule: [`SERVE_RATE`] requests per second for
/// `seconds`. Every block of ten consecutive requests holds 3 synth,
/// 4 replay, 2 hit and 1 stored request in a seeded order. Synth requests
/// cycle through the profiles, replay and stored requests through the apps
/// and, in seeded rounds, through the LLC sizes and policies, so two seeds
/// offer nearly the same work and differ in which coherences they draw and
/// how sizes, policies and apps pair up.
pub fn serve_schedule(seed: u64, seconds: f64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 3);
    let apps: Vec<String> = AppProfile::all().iter().map(|a| a.abbrev.to_string()).collect();
    let mut used_coherence: Vec<(usize, u64)> = Vec::new();
    let (mut replay_pairs, mut stored_pairs) = (Pairs::new(), Pairs::new());
    let mut sent: Vec<(f64, String)> = vec![(f64::NEG_INFINITY, warm_spec())];
    let (mut synths, mut replays, mut stored) = (0usize, 0usize, 0usize);
    let mut blocks = Deck::new(
        [[Class::Synth; 3].as_slice(), &[Class::Replay; 4], &[Class::Hit; 2], &[Class::Stored; 1]]
            .concat(),
    );

    let count = (SERVE_RATE * seconds).floor() as usize;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let class = blocks.deal(&mut rng);
        let due_s = i as f64 / SERVE_RATE;
        let body = match class {
            Class::Synth => {
                let p = synths % GRAPH_PROFILES.len();
                synths += 1;
                let c = loop {
                    let c = rng.below(1001) as u64;
                    if !used_coherence.contains(&(p, c)) {
                        break c;
                    }
                };
                used_coherence.push((p, c));
                format!(
                    r#"{{"profile": "{}", "coherence": {}, "frames": 2, "policies": ["DRRIP"]}}"#,
                    GRAPH_PROFILES[p].name,
                    c as f64 / 1000.0
                )
            }
            Class::Replay => {
                let a = replays % SERVE_APPS;
                replays += 1;
                let (m, p) = replay_pairs.fresh(&mut rng, a);
                // Two neighbouring apps per job, so a replay costs about
                // half a synth job.
                format!(
                    r#"{{"apps": ["{}", "{}"], "frames": 1, "policies": ["{p}"], "llc_mb": {m}}}"#,
                    apps[a],
                    apps[(a + 1) % SERVE_APPS]
                )
            }
            Class::Stored => {
                // One app per job: no replay spec names a single app, so
                // the daemon never runs these itself.
                let a = stored % SERVE_APPS;
                stored += 1;
                let (m, p) = stored_pairs.fresh(&mut rng, a);
                format!(
                    r#"{{"apps": ["{}"], "frames": 1, "policies": ["{p}"], "llc_mb": {m}}}"#,
                    apps[a]
                )
            }
            Class::Hit => {
                let old: Vec<&(f64, String)> =
                    sent.iter().filter(|(t, _)| *t <= due_s - HIT_AGE_S).collect();
                old[rng.below(old.len())].1.clone()
            }
        };
        if class != Class::Hit {
            sent.push((due_s, body.clone()));
        }
        out.push(Request { class, body, due_s });
    }
    out
}
