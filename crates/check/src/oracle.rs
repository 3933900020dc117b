//! Reference oracles: independent reimplementations of the registry
//! policies.
//!
//! Each oracle here is written in the most obvious style available — side
//! tables keyed by `(bank, set)`, plain `bool`/`u8`/`u64` per-way state,
//! the textbook scan-and-age RRIP victim loop — and deliberately never
//! touches [`Block::meta`]. A production policy that packs its state into
//! the metadata word incorrectly therefore diverges from its oracle on the
//! first decision the corruption influences.
//!
//! [`oracle_for`] resolves any accepted policy spelling through the
//! registry ([`gspc::registry::resolve`]) and dispatches on the row's
//! [`OracleRef`] key, so the oracle vocabulary can never drift from the
//! registry's: policies that opt out (the auxiliary baselines, with a
//! documented reason in their metadata) still get differential coverage
//! through the registry-clone replay in [`crate::fuzz`].

use std::collections::HashMap;

use grcache::{AccessInfo, Block, FillInfo, LlcConfig, Policy};
use grtrace::{PolicyClass, StreamId};
use gspc::registry::{self, OracleRef};
use gspc::DEFAULT_T;

/// Builds the independent oracle for a registry policy name, or `None`
/// when the policy has no oracle (it is then verified against a registry
/// clone only). Accepts every spelling the registry accepts — aliases and
/// parameterized `GSPZTC(t=N)` forms resolve to their governing row.
pub fn oracle_for(name: &str, cfg: &LlcConfig) -> Option<Box<dyn Policy>> {
    let resolved = registry::resolve(name)?;
    let key = match resolved.entry().meta.oracle {
        OracleRef::Key(key) => key,
        OracleRef::OptOut(_) => return None,
    };
    let t = resolved.threshold().unwrap_or(DEFAULT_T);
    build_oracle(key, cfg, t)
}

/// The oracle constructor table, keyed by [`OracleRef::Key`]. Adding a
/// policy with an independent oracle means one registry row plus one arm
/// here; the coverage test proves every registered key builds.
fn build_oracle(key: &str, cfg: &LlcConfig, t: u32) -> Option<Box<dyn Policy>> {
    Some(match key {
        "nru" => Box::new(OracleNru::new()),
        "lru" => Box::new(OracleLru::new()),
        "srrip-2" => Box::new(OracleSrrip::new(2)),
        "drrip-2" => Box::new(OracleDrrip::new(2)),
        "drrip-4" => Box::new(OracleDrrip::new(4)),
        "ship" => Box::new(OracleShip::new(cfg)),
        "gspztc" => Box::new(OracleGspztc::new(cfg, t)),
        "tse" => Box::new(OracleTse::new(cfg, t, false)),
        "gspc" => Box::new(OracleTse::new(cfg, t, true)),
        "gspc+ucd" => Box::new(OracleUcd::new(OracleTse::new(cfg, t, true))),
        "drrip+ucd" => Box::new(OracleUcd::new(OracleDrrip::new(2))),
        "nru+ucd" => Box::new(OracleUcd::new(OracleNru::new())),
        "opt" => Box::new(OracleOpt::new()),
        _ => return None,
    })
}

/// Lazily allocated per-way side state, keyed by `(bank, set_in_bank)`.
#[derive(Debug, Clone)]
struct PerSet<W> {
    map: HashMap<(usize, usize), Vec<W>>,
}

impl<W: Clone + Default> PerSet<W> {
    fn new() -> Self {
        PerSet { map: HashMap::new() }
    }

    fn set(&mut self, a: &AccessInfo, ways: usize) -> &mut Vec<W> {
        self.map.entry((a.bank, a.set_in_bank)).or_insert_with(|| vec![W::default(); ways])
    }
}

/// The textbook RRIP victim loop: scan for a block at the distant RRPV,
/// aging every block by one until one appears, and take the first such way.
fn rrip_victim(rrpvs: &mut [u8], distant: u8) -> usize {
    loop {
        if let Some(i) = rrpvs.iter().position(|&r| r == distant) {
            return i;
        }
        for r in rrpvs.iter_mut() {
            *r += 1;
        }
    }
}

// --- SRRIP -----------------------------------------------------------------

#[derive(Debug, Clone)]
struct OracleSrrip {
    distant: u8,
    sets: PerSet<u8>,
}

impl OracleSrrip {
    fn new(bits: u32) -> Self {
        OracleSrrip { distant: ((1u32 << bits) - 1) as u8, sets: PerSet::new() }
    }
}

impl Policy for OracleSrrip {
    fn name(&self) -> &str {
        "oracle:SRRIP"
    }

    fn state_bits_per_block(&self) -> u32 {
        0
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        self.sets.set(a, set.len())[way] = 0;
    }

    fn choose_victim(&mut self, a: &AccessInfo, set: &mut [Block]) -> usize {
        let distant = self.distant;
        rrip_victim(self.sets.set(a, set.len()), distant)
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        let rrpv = self.distant - 1;
        self.sets.set(a, set.len())[way] = rrpv;
        FillInfo::rrip(rrpv, self.distant)
    }
}

// --- DRRIP -----------------------------------------------------------------

#[derive(Debug, Clone)]
struct OracleDrrip {
    distant: u8,
    psel: u32,
    brrip_fills: u64,
    sets: PerSet<u8>,
}

/// DRRIP duel constants, spelled out: 10-bit PSEL, leaders at set residues
/// 1 (SRRIP) and 2 (BRRIP) modulo 64.
const PSEL_MAX: u32 = 1023;

impl OracleDrrip {
    fn new(bits: u32) -> Self {
        OracleDrrip {
            distant: ((1u32 << bits) - 1) as u8,
            psel: PSEL_MAX / 2,
            brrip_fills: 0,
            sets: PerSet::new(),
        }
    }
}

impl Policy for OracleDrrip {
    fn name(&self) -> &str {
        "oracle:DRRIP"
    }

    fn state_bits_per_block(&self) -> u32 {
        0
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        self.sets.set(a, set.len())[way] = 0;
    }

    fn choose_victim(&mut self, a: &AccessInfo, set: &mut [Block]) -> usize {
        let distant = self.distant;
        rrip_victim(self.sets.set(a, set.len()), distant)
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        // The duel observes the miss before the insertion decision.
        match a.set_in_bank % 64 {
            1 if self.psel < PSEL_MAX => self.psel += 1,
            2 => self.psel = self.psel.saturating_sub(1),
            _ => {}
        }
        let use_brrip = match a.set_in_bank % 64 {
            1 => false,
            2 => true,
            _ => self.psel > PSEL_MAX / 2,
        };
        let rrpv = if use_brrip {
            self.brrip_fills += 1;
            if self.brrip_fills.is_multiple_of(32) {
                self.distant - 1
            } else {
                self.distant
            }
        } else {
            self.distant - 1
        };
        self.sets.set(a, set.len())[way] = rrpv;
        FillInfo::rrip(rrpv, self.distant)
    }
}

// --- SHiP-mem --------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct ShipWay {
    sig: u32,
    reused: bool,
    rrpv: u8,
}

#[derive(Debug, Clone)]
struct OracleShip {
    tables: Vec<HashMap<u32, u8>>,
    sets: PerSet<ShipWay>,
}

impl OracleShip {
    fn new(cfg: &LlcConfig) -> Self {
        OracleShip { tables: vec![HashMap::new(); cfg.banks], sets: PerSet::new() }
    }

    /// 14-bit region signature: block address bits [21:8].
    fn signature(block: u64) -> u32 {
        ((block >> 8) as u32) & ((1 << 14) - 1)
    }
}

impl Policy for OracleShip {
    fn name(&self) -> &str {
        "oracle:SHiP-mem"
    }

    fn state_bits_per_block(&self) -> u32 {
        0
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        let w = &mut self.sets.set(a, set.len())[way];
        w.reused = true;
        w.rrpv = 0;
        let sig = w.sig;
        let c = self.tables[a.bank].entry(sig).or_insert(1);
        *c = (*c + 1).min(7);
    }

    fn choose_victim(&mut self, a: &AccessInfo, set: &mut [Block]) -> usize {
        let ways = self.sets.set(a, set.len());
        let mut rr: Vec<u8> = ways.iter().map(|w| w.rrpv).collect();
        let v = rrip_victim(&mut rr, 3);
        for (w, r) in ways.iter_mut().zip(rr) {
            w.rrpv = r;
        }
        v
    }

    fn on_evict(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        let w = self.sets.set(a, set.len())[way].clone();
        if !w.reused {
            let c = self.tables[a.bank].entry(w.sig).or_insert(1);
            *c = c.saturating_sub(1);
        }
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        let sig = Self::signature(a.block);
        let dead = self.tables[a.bank].get(&sig).copied().unwrap_or(1) == 0;
        let rrpv = if dead { 3 } else { 2 };
        self.sets.set(a, set.len())[way] = ShipWay { sig, reused: false, rrpv };
        FillInfo::rrip(rrpv, 3)
    }
}

// --- Saturating counter file (shared by GSPZTC and TSE oracles) ------------

/// The GSPC per-bank counter file in plain integers: eight values
/// saturating at 255 and a 7-bit access counter whose saturation halves
/// everything.
#[derive(Debug, Clone, Default)]
struct Counts {
    fill_z: u32,
    hit_z: u32,
    fill_tex: [u32; 2],
    hit_tex: [u32; 2],
    prod: u32,
    cons: u32,
    acc: u32,
}

fn bump(v: &mut u32) {
    if *v < 255 {
        *v += 1;
    }
}

impl Counts {
    fn tick(&mut self) {
        self.acc += 1;
        if self.acc == 127 {
            self.fill_z /= 2;
            self.hit_z /= 2;
            for v in &mut self.fill_tex {
                *v /= 2;
            }
            for v in &mut self.hit_tex {
                *v /= 2;
            }
            self.prod /= 2;
            self.cons /= 2;
            self.acc = 0;
        }
    }

    fn z_below(&self, t: u32) -> bool {
        self.fill_z > self.hit_z.saturating_mul(t)
    }

    fn tex_below(&self, e: usize, t: u32) -> bool {
        self.fill_tex[e] > self.hit_tex[e].saturating_mul(t)
    }
}

// --- GSPZTC ----------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct ZtcWay {
    rt: bool,
    rrpv: u8,
}

#[derive(Debug, Clone)]
struct OracleGspztc {
    t: u32,
    banks: Vec<Counts>,
    sets: PerSet<ZtcWay>,
}

impl OracleGspztc {
    fn new(cfg: &LlcConfig, t: u32) -> Self {
        OracleGspztc { t, banks: vec![Counts::default(); cfg.banks], sets: PerSet::new() }
    }
}

impl Policy for OracleGspztc {
    fn name(&self) -> &str {
        "oracle:GSPZTC"
    }

    fn state_bits_per_block(&self) -> u32 {
        0
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        let was_rt = self.sets.set(a, set.len())[way].rt;
        if a.is_sample {
            let c = &mut self.banks[a.bank];
            match a.class {
                PolicyClass::Z => bump(&mut c.hit_z),
                PolicyClass::Tex => {
                    if was_rt {
                        bump(&mut c.fill_tex[0]);
                    } else {
                        bump(&mut c.hit_tex[0]);
                    }
                }
                _ => {}
            }
            c.tick();
        }
        let w = &mut self.sets.set(a, set.len())[way];
        match a.class {
            PolicyClass::Rt => w.rt = true,
            PolicyClass::Tex if was_rt => w.rt = false,
            _ => {}
        }
        w.rrpv = 0;
    }

    fn choose_victim(&mut self, a: &AccessInfo, set: &mut [Block]) -> usize {
        let ways = self.sets.set(a, set.len());
        let mut rr: Vec<u8> = ways.iter().map(|w| w.rrpv).collect();
        let v = rrip_victim(&mut rr, 3);
        for (w, r) in ways.iter_mut().zip(rr) {
            w.rrpv = r;
        }
        v
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        let rrpv = if a.is_sample {
            let c = &mut self.banks[a.bank];
            match a.class {
                PolicyClass::Z => bump(&mut c.fill_z),
                PolicyClass::Tex => bump(&mut c.fill_tex[0]),
                _ => {}
            }
            c.tick();
            2
        } else {
            let c = &self.banks[a.bank];
            match a.class {
                PolicyClass::Z => {
                    if c.z_below(self.t) {
                        3
                    } else {
                        2
                    }
                }
                PolicyClass::Tex => {
                    if c.tex_below(0, self.t) {
                        3
                    } else {
                        0
                    }
                }
                PolicyClass::Rt => 0,
                PolicyClass::Other => 2,
            }
        };
        self.sets.set(a, set.len())[way] = ZtcWay { rt: a.class == PolicyClass::Rt, rrpv };
        FillInfo::rrip(rrpv, 3)
    }
}

// --- GSPZTC+TSE / GSPC -----------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Epoch {
    Rt,
    E0,
    E1,
    #[default]
    E2,
}

#[derive(Debug, Clone, Default)]
struct TseWay {
    state: Epoch,
    rrpv: u8,
}

#[derive(Debug, Clone)]
struct OracleTse {
    t: u32,
    dynamic_rt: bool,
    banks: Vec<Counts>,
    sets: PerSet<TseWay>,
}

impl OracleTse {
    fn new(cfg: &LlcConfig, t: u32, dynamic_rt: bool) -> Self {
        OracleTse { t, dynamic_rt, banks: vec![Counts::default(); cfg.banks], sets: PerSet::new() }
    }
}

impl Policy for OracleTse {
    fn name(&self) -> &str {
        "oracle:TSE"
    }

    fn state_bits_per_block(&self) -> u32 {
        0
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        let st = self.sets.set(a, set.len())[way].state;
        let rrpv = if a.is_sample {
            let c = &mut self.banks[a.bank];
            match a.class {
                PolicyClass::Z => bump(&mut c.hit_z),
                PolicyClass::Tex => match st {
                    Epoch::Rt => {
                        bump(&mut c.fill_tex[0]);
                        if self.dynamic_rt {
                            bump(&mut c.cons);
                        }
                    }
                    Epoch::E0 => {
                        bump(&mut c.hit_tex[0]);
                        bump(&mut c.fill_tex[1]);
                    }
                    Epoch::E1 => bump(&mut c.hit_tex[1]),
                    Epoch::E2 => {}
                },
                _ => {}
            }
            c.tick();
            0
        } else {
            let c = &self.banks[a.bank];
            match a.class {
                PolicyClass::Tex => match st {
                    Epoch::Rt => {
                        if c.tex_below(0, self.t) {
                            3
                        } else {
                            0
                        }
                    }
                    Epoch::E0 => {
                        if c.tex_below(1, self.t) {
                            3
                        } else {
                            0
                        }
                    }
                    Epoch::E1 | Epoch::E2 => 0,
                },
                _ => 0,
            }
        };
        let w = &mut self.sets.set(a, set.len())[way];
        w.state = match a.class {
            PolicyClass::Rt => Epoch::Rt,
            PolicyClass::Tex => match w.state {
                Epoch::Rt => Epoch::E0,
                Epoch::E0 => Epoch::E1,
                Epoch::E1 | Epoch::E2 => Epoch::E2,
            },
            PolicyClass::Z | PolicyClass::Other => w.state,
        };
        w.rrpv = rrpv;
    }

    fn choose_victim(&mut self, a: &AccessInfo, set: &mut [Block]) -> usize {
        let ways = self.sets.set(a, set.len());
        let mut rr: Vec<u8> = ways.iter().map(|w| w.rrpv).collect();
        let v = rrip_victim(&mut rr, 3);
        for (w, r) in ways.iter_mut().zip(rr) {
            w.rrpv = r;
        }
        v
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        let rrpv = if a.is_sample {
            let c = &mut self.banks[a.bank];
            match a.class {
                PolicyClass::Z => bump(&mut c.fill_z),
                PolicyClass::Tex => bump(&mut c.fill_tex[0]),
                PolicyClass::Rt if self.dynamic_rt => bump(&mut c.prod),
                _ => {}
            }
            c.tick();
            2
        } else {
            let c = &self.banks[a.bank];
            match a.class {
                PolicyClass::Z => {
                    if c.z_below(self.t) {
                        3
                    } else {
                        2
                    }
                }
                PolicyClass::Tex => {
                    if c.tex_below(0, self.t) {
                        3
                    } else {
                        0
                    }
                }
                PolicyClass::Rt => {
                    if self.dynamic_rt {
                        if c.prod > 16 * c.cons {
                            3
                        } else if c.prod > 8 * c.cons {
                            2
                        } else {
                            0
                        }
                    } else {
                        0
                    }
                }
                PolicyClass::Other => 2,
            }
        };
        let state = match a.class {
            PolicyClass::Rt => Epoch::Rt,
            PolicyClass::Tex => Epoch::E0,
            _ => Epoch::E2,
        };
        self.sets.set(a, set.len())[way] = TseWay { state, rrpv };
        FillInfo::rrip(rrpv, 3)
    }
}

// --- UCD wrapper -----------------------------------------------------------

#[derive(Debug, Clone)]
struct OracleUcd<P> {
    inner: P,
}

impl<P: Policy> OracleUcd<P> {
    fn new(inner: P) -> Self {
        OracleUcd { inner }
    }
}

impl<P: Policy> Policy for OracleUcd<P> {
    fn name(&self) -> &str {
        "oracle:UCD"
    }

    fn state_bits_per_block(&self) -> u32 {
        0
    }

    fn should_bypass(&mut self, a: &AccessInfo) -> bool {
        a.stream == StreamId::Display || self.inner.should_bypass(a)
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        self.inner.on_hit(a, set, way)
    }

    fn choose_victim(&mut self, a: &AccessInfo, set: &mut [Block]) -> usize {
        self.inner.choose_victim(a, set)
    }

    fn on_evict(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        self.inner.on_evict(a, set, way)
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        self.inner.on_fill(a, set, way)
    }
}

// --- NRU -------------------------------------------------------------------

#[derive(Debug, Clone)]
struct OracleNru {
    sets: PerSet<bool>,
}

impl OracleNru {
    fn new() -> Self {
        OracleNru { sets: PerSet::new() }
    }
}

impl Policy for OracleNru {
    fn name(&self) -> &str {
        "oracle:NRU"
    }

    fn state_bits_per_block(&self) -> u32 {
        0
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        self.sets.set(a, set.len())[way] = true;
    }

    fn choose_victim(&mut self, a: &AccessInfo, set: &mut [Block]) -> usize {
        let bits = self.sets.set(a, set.len());
        if let Some(i) = bits.iter().position(|&b| !b) {
            return i;
        }
        for b in bits.iter_mut() {
            *b = false;
        }
        0
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        self.sets.set(a, set.len())[way] = true;
        FillInfo::default()
    }
}

// --- LRU -------------------------------------------------------------------

/// Timestamp LRU: a global tick stamps every touch; the victim is the way
/// with the smallest stamp. Ages in the production policy are a
/// permutation, so the minimum stamp and the maximum age always name the
/// same way.
#[derive(Debug, Clone)]
struct OracleLru {
    tick: u64,
    sets: PerSet<u64>,
}

impl OracleLru {
    fn new() -> Self {
        OracleLru { tick: 1, sets: PerSet::new() }
    }

    fn touch(&mut self, a: &AccessInfo, ways: usize, way: usize) {
        let t = self.tick;
        self.tick += 1;
        self.sets.set(a, ways)[way] = t;
    }
}

impl Policy for OracleLru {
    fn name(&self) -> &str {
        "oracle:LRU"
    }

    fn state_bits_per_block(&self) -> u32 {
        0
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        self.touch(a, set.len(), way);
    }

    fn choose_victim(&mut self, a: &AccessInfo, set: &mut [Block]) -> usize {
        let stamps = self.sets.set(a, set.len());
        let (victim, _) = stamps.iter().enumerate().min_by_key(|&(_, s)| s).expect("empty set");
        victim
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        self.touch(a, set.len(), way);
        FillInfo::default()
    }
}

// --- OPT -------------------------------------------------------------------

/// Belady oracle with its own next-use side table. The production LLC
/// resolves ties by taking the *last* way at the maximum, so this scan
/// uses `>=`.
#[derive(Debug, Clone)]
struct OracleOpt {
    sets: PerSet<u64>,
}

impl OracleOpt {
    fn new() -> Self {
        OracleOpt { sets: PerSet::new() }
    }
}

impl Policy for OracleOpt {
    fn name(&self) -> &str {
        "oracle:OPT"
    }

    fn state_bits_per_block(&self) -> u32 {
        0
    }

    fn on_hit(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) {
        self.sets.set(a, set.len())[way] = a.next_use;
    }

    fn choose_victim(&mut self, a: &AccessInfo, set: &mut [Block]) -> usize {
        let nexts = self.sets.set(a, set.len());
        let mut victim = 0;
        let mut far = 0u64;
        for (i, &n) in nexts.iter().enumerate() {
            if n >= far {
                far = n;
                victim = i;
            }
        }
        victim
    }

    fn on_fill(&mut self, a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        self.sets.set(a, set.len())[way] = a.next_use;
        FillInfo::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspc::registry;

    /// Cross-layer oracle coverage, driven by the registry itself: every
    /// `ALL_POLICIES` row either names an oracle key that actually builds
    /// one here, or carries a documented opt-out — so a future row that
    /// forgets its verification story (or typos its key) fails this build,
    /// not a fuzz campaign months later.
    #[test]
    fn every_registry_row_resolves_its_oracle_story() {
        let cfg = LlcConfig::mb(8);
        let mut with_oracle = 0;
        for entry in registry::ALL_POLICIES {
            match entry.meta.oracle {
                OracleRef::Key(key) => {
                    with_oracle += 1;
                    assert!(
                        build_oracle(key, &cfg, DEFAULT_T).is_some(),
                        "{}: oracle key {key:?} has no constructor arm",
                        entry.name
                    );
                    assert!(oracle_for(entry.name, &cfg).is_some(), "no oracle for {}", entry.name);
                    for alias in entry.aliases {
                        assert!(oracle_for(alias, &cfg).is_some(), "no oracle via alias {alias}");
                    }
                }
                OracleRef::OptOut(reason) => {
                    assert!(!reason.is_empty(), "{}: undocumented opt-out", entry.name);
                    assert!(
                        oracle_for(entry.name, &cfg).is_none(),
                        "{}: opted out but an oracle was built",
                        entry.name
                    );
                }
            }
        }
        assert!(with_oracle >= 13, "oracle coverage shrank to {with_oracle} policies");
        // Parameterized spellings dispatch through their base row; unknown
        // and malformed names build nothing.
        for name in registry::PARAMETERIZED.iter().flat_map(|f| f.fuzz_spellings) {
            assert!(oracle_for(name, &cfg).is_some(), "no oracle for {name}");
        }
        assert!(oracle_for("PLRU", &cfg).is_none());
        assert!(oracle_for("GSPZTC(t=3)", &cfg).is_none(), "non-power-of-two threshold");
    }

    #[test]
    fn rrip_victim_matches_closed_form() {
        // First way at the maximum wins, and everyone ages by the gap.
        let mut rr = vec![1u8, 2, 0, 2];
        assert_eq!(rrip_victim(&mut rr, 3), 1);
        assert_eq!(rr, vec![2, 3, 1, 3]);
        // Already at distant: no aging.
        let mut rr = vec![3u8, 0];
        assert_eq!(rrip_victim(&mut rr, 3), 0);
        assert_eq!(rr, vec![3, 0]);
    }

    #[test]
    fn counts_halve_on_acc_saturation() {
        let mut c = Counts::default();
        for _ in 0..10 {
            bump(&mut c.fill_z);
            bump(&mut c.prod);
        }
        for _ in 0..127 {
            c.tick();
        }
        assert_eq!(c.fill_z, 5);
        assert_eq!(c.prod, 5);
        assert_eq!(c.acc, 0);
    }
}
