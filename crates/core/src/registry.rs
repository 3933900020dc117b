//! Policy registry: the single source of truth for every layer that knows
//! policies by name (Table 6).
//!
//! The registry is one macro-expanded table. Each row carries the
//! constructor *and* the per-policy [`PolicyMeta`] that downstream layers
//! iterate instead of keeping their own name lists:
//!
//! * **grcheck** reads [`PolicyMeta::oracle`] to dispatch independent
//!   oracles, [`PolicyMeta::fuzz`] to build the fuzz set, and
//!   [`Conformance`] for the conformance panel, pinned goldens, and
//!   miss-ratio ceilings.
//! * **grserved** validates job specs through [`resolve`] and lists the
//!   full vocabulary (including [`PARAMETERIZED`] families) from the table.
//! * **grbench** derives its figure policy sets from
//!   [`PolicyMeta::groups`], and gates `.nu` annotation attachment on
//!   [`needs_next_use`].
//!
//! Adding a policy is therefore one table row here plus (optionally) one
//! oracle constructor in `grcheck`; serving, fuzzing, conformance, and
//! benchmarking pick it up automatically. See DESIGN.md, "Policy registry
//! as single source of truth".
//!
//! Two construction front ends run over the table:
//!
//! * [`with_policy`] — the *monomorphized* visitor entry point. The caller
//!   supplies a [`PolicyVisitor`] and the registry calls it with the
//!   **concrete** policy type, so the compiler can inline `on_hit` /
//!   `choose_victim` / `on_fill` into the caller's replay loop. This is
//!   what the experiment runner's hot path uses.
//! * [`create`] — the boxed fallback (`Box<dyn Policy>`), kept for callers
//!   that need to store heterogeneous policies. It is implemented *as a
//!   visitor* over the same table, so the two entry points can never
//!   disagree about a name.
//!
//! Every name — table names, aliases, and the parameterized
//! `"GSPZTC(t=N)"` spelling of the Figure 11 threshold sweep — parses
//! through the one [`resolve`] path, so no two entry points can accept
//! different spelling sets.

use grcache::{LlcConfig, Policy};
use grtrace::StreamId;

use crate::{
    Belady, Bip, Dip, Drrip, Gopt, GsDrrip, Gspc, Gspztc, GspztcTse, Lip, Lru, Nru, RandomRepl,
    ShipMem, Slru, Srrip, StaticWayPartition, Ucd, UcpLite,
};

/// How grcheck verifies a policy differentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleRef {
    /// Key into grcheck's oracle constructor table: the policy has an
    /// independent reimplementation it must agree with access-by-access.
    Key(&'static str),
    /// No independent oracle; the string documents why the registry-clone
    /// replay is considered sufficient. The cross-layer coverage test
    /// rejects an empty reason.
    OptOut(&'static str),
}

/// Conformance-suite participation (grcheck `conformance`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conformance {
    /// Replay this policy in the conformance panel. Panel members get the
    /// conservation check and the Belady-bound check (OPT itself must
    /// match the independent bound exactly).
    pub panel: bool,
    /// Aggregate miss-ratio ceilings versus baselines that must also be
    /// in the panel: `misses(self) <= factor * misses(baseline)` summed
    /// over every frame the suite replays.
    pub ceilings: &'static [(&'static str, f64)],
    /// Pinned per-stream hit-rate goldens at the suite's exact tiny-scale
    /// configuration (`Scale::Tiny`, frame 0 of the first app).
    pub goldens: &'static [(StreamId, f64)],
}

/// Per-policy metadata consumed by the check, serve, and bench layers.
///
/// Built with a `const` chain so a table row stays one expression:
/// `PolicyMeta::new().oracle("nru").panel().groups(&[GROUP_FIG12])`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyMeta {
    /// The policy requires Belady next-use annotations
    /// ([`grcache::annotate_next_use`] / persisted `.nu` sidecars) to
    /// behave correctly.
    pub needs_next_use: bool,
    /// Independent-oracle dispatch for grcheck.
    pub oracle: OracleRef,
    /// Conformance-suite participation.
    pub conformance: Conformance,
    /// Include in the differential fuzz campaign's default policy set.
    pub fuzz: bool,
    /// Experiment groupings (see [`GROUP_FIG12`]); group members keep
    /// table order.
    pub groups: &'static [&'static str],
}

impl PolicyMeta {
    /// The default metadata: fuzzed, no oracle (with an empty reason that
    /// the coverage test rejects — every row must decide explicitly), no
    /// conformance participation, no groups.
    pub const fn new() -> Self {
        PolicyMeta {
            needs_next_use: false,
            oracle: OracleRef::OptOut(""),
            conformance: Conformance { panel: false, ceilings: &[], goldens: &[] },
            fuzz: true,
            groups: &[],
        }
    }

    /// Names the grcheck oracle constructor for this policy.
    pub const fn oracle(mut self, key: &'static str) -> Self {
        self.oracle = OracleRef::Key(key);
        self
    }

    /// Documents why this policy has no independent oracle.
    pub const fn no_oracle(mut self, reason: &'static str) -> Self {
        self.oracle = OracleRef::OptOut(reason);
        self
    }

    /// Marks the policy as requiring Belady next-use annotations.
    pub const fn annotated(mut self) -> Self {
        self.needs_next_use = true;
        self
    }

    /// Adds the policy to the conformance panel.
    pub const fn panel(mut self) -> Self {
        self.conformance.panel = true;
        self
    }

    /// Sets the aggregate miss-ratio ceilings (implies panel membership
    /// is required of both sides; the conformance suite enforces it).
    pub const fn ceilings(mut self, ceilings: &'static [(&'static str, f64)]) -> Self {
        self.conformance.ceilings = ceilings;
        self
    }

    /// Pins per-stream tiny-scale hit-rate goldens.
    pub const fn goldens(mut self, goldens: &'static [(StreamId, f64)]) -> Self {
        self.conformance.goldens = goldens;
        self
    }

    /// Assigns experiment groups.
    pub const fn groups(mut self, groups: &'static [&'static str]) -> Self {
        self.groups = groups;
        self
    }
}

impl Default for PolicyMeta {
    fn default() -> Self {
        PolicyMeta::new()
    }
}

/// One row of the paper's Table 6 (plus the extra baselines of Figures 1
/// and 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyEntry {
    /// Registry name, accepted by [`create`] and [`with_policy`].
    pub name: &'static str,
    /// One-line description, as in Table 6.
    pub description: &'static str,
    /// Alternate spellings [`create`] and [`with_policy`] also accept
    /// (e.g. `"DRRIP-2"` for `"DRRIP"`). Empty for most entries.
    pub aliases: &'static [&'static str],
    /// Cross-layer metadata: oracle dispatch, conformance participation,
    /// fuzz inclusion, experiment grouping.
    pub meta: PolicyMeta,
}

impl PolicyEntry {
    /// `true` when this policy needs Belady next-use annotations — the
    /// same predicate as [`needs_next_use`], surfaced per entry so
    /// listings (e.g. `grserve`'s `GET /v1/policies`) can report it.
    pub fn needs_next_use(&self) -> bool {
        self.meta.needs_next_use
    }
}

/// A family of parameterized spellings accepted on top of the table names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamFamily {
    /// Human-readable pattern, e.g. `"GSPZTC(t=N)"`.
    pub pattern: &'static str,
    /// What the parameter means and what values are accepted.
    pub description: &'static str,
    /// Canonical table row whose metadata governs the family.
    pub base: &'static str,
    /// Concrete spellings the fuzz campaign exercises.
    pub fuzz_spellings: &'static [&'static str],
}

/// All parameterized spelling families the registry accepts.
pub const PARAMETERIZED: &[ParamFamily] = &[ParamFamily {
    pattern: "GSPZTC(t=N)",
    description: "GSPZTC with probabilistic threshold t=N (N a power of two) — \
                  the Figure 11 sensitivity sweep",
    base: "GSPZTC",
    fuzz_spellings: &["GSPZTC(t=2)", "GSPZTC(t=16)"],
}];

/// The registry entry for `name`, matching canonical names and aliases
/// (but not parameterized `"GSPZTC(t=N)"` spellings, which have no table
/// row — use [`resolve`] to accept those too).
pub fn find(name: &str) -> Option<&'static PolicyEntry> {
    ALL_POLICIES.iter().find(|e| e.name == name || e.aliases.contains(&name))
}

/// A successfully parsed policy name: either a table entry (canonical
/// name or alias) or a parameterized spelling anchored to its base entry.
#[derive(Debug, Clone, Copy)]
pub enum Resolved {
    /// A table row, by canonical name or alias.
    Entry(&'static PolicyEntry),
    /// A `"GSPZTC(t=N)"` spelling; metadata comes from the `GSPZTC` row.
    Gspztc {
        /// The governing `GSPZTC` table row.
        entry: &'static PolicyEntry,
        /// The parsed power-of-two threshold.
        t: u32,
    },
}

impl Resolved {
    /// The table row governing this name (the base row for parameterized
    /// spellings).
    pub fn entry(&self) -> &'static PolicyEntry {
        match self {
            Resolved::Entry(e) | Resolved::Gspztc { entry: e, .. } => e,
        }
    }

    /// The parsed threshold for parameterized spellings.
    pub fn threshold(&self) -> Option<u32> {
        match self {
            Resolved::Entry(_) => None,
            Resolved::Gspztc { t, .. } => Some(*t),
        }
    }
}

/// Parses any accepted policy spelling — canonical names, aliases, and
/// parameterized forms — through one path. Every layer (construction,
/// oracles, serve validation, annotation gating) goes through this, so
/// the accepted spelling set cannot drift between entry points.
pub fn resolve(name: &str) -> Option<Resolved> {
    if let Some(t) = parse_gspztc_threshold(name) {
        return find("GSPZTC").map(|entry| Resolved::Gspztc { entry, t });
    }
    find(name).map(Resolved::Entry)
}

/// Receives the concrete policy type selected by [`with_policy`].
///
/// Implementations are generic over the policy, so each registry entry
/// instantiates `visit` with a different `P` — the monomorphization that
/// lets the LLC replay loop inline the policy callbacks instead of paying
/// a virtual call per event.
pub trait PolicyVisitor {
    /// What the visit produces (e.g. replay statistics).
    type Output;

    /// Called exactly once, with the freshly constructed policy.
    fn visit<P: Policy + 'static>(self, policy: P) -> Self::Output;
}

/// The parameterized `"GSPZTC(t=N)"` spelling: `Some(t)` when `name` is a
/// well-formed threshold sweep entry with a power-of-two `t`.
fn parse_gspztc_threshold(name: &str) -> Option<u32> {
    let t: u32 = name.strip_prefix("GSPZTC(t=")?.strip_suffix(')')?.parse().ok()?;
    t.is_power_of_two().then_some(t)
}

/// Expands the registry table into [`ALL_POLICIES`] and [`with_policy`].
///
/// Each row is `{ "Name" | "Alias"... => "description", constructor,
/// metadata }`; the leading identifier names the `&LlcConfig` binding the
/// constructor expressions may use, and the metadata is a `const`
/// [`PolicyMeta`] expression.
macro_rules! define_registry {
    ($cfg:ident; $({ $name:literal $(| $alias:literal)* => $desc:literal, $ctor:expr, $meta:expr }),+ $(,)?) => {
        /// All policies the experiment harness knows how to build.
        pub const ALL_POLICIES: &[PolicyEntry] = &[
            $(PolicyEntry {
                name: $name,
                description: $desc,
                aliases: &[$($alias),*],
                meta: $meta,
            }),+
        ];

        /// Builds the named policy and hands the **concrete** type to
        /// `visitor`. Returns `None` for unknown names without calling the
        /// visitor.
        ///
        /// This is the registry's monomorphized entry point: every row of
        /// the table (including the parameterized `"GSPZTC(t=N)"`)
        /// instantiates `V::visit` with its own policy type, so downstream
        /// replay loops compile with the policy callbacks inlined. Use
        /// [`create`] when a `Box<dyn Policy>` is more convenient.
        ///
        /// # Example
        ///
        /// ```
        /// use grcache::{LlcConfig, Policy};
        /// use gspc::registry::{with_policy, PolicyVisitor};
        ///
        /// struct NameOf;
        /// impl PolicyVisitor for NameOf {
        ///     type Output = String;
        ///     fn visit<P: Policy + 'static>(self, policy: P) -> String {
        ///         policy.name().to_string()
        ///     }
        /// }
        ///
        /// let cfg = LlcConfig::mb(8);
        /// assert_eq!(with_policy("NRU", &cfg, NameOf).as_deref(), Some("NRU"));
        /// assert!(with_policy("NOT-A-POLICY", &cfg, NameOf).is_none());
        /// ```
        pub fn with_policy<V: PolicyVisitor>(
            name: &str,
            cfg: &LlcConfig,
            visitor: V,
        ) -> Option<V::Output> {
            let resolved = resolve(name)?;
            if let Resolved::Gspztc { t, .. } = resolved {
                return Some(visitor.visit(Gspztc::with_threshold(cfg, t)));
            }
            let $cfg = cfg;
            match resolved.entry().name {
                $($name => Some(visitor.visit($ctor)),)+
                other => unreachable!("resolve() returned unregistered entry {other:?}"),
            }
        }
    };
}

/// Group of policies plotted by Figures 12/13 (normalized to DRRIP).
pub const GROUP_FIG12: &str = "fig12";

/// The shared opt-out reason for auxiliary baselines whose differential
/// coverage comes from the registry-clone replay alone.
const CLONE_ONLY: &str = "auxiliary baseline; differentially verified against a registry clone";

/// Per-stream DRRIP hit-rate goldens for `Scale::Tiny`, frame 0 of the
/// first application profile, on the conformance suite's quarter-size
/// LLC. Recorded from a known-good build.
const DRRIP_TINY_GOLDENS: &[(StreamId, f64)] =
    &[(StreamId::Texture, 0.2203), (StreamId::Z, 0.0008), (StreamId::RenderTarget, 0.7122)];

define_registry! { cfg;
    {
        "DRRIP" | "DRRIP-2" => "Dynamic re-reference interval prediction",
        Drrip::new(2),
        PolicyMeta::new().oracle("drrip-2").panel().goldens(DRRIP_TINY_GOLDENS)
    },
    {
        "DRRIP-4" => "Four-bit DRRIP (iso-overhead study)",
        Drrip::new(4),
        PolicyMeta::new().oracle("drrip-4")
    },
    {
        "SRRIP" | "SRRIP-2" => "Static re-reference interval prediction",
        Srrip::new(2),
        PolicyMeta::new().oracle("srrip-2").panel()
    },
    {
        "NRU" => "Single-bit not-recently-used",
        Nru::new(),
        PolicyMeta::new().oracle("nru").panel().groups(&[GROUP_FIG12])
    },
    {
        "LRU" => "True least-recently-used",
        Lru::new(),
        PolicyMeta::new().oracle("lru").panel()
    },
    {
        "SHiP-mem" => "Memory signature-based hit prediction",
        ShipMem::new(cfg),
        PolicyMeta::new().oracle("ship").panel().groups(&[GROUP_FIG12])
    },
    {
        "GS-DRRIP" | "GS-DRRIP-2" => "Graphics stream-aware DRRIP",
        GsDrrip::new(2),
        PolicyMeta::new().no_oracle(CLONE_ONLY).groups(&[GROUP_FIG12])
    },
    {
        "GS-DRRIP-4" => "Four-bit GS-DRRIP (iso-overhead study)",
        GsDrrip::new(4),
        PolicyMeta::new().no_oracle(CLONE_ONLY)
    },
    {
        "GSPZTC" => "Graphics stream-aware probabilistic Z and texture caching",
        Gspztc::new(cfg),
        PolicyMeta::new().oracle("gspztc").panel().groups(&[GROUP_FIG12])
    },
    {
        "GSPZTC+TSE" => "GSPZTC with texture sampler epochs",
        GspztcTse::new(cfg),
        PolicyMeta::new().oracle("tse").groups(&[GROUP_FIG12])
    },
    {
        "GSPC" => "Graphics stream-aware probabilistic caching",
        Gspc::new(cfg),
        PolicyMeta::new().oracle("gspc").panel()
            .ceilings(&[("DRRIP", 1.00), ("SRRIP", 1.00)])
            .groups(&[GROUP_FIG12])
    },
    {
        "GSPC+UCD" => "GSPC with uncached displayable color",
        Ucd::new(Gspc::new(cfg)),
        PolicyMeta::new().oracle("gspc+ucd").panel().ceilings(&[("DRRIP", 1.00)])
            .groups(&[GROUP_FIG12])
    },
    {
        "DRRIP+UCD" => "DRRIP with uncached displayable color",
        Ucd::new(Drrip::new(2)),
        PolicyMeta::new().oracle("drrip+ucd").groups(&[GROUP_FIG12])
    },
    {
        "NRU+UCD" => "NRU with uncached displayable color",
        Ucd::new(Nru::new()),
        PolicyMeta::new().oracle("nru+ucd")
    },
    {
        "GS-DRRIP+UCD" => "GS-DRRIP with uncached displayable color",
        Ucd::new(GsDrrip::new(2)),
        PolicyMeta::new().no_oracle(CLONE_ONLY)
    },
    {
        "OPT" => "Belady's optimal (offline oracle)",
        Belady::new(),
        PolicyMeta::new().oracle("opt").annotated().panel()
    },
    {
        "GOPT" => "OPT-trained region predictor (learns Belady decisions per region)",
        Gopt::new(cfg),
        PolicyMeta::new().oracle("gopt").annotated().panel()
            .ceilings(&[("SRRIP", 1.00)])
    },
    {
        "DIP" => "Dynamic insertion policy (LRU/BIP dueling)",
        Dip::new(),
        PolicyMeta::new().no_oracle(CLONE_ONLY)
    },
    {
        "LIP" => "LRU-insertion policy",
        Lip::new(),
        PolicyMeta::new().no_oracle(CLONE_ONLY)
    },
    {
        "BIP" => "Bimodal insertion policy",
        Bip::new(),
        PolicyMeta::new().no_oracle(CLONE_ONLY)
    },
    {
        "Random" => "Random replacement",
        RandomRepl::new(),
        PolicyMeta::new().no_oracle(CLONE_ONLY)
    },
    {
        "WayPart" => "Static per-stream way partitioning (Z:2 TEX:6 RT:6 other:2)",
        StaticWayPartition::proportional(cfg),
        PolicyMeta::new().no_oracle(CLONE_ONLY)
    },
    {
        "UCP-lite" => "Utility-based way repartitioning",
        UcpLite::new(cfg),
        PolicyMeta::new().no_oracle(CLONE_ONLY)
    },
    {
        "GSPC+BYP" => "GSPC with dead-texture LLC bypass (extension)",
        Gspc::with_dead_texture_bypass(cfg),
        PolicyMeta::new().oracle("gspc+byp")
    },
    {
        "SLRU" => "Segmented LRU (scan-resistant baseline)",
        Slru::new(cfg.ways as u32 / 2),
        PolicyMeta::new().no_oracle(CLONE_ONLY)
    },
}

/// The boxing visitor behind [`create`].
struct Boxer;

impl PolicyVisitor for Boxer {
    type Output = Box<dyn Policy>;
    fn visit<P: Policy + 'static>(self, policy: P) -> Box<dyn Policy> {
        Box::new(policy)
    }
}

/// Builds a policy by registry name. Returns `None` for unknown names.
///
/// This is the dynamic-dispatch fallback: the returned box pays a virtual
/// call per policy event. Hot replay loops should go through
/// [`with_policy`] instead; both run over the same table, so any name
/// accepted here is accepted there with an identically constructed policy.
///
/// # Example
///
/// ```
/// use grcache::LlcConfig;
/// use gspc::registry::create;
///
/// let cfg = LlcConfig::mb(8);
/// let p = create("GSPC+UCD", &cfg).expect("known policy");
/// assert_eq!(p.name(), "GSPC+UCD");
/// assert!(create("NOT-A-POLICY", &cfg).is_none());
/// ```
pub fn create(name: &str, cfg: &LlcConfig) -> Option<Box<dyn Policy>> {
    with_policy(name, cfg, Boxer)
}

/// `true` when the named policy requires next-use annotations
/// ([`grcache::annotate_next_use`]) to behave correctly. Accepts every
/// spelling [`resolve`] accepts; unknown names are `false`.
pub fn needs_next_use(name: &str) -> bool {
    resolve(name).is_some_and(|r| r.entry().meta.needs_next_use)
}

/// Table entries belonging to `group`, in table order.
pub fn in_group<'a>(group: &'a str) -> impl Iterator<Item = &'static PolicyEntry> + 'a {
    ALL_POLICIES.iter().filter(move |e| e.meta.groups.contains(&group))
}

/// Names of the table entries in `group`, in table order.
pub fn group_names(group: &str) -> Vec<String> {
    in_group(group).map(|e| e.name.to_string()).collect()
}

/// The default differential-fuzz policy set: every table entry with
/// `meta.fuzz` plus the concrete spellings of every parameterized family.
pub fn fuzz_names() -> Vec<String> {
    let mut names: Vec<String> =
        ALL_POLICIES.iter().filter(|e| e.meta.fuzz).map(|e| e.name.to_string()).collect();
    for family in PARAMETERIZED {
        names.extend(family.fuzz_spellings.iter().map(|s| s.to_string()));
    }
    names
}

/// Renders the registry as a GitHub-flavored markdown table — the
/// generator behind the README's policy table (`grsim policies
/// --markdown`). A sync test fails when the README section drifts from
/// this output.
pub fn markdown_policy_table() -> String {
    let mut out = String::new();
    out.push_str("| policy | description | verification | conformance | bench groups |\n");
    out.push_str("|---|---|---|---|---|\n");
    for e in ALL_POLICIES {
        let mut name = format!("`{}`", e.name);
        if !e.aliases.is_empty() {
            let aliases: Vec<String> = e.aliases.iter().map(|a| format!("`{a}`")).collect();
            name.push_str(&format!(" (alias {})", aliases.join(", ")));
        }
        let verification = match e.meta.oracle {
            OracleRef::Key(key) => format!("oracle `{key}`"),
            OracleRef::OptOut(_) => "registry clone".to_string(),
        };
        let mut conf: Vec<String> = Vec::new();
        if e.meta.conformance.panel {
            conf.push("panel".to_string());
        }
        if !e.meta.conformance.goldens.is_empty() {
            conf.push("goldens".to_string());
        }
        for (baseline, factor) in e.meta.conformance.ceilings {
            conf.push(format!("&le; {factor:.2}x {baseline}"));
        }
        if e.meta.needs_next_use {
            conf.push("needs `.nu`".to_string());
        }
        let conf = if conf.is_empty() { "—".to_string() } else { conf.join(", ") };
        let groups =
            if e.meta.groups.is_empty() { "—".to_string() } else { e.meta.groups.join(", ") };
        out.push_str(&format!(
            "| {name} | {} | {verification} | {conf} | {groups} |\n",
            e.description
        ));
    }
    for family in PARAMETERIZED {
        out.push_str(&format!(
            "\nParameterized: `{}` — {}; accepted by every entry point that accepts `{}`.\n",
            family.pattern, family.description, family.base
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_policy_constructs() {
        let cfg = LlcConfig::mb(8);
        for entry in ALL_POLICIES {
            let p = create(entry.name, &cfg)
                .unwrap_or_else(|| panic!("{} not constructible", entry.name));
            assert_eq!(p.name(), entry.name, "registry name mismatch");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(create("PLRU", &LlcConfig::mb(8)).is_none());
        assert!(resolve("PLRU").is_none());
    }

    #[test]
    fn parameterized_gspztc() {
        let cfg = LlcConfig::mb(8);
        let p = create("GSPZTC(t=2)", &cfg).unwrap();
        assert_eq!(p.name(), "GSPZTC(t=2)");
        // t=8 is the default and prints the bare name.
        assert_eq!(create("GSPZTC(t=8)", &cfg).unwrap().name(), "GSPZTC");
        assert!(create("GSPZTC(t=3)", &cfg).is_none(), "non-power-of-two t");
        assert!(create("GSPZTC(t=x)", &cfg).is_none());
    }

    #[test]
    fn table6_policies_present() {
        // The exact set of Table 6.
        for name in [
            "DRRIP",
            "NRU",
            "SHiP-mem",
            "GS-DRRIP",
            "GSPZTC",
            "GSPZTC+TSE",
            "GSPC",
            "GSPC+UCD",
            "DRRIP+UCD",
        ] {
            assert!(
                ALL_POLICIES.iter().any(|e| e.name == name),
                "Table 6 policy {name} missing from registry"
            );
        }
    }

    #[test]
    fn only_the_opt_family_needs_annotations() {
        assert!(needs_next_use("OPT"));
        assert!(needs_next_use("GOPT"));
        assert!(!needs_next_use("GSPC"));
        assert!(!needs_next_use("GSPZTC(t=2)"), "parameterized spellings inherit the base row");
        assert!(!needs_next_use("PLRU"), "unknown names are not annotated");
        let opt = find("OPT").expect("OPT listed");
        assert!(opt.needs_next_use());
        assert_eq!(ALL_POLICIES.iter().filter(|e| e.needs_next_use()).count(), 2);
    }

    /// Every listed alias constructs the same policy as its canonical
    /// name, and `find` resolves both spellings to the same entry.
    #[test]
    fn aliases_resolve_to_their_canonical_entry() {
        let cfg = LlcConfig::mb(8);
        let mut aliases_seen = 0;
        for entry in ALL_POLICIES {
            for alias in entry.aliases {
                aliases_seen += 1;
                let via_alias = create(alias, &cfg)
                    .unwrap_or_else(|| panic!("alias {alias} not constructible"));
                assert_eq!(via_alias.name(), entry.name, "alias {alias} built a different policy");
                assert_eq!(find(alias).map(|e| e.name), Some(entry.name));
            }
            assert_eq!(find(entry.name).map(|e| e.name), Some(entry.name));
        }
        // The table currently carries the -2 spellings of the RRIP family.
        assert!(aliases_seen >= 3, "expected the DRRIP-2/SRRIP-2/GS-DRRIP-2 aliases");
        assert!(find("PLRU").is_none());
        assert!(find("GSPZTC(t=2)").is_none(), "parameterized spellings have no table row");
    }

    /// The visitor entry point must agree with the boxed one on every
    /// table name and on the parameterized spellings.
    #[test]
    fn with_policy_mirrors_create() {
        struct NameOf;
        impl PolicyVisitor for NameOf {
            type Output = (String, u32);
            fn visit<P: Policy + 'static>(self, policy: P) -> (String, u32) {
                (policy.name().to_string(), policy.state_bits_per_block())
            }
        }
        let cfg = LlcConfig::mb(8);
        let mut names: Vec<&str> = ALL_POLICIES.iter().map(|e| e.name).collect();
        names.extend(["GSPZTC(t=2)", "GSPZTC(t=64)", "DRRIP-2", "SRRIP-2", "GS-DRRIP-2"]);
        for name in names {
            let boxed = create(name, &cfg).unwrap_or_else(|| panic!("{name} boxed"));
            let (mono_name, mono_bits) =
                with_policy(name, &cfg, NameOf).unwrap_or_else(|| panic!("{name} visited"));
            assert_eq!(boxed.name(), mono_name, "name mismatch for {name}");
            assert_eq!(boxed.state_bits_per_block(), mono_bits, "bits mismatch for {name}");
        }
        assert!(with_policy("PLRU", &cfg, NameOf).is_none());
        assert!(with_policy("GSPZTC(t=3)", &cfg, NameOf).is_none());
    }

    /// Every entry point accepts exactly the same name set: every
    /// `ALL_POLICIES` entry, the documented aliases, and the well-formed
    /// `GSPZTC(t=N)` spellings — and all reject the same malformed ones.
    /// A name accepted by one path and not another would let the mono and
    /// boxed replay matrices (or the serve validator, which goes through
    /// [`resolve`]) silently disagree on coverage.
    #[test]
    fn entry_points_accept_and_reject_the_same_names() {
        struct Probe;
        impl PolicyVisitor for Probe {
            type Output = String;
            fn visit<P: Policy + 'static>(self, policy: P) -> String {
                policy.name().to_string()
            }
        }
        let cfg = LlcConfig::mb(8);
        let mut accepted: Vec<String> = ALL_POLICIES.iter().map(|e| e.name.to_string()).collect();
        accepted.extend(["DRRIP-2", "SRRIP-2", "GS-DRRIP-2"].iter().map(|s| s.to_string()));
        accepted.extend([2u32, 4, 8, 16, 64].iter().map(|t| format!("GSPZTC(t={t})")));
        for name in &accepted {
            let boxed = create(name, &cfg);
            let mono = with_policy(name, &cfg, Probe);
            let resolved = resolve(name);
            match (boxed, mono) {
                (Some(b), Some(m)) => assert_eq!(b.name(), m, "{name}: paths disagree"),
                (b, m) => {
                    panic!("{name}: create -> {}, with_policy -> {}", b.is_some(), m.is_some())
                }
            }
            let resolved = resolved.unwrap_or_else(|| panic!("{name}: resolve rejected"));
            // The governing entry is the base row for parameterized
            // spellings and the canonical row otherwise.
            if resolved.threshold().is_some() {
                assert_eq!(resolved.entry().name, "GSPZTC", "{name}: wrong base row");
            } else {
                assert_eq!(find(name).map(|e| e.name), Some(resolved.entry().name));
            }
        }
        for name in ["GSPZTC(t=3)", "GSPZTC(t=0)", "GSPZTC(t=)", "GSPZTC(t=8) ", "GSPZTC", " DRRIP"]
        {
            // Bare "GSPZTC" IS valid; it anchors the loop against typos.
            let expect = name == "GSPZTC";
            assert_eq!(create(name, &cfg).is_some(), expect, "create({name:?})");
            assert_eq!(with_policy(name, &cfg, Probe).is_some(), expect, "with_policy({name:?})");
            assert_eq!(resolve(name).is_some(), expect, "resolve({name:?})");
        }
    }

    /// Every row decides its verification story explicitly: an oracle key
    /// or a non-empty opt-out reason. (The check crate's coverage test
    /// additionally proves every key actually builds an oracle.)
    #[test]
    fn every_entry_documents_its_oracle_story() {
        for entry in ALL_POLICIES {
            match entry.meta.oracle {
                OracleRef::Key(key) => {
                    assert!(!key.is_empty(), "{}: empty oracle key", entry.name)
                }
                OracleRef::OptOut(reason) => assert!(
                    !reason.is_empty(),
                    "{}: oracle opt-out without a documented reason",
                    entry.name
                ),
            }
        }
    }

    /// Conformance metadata is internally consistent: every ceiling
    /// baseline is itself a panel member (the suite can only compare
    /// totals it replays), and golden carriers sit in the panel.
    #[test]
    fn conformance_metadata_is_closed_under_the_panel() {
        for entry in ALL_POLICIES {
            let c = &entry.meta.conformance;
            if !c.ceilings.is_empty() || !c.goldens.is_empty() {
                assert!(c.panel, "{}: ceilings/goldens without panel membership", entry.name);
            }
            for (baseline, factor) in c.ceilings {
                let b = find(baseline).unwrap_or_else(|| {
                    panic!("{}: unknown ceiling baseline {baseline}", entry.name)
                });
                assert!(
                    b.meta.conformance.panel,
                    "{}: baseline {baseline} not in panel",
                    entry.name
                );
                assert!(*factor > 0.0, "{}: non-positive ceiling factor", entry.name);
            }
        }
    }

    /// The Figure 12 group drives real consumers (the figure and the
    /// benchmark sweep). Its membership is pinned here so an accidental
    /// group edit fails loudly rather than silently changing what they
    /// measure.
    #[test]
    fn bench_groups_match_their_consumers() {
        assert_eq!(
            group_names(GROUP_FIG12),
            [
                "NRU",
                "SHiP-mem",
                "GS-DRRIP",
                "GSPZTC",
                "GSPZTC+TSE",
                "GSPC",
                "GSPC+UCD",
                "DRRIP+UCD"
            ],
            "Figure 12 policy set changed"
        );
    }

    /// The fuzz set is the whole table plus the parameterized spellings.
    #[test]
    fn fuzz_set_covers_the_table_and_parameterized_spellings() {
        let names = fuzz_names();
        for entry in ALL_POLICIES {
            assert!(names.contains(&entry.name.to_string()), "{} not fuzzed", entry.name);
        }
        for family in PARAMETERIZED {
            assert!(!family.fuzz_spellings.is_empty(), "{}: no fuzz spellings", family.pattern);
            for s in family.fuzz_spellings {
                assert!(names.contains(&s.to_string()), "{s} not fuzzed");
                assert!(
                    resolve(s).is_some_and(|r| r.entry().name == family.base),
                    "{s} does not resolve to its base row"
                );
            }
        }
    }

    /// The markdown generator lists every entry and every parameterized
    /// family (the README sync test pins the exact rendering).
    #[test]
    fn markdown_table_lists_everything() {
        let md = markdown_policy_table();
        for entry in ALL_POLICIES {
            assert!(md.contains(&format!("`{}`", entry.name)), "{} missing", entry.name);
        }
        for family in PARAMETERIZED {
            assert!(md.contains(family.pattern), "{} missing", family.pattern);
        }
    }
}
