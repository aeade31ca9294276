//! The declarative rule table.
//!
//! Each rule pairs a [`Matcher`] (what token shape fires) with a
//! [`Scope`] (which files, and whether test code counts). The table is
//! data, not code: adding a rule means adding one entry here plus a
//! fixture, mirroring how the conform oracle table grows.

/// Where a rule applies.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Path prefixes (workspace-relative, `/`-separated) the rule is
    /// restricted to. Empty means every scanned first-party file.
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule even when included.
    pub exclude: &'static [&'static str],
    /// Whether findings inside test code (`#[cfg(test)]` items, `tests/`
    /// and `benches/` directories) are reported.
    pub in_tests: bool,
}

impl Scope {
    /// Whether `path` (workspace-relative) is inside this scope.
    pub fn covers(&self, path: &str) -> bool {
        if self.exclude.iter().any(|p| path.starts_with(p)) {
            return false;
        }
        self.include.is_empty() || self.include.iter().any(|p| path.starts_with(p))
    }
}

/// How a rule recognises a violation in the token stream.
#[derive(Debug, Clone)]
pub enum Matcher {
    /// Any bare occurrence of one of these identifiers.
    BannedIdent(&'static [&'static str]),
    /// A method call `.name(` for one of these names.
    BannedMethod(&'static [&'static str]),
    /// A macro invocation `name!` for one of these names.
    BannedMacro(&'static [&'static str]),
    /// An `as` cast to one of these narrow integer types.
    TruncatingCast(&'static [&'static str]),
    /// Crate roots (`src/lib.rs`) must contain this attribute, given as
    /// the exact identifier path inside `#![forbid(...)]`.
    RequiredCrateRootAttr(&'static str),
}

/// One entry in the rule table.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Stable id used in reports and allow annotations (`R1`…`R5`).
    pub id: &'static str,
    /// Short human description of what fired.
    pub summary: &'static str,
    /// The remedy the report suggests.
    pub suggestion: &'static str,
    pub matcher: Matcher,
    pub scope: Scope,
}

const EVERYWHERE: Scope = Scope {
    include: &[],
    exclude: &[],
    in_tests: true,
};

/// Paths whose panics must become typed errors: protocol handlers and
/// the netsim delivery path. The routing decision code
/// (`core/route/`, `core/conditions/`) left this list in v2 — the A1
/// panic-freedom family audits it by call-graph reachability from the
/// serve dispatch instead of by path prefix, so new callees are covered
/// automatically.
const R3_PATHS: &[&str] = &[
    "crates/distsim/src/protocols/",
    "crates/netsim/src/sim.rs",
    "crates/netsim/src/dynamic.rs",
    "crates/netsim/src/router.rs",
    "crates/netsim/src/event.rs",
    "crates/netsim/src/adaptive.rs",
];

/// The workspace rule table, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "R1",
        summary: "randomized-iteration collection in determinism-critical code",
        suggestion: "use BTreeMap/BTreeSet (or a sorted drain) so iteration order is stable",
        matcher: Matcher::BannedIdent(&["HashMap", "HashSet", "RandomState"]),
        scope: EVERYWHERE,
    },
    Rule {
        id: "R2",
        summary: "ambient nondeterminism (wall clock / OS rng) outside emr-bench",
        suggestion: "thread a seeded Rng or logical clock through the API instead",
        matcher: Matcher::BannedIdent(&["Instant", "SystemTime", "thread_rng", "ThreadRng"]),
        scope: Scope {
            include: &[],
            exclude: &["crates/bench/"],
            in_tests: true,
        },
    },
    Rule {
        id: "R3",
        summary: "panicking call in a protocol/routing/delivery path",
        suggestion: "return a typed error through the engine APIs instead of panicking",
        matcher: Matcher::BannedMethod(&["unwrap", "expect"]),
        scope: Scope {
            include: R3_PATHS,
            exclude: &[],
            in_tests: false,
        },
    },
    Rule {
        id: "R3",
        summary: "panicking macro in a protocol/routing/delivery path",
        suggestion: "return a typed error through the engine APIs instead of panicking",
        matcher: Matcher::BannedMacro(&["panic", "todo", "unimplemented"]),
        scope: Scope {
            include: R3_PATHS,
            exclude: &[],
            in_tests: false,
        },
    },
    Rule {
        id: "R4",
        summary: "truncating `as` cast to a narrow integer type",
        suggestion: "use try_from with explicit saturation/error handling",
        matcher: Matcher::TruncatingCast(&["u8", "i8", "u16", "i16", "u32", "i32"]),
        scope: Scope {
            include: &[],
            exclude: &[],
            in_tests: false,
        },
    },
    Rule {
        id: "R5",
        summary: "crate root missing `#![forbid(unsafe_code)]`",
        suggestion: "add `#![forbid(unsafe_code)]` at the top of src/lib.rs",
        matcher: Matcher::RequiredCrateRootAttr("unsafe_code"),
        scope: EVERYWHERE,
    },
];
