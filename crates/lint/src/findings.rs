//! Finding and rule-identity types shared by the rules engine and the CLI.

use std::fmt;

/// The four contracts h2o-lint enforces. Rule ids (`as_str`) are what
/// the allow-pragma names: `// h2o-lint: allow(float-ordering) -- reason`.
///
/// `float-ordering` is a per-file token-pattern rule; `nondet-taint` and
/// `float-cast-on-reward-path` are *semantic* rules that run over the
/// workspace symbol index and call graph (see [`crate::graph`]);
/// `unused-pragma` is the post-pass that polices the escape hatch itself.
/// The rest of the static-analysis contract is clippy lints (workspace
/// `clippy.toml` plus crate-root attributes) and rustc's exhaustive
/// struct patterns (fingerprint completeness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// `partial_cmp(..).unwrap()/.expect()` (NaN panics at comparison
    /// time) and `partial_cmp(..).unwrap_or(..)` (a NaN-swallowing
    /// fallback makes the comparator non-transitive, silently
    /// mis-sorting): `total_cmp` orders every float.
    FloatOrdering,
    /// Cross-file taint: a function in a determinism-contract crate
    /// (`core`, `exec`, `eval`, `hwsim`, `ckpt`) calls — possibly through
    /// helpers in other crates — a function that reads a nondeterminism
    /// source (wall clock, ambient RNG, unordered-collection iteration,
    /// thread identity). Clippy sees the source; this rule sees the
    /// *laundering path* that smuggles its value into contract code.
    NondetTaint,
    /// `as f64` / `as f32` in functions call-graph-reachable from the
    /// reward computation (`RewardFn::reward`, `clamp_reward`, their
    /// callers and transitive callees): a silent rounding there changes
    /// rewards and therefore search decisions. Off-path casts are fine.
    FloatCastOnRewardPath,
    /// A well-formed `allow` pragma that suppresses no finding: stale
    /// escape hatches must be deleted, or they silently license a future
    /// violation at the same site.
    UnusedPragma,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 4] = [
        Rule::FloatOrdering,
        Rule::NondetTaint,
        Rule::FloatCastOnRewardPath,
        Rule::UnusedPragma,
    ];

    /// The stable id used in pragmas and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::FloatOrdering => "float-ordering",
            Rule::NondetTaint => "nondet-taint",
            Rule::FloatCastOnRewardPath => "float-cast-on-reward-path",
            Rule::UnusedPragma => "unused-pragma",
        }
    }

    /// Parses a pragma rule id.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.as_str() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What was found and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::parse(rule.as_str()), Some(rule));
        }
        assert_eq!(Rule::parse("no-such-rule"), None);
    }
}
