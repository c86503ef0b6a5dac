//! The cross-file semantic rules: `nondet-taint` and
//! `float-cast-on-reward-path`.
//!
//! Both walk the [`crate::graph::WorkspaceIndex`]; none of them can
//! be expressed per file, which is exactly why they exist (DESIGN.md,
//! "static-analysis contract"). Pragmas participate the same way as
//! for the token rule — `// h2o-lint: allow(<rule>) -- <reason>` on or above
//! the flagged line — and for `nondet-taint` a pragma on a *source* line
//! is additionally a sanitizer: it stops taint from propagating out of
//! that function, so one justified source does not light up every caller.

use crate::findings::{Finding, Rule};
use crate::graph::WorkspaceIndex;
use crate::lexer::Token;
use crate::rules::Pragmas;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The crates bound by the determinism contract end to end: controller,
/// executor, evaluation backends, hardware simulator, checkpoints. The
/// `nondet-taint` rule flags any call path that carries a nondeterminism
/// source's value into these crates.
const NONDET_CONTRACT_CRATES: &[&str] = &["ckpt", "core", "eval", "exec", "hwsim"];

/// Crates whose clock reads are the sanctioned timing path: the
/// observability crate (spans, histograms — the `step_time_ms` sink
/// measures through it) and the bench harness, which exists to measure
/// wall time. Each read there carries an `#[expect]` for clippy.
const WALLCLOCK_ALLOWED_CRATES: &[&str] = &["obs", "bench"];

/// RNG constructors that bypass the seeded SplitMix64 stream discipline.
const AMBIENT_RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "ThreadRng",
    "getrandom",
];

/// Identifiers that iterate a collection; together with a `HashMap` /
/// `HashSet` mention in the same body they signal hash-order-dependent
/// iteration.
const ITER_IDENTS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TaintKind {
    Wallclock,
    AmbientRng,
    UnorderedIter,
    ThreadId,
}

/// Where one function's taint ultimately comes from, with the call chain
/// that carried it (origin first).
#[derive(Clone)]
struct Witness {
    what: String,
    file: usize,
    line: u32,
    chain: Vec<usize>,
}

/// Runs both semantic rules, appending findings per file and marking the
/// pragmas they consume.
pub(crate) fn run(
    index: &WorkspaceIndex,
    code_per_file: &[Vec<&Token>],
    pragmas: &mut [Pragmas],
    findings: &mut [Vec<Finding>],
) {
    nondet_taint(index, code_per_file, pragmas, findings);
    float_cast_on_reward_path(index, code_per_file, pragmas, findings);
}

// ---------------------------------------------------------------------------
// Rule: nondet-taint
// ---------------------------------------------------------------------------

fn nondet_taint(
    index: &WorkspaceIndex,
    code_per_file: &[Vec<&Token>],
    pragmas: &mut [Pragmas],
    findings: &mut [Vec<Finding>],
) {
    // 1. Collect per-fn nondeterminism sources, letting a pragma on the
    //    source line sanitize (and be marked used).
    let mut tainted: BTreeMap<(usize, TaintKind), Witness> = BTreeMap::new();
    let mut queue: VecDeque<(usize, TaintKind)> = VecDeque::new();
    for (f, node) in index.fns.iter().enumerate() {
        let Some(body) = node.item.body else { continue };
        let crate_name = index.crate_of(f);
        for src in taint_sources(crate_name, &code_per_file[node.file], body) {
            if pragmas[node.file].allows(Rule::NondetTaint, src.line) {
                continue;
            }
            let key = (f, src.kind);
            if let std::collections::btree_map::Entry::Vacant(e) = tainted.entry(key) {
                e.insert(Witness {
                    what: src.what,
                    file: node.file,
                    line: src.line,
                    chain: vec![f],
                });
                queue.push_back(key);
            }
        }
    }

    // 2. Propagate through reverse call edges: a caller of a tainted fn
    //    is tainted with the same kind and an extended witness chain.
    while let Some((f, kind)) = queue.pop_front() {
        let witness = tainted[&(f, kind)].clone();
        for &caller in &index.callers[f] {
            let key = (caller, kind);
            if let std::collections::btree_map::Entry::Vacant(e) = tainted.entry(key) {
                let mut w = witness.clone();
                w.chain.push(caller);
                e.insert(w);
                queue.push_back(key);
            }
        }
    }

    // 3a. Direct findings in contract crates, only for thread identity,
    //     the one source kind clippy does not ban: wall-clock, ambient-RNG
    //     and hash-order sources are clippy findings wherever they sit
    //     (`clippy.toml`'s disallowed methods and types).
    for (&(f, kind), w) in &tainted {
        if w.chain.len() != 1 || kind != TaintKind::ThreadId {
            continue; // propagated ones are handled at the frontier
        }
        let crate_name = index.crate_of(f);
        if !NONDET_CONTRACT_CRATES.contains(&crate_name) {
            continue;
        }
        let node = &index.fns[f];
        findings[node.file].push(Finding {
            rule: Rule::NondetTaint,
            file: index.files[node.file].1.clone(),
            line: w.line,
            col: 1,
            message: format!(
                "{} in `{}`: `{}` is a determinism-contract crate, and this value can \
                 vary across runs, hosts, or schedules — derive it from config/seeds, \
                 or justify that it never reaches output with a pragma",
                w.what,
                index.qualified_name(f),
                crate_name
            ),
        });
    }

    // 3b. Frontier findings: a call site inside a contract crate whose
    //     (possibly transitive) callee outside the contract crates is
    //     tainted. Reporting at the frontier — not along the whole chain
    //     — keeps one laundering path to one finding.
    let mut reported: BTreeSet<(usize, u32, u32, TaintKind)> = BTreeSet::new();
    for (f, node) in index.fns.iter().enumerate() {
        let crate_name = index.crate_of(f);
        if !NONDET_CONTRACT_CRATES.contains(&crate_name) {
            continue;
        }
        for (site, targets) in &node.calls {
            for &g in targets {
                if NONDET_CONTRACT_CRATES.contains(&index.crate_of(g)) {
                    continue; // the callee's own crate is policed directly
                }
                for kind in [
                    TaintKind::Wallclock,
                    TaintKind::AmbientRng,
                    TaintKind::UnorderedIter,
                    TaintKind::ThreadId,
                ] {
                    let Some(w) = tainted.get(&(g, kind)) else {
                        continue;
                    };
                    if !reported.insert((f, site.line, site.col, kind)) {
                        continue;
                    }
                    if pragmas[node.file].allows(Rule::NondetTaint, site.line) {
                        continue;
                    }
                    let mut route: Vec<String> = w
                        .chain
                        .iter()
                        .rev()
                        .skip_while(|&&c| c != g)
                        .map(|&c| format!("`{}`", index.qualified_name(c)))
                        .collect();
                    if route.len() > 6 {
                        let skipped = route.len() - 6;
                        route.truncate(6);
                        route.push(format!("… ({skipped} more)"));
                    }
                    findings[node.file].push(Finding {
                        rule: Rule::NondetTaint,
                        file: index.files[node.file].1.clone(),
                        line: site.line,
                        col: site.col,
                        message: format!(
                            "call to `{}` reaches {} ({} at {}:{}): nondeterminism \
                             laundered into determinism-contract crate `{}` — route it \
                             through a seeded/ordered API, or justify with a pragma",
                            route.join(" → "),
                            w.what,
                            kind_phrase(kind),
                            index.files[w.file].1,
                            w.line,
                            crate_name
                        ),
                    });
                }
            }
        }
    }
}

/// Whether tokens `i`, `i+1` are the `::` path separator.
fn path_sep(code: &[&Token], i: usize) -> bool {
    code.get(i).is_some_and(|a| a.is_punct(':')) && code.get(i + 1).is_some_and(|b| b.is_punct(':'))
}

fn kind_phrase(kind: TaintKind) -> &'static str {
    match kind {
        TaintKind::Wallclock => "a wall-clock read",
        TaintKind::AmbientRng => "ambient OS entropy",
        TaintKind::UnorderedIter => "hash-order-dependent iteration",
        TaintKind::ThreadId => "thread identity",
    }
}

struct TaintSource {
    kind: TaintKind,
    line: u32,
    what: String,
}

/// Scans one fn body for nondeterminism sources. `obs`/`bench` are
/// wall-clock *barriers*: the sanctioned timing path lives there, so a
/// clock read inside them is not a source (every other kind still is).
fn taint_sources(crate_name: &str, code: &[&Token], body: (usize, usize)) -> Vec<TaintSource> {
    let (open, close) = body;
    let mut out = Vec::new();
    let mut hash_tok: Option<&Token> = None;
    let mut iter_tok: Option<&Token> = None;
    for j in open + 1..close {
        let t = code[j];
        if !t.is_ident_like() {
            continue;
        }
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && path_sep(code, j + 1)
            && code.get(j + 3).is_some_and(|n| n.is_ident("now"))
            && !WALLCLOCK_ALLOWED_CRATES.contains(&crate_name)
        {
            out.push(TaintSource {
                kind: TaintKind::Wallclock,
                line: t.line,
                what: format!("a wall-clock read (`{}::now`)", t.text),
            });
        } else if AMBIENT_RNG_IDENTS.contains(&t.text.as_str()) {
            out.push(TaintSource {
                kind: TaintKind::AmbientRng,
                line: t.line,
                what: format!("ambient OS entropy (`{}`)", t.text),
            });
        } else if t.is_ident("thread")
            && path_sep(code, j + 1)
            && code.get(j + 3).is_some_and(|n| n.is_ident("current"))
        {
            out.push(TaintSource {
                kind: TaintKind::ThreadId,
                line: t.line,
                what: "a thread-identity read (`thread::current`)".to_string(),
            });
        } else if t.is_ident("available_parallelism") {
            out.push(TaintSource {
                kind: TaintKind::ThreadId,
                line: t.line,
                what: "a host-shape read (`available_parallelism`)".to_string(),
            });
        } else {
            if (t.is_ident("HashMap") || t.is_ident("HashSet")) && hash_tok.is_none() {
                hash_tok = Some(t);
            }
            if t.is_any_ident(ITER_IDENTS) && iter_tok.is_none() {
                // Only method-position iteration (`x.iter()`) counts; a
                // bare ident named `keys` is just a variable.
                if j > open && code[j - 1].is_punct('.') {
                    iter_tok = Some(t);
                }
            }
        }
    }
    if let (Some(hash), Some(iter)) = (hash_tok, iter_tok) {
        out.push(TaintSource {
            kind: TaintKind::UnorderedIter,
            line: iter.line,
            what: format!(
                "hash-order iteration (`{}` + `.{}()`)",
                hash.text, iter.text
            ),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: float-cast-on-reward-path
// ---------------------------------------------------------------------------

/// The reward computation's entry points: the method combining quality
/// and perf values into the scalar the controller optimizes, and the
/// shared clamp the baselines route every reward through.
const REWARD_ROOT_METHODS: &[(&str, &str)] = &[("RewardFn", "reward")];
const REWARD_ROOT_FREE_FNS: &[&str] = &["clamp_reward"];

fn float_cast_on_reward_path(
    index: &WorkspaceIndex,
    code_per_file: &[Vec<&Token>],
    pragmas: &mut [Pragmas],
    findings: &mut [Vec<Finding>],
) {
    let mut roots: Vec<usize> = Vec::new();
    for (f, node) in index.fns.iter().enumerate() {
        let is_root = match &node.item.impl_type {
            Some(t) => REWARD_ROOT_METHODS
                .iter()
                .any(|&(ty, name)| index.resolve_alias(t) == ty && node.item.name == name),
            None => REWARD_ROOT_FREE_FNS.contains(&node.item.name.as_str()),
        };
        if is_root {
            roots.push(f);
        }
    }
    if roots.is_empty() {
        return;
    }

    // The path: roots, the helpers they transitively call *within the
    // roots' own crates* (the reward-combination math itself), and their
    // direct callers (the code handling the returned reward). Callees in
    // other crates are the quality/perf *producers* — a whole pipeline
    // policed by the determinism rules, whose inclusion here would
    // re-create the noisy whole-crate cast ban this rule replaces.
    let root_crates: BTreeSet<&str> = roots.iter().map(|&r| index.crate_of(r)).collect();
    let mut role: BTreeMap<usize, &'static str> = BTreeMap::new();
    {
        let mut work: Vec<usize> = roots.clone();
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        while let Some(f) = work.pop() {
            for (_, targets) in &index.fns[f].calls {
                for &t in targets {
                    if root_crates.contains(index.crate_of(t)) && seen.insert(t) {
                        work.push(t);
                    }
                }
            }
        }
        for f in seen {
            role.insert(f, "reachable from the reward computation");
        }
    }
    for &r in &roots {
        for &caller in &index.callers[r] {
            role.entry(caller)
                .or_insert("a direct caller of the reward computation");
        }
        role.insert(r, "a reward root");
    }

    for (&f, &why) in &role {
        let node = &index.fns[f];
        let Some((open, close)) = node.item.body else {
            continue;
        };
        let code = &code_per_file[node.file];
        for j in open + 1..close {
            let t = code[j];
            if !t.is_ident("as") {
                continue;
            }
            let Some(target) = code.get(j + 1).filter(|n| n.is_any_ident(&["f64", "f32"])) else {
                continue;
            };
            if pragmas[node.file].allows(Rule::FloatCastOnRewardPath, t.line) {
                continue;
            }
            findings[node.file].push(Finding {
                rule: Rule::FloatCastOnRewardPath,
                file: index.files[node.file].1.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`as {}` inside `{}` ({why}): an inexact integer→float conversion \
                     here silently rounds a value that feeds rewards, and therefore \
                     search decisions — use an exact conversion, or state why this \
                     one cannot lose precision in a pragma",
                    target.text,
                    index.qualified_name(f)
                ),
            });
        }
    }
}
