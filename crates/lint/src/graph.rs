//! The workspace symbol index and conservative cross-crate call graph.
//!
//! Built once per `lint_files` run from every file's [`crate::parser`]
//! items, this is the substrate the semantic rules in [`crate::semantic`]
//! walk. Resolution is *name-based* and deliberately conservative:
//!
//! - `.name(…)` method calls resolve to every workspace method named
//!   `name` (no receiver types without a type checker);
//! - `Qual::name(…)` resolves to `Qual`'s methods when `Qual` (alias-
//!   resolved, `Self` substituted) is a workspace type — otherwise `Qual`
//!   is a module path and the call resolves to free functions named
//!   `name`;
//! - bare `name(…)` resolves to free functions named `name`.
//!
//! Unresolvable calls (std, vendored stubs) contribute no edges. The
//! over-approximation from name collisions is acceptable because every
//! rule built on the graph has the pragma escape hatch; the
//! under-approximation (calls through function pointers, macros) is the
//! usual static-analysis bargain and is documented in DESIGN.md.

use crate::parser::{CallSite, FileItems, FnItem};
use std::collections::{BTreeMap, BTreeSet};

/// One function in the workspace, with its defining file and resolved
/// outgoing calls.
pub struct FnNode {
    /// Index into the `lint_files` file list.
    pub file: usize,
    pub item: FnItem,
    /// Each call site in the body with the fn indices it resolves to.
    pub calls: Vec<(CallSite, Vec<usize>)>,
}

/// The symbol index plus call graph over every analysed file.
pub struct WorkspaceIndex {
    /// `(crate_name, rel_path)` per file, parallel to `lint_files` input.
    pub files: Vec<(String, String)>,
    /// Every non-test fn in the workspace.
    pub fns: Vec<FnNode>,
    /// Names of the non-test structs and enums: a `Qual::name(…)` call
    /// resolves to `Qual`'s methods when `Qual` is one of them.
    pub types: BTreeSet<String>,
    /// `alias → target` from `type A = B;` and `use … as` renames.
    pub aliases: BTreeMap<String, String>,
    /// Reverse edges: `callers[i]` = fns containing a call resolving to
    /// fn `i`.
    pub callers: Vec<Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    method_by_name: BTreeMap<String, Vec<usize>>,
    typed: BTreeMap<(String, String), Vec<usize>>,
}

impl WorkspaceIndex {
    /// Builds the index from each file's parsed items and non-trivia
    /// token slice (needed to extract call sites from fn bodies).
    pub fn build(
        files: &[(String, String)],
        items_per_file: &[FileItems],
        code_per_file: &[Vec<&crate::lexer::Token>],
    ) -> Self {
        let mut index = WorkspaceIndex {
            files: files.to_vec(),
            fns: Vec::new(),
            types: BTreeSet::new(),
            aliases: BTreeMap::new(),
            callers: Vec::new(),
            free_by_name: BTreeMap::new(),
            method_by_name: BTreeMap::new(),
            typed: BTreeMap::new(),
        };
        for (file_idx, items) in items_per_file.iter().enumerate() {
            for ty in &items.types {
                if !ty.is_test {
                    index.types.insert(ty.name.clone());
                }
            }
            for (alias, target) in &items.aliases {
                index
                    .aliases
                    .entry(alias.clone())
                    .or_insert_with(|| target.clone());
            }
            for f in &items.fns {
                if f.is_test {
                    continue;
                }
                let idx = index.fns.len();
                match &f.impl_type {
                    Some(t) => {
                        index
                            .method_by_name
                            .entry(f.name.clone())
                            .or_default()
                            .push(idx);
                        index
                            .typed
                            .entry((t.clone(), f.name.clone()))
                            .or_default()
                            .push(idx);
                    }
                    None => index
                        .free_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(idx),
                }
                index.fns.push(FnNode {
                    file: file_idx,
                    item: f.clone(),
                    calls: Vec::new(),
                });
            }
        }
        // Second pass: extract and resolve call sites now that every
        // definition is indexed.
        let mut all_calls: Vec<Vec<(CallSite, Vec<usize>)>> = Vec::with_capacity(index.fns.len());
        for node in &index.fns {
            let Some(body) = node.item.body else {
                all_calls.push(Vec::new());
                continue;
            };
            let code = &code_per_file[node.file];
            let sites = crate::parser::call_sites(code, body, node.item.impl_type.as_deref());
            all_calls.push(
                sites
                    .into_iter()
                    .map(|site| {
                        let targets = index.resolve(&site);
                        (site, targets)
                    })
                    .collect(),
            );
        }
        index.callers = vec![Vec::new(); index.fns.len()];
        for (caller, calls) in all_calls.iter().enumerate() {
            let mut seen = BTreeSet::new();
            for (_, targets) in calls {
                for &t in targets {
                    if t != caller && seen.insert(t) {
                        index.callers[t].push(caller);
                    }
                }
            }
        }
        for (node, calls) in index.fns.iter_mut().zip(all_calls) {
            node.calls = calls;
        }
        index
    }

    /// Follows `type A = B;` / `use … as` chains (bounded, cycle-safe).
    pub fn resolve_alias<'a>(&'a self, name: &'a str) -> &'a str {
        let mut cur = name;
        for _ in 0..4 {
            match self.aliases.get(cur) {
                Some(next) if next != cur => cur = next,
                _ => break,
            }
        }
        cur
    }

    /// The fn indices a call site may target (see module docs for the
    /// resolution rules).
    pub fn resolve(&self, site: &CallSite) -> Vec<usize> {
        if let Some(q) = &site.qualifier {
            let q = self.resolve_alias(q);
            if self.types.contains(q) {
                return self
                    .typed
                    .get(&(q.to_string(), site.name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
            // Unknown qualifier: a module path (`wire::fnv1a`) or an
            // external type (`String::new`) — only free fns match; an
            // external type's methods are by definition not in the
            // workspace.
            return self
                .free_by_name
                .get(&site.name)
                .cloned()
                .unwrap_or_default();
        }
        if site.is_method {
            return self
                .method_by_name
                .get(&site.name)
                .cloned()
                .unwrap_or_default();
        }
        self.free_by_name
            .get(&site.name)
            .cloned()
            .unwrap_or_default()
    }

    /// The crate a fn is defined in.
    pub fn crate_of(&self, fn_idx: usize) -> &str {
        &self.files[self.fns[fn_idx].file].0
    }

    /// `crate::name` display form for messages.
    pub fn qualified_name(&self, fn_idx: usize) -> String {
        let node = &self.fns[fn_idx];
        match &node.item.impl_type {
            Some(t) => format!("{}::{}::{}", self.crate_of(fn_idx), t, node.item.name),
            None => format!("{}::{}", self.crate_of(fn_idx), node.item.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn build(files: &[(&str, &str, &str)]) -> WorkspaceIndex {
        let metas: Vec<(String, String)> = files
            .iter()
            .map(|(c, p, _)| (c.to_string(), p.to_string()))
            .collect();
        let tokens_per_file: Vec<_> = files.iter().map(|(_, _, src)| lex(src)).collect();
        let code_per_file: Vec<Vec<&crate::lexer::Token>> = tokens_per_file
            .iter()
            .map(|tokens| tokens.iter().filter(|t| !t.is_trivia()).collect())
            .collect();
        let items_per_file: Vec<_> = code_per_file
            .iter()
            .map(|code| {
                let ranges = crate::rules::test_item_ranges(code);
                crate::parser::parse_items(code, &ranges)
            })
            .collect();
        WorkspaceIndex::build(&metas, &items_per_file, &code_per_file)
    }

    fn idx_of(index: &WorkspaceIndex, name: &str) -> usize {
        index
            .fns
            .iter()
            .position(|f| f.item.name == name)
            .unwrap_or_else(|| panic!("no fn named {name}"))
    }

    #[test]
    fn cross_file_free_call_resolves() {
        let index = build(&[
            (
                "core",
                "crates/core/src/lib.rs",
                "pub fn driver() { helper(); }\n",
            ),
            ("space", "crates/space/src/lib.rs", "pub fn helper() {}\n"),
        ]);
        let driver = idx_of(&index, "driver");
        let helper = idx_of(&index, "helper");
        assert_eq!(index.fns[driver].calls.len(), 1);
        assert_eq!(index.fns[driver].calls[0].1, vec![helper]);
        assert_eq!(index.callers[helper], vec![driver]);
    }

    #[test]
    fn qualified_call_on_workspace_type_resolves_to_its_methods_only() {
        let index = build(&[
            (
                "core",
                "a.rs",
                "pub struct A;\nimpl A { pub fn make() {} }\npub struct B;\nimpl B { pub fn make() {} }\n\
                 pub fn go() { A::make(); }\n",
            ),
        ]);
        let go = idx_of(&index, "go");
        let targets = &index.fns[go].calls[0].1;
        assert_eq!(targets.len(), 1);
        assert_eq!(index.fns[targets[0]].item.impl_type.as_deref(), Some("A"));
    }

    #[test]
    fn external_type_method_calls_do_not_resolve_to_workspace_constructors() {
        let index = build(&[(
            "core",
            "a.rs",
            "pub struct Pool;\nimpl Pool { pub fn new() {} }\npub fn go() { let s = String::new(); }\n",
        )]);
        let go = idx_of(&index, "go");
        assert!(
            index.fns[go].calls[0].1.is_empty(),
            "String is not a workspace type; its new() must not alias Pool::new()"
        );
    }

    #[test]
    fn alias_resolves_through_type_aliases() {
        let index = build(&[(
            "core",
            "a.rs",
            "pub struct Long;\nimpl Long { pub fn make() {} }\npub type Short = Long;\n\
             pub fn go() { Short::make(); }\n",
        )]);
        let go = idx_of(&index, "go");
        assert_eq!(index.fns[go].calls[0].1.len(), 1);
    }

    #[test]
    fn test_fns_are_outside_the_graph() {
        let index = build(&[(
            "core",
            "a.rs",
            "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { super::lib(); }\n}\n",
        )]);
        assert_eq!(index.fns.len(), 1, "only the non-test fn is indexed");
    }
}
