//! A lightweight item parser over the token stream: functions, structs,
//! enums, impl/trait blocks, type aliases, `use … as` renames, and module
//! nesting — just enough structure for the workspace symbol index in
//! [`crate::graph`].
//!
//! This is deliberately *not* a Rust grammar. It walks the non-trivia
//! token stream recognising item heads, pairs delimiters to find bodies,
//! and records spans as indices into that token slice. Everything it
//! cannot classify it skips; the cross-file rules built on top are
//! conservative, so an unrecognised construct degrades to "no edge in the
//! call graph", never to a crash or a false finding on unrelated code.

use crate::lexer::Token;
use std::collections::BTreeMap;

/// One `fn` item (free function, inherent/trait method, or trait default
/// method).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// The `impl`/`trait` block's self type, if the fn is a method.
    pub impl_type: Option<String>,
    /// 1-based position of the fn's name token.
    pub line: u32,
    pub col: u32,
    /// `[open_brace, close_brace]` indices into the non-trivia token
    /// slice, or `None` for a body-less declaration (trait signature).
    pub body: Option<(usize, usize)>,
    /// Whether the fn sits inside a `#[cfg(test)]` / `#[test]` item.
    pub is_test: bool,
}

/// One `struct` or `enum`: its name is what resolves a `Type::fn(…)`
/// call to that type's methods.
#[derive(Debug, Clone)]
pub struct TypeItem {
    pub name: String,
    pub is_test: bool,
}

/// Everything the parser extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub types: Vec<TypeItem>,
    /// `type A = B;` and `use path::B as A;` renames, as `A → B`.
    pub aliases: Vec<(String, String)>,
}

/// One call expression inside a fn body: `name(…)`, `recv.name(…)`, or
/// `Qual::name(…)` (turbofish tolerated).
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    /// `Q` in `Q::name(…)` — the last path segment before the `::`.
    pub qualifier: Option<String>,
    /// Whether the call is `.name(…)` on a receiver.
    pub is_method: bool,
    /// 1-based position of the called name's token.
    pub line: u32,
    pub col: u32,
}

/// Keywords that look like `ident (` in expression position but are not
/// calls, plus binding forms a call can never be named after.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "move", "unsafe", "as", "in", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod",
    "struct", "enum", "trait", "type", "const", "static", "true", "false", "async", "await", "box",
    "yield",
];

/// Parses the non-trivia token slice of one file. `test_ranges` is the
/// `#[cfg(test)]`/`#[test]` item map from `rules::test_item_ranges`,
/// used to mark items as test code.
pub fn parse_items(code: &[&Token], test_ranges: &BTreeMap<usize, usize>) -> FileItems {
    let mut items = FileItems::default();
    parse_range(code, 0, code.len(), None, test_ranges, &mut items);
    items
}

fn in_test_range(test_ranges: &BTreeMap<usize, usize>, i: usize) -> bool {
    test_ranges.range(..=i).any(|(&s, &e)| s <= i && i < e)
}

fn parse_range(
    code: &[&Token],
    start: usize,
    end: usize,
    impl_type: Option<&str>,
    test_ranges: &BTreeMap<usize, usize>,
    items: &mut FileItems,
) {
    let mut i = start;
    while i < end {
        let t = code[i];
        if t.is_punct('#') && code.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            // Attribute: skip it (test-ness comes from `test_ranges`).
            match matching_close_within(code, i + 1, end, '[', ']') {
                Some(close) => i = close + 1,
                None => return,
            }
            continue;
        }
        if t.is_ident("fn") {
            i = parse_fn(code, i, end, impl_type, test_ranges, items);
        } else if t.is_ident("struct") || t.is_ident("enum") {
            i = parse_type(code, i, end, test_ranges, items);
        } else if t.is_ident("type") {
            i = parse_type_alias(code, i, end, items);
        } else if t.is_ident("use") {
            i = parse_use(code, i, end, items);
        } else if t.is_ident("impl") || t.is_ident("trait") {
            i = parse_impl_like(code, i, end, test_ranges, items);
        } else if t.is_ident("mod")
            && code.get(i + 1).is_some_and(|n| n.is_ident_like())
            && code.get(i + 2).is_some_and(|n| n.is_punct('{'))
        {
            match matching_close_within(code, i + 2, end, '{', '}') {
                Some(close) => {
                    parse_range(code, i + 3, close, None, test_ranges, items);
                    i = close + 1;
                }
                None => return,
            }
        } else {
            i += 1;
        }
    }
}

/// Parses `fn name …` at `i`; returns the index one past the item.
fn parse_fn(
    code: &[&Token],
    i: usize,
    end: usize,
    impl_type: Option<&str>,
    test_ranges: &BTreeMap<usize, usize>,
    items: &mut FileItems,
) -> usize {
    let Some(name_tok) = code.get(i + 1).filter(|t| t.is_ident_like()) else {
        return i + 1; // `fn` inside a type position (`impl Fn(…)`), not an item head
    };
    // Scan past the signature (generics, params, return type, where
    // clause) to the body `{` or a terminating `;` at delimiter depth 0.
    let (mut parens, mut brackets) = (0i64, 0i64);
    let mut j = i + 2;
    let mut body = None;
    while j < end {
        let t = code[j];
        if t.is_punct('(') {
            parens += 1;
        } else if t.is_punct(')') {
            parens -= 1;
        } else if t.is_punct('[') {
            brackets += 1;
        } else if t.is_punct(']') {
            brackets -= 1;
        } else if t.is_punct('{') && parens == 0 && brackets == 0 {
            match matching_close_within(code, j, end, '{', '}') {
                Some(close) => {
                    body = Some((j, close));
                    j = close + 1;
                }
                None => j = end,
            }
            break;
        } else if t.is_punct(';') && parens == 0 && brackets == 0 {
            j += 1;
            break;
        }
        j += 1;
    }
    items.fns.push(FnItem {
        name: name_tok.text.clone(),
        impl_type: impl_type.map(str::to_string),
        line: name_tok.line,
        col: name_tok.col,
        body,
        is_test: in_test_range(test_ranges, i),
    });
    j
}

/// Parses `struct Name {…}` / `struct Name(…);` / `struct Name;` /
/// `enum Name {…}` at `i`.
fn parse_type(
    code: &[&Token],
    i: usize,
    end: usize,
    test_ranges: &BTreeMap<usize, usize>,
    items: &mut FileItems,
) -> usize {
    let Some(name_tok) = code.get(i + 1).filter(|t| t.is_ident_like()) else {
        return i + 1;
    };
    items.types.push(TypeItem {
        name: name_tok.text.clone(),
        is_test: in_test_range(test_ranges, i),
    });
    let mut j = i + 2;
    // Skip generics / bounds / where clause and the body: up to the
    // defining `{…}`, `(…)` (tuple struct) or `;` (unit struct) at angle
    // depth 0.
    let mut angle = 0i64;
    while j < end {
        let t = code[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !prev_is_dash(code, j) {
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct('{') {
                return matching_close_within(code, j, end, '{', '}')
                    .map_or(end, |close| close + 1);
            }
            if t.is_punct('(') {
                match matching_close_within(code, j, end, '(', ')') {
                    Some(close) => j = close + 1,
                    None => j = end,
                }
                continue;
            }
            if t.is_punct(';') {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Parses `type A = …::B;` into an `A → B` alias (B = the last
/// depth-0 identifier of the right-hand side).
fn parse_type_alias(code: &[&Token], i: usize, end: usize, items: &mut FileItems) -> usize {
    let Some(name_tok) = code.get(i + 1).filter(|t| t.is_ident_like()) else {
        return i + 1;
    };
    let mut j = i + 2;
    while j < end && !code[j].is_punct('=') && !code[j].is_punct(';') {
        j += 1;
    }
    if j >= end || code[j].is_punct(';') {
        return j.saturating_add(1).min(end); // associated type declaration
    }
    let mut target: Option<String> = None;
    let mut angle = 0i64;
    j += 1;
    while j < end && !code[j].is_punct(';') {
        let t = code[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !prev_is_dash(code, j) {
            angle -= 1;
        } else if t.is_ident_like() && angle == 0 {
            target = Some(t.text.clone());
        }
        j += 1;
    }
    if let Some(target) = target {
        if target != name_tok.text {
            items.aliases.push((name_tok.text.clone(), target));
        }
    }
    j + 1
}

/// Parses `use path::B as A;` renames (only the `as` form introduces an
/// alias worth recording; plain `use` imports keep their own name).
fn parse_use(code: &[&Token], i: usize, end: usize, items: &mut FileItems) -> usize {
    let mut j = i + 1;
    let mut last_ident: Option<String> = None;
    while j < end && !code[j].is_punct(';') && !code[j].is_punct('{') {
        let t = code[j];
        if t.is_ident("as") {
            if let (Some(orig), Some(alias)) = (
                last_ident.take(),
                code.get(j + 1).filter(|t| t.is_ident_like()),
            ) {
                if alias.text != orig {
                    items.aliases.push((alias.text.clone(), orig));
                }
                j += 2;
                continue;
            }
        } else if t.is_ident_like() {
            last_ident = Some(t.text.clone());
        }
        j += 1;
    }
    // Grouped imports (`use x::{a, b as c}`) are skipped wholesale: the
    // group's renames are rare and the rules stay conservative without
    // them.
    if j < end && code[j].is_punct('{') {
        if let Some(close) = matching_close_within(code, j, end, '{', '}') {
            return close + 1;
        }
        return end;
    }
    j + 1
}

/// Parses `impl …` / `trait …` at `i`: finds the self-type name and
/// recurses into the block body with it.
fn parse_impl_like(
    code: &[&Token],
    i: usize,
    end: usize,
    test_ranges: &BTreeMap<usize, usize>,
    items: &mut FileItems,
) -> usize {
    // The self type is the first depth-0 identifier of the last path
    // segment before the block — after `for` when present (`impl Trait
    // for Type`), otherwise the first type mentioned (`impl Type`,
    // `trait Name`).
    let mut candidate: Option<String> = None;
    let mut angle = 0i64;
    let mut j = i + 1;
    while j < end {
        let t = code[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !prev_is_dash(code, j) {
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') {
                return j + 1; // `impl Trait for Type;`-style marker impls
            }
            if t.is_ident("for") {
                candidate = None;
            } else if t.is_ident_like() && candidate.is_none() && !t.is_ident("dyn") {
                candidate = Some(t.text.clone());
            }
        }
        j += 1;
    }
    if j >= end {
        return end;
    }
    match matching_close_within(code, j, end, '{', '}') {
        Some(close) => {
            parse_range(code, j + 1, close, candidate.as_deref(), test_ranges, items);
            close + 1
        }
        None => end,
    }
}

/// Extracts every call expression from the body span `[open, close]`.
/// `impl_type` resolves `Self::helper(…)` qualifiers.
pub fn call_sites(code: &[&Token], body: (usize, usize), impl_type: Option<&str>) -> Vec<CallSite> {
    let mut out = Vec::new();
    let (open, close) = body;
    let mut j = open + 1;
    while j < close {
        let t = code[j];
        if !t.is_ident_like() || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            j += 1;
            continue;
        }
        // `name(…)` directly, or `name::<T>(…)` through a turbofish.
        let paren_at = if code.get(j + 1).is_some_and(|n| n.is_punct('(')) {
            Some(j + 1)
        } else if code.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && code.get(j + 2).is_some_and(|n| n.is_punct(':'))
            && code.get(j + 3).is_some_and(|n| n.is_punct('<'))
        {
            matching_angle_close(code, j + 3, close)
                .filter(|&g| code.get(g + 1).is_some_and(|n| n.is_punct('(')))
                .map(|g| g + 1)
        } else {
            None
        };
        if paren_at.is_none() {
            j += 1;
            continue;
        }
        let is_method = j > open && code[j - 1].is_punct('.');
        let qualifier = if j >= open + 4
            && code[j - 1].is_punct(':')
            && code[j - 2].is_punct(':')
            && code[j - 3].is_ident_like()
        {
            let q = &code[j - 3].text;
            if q == "Self" {
                impl_type.map(str::to_string)
            } else {
                Some(q.clone())
            }
        } else {
            None
        };
        // A macro invocation (`name!(…)`) never reaches here: the `!`
        // sits between the name and the paren, failing the pattern.
        out.push(CallSite {
            name: t.text.clone(),
            qualifier,
            is_method,
            line: t.line,
            col: t.col,
        });
        j += 1;
    }
    out
}

/// `matching_close` bounded to `[open_idx, end)`.
fn matching_close_within(
    code: &[&Token],
    open_idx: usize,
    end: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().take(end).skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `>` closing the `<` at `open_idx` (turbofish args),
/// ignoring `->` arrows inside fn-pointer type arguments.
fn matching_angle_close(code: &[&Token], open_idx: usize, end: usize) -> Option<usize> {
    let mut depth = 0i64;
    for j in open_idx..end {
        let t = code[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !prev_is_dash(code, j) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Whether the token before `j` is `-` — i.e. this `>` is half of a `->`
/// arrow, not a closing angle bracket.
fn prev_is_dash(code: &[&Token], j: usize) -> bool {
    j > 0 && code[j - 1].is_punct('-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> FileItems {
        let tokens = lex(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_trivia()).collect();
        let ranges = crate::rules::test_item_ranges(&code);
        parse_items(&code, &ranges)
    }

    #[test]
    fn free_fn_and_method_are_distinguished() {
        let items = parsed(
            "fn free() {}\nimpl Widget { fn method(&self) -> u32 { 1 } }\n\
             impl std::fmt::Display for Gadget { fn fmt(&self) {} }\n",
        );
        let names: Vec<(String, Option<String>)> = items
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("method".into(), Some("Widget".into())),
                ("fmt".into(), Some("Gadget".into())),
            ]
        );
        assert!(items.fns[0].body.is_some());
    }

    #[test]
    fn generic_impl_resolves_the_base_type_not_its_arguments() {
        let items = parsed("impl<'a, T: Clone> Holder<'a, T> { fn get(&self) {} }\n");
        assert_eq!(items.fns[0].impl_type.as_deref(), Some("Holder"));
    }

    #[test]
    fn type_alias_and_use_as_register() {
        let items =
            parsed("pub type Short = crate::driver::LongName;\nuse x::y::Orig as Renamed;\n");
        assert!(items
            .aliases
            .contains(&("Short".to_string(), "LongName".to_string())));
        assert!(items
            .aliases
            .contains(&("Renamed".to_string(), "Orig".to_string())));
    }

    #[test]
    fn test_items_are_marked() {
        let items = parsed(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    struct Fixture { x: u32 }\n}\n",
        );
        assert!(!items.fns[0].is_test);
        assert!(items.fns[1].is_test, "helper inside #[cfg(test)] mod");
        assert!(items.types[0].is_test);
    }

    #[test]
    fn call_sites_classify_free_method_and_qualified() {
        let items = parsed(
            "impl W {\n    fn go(&self) {\n        helper();\n        self.step(1);\n        Other::build();\n        Self::local();\n        mac!(ignored());\n        sum::<f64>();\n    }\n}\n",
        );
        let f = &items.fns[0];
        let tokens = lex(
            "impl W {\n    fn go(&self) {\n        helper();\n        self.step(1);\n        Other::build();\n        Self::local();\n        mac!(ignored());\n        sum::<f64>();\n    }\n}\n",
        );
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_trivia()).collect();
        let calls = call_sites(&code, f.body.unwrap(), f.impl_type.as_deref());
        let shapes: Vec<(String, Option<String>, bool)> = calls
            .iter()
            .map(|c| (c.name.clone(), c.qualifier.clone(), c.is_method))
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("helper".into(), None, false),
                ("step".into(), None, true),
                ("build".into(), Some("Other".into()), false),
                ("local".into(), Some("W".into()), false),
                ("ignored".into(), None, false),
                ("sum".into(), None, false),
            ]
        );
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let items =
            parsed("fn f(x: u32) { if (x > 0) { } match (x) { _ => {} } println!(\"{}\", x); }\n");
        let tokens =
            lex("fn f(x: u32) { if (x > 0) { } match (x) { _ => {} } println!(\"{}\", x); }\n");
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_trivia()).collect();
        let calls = call_sites(&code, items.fns[0].body.unwrap(), None);
        assert!(calls.is_empty(), "got {calls:?}");
    }
}
