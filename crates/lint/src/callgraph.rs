//! Workspace call graph and per-function panic/index site extraction.
//!
//! Resolution is name-based and deliberately over-approximate: A1 wants
//! reachability to be *sound* (never miss a panic the dispatcher can
//! actually reach), so an ambiguous name fans out to every plausible
//! definition and precision is recovered by narrowing — `Self` and
//! `Type::` qualifiers filter by impl owner, `module::` qualifiers by
//! file segment, bare names by same-file definitions first and the
//! file's `use` imports second. Calls that resolve to nothing (all of
//! `std`, vendored crates) simply add no edges; their panics are out of
//! scope by construction.

use std::collections::BTreeMap;

use crate::lex::{Token, TokenKind};
use crate::parse::{FnItem, Workspace};

/// A panic-shaped expression inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// The owning function (index into [`Workspace::fns`]).
    pub fn_idx: usize,
    /// 1-based source line.
    pub line: u32,
    /// What the site is.
    pub kind: SiteKind,
}

/// The kinds of panic-shaped sites A1 audits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteKind {
    /// `panic!` / `todo!` / `unimplemented!` / `unreachable!`.
    PanicMacro(String),
    /// `.unwrap()` / `.expect(` method calls.
    UnwrapExpect(String),
    /// Direct slice/array indexing `expr[...]`.
    Index,
}

impl SiteKind {
    /// Short human label for findings.
    pub fn describe(&self) -> String {
        match self {
            SiteKind::PanicMacro(m) => format!("{m}! macro"),
            SiteKind::UnwrapExpect(m) => format!(".{m}() call"),
            SiteKind::Index => "direct indexing".to_string(),
        }
    }
}

/// The call graph: adjacency by function index, plus the panic-shaped
/// sites found in each function body.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `edges[f]` = functions that `f` may call (first-party only).
    pub edges: Vec<Vec<usize>>,
    /// `sites[f]` = panic-shaped sites inside `f`'s body.
    pub sites: Vec<Vec<Site>>,
}

const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];
const UNWRAP_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Keywords that can directly precede `(` or `[` without being calls or
/// indexing receivers.
const KEYWORDS: [&str; 24] = [
    "if", "else", "match", "while", "for", "loop", "return", "in", "let", "mut", "fn", "move",
    "ref", "pub", "use", "mod", "impl", "as", "dyn", "where", "break", "continue", "unsafe",
    "await",
];

fn is_keyword(id: &str) -> bool {
    KEYWORDS.contains(&id)
}

impl CallGraph {
    /// Builds the graph over a parsed workspace.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut cg = CallGraph {
            edges: vec![Vec::new(); ws.fns.len()],
            sites: vec![Vec::new(); ws.fns.len()],
        };
        for (fi, f) in ws.fns.iter().enumerate() {
            let Some((a, b)) = f.body else { continue };
            scan_body(ws, f, fi, a, b, &mut cg);
        }
        for e in &mut cg.edges {
            e.sort_unstable();
            e.dedup();
        }
        cg
    }

    /// Breadth-first closure from a set of root function indices,
    /// skipping test functions. Returns, for each reached function, the
    /// root it was first discovered from (for `via <root>` reporting).
    pub fn closure(&self, ws: &Workspace, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut via: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<(usize, usize)> = roots.iter().map(|&r| (r, r)).collect();
        while let Some((f, root)) = queue.pop() {
            if ws.fns[f].in_test || via.contains_key(&f) {
                continue;
            }
            via.insert(f, root);
            for &g in &self.edges[f] {
                if !via.contains_key(&g) {
                    queue.push((g, root));
                }
            }
        }
        via
    }
}

/// Scans one function body for calls and panic-shaped sites.
fn scan_body(ws: &Workspace, f: &FnItem, fi: usize, a: usize, b: usize, cg: &mut CallGraph) {
    let file = &ws.files[f.file];
    let toks = &file.lexed.tokens;
    for i in a..b {
        let TokenKind::Ident(id) = &toks[i].kind else {
            // Indexing: `expr[` where expr ends in an ident, `)` or `]`.
            if toks[i].kind.is_punct('[') && i > a {
                let recv = match &toks[i - 1].kind {
                    TokenKind::Ident(p) => !is_keyword(p),
                    TokenKind::Punct(c) => matches!(c, ')' | ']'),
                };
                if recv {
                    cg.sites[fi].push(Site {
                        fn_idx: fi,
                        line: toks[i].line,
                        kind: SiteKind::Index,
                    });
                }
            }
            continue;
        };
        let next_punct = |c| toks.get(i + 1).is_some_and(|t: &Token| t.kind.is_punct(c));
        // Macro invocations: `name !`.
        if next_punct('!') {
            if PANIC_MACROS.contains(&id.as_str()) {
                cg.sites[fi].push(Site {
                    fn_idx: fi,
                    line: toks[i].line,
                    kind: SiteKind::PanicMacro(id.clone()),
                });
            }
            continue;
        }
        // Call shapes: `name (` or `name :: < … > (` (turbofish).
        let open = if next_punct('(') {
            true
        } else {
            next_punct(':')
                && toks.get(i + 2).is_some_and(|t| t.kind.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.kind.is_punct('<'))
                && turbofish_call(toks, i + 3)
        };
        if !open || is_keyword(id) {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| &toks[j].kind);
        // `fn name(` is the definition, not a call.
        if matches!(prev, Some(TokenKind::Ident(p)) if p == "fn") {
            continue;
        }
        let is_method = matches!(prev, Some(TokenKind::Punct('.')));
        if is_method && UNWRAP_METHODS.contains(&id.as_str()) {
            cg.sites[fi].push(Site {
                fn_idx: fi,
                line: toks[i].line,
                kind: SiteKind::UnwrapExpect(id.clone()),
            });
            continue;
        }
        // Qualifier: `Q :: name (` — the ident two puncts back.
        let qualifier = if matches!(prev, Some(TokenKind::Punct(':')))
            && i >= 3
            && toks[i - 2].kind.is_punct(':')
        {
            toks[i - 3].kind.ident()
        } else {
            None
        };
        for callee in resolve(ws, f, id, is_method, qualifier) {
            cg.edges[fi].push(callee);
        }
    }
}

/// Whether the `<` at `lt` closes into a `(` (turbofish call) within a
/// bounded window.
fn turbofish_call(toks: &[Token], lt: usize) -> bool {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(lt).take(32) {
        match &t.kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return toks.get(j + 1).is_some_and(|t| t.kind.is_punct('('));
                }
            }
            TokenKind::Punct(';' | '{') => return false,
            TokenKind::Punct(_) | TokenKind::Ident(_) => {}
        }
    }
    false
}

/// The crate keys a file can see: its own crate plus every crate its
/// `use` items name. Keeps method-name collisions (`level`, `get`, …)
/// from fanning out into crates the caller cannot actually reach.
fn visible_crates(ws: &Workspace, file: usize) -> Vec<&str> {
    let f = &ws.files[file];
    let mut keys = vec![Workspace::crate_key(&f.path)];
    for u in &f.uses {
        if let Some(k) = match u.root.as_str() {
            "emr2d" => Some("(root)"),
            other => other.strip_prefix("emr_"),
        } {
            keys.push(k);
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Resolves one call to candidate first-party definitions.
fn resolve(
    ws: &Workspace,
    caller: &FnItem,
    name: &str,
    is_method: bool,
    qualifier: Option<&str>,
) -> Vec<usize> {
    let named = ws.fns_named(name);
    if named.is_empty() {
        return Vec::new();
    }
    let visible = visible_crates(ws, caller.file);
    let cands: Vec<usize> = named
        .iter()
        .copied()
        .filter(|&c| visible.contains(&Workspace::crate_key(&ws.files[ws.fns[c].file].path)))
        .collect();
    if is_method {
        // Receiver type unknown: every visible method with this name.
        return cands
            .iter()
            .copied()
            .filter(|&c| ws.fns[c].owner.is_some())
            .collect();
    }
    match qualifier {
        Some("Self") => {
            let filtered: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| ws.fns[c].owner == caller.owner)
                .collect();
            if filtered.is_empty() {
                cands.clone()
            } else {
                filtered
            }
        }
        Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
            // `Type::assoc(...)` — owner must match; no match means the
            // type is external (std, vendored) and adds no edges.
            cands
                .iter()
                .copied()
                .filter(|&c| ws.fns[c].owner.as_deref() == Some(q))
                .collect()
        }
        Some(q) => {
            // `module::free(...)` — match the module as a path segment
            // or file stem; `crate`/`emr_*` roots narrow by crate.
            let by_module: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| {
                    let path = ws.files[ws.fns[c].file].path.as_str();
                    path.split('/')
                        .any(|seg| seg == q || seg.strip_suffix(".rs") == Some(q))
                })
                .collect();
            if !by_module.is_empty() {
                return by_module;
            }
            if let Some(key) = crate_key_of_root(q, caller, ws) {
                return cands
                    .iter()
                    .copied()
                    .filter(|&c| Workspace::crate_key(&ws.files[ws.fns[c].file].path) == key)
                    .collect();
            }
            Vec::new()
        }
        None => {
            // Bare call: same-file first, then the file's imports, then
            // every free fn with this name.
            let same_file: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| ws.fns[c].file == caller.file)
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            let file = &ws.files[caller.file];
            if let Some(import) = file.uses.iter().find(|u| u.name == name) {
                if let Some(key) = crate_key_of_root(&import.root, caller, ws) {
                    let by_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| Workspace::crate_key(&ws.files[ws.fns[c].file].path) == key)
                        .collect();
                    if !by_crate.is_empty() {
                        return by_crate;
                    }
                }
            }
            cands
                .iter()
                .copied()
                .filter(|&c| ws.fns[c].owner.is_none())
                .collect()
        }
    }
}

/// Maps a path root (`crate`, `emr_fault`, `emr2d`, …) to the crate key
/// used by [`Workspace::crate_key`], or `None` for external roots.
fn crate_key_of_root<'a>(root: &'a str, caller: &FnItem, ws: &'a Workspace) -> Option<&'a str> {
    match root {
        "crate" | "self" | "super" => Some(Workspace::crate_key(&ws.files[caller.file].path)),
        "emr2d" => Some("(root)"),
        _ => root.strip_prefix("emr_"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(files: &[(&str, &str)]) -> (Workspace, CallGraph) {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let ws = Workspace::parse(&owned);
        let cg = CallGraph::build(&ws);
        (ws, cg)
    }

    fn idx(ws: &Workspace, name: &str) -> usize {
        ws.fns_named(name)[0]
    }

    #[test]
    fn same_file_calls_resolve_locally() {
        let (ws, cg) = build(&[(
            "crates/a/src/lib.rs",
            "fn top() { helper(); }\nfn helper() {}\n",
        )]);
        assert_eq!(cg.edges[idx(&ws, "top")], vec![idx(&ws, "helper")]);
    }

    #[test]
    fn cross_crate_calls_resolve_through_use_imports() {
        let (ws, cg) = build(&[
            (
                "crates/serve/src/lib.rs",
                "use emr_fault::reach_bits::probe;\nfn top() { probe(); }\n",
            ),
            ("crates/fault/src/reach_bits.rs", "pub fn probe() {}\n"),
            ("crates/other/src/lib.rs", "pub fn probe() {}\n"),
        ]);
        let top = idx(&ws, "top");
        let want: Vec<usize> = ws
            .fns_named("probe")
            .iter()
            .copied()
            .filter(|&c| ws.files[ws.fns[c].file].path.contains("fault"))
            .collect();
        assert_eq!(cg.edges[top], want);
    }

    #[test]
    fn qualified_calls_narrow_by_type_and_module() {
        let (ws, cg) = build(&[(
            "crates/a/src/lib.rs",
            "impl Alpha { fn make() {} }\nimpl Beta { fn make() {} }\nfn top() { Alpha::make(); }\n",
        )]);
        let top = idx(&ws, "top");
        assert_eq!(cg.edges[top].len(), 1);
        assert_eq!(ws.fns[cg.edges[top][0]].owner.as_deref(), Some("Alpha"));
    }

    #[test]
    fn module_qualified_calls_narrow_by_file_segment() {
        let (ws, cg) = build(&[
            (
                "crates/fault/src/lib.rs",
                "fn top() { mcc_bits::label(); }\n",
            ),
            ("crates/fault/src/mcc_bits.rs", "pub fn label() {}\n"),
            ("crates/core/src/labels.rs", "pub fn label() {}\n"),
        ]);
        let top = idx(&ws, "top");
        assert_eq!(cg.edges[top].len(), 1);
        assert!(ws.files[ws.fns[cg.edges[top][0]].file]
            .path
            .contains("mcc_bits"));
    }

    #[test]
    fn external_calls_add_no_edges() {
        let (ws, cg) = build(&[(
            "crates/a/src/lib.rs",
            "fn top() { std::mem::take(&mut 0); Vec::new(); }\n",
        )]);
        assert!(cg.edges[idx(&ws, "top")].is_empty());
    }

    #[test]
    fn panic_sites_are_collected() {
        let (ws, cg) = build(&[(
            "crates/a/src/lib.rs",
            "fn top(v: &[u32]) -> u32 {\n    let x = v.first().unwrap();\n    if *x > 3 { panic!(\"no\") }\n    v[0]\n}\n",
        )]);
        let kinds: Vec<&SiteKind> = cg.sites[idx(&ws, "top")].iter().map(|s| &s.kind).collect();
        assert_eq!(kinds.len(), 3);
        assert!(matches!(kinds[0], SiteKind::UnwrapExpect(m) if m == "unwrap"));
        assert!(matches!(kinds[1], SiteKind::PanicMacro(m) if m == "panic"));
        assert!(matches!(kinds[2], SiteKind::Index));
    }

    #[test]
    fn attribute_and_type_brackets_are_not_indexing() {
        let (ws, cg) = build(&[(
            "crates/a/src/lib.rs",
            "fn top(v: &mut [u64]) {\n    let _w: &[u64] = v;\n    let _a = [0u8; 4];\n    let _s = &v[..1];\n}\n",
        )]);
        // `&v[..1]` IS indexing (ident before `[`); the others are not.
        let sites = &cg.sites[idx(&ws, "top")];
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, SiteKind::Index);
    }

    #[test]
    fn closure_skips_test_functions() {
        let (ws, cg) = build(&[(
            "crates/a/src/lib.rs",
            "fn top() { live(); casey(); }\nfn live() {}\n#[cfg(test)]\nmod tests {\n    fn casey() { super::live(); }\n}\n",
        )]);
        let via = cg.closure(&ws, &[idx(&ws, "top")]);
        assert!(via.contains_key(&idx(&ws, "live")));
        assert!(!via.contains_key(&idx(&ws, "casey")));
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let (ws, cg) = build(&[(
            "crates/a/src/lib.rs",
            "fn top() {\n    let _ = Some(1).unwrap_or_else(|| 2);\n    let _ = Some(1).unwrap_or(3);\n}\n",
        )]);
        assert!(cg.sites[idx(&ws, "top")].is_empty());
    }
}
