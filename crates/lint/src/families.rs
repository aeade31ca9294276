//! The v2 analysis families: A1 panic-freedom, A2 concurrency
//! determinism, A3 epoch discipline.
//!
//! Unlike the R-rules (purely lexical, one file at a time), the families
//! run over the whole parsed workspace: A1 walks the call graph from the
//! serve dispatch and sweep-trial roots, A2 audits every scoped-thread
//! spawn site structurally, A3 tracks how epoch values are produced and
//! mutated. Findings carry family codes `A1`/`A2`/`A3` and respect the
//! same `// emr-lint: allow(<family>, "<reason>")` annotations as the
//! R-rules, with one addition: an allow on (or directly above) a `fn`
//! line suppresses that family for the whole body, so a kernel whose
//! indexing is justified by one invariant needs one annotation, not
//! thirty.

use crate::callgraph::{CallGraph, SiteKind};
use crate::lex::{Allow, TokenKind};
use crate::parse::{FnItem, ParsedFile, Workspace};
use crate::report::Finding;

/// A1 panic-closure roots: `(path suffix, fn name)`. Everything
/// reachable from these must be panic-free (`panic!`/`unwrap`/`expect`)
/// unless a scoped allow justifies it.
const PANIC_ROOTS: &[(&str, &str)] = &[
    ("crates/serve/src/store.rs", "handle_batch"),
    ("crates/serve/src/loopback.rs", "send"),
    ("crates/serve/src/loopback.rs", "send_one"),
    ("crates/serve/src/loopback.rs", "send_encoded"),
    ("crates/core/src/state.rs", "decide_local"),
    ("crates/analysis/src/sweep.rs", "run_with"),
    ("crates/analysis/src/loadsweep.rs", "run"),
    ("crates/netsim/src/event.rs", "step"),
    ("crates/netsim/src/event.rs", "step_dynamic"),
];

/// A1 totality roots: the per-query read path, where direct indexing
/// (`expr[i]`) must also be justified. Narrower than the panic roots on
/// purpose — construction kernels index heavily behind checked bounds,
/// and their audit is the panic family plus per-kernel allows.
const INDEX_ROOTS: &[(&str, &str)] = &[
    ("crates/serve/src/snapshot.rs", "route"),
    ("crates/serve/src/snapshot.rs", "safety"),
    ("crates/serve/src/snapshot.rs", "reach"),
    ("crates/serve/src/store.rs", "pinned"),
    ("crates/serve/src/store.rs", "latest_snapshot"),
    ("crates/serve/src/store.rs", "snapshot_at"),
    ("crates/serve/src/store.rs", "read_shard"),
    ("crates/core/src/state.rs", "decide_local"),
];

/// Files where shared-state synchronization primitives are legitimate:
/// the sharded store is the one designed concurrency boundary.
const A2_SYNC_ALLOWED: &[&str] = &["crates/serve/src/store.rs"];

/// Synchronization idents A2 flags outside [`A2_SYNC_ALLOWED`]
/// (`Atomic*` is matched by prefix). `OnceLock` is deliberately absent:
/// write-once init cannot order results.
const SYNC_IDENTS: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

/// Body markers that make a spawn site structurally deterministic:
/// disjoint-slice hand-out APIs, or thread-local results merged in index
/// order (`sort_by_key`, indexed assignment), plus panic propagation.
const DISJOINT_MARKERS: &[&str] = &["split_at_mut", "chunks_mut", "iter_mut", "sort_by_key"];

/// The file whose epoch arithmetic is the producer site
/// (`ScenarioState::insert_fault` advances the working epoch).
const A3_EPOCH_PRODUCER: &[&str] = &["crates/core/src/state.rs"];

/// Runs all three families over a set of `(path, source)` files.
/// Pure — the fixture tests feed it virtual paths.
pub fn analyze_files(files: &[(String, String)]) -> Vec<Finding> {
    let ws = Workspace::parse(files);
    let cg = CallGraph::build(&ws);
    let mut findings = Vec::new();
    a1_panic_freedom(&ws, &cg, &mut findings);
    a2_concurrency(&ws, &mut findings);
    a3_epoch_discipline(&ws, &mut findings);
    findings
}

/// Resolves root specs to function indices; specs with no match (e.g.
/// in fixture inputs) are skipped.
fn resolve_roots(ws: &Workspace, specs: &[(&str, &str)]) -> Vec<usize> {
    let mut roots = Vec::new();
    for (fi, f) in ws.fns.iter().enumerate() {
        let path = ws.files[f.file].path.as_str();
        if specs.iter().any(|(p, n)| f.name == *n && path.ends_with(p)) {
            roots.push(fi);
        }
    }
    roots
}

/// Whether a family finding at `line` inside `item` is suppressed: allow
/// on the site line, the line above, or at function level.
fn allowed(file: &ParsedFile, item: &FnItem, rule: &str, line: u32) -> bool {
    let hit = |l: u32| {
        file.lexed
            .allows
            .iter()
            .any(|a: &Allow| a.rule == rule && (a.line == l || a.line + 1 == l))
    };
    hit(line) || hit(item.line)
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    path: &str,
    line: u32,
    summary: String,
    suggestion: &str,
) {
    findings.push(Finding {
        rule,
        path: path.to_string(),
        line,
        summary,
        suggestion: suggestion.to_string(),
    });
}

/// A1: no reachable panic from the serve dispatch / sweep roots; no
/// direct indexing on the per-query read path.
fn a1_panic_freedom(ws: &Workspace, cg: &CallGraph, findings: &mut Vec<Finding>) {
    let panic_via = cg.closure(ws, &resolve_roots(ws, PANIC_ROOTS));
    let index_via = cg.closure(ws, &resolve_roots(ws, INDEX_ROOTS));
    for (&fi, &root) in &panic_via {
        emit_a1(ws, cg, fi, root, false, findings);
    }
    for (&fi, &root) in &index_via {
        emit_a1(ws, cg, fi, root, true, findings);
    }
}

fn emit_a1(
    ws: &Workspace,
    cg: &CallGraph,
    fi: usize,
    root: usize,
    index_family: bool,
    findings: &mut Vec<Finding>,
) {
    let item = &ws.fns[fi];
    let file = &ws.files[item.file];
    for site in &cg.sites[fi] {
        let is_index = site.kind == SiteKind::Index;
        if is_index != index_family {
            continue;
        }
        if allowed(file, item, "A1", site.line) {
            continue;
        }
        let root_name = &ws.fns[root].name;
        let what = site.kind.describe();
        let summary = if index_family {
            format!(
                "{what} in `{}`, reachable on the query read path via `{root_name}`",
                item.name
            )
        } else {
            format!(
                "{what} in `{}`, reachable from serve dispatch / sweep loop via `{root_name}`",
                item.name
            )
        };
        push(
            findings,
            "A1",
            &file.path,
            site.line,
            summary,
            "return a typed error (or prove the invariant and add a scoped allow with the reason)",
        );
    }
}

/// A2: every spawn site must hand out disjoint slices or merge
/// thread-local results in index order; sync primitives stay inside the
/// store; join handles aggregate in spawn order.
fn a2_concurrency(ws: &Workspace, findings: &mut Vec<Finding>) {
    for item in &ws.fns {
        if item.in_test {
            continue;
        }
        let Some((a, b)) = item.body else { continue };
        let file = &ws.files[item.file];
        let toks = &file.lexed.tokens;
        let spawn_at = (a..b).find(|&i| {
            toks[i].kind.ident() == Some("spawn")
                && toks.get(i + 1).is_some_and(|t| t.kind.is_punct('('))
                && i > 0
                && matches!(&toks[i - 1].kind, TokenKind::Punct('.' | ':'))
        });
        if let Some(si) = spawn_at {
            let has_marker = (a..b).any(|i| {
                if let Some(id) = toks[i].kind.ident() {
                    if DISJOINT_MARKERS.contains(&id) {
                        return true;
                    }
                }
                // Indexed merge: `buf[i] = …` lexes as `] =` (not `==`).
                toks[i].kind.is_punct(']')
                    && toks.get(i + 1).is_some_and(|t| t.kind.is_punct('='))
                    && !toks.get(i + 2).is_some_and(|t| t.kind.is_punct('='))
            });
            if !has_marker && !allowed(file, item, "A2", toks[si].line) {
                push(
                    findings,
                    "A2",
                    &file.path,
                    toks[si].line,
                    format!(
                        "spawn site in `{}` without a recognized disjoint-slice hand-out or index-ordered merge",
                        item.name
                    ),
                    "hand out disjoint &mut slices (split_at_mut / chunks_mut) or merge per-thread buffers by index",
                );
            }
            // Join-order audit: reversing join handles makes merge order
            // depend on completion order downstream.
            let joins = (a..b).any(|i| toks[i].kind.ident() == Some("join"));
            if joins {
                for i in a..b {
                    if toks[i].kind.ident() == Some("rev")
                        && toks.get(i + 1).is_some_and(|t| t.kind.is_punct('('))
                        && !allowed(file, item, "A2", toks[i].line)
                    {
                        push(
                            findings,
                            "A2",
                            &file.path,
                            toks[i].line,
                            format!(
                                "join-handle aggregation in `{}` iterates in non-spawn order",
                                item.name
                            ),
                            "join and merge worker results in spawn (index) order",
                        );
                    }
                }
            }
        }
        // Sync primitives outside the store.
        if A2_SYNC_ALLOWED.iter().any(|p| file.path.ends_with(p)) {
            continue;
        }
        for (i, tok) in toks.iter().enumerate().take(b).skip(a) {
            let Some(id) = tok.kind.ident() else { continue };
            let is_sync = SYNC_IDENTS.contains(&id) || id.starts_with("Atomic");
            if !is_sync || file.in_use_item(i) {
                continue;
            }
            if allowed(file, item, "A2", toks[i].line) {
                continue;
            }
            push(
                findings,
                "A2",
                &file.path,
                toks[i].line,
                format!(
                    "shared-state synchronization (`{id}`) in `{}`, outside the store boundary",
                    item.name
                ),
                "restructure to disjoint slices / index-ordered merge, or add a scoped allow explaining why order cannot leak into results",
            );
        }
    }
}

/// A3: epoch values are produced by the advance site and compared
/// elsewhere — never arithmetically derived; snapshot fields are only
/// written during capture.
fn a3_epoch_discipline(ws: &Workspace, findings: &mut Vec<Finding>) {
    const MATH: [char; 5] = ['+', '-', '*', '/', '%'];
    for item in &ws.fns {
        if item.in_test {
            continue;
        }
        let Some((a, b)) = item.body else { continue };
        let file = &ws.files[item.file];
        let toks = &file.lexed.tokens;
        let producer = A3_EPOCH_PRODUCER.iter().any(|p| file.path.ends_with(p));
        let snapshot_file = file.path.ends_with("serve/src/snapshot.rs");
        for i in a..b {
            let Some(id) = toks[i].kind.ident() else {
                continue;
            };
            // A3a: raw epoch arithmetic.
            if !producer && (id == "epoch" || id.ends_with("_epoch")) {
                // `epoch <op>` or `epoch ( ) <op>` (method-result math);
                // `->` return arrows are not arithmetic.
                let op_at = |j: usize| {
                    toks.get(j).is_some_and(|t| match t.kind {
                        TokenKind::Punct(c) => {
                            MATH.contains(&c)
                                && !(c == '-'
                                    && toks.get(j + 1).is_some_and(|n| n.kind.is_punct('>')))
                        }
                        TokenKind::Ident(_) => false,
                    })
                };
                let call_result_math = toks.get(i + 1).is_some_and(|t| t.kind.is_punct('('))
                    && toks.get(i + 2).is_some_and(|t| t.kind.is_punct(')'))
                    && op_at(i + 3);
                let prev_math = i > a
                    && matches!(&toks[i - 1].kind,
                        TokenKind::Punct(c) if matches!(c, '+' | '-' | '/' | '%'));
                if (op_at(i + 1) || call_result_math || prev_math)
                    && !allowed(file, item, "A3", toks[i].line)
                {
                    push(
                        findings,
                        "A3",
                        &file.path,
                        toks[i].line,
                        format!(
                            "arithmetic on epoch value `{id}` in `{}` outside the advance/publish site",
                            item.name
                        ),
                        "take the epoch from the producing response/advance call and compare it; never derive epochs locally",
                    );
                }
            }
            // A3b: snapshot field mutation outside capture.
            if snapshot_file && id == "self" && item.name != "capture" {
                let dot = toks.get(i + 1).is_some_and(|t| t.kind.is_punct('.'));
                let field = toks.get(i + 2).and_then(|t| t.kind.ident());
                if dot && field.is_some() {
                    let assigns = match toks.get(i + 3).map(|t| &t.kind) {
                        Some(TokenKind::Punct('=')) => {
                            !toks.get(i + 4).is_some_and(|t| t.kind.is_punct('='))
                        }
                        Some(TokenKind::Punct(c)) if MATH.contains(c) => {
                            toks.get(i + 4).is_some_and(|t| t.kind.is_punct('='))
                        }
                        _ => false,
                    };
                    if assigns && !allowed(file, item, "A3", toks[i].line) {
                        push(
                            findings,
                            "A3",
                            &file.path,
                            toks[i].line,
                            format!(
                                "snapshot field `{}` mutated in `{}` outside capture",
                                field.unwrap_or(""),
                                item.name
                            ),
                            "snapshots are immutable after capture; build a new snapshot instead",
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        analyze_files(&owned)
    }

    #[test]
    fn reachable_unwrap_is_flagged_once() {
        let findings = analyze(&[(
            "crates/serve/src/store.rs",
            "fn handle_batch() { helper(); }\nfn helper() { Some(1).unwrap(); }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "A1");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn unreachable_unwrap_is_not_flagged() {
        let findings = analyze(&[(
            "crates/serve/src/store.rs",
            "fn handle_batch() {}\nfn dead() { Some(1).unwrap(); }\n",
        )]);
        assert!(findings.is_empty());
    }

    #[test]
    fn fn_level_allow_suppresses_the_body() {
        let findings = analyze(&[(
            "crates/core/src/state.rs",
            "// emr-lint: allow(A1, \"bounds proven by mesh invariant\")\nfn decide_local(v: &[u32]) -> u32 { v[0] + v[1] }\n",
        )]);
        assert!(findings.is_empty());
    }

    #[test]
    fn spawn_without_disjoint_marker_is_flagged() {
        let findings = analyze(&[(
            "crates/fault/src/x.rs",
            "fn par(out: &mut Vec<u32>) {\n    std::thread::scope(|s| {\n        s.spawn(|| ());\n    });\n}\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "A2");
    }

    #[test]
    fn epoch_math_is_flagged_outside_the_producer() {
        let findings = analyze(&[(
            "crates/serve/src/loadgen.rs",
            "fn w(mut working_epoch: u64) -> u64 { working_epoch += 1; working_epoch }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "A3");
    }

    #[test]
    fn epoch_comparison_and_return_types_are_fine() {
        let findings = analyze(&[(
            "crates/serve/src/loadgen.rs",
            "fn ok(epoch: u64, other: u64) -> u64 {\n    if epoch == other { return epoch; }\n    other\n}\nfn sig() -> Epoch { published_epoch() }\nfn published_epoch() -> Epoch { 0 }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
