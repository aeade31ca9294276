//! File walking, test-region detection, and rule matching.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lex::{lex, Allow, Lexed, Token, TokenKind};
use crate::report::Finding;
use crate::rules::{Matcher, Rule, RULES};

/// First-party source roots, workspace-relative. Vendored stand-ins
/// (`crates/rand`, `crates/serde*`, `crates/proptest`) are deliberately
/// absent.
pub const FIRST_PARTY_ROOTS: &[&str] = &[
    "src",
    "crates/mesh",
    "crates/mesh3",
    "crates/fault",
    "crates/core",
    "crates/distsim",
    "crates/netsim",
    "crates/analysis",
    "crates/bench",
    "crates/conform",
    "crates/serve",
    "crates/lint",
];

/// Directories under a crate that are never scanned: the lint's own
/// known-bad fixtures, and build output.
pub const SKIP_DIRS: &[&str] = &["fixtures", "target"];

/// Scans every first-party `.rs` file under `root` and returns all
/// findings — the lexical R-rules per file, then the workspace-wide
/// analysis families (A1–A3) — sorted by (path, line, rule).
pub fn scan_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for fp in FIRST_PARTY_ROOTS {
        collect_rs_files(&root.join(fp), &mut files);
    }
    files.sort();
    let mut findings = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in &files {
        let Ok(src) = fs::read_to_string(file) else {
            continue;
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan_source(&rel, &src));
        sources.push((rel, src));
    }
    findings.extend(crate::families::analyze_files(&sources));
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Runs the full rule table over one file's source. `rel_path` is the
/// workspace-relative path used for scoping and reporting; the function
/// is pure so the fixture tests can feed it virtual paths.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let test_lines = test_line_mask(rel_path, &lexed.tokens);
    let mut findings = Vec::new();

    for line in &lexed.bad_annotations {
        findings.push(Finding {
            rule: "allow",
            path: rel_path.to_string(),
            line: *line,
            summary: "malformed emr-lint annotation".to_string(),
            suggestion: "write `// emr-lint: allow(<rule>, \"<reason>\")` with a non-empty reason"
                .to_string(),
        });
    }

    for rule in RULES {
        if !rule.scope.covers(rel_path) {
            continue;
        }
        match &rule.matcher {
            Matcher::BannedIdent(names) => {
                for t in &lexed.tokens {
                    if let Some(id) = t.kind.ident() {
                        if names.contains(&id) {
                            push_finding(
                                rule,
                                rel_path,
                                t.line,
                                id,
                                &test_lines,
                                &lexed,
                                &mut findings,
                            );
                        }
                    }
                }
            }
            Matcher::BannedMethod(names) => {
                for w in lexed.tokens.windows(3) {
                    if w[0].kind.is_punct('.') && w[2].kind.is_punct('(') {
                        if let Some(id) = w[1].kind.ident() {
                            if names.contains(&id) {
                                push_finding(
                                    rule,
                                    rel_path,
                                    w[1].line,
                                    id,
                                    &test_lines,
                                    &lexed,
                                    &mut findings,
                                );
                            }
                        }
                    }
                }
            }
            Matcher::BannedMacro(names) => {
                for w in lexed.tokens.windows(2) {
                    if w[1].kind.is_punct('!') {
                        if let Some(id) = w[0].kind.ident() {
                            if names.contains(&id) {
                                push_finding(
                                    rule,
                                    rel_path,
                                    w[0].line,
                                    id,
                                    &test_lines,
                                    &lexed,
                                    &mut findings,
                                );
                            }
                        }
                    }
                }
            }
            Matcher::TruncatingCast(targets) => {
                for w in lexed.tokens.windows(2) {
                    if w[0].kind.ident() == Some("as") {
                        if let Some(target) = w[1].kind.ident() {
                            if targets.contains(&target) {
                                push_finding(
                                    rule,
                                    rel_path,
                                    w[0].line,
                                    target,
                                    &test_lines,
                                    &lexed,
                                    &mut findings,
                                );
                            }
                        }
                    }
                }
            }
            Matcher::RequiredCrateRootAttr(attr) => {
                if !is_crate_root(rel_path) {
                    continue;
                }
                if !has_forbid_attr(&lexed.tokens, attr) && !is_allowed(&lexed, rule.id, 1) {
                    findings.push(Finding {
                        rule: rule.id,
                        path: rel_path.to_string(),
                        line: 1,
                        summary: rule.summary.to_string(),
                        suggestion: rule.suggestion.to_string(),
                    });
                }
            }
        }
    }
    findings
}

#[allow(clippy::too_many_arguments)]
fn push_finding(
    rule: &Rule,
    rel_path: &str,
    line: u32,
    token: &str,
    test_lines: &TestLines,
    lexed: &Lexed,
    findings: &mut Vec<Finding>,
) {
    if !rule.scope.in_tests && test_lines.contains(line) {
        return;
    }
    if is_allowed(lexed, rule.id, line) {
        return;
    }
    findings.push(Finding {
        rule: rule.id,
        path: rel_path.to_string(),
        line,
        summary: format!("{} (`{token}`)", rule.summary),
        suggestion: rule.suggestion.to_string(),
    });
}

/// An allow annotation suppresses a finding on its own line (trailing
/// style) or on the line directly below (annotation-above style).
fn is_allowed(lexed: &Lexed, rule_id: &str, line: u32) -> bool {
    lexed
        .allows
        .iter()
        .any(|a: &Allow| a.rule == rule_id && (a.line == line || a.line + 1 == line))
}

fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs" || rel_path.ends_with("/src/lib.rs")
}

/// Looks for the token shape of `#![forbid(unsafe_code)]` (possibly with
/// other lints in the same list).
fn has_forbid_attr(tokens: &[Token], attr: &str) -> bool {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind.ident() == Some("forbid")
            && tokens.get(i + 1).is_some_and(|n| n.kind.is_punct('('))
        {
            let mut j = i + 2;
            while let Some(tok) = tokens.get(j) {
                if tok.kind.is_punct(')') {
                    break;
                }
                if tok.kind.ident() == Some(attr) {
                    return true;
                }
                j += 1;
            }
        }
    }
    false
}

/// Which source lines belong to test code.
struct TestLines {
    ranges: Vec<(u32, u32)>,
    whole_file: bool,
}

impl TestLines {
    fn contains(&self, line: u32) -> bool {
        self.whole_file || self.ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Marks lines covered by `#[cfg(test)]` items; files under `tests/` or
/// `benches/` directories are test code in their entirety.
fn test_line_mask(rel_path: &str, tokens: &[Token]) -> TestLines {
    let whole_file = rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches");
    let mut ranges = Vec::new();
    if !whole_file {
        let mut i = 0usize;
        while i < tokens.len() {
            if let Some(end) = match_cfg_test_attr(tokens, i) {
                let start_line = tokens[i].line;
                let item_end = skip_item(tokens, end);
                let end_line = tokens
                    .get(item_end.saturating_sub(1))
                    .map_or(start_line, |t| t.line);
                ranges.push((start_line, end_line));
                i = item_end;
            } else {
                i += 1;
            }
        }
    }
    TestLines { ranges, whole_file }
}

/// If `tokens[i..]` starts with `#[cfg(...test...)]`, returns the index
/// just past the closing `]`.
fn match_cfg_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.kind.is_punct('#') || !tokens.get(i + 1)?.kind.is_punct('[') {
        return None;
    }
    if tokens.get(i + 2)?.kind.ident() != Some("cfg") || !tokens.get(i + 3)?.kind.is_punct('(') {
        return None;
    }
    let mut depth = 1i32;
    let mut j = i + 4;
    let mut saw_test = false;
    while depth > 0 {
        let t = tokens.get(j)?;
        if t.kind.is_punct('(') {
            depth += 1;
        } else if t.kind.is_punct(')') {
            depth -= 1;
        } else if t.kind.ident() == Some("test") {
            saw_test = true;
        }
        j += 1;
    }
    if !saw_test || !tokens.get(j)?.kind.is_punct(']') {
        return None;
    }
    Some(j + 1)
}

/// Consumes one item starting at `i` (past the attribute): any further
/// attributes, then either a braced body (ends at its matching `}`) or a
/// `;`-terminated item. Returns the index just past the item.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further attributes on the same item.
    while tokens.get(i).is_some_and(|t| t.kind.is_punct('#'))
        && tokens.get(i + 1).is_some_and(|t| t.kind.is_punct('['))
    {
        let mut depth = 0i32;
        let mut j = i + 1;
        loop {
            let Some(t) = tokens.get(j) else {
                return j;
            };
            if t.kind.is_punct('[') {
                depth += 1;
            } else if t.kind.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    let mut brace_depth = 0i32;
    while let Some(t) = tokens.get(i) {
        match &t.kind {
            TokenKind::Punct('{') => brace_depth += 1,
            TokenKind::Punct('}') => {
                brace_depth -= 1;
                if brace_depth == 0 {
                    return i + 1;
                }
            }
            TokenKind::Punct(';') if brace_depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() { let m: HashMap<u8, u8> = HashMap::new(); }\n\
                   #[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        // R1 applies in tests too, so both fire; but R4-style non-test
        // rules use the mask. Check the mask directly.
        let lexed = crate::lex::lex(src);
        let mask = test_line_mask("crates/x/src/a.rs", &lexed.tokens);
        assert!(!mask.contains(1));
        assert!(mask.contains(2));
        assert!(mask.contains(4));
    }

    #[test]
    fn cfg_test_use_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let lexed = crate::lex::lex(src);
        let mask = test_line_mask("crates/x/src/a.rs", &lexed.tokens);
        assert!(mask.contains(2));
        assert!(!mask.contains(3));
    }

    #[test]
    fn tests_dir_files_are_fully_masked() {
        let lexed = crate::lex::lex("fn x() {}");
        let mask = test_line_mask("crates/x/tests/t.rs", &lexed.tokens);
        assert!(mask.contains(1));
    }
}
