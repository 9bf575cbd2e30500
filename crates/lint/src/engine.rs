//! The rule engine: runs every rule over a scanned file, honoring
//! `#[cfg(test)]` / `#[test]` regions and suppression directives.
//!
//! Suppression syntax:
//!
//! ```text
//! risky_call(); // mykil-lint: allow(L001) -- proven unreachable: …
//!
//! // mykil-lint: allow(L003)
//! if mac_a != mac_b { … }      // directive on its own line covers the
//!                              // next code line
//! ```
//!
//! Several rules may be listed: `allow(L001, L005)`.

use crate::ast::{self, Ast};
use crate::diagnostics::{display_path, Diagnostic};
use crate::rules::{Check, FileContext, RULES};
use crate::tokenizer::{scan, Comment, Token};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

/// One file after the full analysis pipeline: tokens, test mask, and
/// the syntax layer. This is what crate-scoped (AST) rules consume.
pub struct AnalyzedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Code tokens.
    pub tokens: Vec<Token>,
    /// Comments (for suppression directives).
    pub comments: Vec<Comment>,
    /// Per-token flag: inside `#[cfg(test)]` / `#[test]` code.
    pub test_mask: Vec<bool>,
    /// The syntax layer: functions, events, typed declarations.
    pub ast: Ast,
}

/// Everything a crate-scoped rule sees: all analyzed files of one
/// workspace crate (files outside `crates/<name>/src/` form singleton
/// groups with `crate_name == None`).
pub struct CrateContext<'a> {
    /// The `crates/<name>/src/` crate these files belong to, if any.
    pub crate_name: Option<&'a str>,
    /// Every analyzed file in the crate, in path order.
    pub files: &'a [&'a AnalyzedFile],
}

/// The `crates/<name>/src/` crate a workspace-relative path belongs to.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// Runs the analysis pipeline on one file.
pub fn analyze(rel_path: &str, source: &str) -> AnalyzedFile {
    let scanned = scan(source);
    let test_mask = compute_test_mask(&scanned.tokens);
    let parsed = ast::parse(&scanned.tokens);
    AnalyzedFile {
        path: rel_path.to_string(),
        tokens: scanned.tokens,
        comments: scanned.comments,
        test_mask,
        ast: parsed,
    }
}

/// Lints a set of files as one unit: token rules run per file, AST
/// rules run once per crate group (so cross-file facts — a field's
/// declared type, a timer's handling site — are visible). Suppression
/// directives are honored for both rule kinds.
pub fn lint_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    let analyzed: Vec<AnalyzedFile> = files
        .iter()
        .map(|(path, source)| analyze(path, source))
        .collect();
    let mut out = Vec::new();
    for f in &analyzed {
        let ctx = FileContext {
            path: &f.path,
            tokens: &f.tokens,
            test_mask: &f.test_mask,
            comments: &f.comments,
        };
        for rule in RULES {
            if let Check::Token(check) = rule.check {
                out.extend(check(&ctx));
            }
        }
    }
    // Group files by crate for the AST rules. Files outside a crate's
    // src/ tree group by their own path (singleton, crate_name = None).
    let mut groups: BTreeMap<&str, Vec<&AnalyzedFile>> = BTreeMap::new();
    for f in &analyzed {
        groups
            .entry(crate_of(&f.path).unwrap_or(f.path.as_str()))
            .or_default()
            .push(f);
    }
    for group in groups.values() {
        let cctx = CrateContext {
            crate_name: crate_of(&group[0].path),
            files: group,
        };
        for rule in RULES {
            if let Check::Crate(check) = rule.check {
                out.extend(check(&cctx));
            }
        }
    }
    let suppressed: HashMap<&str, HashMap<u32, Vec<String>>> = analyzed
        .iter()
        .map(|f| (f.path.as_str(), suppression_map(&f.tokens, &f.comments)))
        .collect();
    out.retain(|d| {
        !suppressed
            .get(d.file.as_str())
            .and_then(|m| m.get(&d.line))
            .is_some_and(|rules| rules.iter().any(|r| r == d.rule))
    });
    out.sort_by(|a, b| (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule)));
    out
}

/// Lints one file's source text. `rel_path` must be workspace-relative
/// with forward slashes — rule scoping keys off it. Crate-scoped rules
/// see only this file; use [`lint_files`] / [`lint_workspace`] for
/// cross-file analysis.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    lint_files(&[(rel_path.to_string(), source.to_string())])
}

/// Marks every token that lives inside `#[cfg(test)]` or `#[test]`
/// code, so rules about production hygiene stay quiet in tests.
pub fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let Some(attr_end) = test_attribute_end(tokens, i) else {
            i += 1;
            continue;
        };
        // The attribute governs the next item. Only mark if a block
        // opens before any top-level `;` (so `#[cfg(test)] mod t;`
        // does not swallow unrelated code).
        let mut j = attr_end;
        let mut pdepth = 0i32;
        let block_start = loop {
            let Some(tok) = tokens.get(j) else { break None };
            if tok.is_punct('(') || tok.is_punct('[') {
                pdepth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') {
                pdepth -= 1;
            } else if tok.is_punct('{') && pdepth == 0 {
                break Some(j);
            } else if tok.is_punct(';') && pdepth == 0 {
                break None;
            }
            j += 1;
        };
        if let Some(start) = block_start {
            let mut depth = 1i32;
            let mut k = start + 1;
            while k < tokens.len() && depth > 0 {
                if tokens[k].is_punct('{') {
                    depth += 1;
                } else if tokens[k].is_punct('}') {
                    depth -= 1;
                }
                k += 1;
            }
            for flag in &mut mask[i..k] {
                *flag = true;
            }
        }
        i = attr_end;
    }
    mask
}

/// If a `#[test]`-like attribute starts at `i`, returns the index just
/// past its closing `]`. Recognizes `#[test]`, `#[cfg(test)]`, and any
/// `#[cfg(…test…)]` combination such as `#[cfg(all(test, unix))]`.
fn test_attribute_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !(tokens.get(i)?.is_punct('#') && tokens.get(i + 1)?.is_punct('[')) {
        return None;
    }
    let head = tokens.get(i + 2)?;
    let mut is_test_attr = head.is_ident("test");
    let mut j = i + 2;
    let mut depth = 1i32; // the `[`
    while j < tokens.len() && depth > 0 {
        let tok = &tokens[j];
        if tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(']') {
            depth -= 1;
        } else if head.is_ident("cfg") && tok.is_ident("test") {
            is_test_attr = true;
        }
        j += 1;
    }
    is_test_attr.then_some(j)
}

/// Builds `line -> allowed rule ids` from suppression comments. A
/// trailing comment covers its own line; a comment on its own line
/// covers the next line that has code.
fn suppression_map(tokens: &[Token], comments: &[Comment]) -> HashMap<u32, Vec<String>> {
    let mut map: HashMap<u32, Vec<String>> = HashMap::new();
    for comment in comments {
        let Some(rules) = parse_directive(comment) else {
            continue;
        };
        let target = if comment.has_code_before {
            comment.line
        } else {
            tokens
                .iter()
                .map(|t| t.line)
                .find(|l| *l > comment.line)
                .unwrap_or(comment.line)
        };
        map.entry(target).or_default().extend(rules);
    }
    map
}

/// Parses `mykil-lint: allow(L001, L003) [-- reason]` from a comment.
fn parse_directive(comment: &Comment) -> Option<Vec<String>> {
    let text = comment.text.trim();
    let rest = text.strip_prefix("mykil-lint:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let (list, _) = rest.split_once(')')?;
    let rules: Vec<String> = list
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    (!rules.is_empty()).then_some(rules)
}

/// Recursively collects the `.rs` files the workspace linter covers:
/// everything under `crates/` except `target/` and the linter's own
/// fixture directories.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    collect_rs_files(&crates_dir, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every workspace file under `root`, returning diagnostics with
/// workspace-relative paths. All files are analyzed as one batch so
/// crate-scoped rules see whole crates.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for path in workspace_files(root)? {
        let source = std::fs::read_to_string(&path)?;
        files.push((display_path(&path, root), source));
    }
    Ok(lint_files(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        let scanned = scan(src);
        let mask = compute_test_mask(&scanned.tokens);
        let unwrap_idx = scanned
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        let prod_idx = scanned
            .tokens
            .iter()
            .position(|t| t.is_ident("prod"))
            .unwrap();
        assert!(mask[unwrap_idx]);
        assert!(!mask[prod_idx]);
    }

    #[test]
    fn cfg_test_path_declaration_marks_nothing_else() {
        let src = "#[cfg(test)]\nmod tests;\nfn prod() { x.unwrap(); }\n";
        let scanned = scan(src);
        let mask = compute_test_mask(&scanned.tokens);
        let unwrap_idx = scanned
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(!mask[unwrap_idx]);
    }

    #[test]
    fn test_fn_attribute_masks_its_body() {
        let src = "#[test]\nfn check() { y.expect(\"ok\"); }\nfn prod() {}\n";
        let scanned = scan(src);
        let mask = compute_test_mask(&scanned.tokens);
        let expect_idx = scanned
            .tokens
            .iter()
            .position(|t| t.is_ident("expect"))
            .unwrap();
        let prod_idx = scanned
            .tokens
            .iter()
            .position(|t| t.is_ident("prod"))
            .unwrap();
        assert!(mask[expect_idx]);
        assert!(!mask[prod_idx]);
    }

    #[test]
    fn same_line_suppression() {
        let src = "fn f() { x.unwrap(); // mykil-lint: allow(L001) -- startup only\n}";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let src = "fn f() {\n // mykil-lint: allow(L001)\n x.unwrap();\n}";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn suppression_for_other_rule_does_not_apply() {
        let src = "fn f() { x.unwrap(); // mykil-lint: allow(L003)\n}";
        let diags = lint_source("crates/core/src/a.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "L001");
    }

    #[test]
    fn multi_rule_directive() {
        let src = "fn f() { x.unwrap(); // mykil-lint: allow(L003, L001)\n}";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }
}
