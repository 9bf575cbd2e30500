//! The rule engine: runs every rule over a scanned file, honoring
//! `#[cfg(test)]` / `#[test]` regions and suppression directives.
//!
//! Suppression syntax:
//!
//! ```text
//! if mac_a != mac_b { … } // mykil-lint: allow(L003) -- public values: …
//!
//! // mykil-lint: allow(L003)
//! if mac_a != mac_b { … }      // directive on its own line covers the
//!                              // next code line
//! ```
//!
//! Several rules may be listed: `allow(L003, L007)`. A directive is held
//! to the contract of `#[expect]`: a rule id it names that suppresses no
//! finding on its line, or that is not a rule of this linter, is itself
//! reported as [`STALE_ALLOW`].

use crate::ast::{self, FnDef};
use crate::diagnostics::{display_path, Diagnostic};
use crate::rules::{Check, FileContext, RULES};
use crate::tokenizer::{scan, Comment, Token};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The id findings about the directives themselves are reported under.
/// It is not a rule: it cannot be listed, explained or suppressed.
pub const STALE_ALLOW: &str = "stale-allow";

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
    /// The syntax layer: functions and their call events.
    pub fns: Vec<FnDef>,
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
/// Every rule, token or crate-scoped, is scoped through this one
/// function.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// Runs the analysis pipeline on one file.
pub fn analyze(rel_path: &str, source: &str) -> AnalyzedFile {
    let scanned = scan(source);
    let test_mask = compute_test_mask(&scanned.tokens);
    let fns = ast::parse(&scanned.tokens);
    AnalyzedFile {
        path: rel_path.to_string(),
        tokens: scanned.tokens,
        comments: scanned.comments,
        test_mask,
        fns,
    }
}

/// Lints a set of files as one unit: token rules run per file, AST
/// rules run once per crate group (so cross-file facts — a timer's
/// handling site — are visible). Suppression directives are honored for
/// both rule kinds, and the ones that suppress nothing are reported.
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
    let directives: Vec<(&str, Directive)> = analyzed
        .iter()
        .flat_map(|f| {
            directives(&f.tokens, &f.comments)
                .into_iter()
                .map(|d| (f.path.as_str(), d))
        })
        .collect();
    let stale = stale_directives(&directives, &out);
    out.retain(|d| {
        !directives.iter().any(|(file, dir)| {
            *file == d.file && dir.target == d.line && dir.rules.iter().any(|r| r == d.rule)
        })
    });
    out.extend(stale);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// The directive findings: every rule id a directive names that is not
/// a rule of this linter, or that matches no finding on the line the
/// directive covers.
fn stale_directives(directives: &[(&str, Directive)], findings: &[Diagnostic]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (file, dir) in directives {
        for rule in &dir.rules {
            let message = if !RULES.iter().any(|r| r.id == rule) {
                format!(
                    "`allow({rule})` names no mykil-lint rule; the retired rules are \
                     clippy lints now, suppressed with `#[expect(clippy::…, reason = …)]`"
                )
            } else if !findings
                .iter()
                .any(|d| d.file == *file && d.line == dir.target && d.rule == rule)
            {
                format!(
                    "`allow({rule})` suppresses no finding on line {}; delete it",
                    dir.target
                )
            } else {
                continue;
            };
            out.push(Diagnostic {
                rule: STALE_ALLOW,
                file: file.to_string(),
                line: dir.line,
                message,
            });
        }
    }
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

/// One suppression directive.
struct Directive {
    /// The line the comment sits on (where a stale directive is reported).
    line: u32,
    /// The line it covers.
    target: u32,
    /// The rule ids it names.
    rules: Vec<String>,
}

/// Collects the suppression comments of a file. A trailing comment
/// covers its own line; a comment on its own line covers the next line
/// that has code.
fn directives(tokens: &[Token], comments: &[Comment]) -> Vec<Directive> {
    comments
        .iter()
        .filter_map(|comment| {
            let rules = parse_directive(comment)?;
            let target = if comment.has_code_before {
                comment.line
            } else {
                tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|l| *l > comment.line)
                    .unwrap_or(comment.line)
            };
            Some(Directive {
                line: comment.line,
                target,
                rules,
            })
        })
        .collect()
}

/// Parses `mykil-lint: allow(L003, L007) [-- reason]` from a comment.
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

    fn rules(src: &str) -> Vec<&'static str> {
        lint_source("crates/core/src/a.rs", src)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

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
        let src = "fn f(mac: &[u8], m: &[u8]) -> bool {\n mac == m // mykil-lint: allow(L003) -- public\n}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let src = "fn f(mac: &[u8], m: &[u8]) -> bool {\n // mykil-lint: allow(L003)\n mac == m\n}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn suppression_for_other_rule_does_not_apply() {
        // The finding stays, and the directive that covered nothing is
        // reported too.
        let src = "fn f(mac: &[u8], m: &[u8]) -> bool {\n mac == m // mykil-lint: allow(L007)\n}";
        assert_eq!(rules(src), vec!["L003", STALE_ALLOW]);
    }

    #[test]
    fn multi_rule_directive() {
        let src = "fn f(ctx: &mut Ctx, mac: &[u8], m: &[u8]) {\n\
                   ctx.send(peer, Msg::HeartbeatAck { ok: mac == m }); // mykil-lint: allow(L003, L007)\n\
                   self.wal_commit_record(ctx, &rec);\n}";
        assert!(rules(src).is_empty());
        let one = src.replace("allow(L003, L007)", "allow(L007)");
        assert_eq!(rules(&one), vec!["L003"]);
    }
}
