//! The token-level Mykil lint rules and the rule registry.
//!
//! Each rule reports [`Diagnostic`]s over a scanned file. Rules are
//! scoped by crate: [`crate_of`] computes which workspace crate a file
//! belongs to from its path, and each rule declares which crates and
//! regions (test vs. non-test) it applies to.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L002 | secret types derive no `Debug`/`PartialEq`/`Hash` and zeroize on `Drop` |
//! | L003 | MAC/digest comparisons go through `ct_eq`, never `==`/`!=` |
//!
//! The call-order rules L007 and L008 live in [`crate::rules_ast`].

use crate::diagnostics::Diagnostic;
use crate::engine::{crate_of, CrateContext};
use crate::tokenizer::{Token, TokenKind};

/// Crates that define secret-bearing types (L002). The net crate's
/// stable-storage layer holds at-rest key material (`SecretBytes`
/// wraps WAL records and checkpoint payloads), so it is held to the
/// same hygiene as the crypto crate.
pub const SECRET_TYPE_CRATES: &[&str] = &["crypto", "net"];

/// Types holding key material or cipher state (L002): no leaking
/// derives, mandatory zeroize-on-`Drop`.
pub const SECRET_TYPES: &[&str] = &[
    "SymmetricKey",
    "Rc4",
    "ChaCha20",
    "RsaKeyPair",
    "SecretBytes",
];

/// Derives forbidden on secret types: `Debug` prints state, and derived
/// `PartialEq`/`Hash` walk the bytes with early exit (timing leak).
const FORBIDDEN_DERIVES: &[&str] = &["Debug", "PartialEq", "Hash"];

/// Files that persist buffers to a real filesystem (L002's at-rest
/// pass): `FileStore` today, any future disk-backed store by addition.
const AT_REST_PATHS: &[&str] = &["crates/net/src/file_store.rs"];

/// Idents that mark a written buffer as hygienic at-rest output:
/// `as_slice` is the `SecretBytes` read accessor, `to_le_bytes`
/// produces fixed framing integers (lengths, CRCs, sequence numbers).
const AT_REST_OK_CALLS: &[&str] = &["as_slice", "to_le_bytes"];

/// Crates whose comparisons L003 checks: the crypto crate and the
/// protocol crates that handle its tags.
const MAC_COMPARE_CRATES: &[&str] = &["crypto", "core", "net", "tree"];

/// Identifier segments that mark a value as MAC/digest material (L003).
const SECRET_COMPARE_SEGMENTS: &[&str] = &["mac", "tag", "digest", "hmac"];

/// Everything a token rule needs to know about one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Code tokens.
    pub tokens: &'a [Token],
    /// Per-token flag: inside `#[cfg(test)]` / `#[test]` code.
    pub test_mask: &'a [bool],
}

/// How a rule runs: over one file's raw tokens, or over every analyzed
/// file of a crate (the call-order rules need cross-file facts: a timer
/// kind's handling site).
#[derive(Clone, Copy)]
pub enum Check {
    /// Runs once per file over raw tokens.
    Token(fn(&FileContext<'_>) -> Vec<Diagnostic>),
    /// Runs once per workspace crate over AST-analyzed files.
    Crate(fn(&CrateContext<'_>) -> Vec<Diagnostic>),
}

/// A lint rule: id, one-line rationale, and the check itself.
pub struct RuleInfo {
    /// Stable rule id (`L002`…).
    pub id: &'static str,
    /// One-line description used by `--list-rules` and docs.
    pub description: &'static str,
    /// The check function.
    pub check: Check,
}

/// The rule registry, in id order. The ids are stable: L001, L004–L006
/// and L009–L011 were retired when clippy took them over, and are not
/// reused.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "L002",
        description: "secret-bearing types (SymmetricKey, Rc4, ChaCha20, RsaKeyPair, \
                      SecretBytes) must not derive Debug/PartialEq/Hash and must \
                      impl Drop (zeroize); at-rest storage files must write \
                      payloads only through SecretBytes::as_slice",
        check: Check::Token(check_l002),
    },
    RuleInfo {
        id: "L003",
        description: "MAC/digest/secret byte comparisons must use ct_eq, \
                      never ==/!= (timing side channel)",
        check: Check::Token(check_l003),
    },
    RuleInfo {
        id: "L007",
        description: "WAL-before-ack: in core handlers that commit to the WAL, \
                      every ack/reply Msg send must come after the commit \
                      (crash between send and commit orphans the peer)",
        check: Check::Crate(crate::rules_ast::check_l007),
    },
    RuleInfo {
        id: "L008",
        description: "every set_timer arm site must use a named TIMER_* kind that \
                      is matched or cancelled somewhere in the same crate \
                      (stale/orphan timer bug class)",
        check: Check::Crate(crate::rules_ast::check_l008),
    },
];

fn diag(rule: &'static str, ctx: &FileContext<'_>, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        file: ctx.path.to_string(),
        line,
        message,
    }
}

/// L002: forbidden derives on secret types + mandatory `impl Drop`.
fn check_l002(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if !crate_of(ctx.path).is_some_and(|c| SECRET_TYPE_CRATES.contains(&c)) {
        return Vec::new();
    }
    let t = ctx.tokens;
    let mut out = Vec::new();

    // Pass 1: derive lists directly preceding a secret struct/enum.
    let mut i = 0;
    while i < t.len() {
        if t[i].is_punct('#') && t.get(i + 1).is_some_and(|x| x.is_punct('[')) {
            if let Some((derives, attr_end)) = parse_derive_attr(t, i) {
                if let Some(name) = struct_name_after_attrs(t, attr_end) {
                    if SECRET_TYPES.contains(&name.text.as_str()) {
                        for (trait_name, line) in &derives {
                            if FORBIDDEN_DERIVES.contains(&trait_name.as_str()) {
                                out.push(diag(
                                    "L002",
                                    ctx,
                                    *line,
                                    format!(
                                        "secret type `{}` must not derive `{}` \
                                         (leaks or timing-compares key material); \
                                         implement it manually if needed",
                                        name.text, trait_name
                                    ),
                                ));
                            }
                        }
                    }
                }
                i = attr_end;
                continue;
            }
        }
        i += 1;
    }

    // Pass 2: every secret type *defined* here must impl Drop here.
    for idx in 0..t.len() {
        if t[idx].is_ident("struct")
            && idx > 0
            && !t[idx - 1].is_ident("impl")
            && t.get(idx + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident && SECRET_TYPES.contains(&n.text.as_str())
            })
        {
            let name = &t[idx + 1];
            let has_drop = t.windows(4).any(|w| {
                w[0].is_ident("impl")
                    && w[1].is_ident("Drop")
                    && w[2].is_ident("for")
                    && w[3].is_ident(&name.text)
            });
            if !has_drop {
                out.push(diag(
                    "L002",
                    ctx,
                    name.line,
                    format!(
                        "secret type `{}` must zeroize on Drop \
                         (`impl Drop for {}` not found in this file)",
                        name.text, name.text
                    ),
                ));
            }
        }
    }

    // Pass 3: at-rest write hygiene. In files that persist to a real
    // filesystem, every buffer handed to a write call must be either
    // fixed framing metadata (SCREAMING_CASE constants, `to_le_bytes`
    // integers) or the `as_slice()` view of a `SecretBytes` — a raw
    // `Vec<u8>` / `&[u8]` payload at the write boundary is how key
    // material reaches disk via buffers that never zeroize.
    if AT_REST_PATHS.contains(&ctx.path) {
        let mut i = 0;
        while i < t.len() {
            if ctx.test_mask.get(i).copied().unwrap_or(false) {
                i += 1;
                continue;
            }
            let name = &t[i];
            // `write` only as the path call `fs::write` — the method
            // position is `OpenOptions::write(bool)` here, and buffer
            // writes through the io trait all use `write_all`.
            let is_write_call = name.kind == TokenKind::Ident
                && (name.text == "write_all"
                    || (name.text == "write" && i > 0 && t[i - 1].is_punct(':')))
                && t.get(i + 1).is_some_and(|x| x.is_punct('('));
            if !is_write_call {
                i += 1;
                continue;
            }
            let Some(close) = matching_paren(t, i + 1) else {
                i += 1;
                continue;
            };
            // The written buffer is the last top-level argument
            // (`fs::write(path, bytes)` / `f.write_all(bytes)`).
            let arg = last_top_level_arg(t.get(i + 2..close).unwrap_or(&[]));
            if !at_rest_hygienic(arg) {
                out.push(diag(
                    "L002",
                    ctx,
                    name.line,
                    format!(
                        "raw buffer passed to `{}` in at-rest storage: wrap \
                         key-bearing payloads in `SecretBytes` and write \
                         `.as_slice()` (framing metadata stays SCREAMING_CASE \
                         consts / `to_le_bytes`)",
                        name.text
                    ),
                ));
            }
            i = close + 1;
        }
    }
    out
}

/// Index of the close paren matching the `(` at `open`.
fn matching_paren(t: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, tok) in t.iter().enumerate().skip(open) {
        if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// The tokens of the last top-level (depth-0) comma-separated argument.
fn last_top_level_arg(args: &[Token]) -> &[Token] {
    let mut depth = 0i32;
    let mut start = 0usize;
    for (j, tok) in args.iter().enumerate() {
        if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && tok.is_punct(',') {
            start = j + 1;
        }
    }
    args.get(start..).unwrap_or(args)
}

/// Whether a written expression is hygienic at-rest output: it reads
/// through an approved accessor, or touches only SCREAMING_CASE
/// constants and literals.
fn at_rest_hygienic(arg: &[Token]) -> bool {
    let mut idents = arg.iter().filter(|x| x.kind == TokenKind::Ident);
    if idents
        .clone()
        .any(|x| AT_REST_OK_CALLS.contains(&x.text.as_str()))
    {
        return true;
    }
    idents.all(|x| is_screaming(&x.text))
}

/// `SCREAMING_CASE`: the shape of a framing const (`WAL_MAGIC`).
fn is_screaming(s: &str) -> bool {
    s.chars().any(|c| c.is_ascii_uppercase())
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Parses `#[derive(A, B, …)]` starting at the `#` token. Returns the
/// derive list (name, line) and the index just past the closing `]`.
fn parse_derive_attr(t: &[Token], i: usize) -> Option<(Vec<(String, u32)>, usize)> {
    if !(t.get(i)?.is_punct('#') && t.get(i + 1)?.is_punct('[') && t.get(i + 2)?.is_ident("derive"))
    {
        return None;
    }
    let mut derives = Vec::new();
    let mut j = i + 3;
    if !t.get(j)?.is_punct('(') {
        return None;
    }
    j += 1;
    let mut depth = 1u32;
    while j < t.len() && depth > 0 {
        if t[j].is_punct('(') {
            depth += 1;
        } else if t[j].is_punct(')') {
            depth -= 1;
        } else if depth == 1 && t[j].kind == TokenKind::Ident {
            derives.push((t[j].text.clone(), t[j].line));
        }
        j += 1;
    }
    // Expect the closing `]`.
    if t.get(j).is_some_and(|x| x.is_punct(']')) {
        j += 1;
    }
    Some((derives, j))
}

/// Finds the struct/enum name after any further attributes and
/// visibility modifiers, without crossing into other items.
fn struct_name_after_attrs(t: &[Token], mut j: usize) -> Option<&Token> {
    while j < t.len() {
        if t[j].is_punct('#') && t.get(j + 1).is_some_and(|x| x.is_punct('[')) {
            // Skip a whole attribute.
            let mut depth = 0u32;
            j += 1;
            while j < t.len() {
                if t[j].is_punct('[') {
                    depth += 1;
                } else if t[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            continue;
        }
        if t[j].is_ident("pub") {
            j += 1;
            // Skip `(crate)` etc.
            if t.get(j).is_some_and(|x| x.is_punct('(')) {
                let mut depth = 0u32;
                while j < t.len() {
                    if t[j].is_punct('(') {
                        depth += 1;
                    } else if t[j].is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            continue;
        }
        if t[j].is_ident("struct") || t[j].is_ident("enum") {
            return t.get(j + 1);
        }
        return None;
    }
    None
}

/// L003: `==` / `!=` on values whose names mark them as MAC material.
fn check_l003(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if !crate_of(ctx.path).is_some_and(|c| MAC_COMPARE_CRATES.contains(&c)) {
        return Vec::new();
    }
    let t = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..t.len().saturating_sub(1) {
        if ctx.test_mask[i] {
            continue;
        }
        let is_eq = t[i].is_punct('=') && t[i + 1].is_punct('=');
        let is_ne = t[i].is_punct('!') && t[i + 1].is_punct('=');
        if !(is_eq || is_ne) {
            continue;
        }
        // `a == b` must not be the tail of `<=`, `>=`, `==` already
        // counted, or `=>`.
        if i > 0 && (t[i - 1].is_punct('<') || t[i - 1].is_punct('>') || t[i - 1].is_punct('=')) {
            continue;
        }
        if t.get(i + 2).is_some_and(|x| x.is_punct('=')) && is_eq {
            // `===` cannot occur in Rust; defensive skip.
            continue;
        }
        // Length comparisons are not secret-dependent.
        if i >= 3 && t[i - 1].is_punct(')') && t[i - 2].is_punct('(') && t[i - 3].is_ident("len") {
            continue;
        }
        let window_hits = |range: &mut dyn Iterator<Item = usize>| -> bool {
            range.take(8).any(|j| {
                t.get(j).is_some_and(|tok| {
                    tok.kind == TokenKind::Ident && ident_is_secret_compare(&tok.text)
                })
            })
        };
        let left_hit = window_hits(&mut (0..i).rev());
        let right_hit = window_hits(&mut (i + 2..t.len()));
        if left_hit || right_hit {
            out.push(diag(
                "L003",
                ctx,
                t[i].line,
                format!(
                    "byte-wise `{}` on MAC/digest material is a timing side channel; \
                     compare through mykil_crypto::ct_eq",
                    if is_eq { "==" } else { "!=" }
                ),
            ));
        }
    }
    out
}

/// Whether an identifier names MAC/digest material: any snake_case
/// segment equal to one of the marker words.
fn ident_is_secret_compare(ident: &str) -> bool {
    ident
        .split('_')
        .any(|seg| SECRET_COMPARE_SEGMENTS.contains(&seg.to_ascii_lowercase().as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_source;

    fn rules_fired(path: &str, src: &str) -> Vec<String> {
        lint_source(path, src)
            .into_iter()
            .map(|d| d.rule.to_string())
            .collect()
    }

    #[test]
    fn secret_segment_matching() {
        assert!(ident_is_secret_compare("expected_tag"));
        assert!(ident_is_secret_compare("mac"));
        assert!(ident_is_secret_compare("hmac_out"));
        assert!(!ident_is_secret_compare("stage"));
        assert!(!ident_is_secret_compare("message"));
        // Segment matching, not substring matching: "tags" != "tag".
        assert!(!ident_is_secret_compare("tags_list"));
    }

    #[test]
    fn crate_scoping() {
        // L003 applies to the crypto and protocol crates' src/ trees.
        let src = "fn f(mac: &[u8], m: &[u8]) -> bool { mac == m }";
        assert_eq!(rules_fired("crates/core/src/a.rs", src), vec!["L003"]);
        assert_eq!(rules_fired("crates/analysis/src/a.rs", src), Vec::<String>::new());
        assert_eq!(rules_fired("crates/core/tests/a.rs", src), Vec::<String>::new());
    }
}
