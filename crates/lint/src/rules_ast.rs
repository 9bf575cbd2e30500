//! The syntax-aware call-order rules L007 and L008.
//!
//! These rules run over the [`crate::ast`] layer — per-function call
//! streams — so they can reason about *call order* and *cross-file
//! pairing*, which the token rules cannot:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L007 | WAL commit precedes every ack/reply send in the same handler |
//! | L008 | every armed timer kind is matched or cancelled in its crate |
//!
//! Rules receive a [`CrateContext`] — every analyzed file of one
//! workspace crate — and report diagnostics across any of them.

use crate::ast::{last_name_in, split_args, Event};
use crate::diagnostics::Diagnostic;
use crate::engine::{AnalyzedFile, CrateContext};
use crate::tokenizer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Durable-commit calls (L007): PR 4's WAL-before-ack contract counts
/// any of these as the commit point.
const WAL_FNS: &[&str] = &["wal_commit", "wal_commit_record"];

/// Protocol-visible emission calls (L007).
const SEND_FNS: &[&str] = &["send", "send_reliable", "multicast"];

/// `Msg` variant-name fragments that mark a send as an ack/reply — the
/// messages a peer takes as confirmation that state changed on this
/// node.
const ACK_MARKERS: &[&str] = &["Ack", "Denied", "Welcome", "Grant", "Reply"];

fn diag(rule: &'static str, file: &str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        file: file.to_string(),
        line,
        message,
    }
}

/// Whether the event's anchor token is inside test code.
fn in_test(file: &AnalyzedFile, e: &Event) -> bool {
    file.test_mask.get(e.tok).copied().unwrap_or(false)
}

/// L007: WAL-before-ack call ordering. In a core-crate handler whose
/// body both commits to the WAL and emits an ack/reply `Msg`, every
/// ack/reply emission must come after a commit: an acknowledgement that
/// leaves before the write-ahead record is a durability hole (a crash
/// between the two orphans a peer that believes the state change
/// stuck).
pub fn check_l007(ctx: &CrateContext<'_>) -> Vec<Diagnostic> {
    if ctx.crate_name != Some("core") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in ctx.files {
        for fun in &f.fns {
            let first_wal = fun
                .events
                .iter()
                .find_map(|e| (!in_test(f, e) && WAL_FNS.contains(&e.callee())).then_some(e.tok));
            let Some(first_wal) = first_wal else {
                continue; // no durable commit in this fn — out of scope
            };
            let bindings = ack_bindings(&f.tokens, &fun.body);
            for e in &fun.events {
                if in_test(f, e) || e.tok >= first_wal {
                    continue;
                }
                if !SEND_FNS.contains(&e.callee()) {
                    continue;
                }
                if let Some(variant) = ack_variant_in_args(&f.tokens, &e.args, &bindings) {
                    out.push(diag(
                        "L007",
                        &f.path,
                        e.line,
                        format!(
                            "`Msg::{variant}` is sent before this handler's WAL commit; \
                             the ack must not leave the node until the state change is \
                             durable (WAL-before-ack, DESIGN.md §9)"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// `let NAME = … Msg::Variant …;` bindings in a body whose variant is
/// ack-like, so `ctx.send(to, kind, reply)` resolves through `reply`.
fn ack_bindings(tokens: &[Token], body: &Range<usize>) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let mut i = body.start;
    while i + 2 < body.end {
        if tokens[i].is_ident("Msg")
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
        {
            if let Some(v) = tokens.get(i + 3).filter(|t| t.kind == TokenKind::Ident) {
                if is_ack_variant(&v.text) {
                    // Find the statement start and check for `let NAME =`.
                    let mut j = i;
                    while j > body.start {
                        let t = &tokens[j - 1];
                        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                            break;
                        }
                        j -= 1;
                    }
                    let name = match (
                        tokens.get(j),
                        tokens.get(j + 1),
                        tokens.get(j + 2),
                        tokens.get(j + 3),
                    ) {
                        (Some(l), Some(n), Some(eq), _)
                            if l.is_ident("let")
                                && n.kind == TokenKind::Ident
                                && eq.is_punct('=') =>
                        {
                            Some(n.text.clone())
                        }
                        (Some(l), Some(m), Some(n), Some(eq))
                            if l.is_ident("let")
                                && m.is_ident("mut")
                                && n.kind == TokenKind::Ident
                                && eq.is_punct('=') =>
                        {
                            Some(n.text.clone())
                        }
                        _ => None,
                    };
                    if let Some(name) = name {
                        map.insert(name, v.text.clone());
                    }
                }
            }
        }
        i += 1;
    }
    map
}

fn is_ack_variant(name: &str) -> bool {
    ACK_MARKERS.iter().any(|m| name.contains(m))
}

/// Scans a send's argument tokens for a direct `Msg::AckLike` build or
/// an ident bound to one.
fn ack_variant_in_args(
    tokens: &[Token],
    args: &Range<usize>,
    bindings: &BTreeMap<String, String>,
) -> Option<String> {
    let mut i = args.start;
    while i < args.end {
        let t = &tokens[i];
        if t.is_ident("Msg")
            && tokens.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|x| x.is_punct(':'))
        {
            if let Some(v) = tokens.get(i + 3).filter(|x| x.kind == TokenKind::Ident) {
                if is_ack_variant(&v.text) {
                    return Some(v.text.clone());
                }
            }
        }
        if t.kind == TokenKind::Ident {
            if let Some(v) = bindings.get(&t.text) {
                return Some(v.clone());
            }
        }
        i += 1;
    }
    None
}

/// L008: timer arm/handle pairing. Every `set_timer(_, KIND)` arm site
/// in a protocol crate must use a *named* kind constant, and that kind
/// must be consumed somewhere else in the crate — an `on_timer` match
/// arm, a comparison, or a cancel path. An armed kind nobody matches is
/// exactly PR 3's crash-purge bug class: the timer fires (or survives a
/// crash) and nobody is responsible for it.
pub fn check_l008(ctx: &CrateContext<'_>) -> Vec<Diagnostic> {
    if !ctx.crate_name.is_some_and(|c| c == "core" || c == "net") {
        return Vec::new();
    }
    struct Arm<'a> {
        kind: String,
        file: &'a str,
        line: u32,
    }
    let mut arms: Vec<Arm<'_>> = Vec::new();
    let mut out = Vec::new();
    // Token positions used as a set_timer tag, per file: these do not
    // count as "handling" the kind.
    let mut tag_positions: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for f in ctx.files {
        for fun in &f.fns {
            for e in &fun.events {
                if in_test(f, e) || e.callee() != "set_timer" {
                    continue;
                }
                let parts = split_args(&f.tokens, &e.args);
                let Some(tag) = parts.get(1) else { continue };
                let single = tag.len() == 1;
                if single && f.tokens[tag.start].kind == TokenKind::Literal {
                    out.push(diag(
                        "L008",
                        &f.path,
                        e.line,
                        "timer armed with a bare literal tag; use a named \
                         `TIMER_*` kind constant so arm and handling sites \
                         can be paired"
                            .to_string(),
                    ));
                    continue;
                }
                if let Some(kind) = last_name_in(&f.tokens, tag) {
                    tag_positions
                        .entry(f.path.as_str())
                        .or_default()
                        .extend(tag.clone());
                    arms.push(Arm {
                        kind,
                        file: &f.path,
                        line: e.line,
                    });
                }
            }
        }
    }
    // A kind is handled when it appears outside arm-tag position, its
    // own `const` definition, and `use` imports — i.e. a match arm, a
    // comparison, or a cancel site.
    let mut handled: BTreeSet<String> = BTreeSet::new();
    for f in ctx.files {
        let tags = tag_positions.get(f.path.as_str());
        for (i, t) in f.tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            if !arms.iter().any(|a| a.kind == t.text) {
                continue;
            }
            if tags.is_some_and(|s| s.contains(&i)) {
                continue;
            }
            if i > 0 && f.tokens[i - 1].is_ident("const") {
                continue;
            }
            if ident_in_use_statement(&f.tokens, i) {
                continue;
            }
            handled.insert(t.text.clone());
        }
    }
    for a in arms {
        if !handled.contains(&a.kind) {
            out.push(diag(
                "L008",
                a.file,
                a.line,
                format!(
                    "timer kind `{}` is armed here but never matched or \
                     cancelled anywhere in this crate; every armed timer \
                     needs a handling/cancel site (stale-timer bug class)",
                    a.kind
                ),
            ));
        }
    }
    out
}

/// Whether the ident at `i` sits inside a `use …;` statement.
fn ident_in_use_statement(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let t = &tokens[j - 1];
        if t.is_punct(';') || t.is_punct('}') {
            break;
        }
        if t.is_ident("use") {
            return true;
        }
        j -= 1;
    }
    tokens.get(j).is_some_and(|t| t.is_ident("use"))
}
