//! A lightweight syntax layer over the token stream.
//!
//! The build environment is offline, so a real `syn` dependency is not
//! available; this module implements the slice of Rust syntax the
//! call-order rules (L007, L008) need, directly over
//! [`crate::tokenizer`] tokens:
//!
//! - **items**: every `fn` definition with its name and body span
//!   (nested functions become their own items and are carved out of the
//!   parent's body);
//! - **events**: an in-order stream per function body of calls and
//!   method calls, each with its argument token span — enough for
//!   call-order dataflow over a statement list.
//!
//! It is deliberately *not* a full Rust parser: macros are treated as
//! opaque call events and expression nesting is approximated by bracket
//! depth. Every approximation is pinned by the tests below and the
//! fixture suite in `tests/fixtures_ast.rs`.

use crate::tokenizer::{Token, TokenKind};
use std::ops::Range;

/// Keywords that look like identifiers but never start a call.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
];

/// Whether `tok` is an identifier that is not a Rust keyword.
fn is_name(tok: &Token) -> bool {
    tok.kind == TokenKind::Ident && !KEYWORDS.contains(&tok.text.as_str())
}

/// One call inside a function body, in source order.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// Free or path call `foo(…)` / `a::b::foo(…)`. `path` holds the
    /// segments in order; the last one is the callee.
    Call { path: Vec<String> },
    /// Method call `recv.foo(…)` (turbofish included).
    MethodCall { method: String },
}

/// An event with its location.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: EventKind,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the callee.
    pub tok: usize,
    /// Argument tokens inside the call's parentheses.
    pub args: Range<usize>,
}

impl Event {
    /// The callee's name: a free call's last path segment or the method.
    pub fn callee(&self) -> &str {
        match &self.kind {
            EventKind::Call { path } => path.last().map_or("", String::as_str),
            EventKind::MethodCall { method } => method,
        }
    }
}

/// A function definition.
#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    /// Token range of the body, inside (excluding) the braces.
    pub body: Range<usize>,
    /// Events in the body, source order, nested fn items excluded.
    pub events: Vec<Event>,
}

/// Parses a scanned file into its functions and their call events.
pub fn parse(tokens: &[Token]) -> Vec<FnDef> {
    let mut fns = Vec::new();
    collect_fns(tokens, 0..tokens.len(), &mut fns);
    fns
}

/// Finds every `fn` definition in `range` (recursing into bodies for
/// nested items) and extracts its event stream.
fn collect_fns(tokens: &[Token], range: Range<usize>, out: &mut Vec<FnDef>) {
    let mut i = range.start;
    while i < range.end {
        if tokens[i].is_ident("fn") && tokens.get(i + 1).is_some_and(is_name) {
            let name = tokens[i + 1].text.clone();
            if let Some(body) = fn_body_range(tokens, i, range.end) {
                let mut events = Vec::new();
                collect_events(tokens, body.clone(), &mut events);
                collect_fns(tokens, body.clone(), out);
                let end = body.end + 1; // past the closing brace
                out.push(FnDef { name, body, events });
                i = end;
                continue;
            }
        }
        i += 1;
    }
    // Keep source order: nested fns were pushed before their parents.
    out.sort_by_key(|f| f.body.start);
}

/// From the `fn` keyword at `i`, finds the body token range (inside the
/// braces). Returns `None` for bodyless trait-method declarations.
fn fn_body_range(tokens: &[Token], i: usize, limit: usize) -> Option<Range<usize>> {
    let mut j = i + 1;
    let mut depth = 0i32; // (), [], <> are all irrelevant to `{` at depth 0
    while j < limit {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            let body_start = j + 1;
            let mut b = 1i32;
            let mut k = body_start;
            while k < limit && b > 0 {
                if tokens[k].is_punct('{') {
                    b += 1;
                } else if tokens[k].is_punct('}') {
                    b -= 1;
                }
                if b == 0 {
                    break;
                }
                k += 1;
            }
            return Some(body_start..k);
        } else if t.is_punct(';') && depth == 0 {
            return None;
        }
        j += 1;
    }
    None
}

/// Extracts the in-order call events for `range`, skipping nested `fn`
/// items (they get their own [`FnDef`]).
fn collect_events(tokens: &[Token], range: Range<usize>, out: &mut Vec<Event>) {
    let mut i = range.start;
    while i < range.end {
        let tok = &tokens[i];

        // Skip nested fn items entirely.
        if tok.is_ident("fn") && tokens.get(i + 1).is_some_and(is_name) {
            if let Some(body) = fn_body_range(tokens, i, range.end) {
                i = body.end + 1;
                continue;
            }
        }

        // Calls: `name(…)`, `a::b::name(…)`, `recv.name(…)`,
        // `recv.name::<T>(…)`, and macro invocations `name!(…)`.
        if is_name(tok) {
            if let Some(args_open) = call_paren_after(tokens, i, range.end) {
                let kind = if i > range.start && tokens[i - 1].is_punct('.') {
                    EventKind::MethodCall {
                        method: tok.text.clone(),
                    }
                } else {
                    EventKind::Call {
                        path: path_segments_ending_at(tokens, i, range.start),
                    }
                };
                out.push(Event {
                    kind,
                    line: tok.line,
                    tok: i,
                    args: paren_args_range(tokens, args_open, range.end),
                });
            }
        }
        i += 1;
    }
}

/// If the name at `i` heads a call, returns the index of its opening
/// `(`. Handles `name(`, `name::<T>(`, and treats `name!(…)` macros as
/// calls too.
fn call_paren_after(tokens: &[Token], i: usize, limit: usize) -> Option<usize> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1; // macro bang
    } else if tokens.get(j).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        // Turbofish `::<…>`.
        let mut depth = 1i32;
        j += 3;
        while j < limit && depth > 0 {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') {
                depth -= 1;
            }
            j += 1;
        }
    }
    (j < limit && tokens.get(j).is_some_and(|t| t.is_punct('('))).then_some(j)
}

/// Token range inside the parens opening at `open`.
fn paren_args_range(tokens: &[Token], open: usize, limit: usize) -> Range<usize> {
    let mut depth = 1i32;
    let mut j = open + 1;
    while j < limit && depth > 0 {
        if tokens[j].is_punct('(') {
            depth += 1;
        } else if tokens[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return open + 1..j;
            }
        }
        j += 1;
    }
    open + 1..j
}

/// Collects the `::`-separated path ending at the name at `i`.
fn path_segments_ending_at(tokens: &[Token], i: usize, start: usize) -> Vec<String> {
    let mut segs = vec![tokens[i].text.clone()];
    let mut j = i;
    while j > start + 1
        && tokens[j - 1].is_punct(':')
        && tokens[j - 2].is_punct(':')
        && j >= 3
        && tokens[j - 3].kind == TokenKind::Ident
    {
        segs.push(tokens[j - 3].text.clone());
        j -= 3;
    }
    segs.reverse();
    segs
}

/// The last plain name in a token range — resolves which constant an
/// argument like `self::TIMER_SWEEP` or `kinds::TIMER_SWEEP` names.
/// Returns `None` if the range ends in something unresolvable (a call,
/// a literal, …).
pub fn last_name_in(tokens: &[Token], range: &Range<usize>) -> Option<String> {
    let mut last = None;
    let mut i = range.start;
    while i < range.end {
        let t = &tokens[i];
        if is_name(t) || t.is_ident("self") {
            // A name followed by `(` is a call, which we cannot resolve.
            if tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                last = None;
            } else {
                last = Some(t.text.clone());
            }
        }
        i += 1;
    }
    last.filter(|n| n != "self")
}

/// Splits a call's argument token range at depth-0 commas.
pub fn split_args(tokens: &[Token], args: &Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = args.start;
    for i in args.clone() {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push(cur..i);
            cur = i + 1;
        }
    }
    if cur < args.end {
        out.push(cur..args.end);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::scan;

    fn parse_src(src: &str) -> (Vec<Token>, Vec<FnDef>) {
        let scanned = scan(src);
        let fns = parse(&scanned.tokens);
        (scanned.tokens, fns)
    }

    #[test]
    fn fn_items_with_bodies() {
        let src = "fn a() { x(); }\nimpl T { fn b(&self) -> u8 { 0 } }\ntrait Q { fn decl(&self); }\n";
        let (_, fns) = parse_src(src);
        let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn nested_fn_gets_own_item_and_is_excluded_from_parent() {
        let src = "fn outer() { before(); fn inner() { hidden(); } after(); }";
        let (_, fns) = parse_src(src);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let calls: Vec<_> = outer.events.iter().map(Event::callee).collect();
        assert_eq!(calls, vec!["before", "after"]);
        assert!(fns.iter().any(|f| f.name == "inner"));
    }

    #[test]
    fn method_calls_and_receivers() {
        // A receiver chain's own calls are events too, in source order.
        let src = "fn f() { self.members.iter(); list.len(); a.b().c(); }";
        let (_, fns) = parse_src(src);
        let methods: Vec<_> = fns[0]
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MethodCall { .. }))
            .map(Event::callee)
            .collect();
        assert_eq!(methods, vec!["iter", "len", "b", "c"]);
    }

    #[test]
    fn turbofish_method_call() {
        let src = "fn f() { xs.collect::<Vec<u8>>(); }";
        let (_, fns) = parse_src(src);
        assert!(fns[0]
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::MethodCall { method } if method == "collect")));
    }

    #[test]
    fn call_order_is_source_order() {
        let src = "fn f() { alpha(); self.beta(); gamma(); }";
        let (_, fns) = parse_src(src);
        let names: Vec<_> = fns[0].events.iter().map(Event::callee).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn split_args_at_depth_zero() {
        let src = "fn f() { g(a, h(b, c), d); }";
        let (tokens, fns) = parse_src(src);
        let g = fns[0].events.iter().find(|e| e.callee() == "g").unwrap();
        let parts = split_args(&tokens, &g.args);
        assert_eq!(parts.len(), 3);
        assert_eq!(last_name_in(&tokens, &parts[2]), Some("d".to_string()));
    }

    #[test]
    fn path_call_segments() {
        let src = "fn f() { u32::try_from(x); mykil_crypto::envelope::seal_into(a, b); }";
        let (_, fns) = parse_src(src);
        let paths: Vec<Vec<String>> = fns[0]
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Call { path } => Some(path.clone()),
                EventKind::MethodCall { .. } => None,
            })
            .collect();
        assert!(paths.contains(&vec!["u32".to_string(), "try_from".to_string()]));
        assert!(paths.contains(&vec![
            "mykil_crypto".to_string(),
            "envelope".to_string(),
            "seal_into".to_string()
        ]));
    }
}
