//! Fixture tests for the syntax-aware rules L007 and L008: every rule
//! must fire on a violating snippet, stay quiet on clean and suppressed
//! variants, and honor its file/crate scope. Cross-file cases go
//! through [`mykil_lint::lint_files`], which is how the real workspace
//! run batches a crate.

use mykil_lint::{lint_files, lint_source};

fn rules_at(path: &str, src: &str) -> Vec<(String, u32)> {
    lint_source(path, src)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

fn rule_ids(path: &str, src: &str) -> Vec<String> {
    rules_at(path, src).into_iter().map(|(r, _)| r).collect()
}

/// Like [`rule_ids`] but filtered to one rule — the AST fixtures often
/// use snippets that also trip unrelated token rules.
fn hits(rule: &str, path: &str, src: &str) -> Vec<u32> {
    rules_at(path, src)
        .into_iter()
        .filter(|(r, _)| r == rule)
        .map(|(_, l)| l)
        .collect()
}

// ---------------------------------------------------------------- L007

#[test]
fn l007_fires_on_ack_sent_before_wal_commit() {
    let src = "impl Ac {\n fn handle(&mut self, ctx: &mut Ctx) {\n\
               ctx.send(peer, Msg::HeartbeatAck { seq });\n\
               self.wal_commit_record(ctx, &rec);\n }\n}\n";
    assert_eq!(hits("L007", "crates/core/src/area/liveness.rs", src), vec![3]);
}

#[test]
fn l007_fires_through_let_binding() {
    let src = "fn handle(ctx: &mut Ctx) {\n let reply = Msg::RejoinDenied { why };\n\
               ctx.send_reliable(peer, reply);\n ctx.storage().wal_commit(bytes);\n}\n";
    assert_eq!(hits("L007", "crates/core/src/registration.rs", src), vec![3]);
}

#[test]
fn l007_quiet_when_wal_precedes_ack() {
    let src = "fn handle(ctx: &mut Ctx) {\n ctx.storage().wal_commit(bytes);\n\
               ctx.send(peer, Msg::AreaJoinAck { area });\n}\n";
    assert!(hits("L007", "crates/core/src/area/liveness.rs", src).is_empty());
}

#[test]
fn l007_follows_the_commit_then_apply_handler_shape() {
    // An area-controller handler builds the record, hands it to
    // `wal_commit_record` — which commits and then applies it, and
    // returns what the change produced — and only then acks. The commit
    // point is found by that callee name inside a `let … ?` chain too.
    let handler = |early_ack: &str| {
        format!(
            "fn admit(&mut self, ctx: &mut Ctx) -> Result<(), E> {{\n\
             let rec = AcWalRecord::Join {{ client }};\n\
             {early_ack}\n\
             let plan = self\n.wal_commit_record(ctx, &rec)\n.map_err(|_| refused())?;\n\
             self.buffer_join_plan(&plan);\n\
             ctx.send(peer, Msg::AreaJoinAck {{ area }});\n Ok(())\n}}\n"
        )
    };
    assert!(hits("L007", "crates/core/src/area/join.rs", &handler("")).is_empty());
    let early = handler("ctx.send(peer, Msg::AreaJoinAck { area });");
    assert_eq!(hits("L007", "crates/core/src/area/join.rs", &early), vec![3]);
}

#[test]
fn l007_quiet_on_non_ack_send_before_wal() {
    // Key-delivery unicasts before the commit are part of the protocol
    // (join step 7); only acks/replies are ordering-sensitive.
    let src = "fn admit(ctx: &mut Ctx) {\n ctx.send(peer, Msg::KeyUpdate { body });\n\
               self.wal_commit_record(ctx, &rec);\n}\n";
    assert!(hits("L007", "crates/core/src/area/join.rs", src).is_empty());
}

#[test]
fn l007_quiet_when_function_has_no_wal_call() {
    // Deny paths and pure-read handlers mutate nothing durable; the
    // intra-procedural rule only constrains functions that commit.
    let src = "fn deny(ctx: &mut Ctx) { ctx.send(peer, Msg::RejoinDenied { why }); }\n";
    assert!(hits("L007", "crates/core/src/area/rejoin.rs", src).is_empty());
}

#[test]
fn l007_quiet_outside_core() {
    let src = "fn handle(ctx: &mut Ctx) {\n ctx.send(peer, Msg::HeartbeatAck { seq });\n\
               self.wal_commit_record(ctx, &rec);\n}\n";
    assert!(hits("L007", "crates/net/src/sim.rs", src).is_empty());
    assert!(hits("L007", "crates/tree/src/plan.rs", src).is_empty());
}

#[test]
fn l007_quiet_in_test_code() {
    let src = "fn check(ctx: &mut Ctx) {\n ctx.send(peer, Msg::HeartbeatAck { seq });\n\
               self.wal_commit_record(ctx, &rec);\n}\n";
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
    assert!(hits("L007", "crates/core/src/area/liveness.rs", &in_test).is_empty());
}

#[test]
fn l007_suppressed_with_directive() {
    let src = "fn handle(ctx: &mut Ctx) {\n\
               // mykil-lint: allow(L007) -- ack covers the previous record, committed upstream\n\
               ctx.send(peer, Msg::HeartbeatAck { seq });\n\
               self.wal_commit_record(ctx, &rec);\n}\n";
    assert!(hits("L007", "crates/core/src/area/liveness.rs", src).is_empty());
}

// ---------------------------------------------------------------- L008

#[test]
fn l008_fires_on_bare_literal_timer_tag() {
    let src = "fn f(ctx: &mut Ctx) { ctx.set_timer(delay, 42); }\n";
    assert_eq!(hits("L008", "crates/core/src/member.rs", src), vec![1]);
    assert_eq!(hits("L008", "crates/net/src/sim.rs", src), vec![1]);
}

#[test]
fn l008_fires_on_armed_kind_nobody_handles() {
    let src = "const TIMER_GHOST: u64 = 9;\n\
               fn f(ctx: &mut Ctx) { ctx.set_timer(delay, TIMER_GHOST); }\n";
    assert_eq!(hits("L008", "crates/core/src/member.rs", src), vec![2]);
}

#[test]
fn l008_quiet_when_kind_is_matched_in_same_file() {
    let src = "const TIMER_SWEEP: u64 = 3;\n\
               fn arm(ctx: &mut Ctx) { ctx.set_timer(delay, TIMER_SWEEP); }\n\
               fn on_timer(tag: u64) { match tag { TIMER_SWEEP => sweep(), _ => () } }\n";
    assert!(hits("L008", "crates/core/src/member.rs", src).is_empty());
}

#[test]
fn l008_quiet_when_kind_is_cancelled() {
    let src = "const TIMER_RETRY: u64 = 4;\n\
               fn arm(ctx: &mut Ctx) { ctx.set_timer(delay, TIMER_RETRY); }\n\
               fn stop(ctx: &mut Ctx) { ctx.cancel_timer_kind(TIMER_RETRY); }\n";
    assert!(hits("L008", "crates/core/src/member.rs", src).is_empty());
}

#[test]
fn l008_handling_site_may_live_in_another_file_of_the_crate() {
    let arm = "pub const TIMER_HEARTBEAT: u64 = 2;\n\
               pub fn arm(ctx: &mut Ctx) { ctx.set_timer(delay, TIMER_HEARTBEAT); }\n";
    let handle = "use crate::area::TIMER_HEARTBEAT;\n\
                  fn on_timer(tag: u64) { match tag { TIMER_HEARTBEAT => beat(), _ => () } }\n";
    let both = lint_files(&[
        ("crates/core/src/area/mod.rs".to_string(), arm.to_string()),
        ("crates/core/src/area/liveness.rs".to_string(), handle.to_string()),
    ]);
    assert!(both.iter().all(|d| d.rule != "L008"), "{both:?}");

    // The arm file alone has no handling site (the `use` import in the
    // other file must not count as one either way).
    assert_eq!(
        hits("L008", "crates/core/src/area/mod.rs", arm),
        vec![2],
        "arm site alone must fire"
    );
}

#[test]
fn l008_use_import_is_not_a_handling_site() {
    let arm = "pub const TIMER_LOST: u64 = 7;\n\
               pub fn arm(ctx: &mut Ctx) { ctx.set_timer(delay, TIMER_LOST); }\n";
    let import_only = "use crate::area::TIMER_LOST;\nfn unrelated() {}\n";
    let diags = lint_files(&[
        ("crates/core/src/area/mod.rs".to_string(), arm.to_string()),
        ("crates/core/src/area/liveness.rs".to_string(), import_only.to_string()),
    ]);
    assert_eq!(
        diags.iter().filter(|d| d.rule == "L008").count(),
        1,
        "{diags:?}"
    );
}

#[test]
fn l008_quiet_outside_timer_crates_and_in_tests() {
    let src = "fn f(ctx: &mut Ctx) { ctx.set_timer(delay, 42); }\n";
    assert!(hits("L008", "crates/tree/src/plan.rs", src).is_empty());
    assert!(hits("L008", "crates/crypto/src/rsa.rs", src).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n fn f(ctx: &mut Ctx) { ctx.set_timer(d, 42); }\n}\n";
    assert!(hits("L008", "crates/net/src/sim.rs", in_test).is_empty());
}

#[test]
fn l008_suppressed_with_directive() {
    let src = "fn f(ctx: &mut Ctx) {\n\
               // mykil-lint: allow(L008) -- one-shot scramble timer, fires into generic drain\n\
               ctx.set_timer(delay, 42);\n}\n";
    assert!(hits("L008", "crates/net/src/sim.rs", src).is_empty());
}

// ------------------------------------------------- scoping agreement

/// A snippet violating L003 (a token rule) on line 2 and L007 (an AST
/// rule) on line 3.
const BOTH_FAMILIES: &str = "fn handle(ctx: &mut Ctx, mac: &[u8], m: &[u8]) {\n\
                             let ok = mac == m;\n\
                             ctx.send(peer, Msg::HeartbeatAck { ok });\n\
                             self.wal_commit_record(ctx, &rec);\n}\n";

/// Token rules and AST rules derive the crate from the same path the
/// same way (`engine::crate_of`): a file is in a crate's scope for both
/// families or for neither.
#[test]
fn token_and_ast_rules_agree_on_crate_scoping() {
    for path in ["crates/core/src/wire.rs", "crates/core/src/area/mod.rs"] {
        assert_eq!(
            rule_ids(path, BOTH_FAMILIES),
            vec!["L003", "L007"],
            "{path}"
        );
    }
    for path in [
        "crates/core/tests/integration.rs", // tests/ is not src/
        "crates/core/benches/bench.rs",
        "src/lib.rs",
        "crates/lint/src/rules.rs",
    ] {
        assert!(rule_ids(path, BOTH_FAMILIES).is_empty(), "{path}");
    }
}

/// Both rule families fire inside a protocol crate and both stay quiet
/// outside it, for a snippet violating one rule of each family.
#[test]
fn both_rule_families_share_protocol_scope() {
    let src = "const TIMER_GHOST: u64 = 9;\n\
               fn f(ctx: &mut Ctx, tag: &[u8], t: &[u8]) {\n\
               if tag != t { ctx.set_timer(delay, TIMER_GHOST); }\n}\n";
    let core = rule_ids("crates/core/src/a.rs", src);
    assert_eq!(core, vec!["L003", "L008"]);
    let outside = rule_ids("crates/baselines/src/a.rs", src);
    assert!(outside.is_empty(), "{outside:?}");
}

/// lint_source over a file equals lint_files over the singleton batch —
/// the single-file entry point is a strict wrapper.
#[test]
fn lint_source_is_singleton_lint_files() {
    let path = "crates/core/src/area/join.rs";
    let a = lint_source(path, BOTH_FAMILIES);
    let b = lint_files(&[(path.to_string(), BOTH_FAMILIES.to_string())]);
    assert_eq!(a.len(), 2);
    assert_eq!(a, b);
}
