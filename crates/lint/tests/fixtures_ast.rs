//! Fixture tests for the syntax-aware rules L006–L010: every rule must
//! fire on a violating snippet, stay quiet on clean and suppressed
//! variants, and honor its file/crate scope. Cross-file cases go
//! through [`mykil_lint::lint_files`], which is how the real workspace
//! run batches a crate.

use mykil_lint::engine::crate_of;
use mykil_lint::rules::FileContext;
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

// ---------------------------------------------------------------- L006

#[test]
fn l006_fires_on_hash_iteration_methods() {
    for method in ["iter()", "iter_mut()", "keys()", "values()", "values_mut()", "drain()"] {
        let src = format!(
            "use std::collections::HashMap;\nstruct S {{ members: HashMap<u64, u32> }}\n\
             impl S {{ fn f(&mut self) {{ for x in self.members.{method} {{ use_it(x); }} }} }}\n"
        );
        for krate in ["core", "net", "tree"] {
            let path = format!("crates/{krate}/src/a.rs");
            assert_eq!(hits("L006", &path, &src), vec![3], "{krate}/{method}");
        }
    }
}

#[test]
fn l006_fires_on_for_loop_over_hash_field() {
    let src = "use std::collections::HashSet;\nstruct S { seen: HashSet<u64> }\n\
               impl S { fn f(&self) {\n for id in &self.seen { emit(id); }\n } }\n";
    assert_eq!(hits("L006", "crates/net/src/a.rs", src), vec![4]);
}

#[test]
fn l006_fires_on_local_hash_binding() {
    let src = "fn f() {\n let pending: std::collections::HashMap<u64, u32> = build();\n\
               for (k, v) in pending.iter() { emit(k, v); }\n}\n";
    assert_eq!(hits("L006", "crates/core/src/a.rs", src), vec![3]);
}

#[test]
fn l006_quiet_on_btree_collections() {
    let src = "use std::collections::BTreeMap;\nstruct S { members: BTreeMap<u64, u32> }\n\
               impl S { fn f(&self) { for x in self.members.keys() { emit(x); } } }\n";
    assert!(hits("L006", "crates/core/src/a.rs", src).is_empty());
}

#[test]
fn l006_quiet_on_sorted_collect_in_same_statement() {
    let src = "struct S { m: std::collections::HashMap<u64, u32> }\nimpl S {\n\
               fn f(&self) {\n let ks: std::collections::BTreeSet<u64> = \
               self.m.keys().copied().collect();\n emit(&ks);\n }\n}\n";
    assert!(hits("L006", "crates/core/src/a.rs", src).is_empty());
}

#[test]
fn l006_quiet_on_non_iterating_methods() {
    let src = "struct S { m: std::collections::HashMap<u64, u32> }\nimpl S {\n\
               fn f(&mut self) { self.m.insert(1, 2); let _ = self.m.get(&1); \
               let _ = self.m.len(); }\n}\n";
    assert!(hits("L006", "crates/core/src/a.rs", src).is_empty());
}

#[test]
fn l006_quiet_outside_deterministic_crates() {
    let src = "struct S { m: std::collections::HashMap<u64, u32> }\n\
               impl S { fn f(&self) { for x in self.m.keys() { emit(x); } } }\n";
    assert!(hits("L006", "crates/crypto/src/a.rs", src).is_empty());
    assert!(hits("L006", "crates/baselines/src/a.rs", src).is_empty());
    assert!(hits("L006", "src/lib.rs", src).is_empty());
}

#[test]
fn l006_quiet_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n struct S { m: std::collections::HashMap<u64, u32> }\n\
               impl S { fn f(&self) { for x in self.m.keys() { emit(x); } } }\n}\n";
    assert!(hits("L006", "crates/core/src/a.rs", src).is_empty());
}

#[test]
fn l006_suppressed_with_directive() {
    let src = "struct S { m: std::collections::HashMap<u64, u32> }\nimpl S {\n fn f(&self) {\n\
               // mykil-lint: allow(L006) -- order folded through a commutative sum\n\
               for x in self.m.values() { total += x; }\n }\n}\n";
    assert!(hits("L006", "crates/core/src/a.rs", src).is_empty());
}

#[test]
fn l006_sees_declarations_across_files_in_one_crate() {
    // The field is declared in mod.rs; the iteration lives in another
    // file of the same crate. Only the batched (crate-level) analysis
    // can connect them.
    let decl = "pub struct Area { pub members: std::collections::HashMap<u64, u32> }\n";
    let usage = "fn snapshot(a: &Area) {\n for m in a.members.keys() { emit(m); }\n}\n";
    let diags = lint_files(&[
        ("crates/core/src/area/mod.rs".to_string(), decl.to_string()),
        ("crates/core/src/area/persist.rs".to_string(), usage.to_string()),
    ]);
    let l006: Vec<_> = diags.iter().filter(|d| d.rule == "L006").collect();
    assert_eq!(l006.len(), 1);
    assert_eq!(l006[0].file, "crates/core/src/area/persist.rs");
    assert_eq!(l006[0].line, 2);

    // The same usage file alone cannot know the field's type.
    assert!(hits("L006", "crates/core/src/area/persist.rs", usage).is_empty());

    // And the files land in different crates -> no connection either.
    let diags = lint_files(&[
        ("crates/core/src/area/mod.rs".to_string(), decl.to_string()),
        ("crates/net/src/sim.rs".to_string(), usage.to_string()),
    ]);
    assert!(diags.iter().all(|d| d.rule != "L006"));
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
fn l007_quiet_in_harness_and_tests() {
    let src = "fn check(ctx: &mut Ctx) {\n ctx.send(peer, Msg::HeartbeatAck { seq });\n\
               self.wal_commit_record(ctx, &rec);\n}\n";
    assert!(hits("L007", "crates/core/src/invariants.rs", src).is_empty());
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

// ---------------------------------------------------------------- L009

#[test]
fn l009_fires_on_narrowing_casts_in_wire_files() {
    for target in ["u8", "u16", "u32", "i8", "i16", "i32"] {
        let src = format!("fn enc(w: &mut Writer, n: usize) {{ w.u32(n as {target}); }}\n");
        assert_eq!(
            hits("L009", "crates/core/src/wire.rs", &src),
            vec![1],
            "{target}"
        );
    }
}

#[test]
fn l009_applies_to_every_wire_sensitive_file() {
    let src = "fn enc(n: usize) -> u32 { n as u32 }\n";
    for path in [
        "crates/core/src/wire.rs",
        "crates/core/src/msg.rs",
        "crates/core/src/rekey.rs",
        "crates/core/src/durable.rs",
        "crates/core/src/welcome.rs",
        "crates/core/src/ticket.rs",
        "crates/crypto/src/envelope.rs",
        // Storage parses whatever a crashed disk left behind, and the
        // fuzz harness frames arbitrary mutated bytes: both are
        // hostile-input surfaces.
        "crates/net/src/chaos.rs",
        "crates/net/src/storage.rs",
        "crates/net/src/file_store.rs",
        "crates/fuzz/src/engine.rs",
        "crates/fuzz/src/targets.rs",
    ] {
        assert_eq!(hits("L009", path, src), vec![1], "{path}");
    }
}

#[test]
fn l009_quiet_on_widening_casts() {
    let src = "fn dec(r: &mut Reader) { let n = r.u32()? as usize; let m = x as u64; }\n";
    assert!(hits("L009", "crates/core/src/wire.rs", src).is_empty());
}

#[test]
fn l009_quiet_outside_wire_files_and_in_tests() {
    let src = "fn enc(n: usize) -> u32 { n as u32 }\n";
    assert!(hits("L009", "crates/core/src/area/mod.rs", src).is_empty());
    assert!(hits("L009", "crates/net/src/sim.rs", src).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n fn enc(n: usize) -> u32 { n as u32 }\n}\n";
    assert!(hits("L009", "crates/core/src/wire.rs", in_test).is_empty());
}

#[test]
fn l009_quiet_on_use_renames() {
    let src = "use crate::error::ProtocolError as u32_like_name;\nfn f() {}\n";
    assert!(hits("L009", "crates/core/src/wire.rs", src).is_empty());
}

#[test]
fn l009_suppressed_with_directive() {
    let src = "fn enc(n: usize) -> u32 {\n\
               // mykil-lint: allow(L009) -- n is a 4-bit tag by construction\n\
               n as u32\n}\n";
    assert!(hits("L009", "crates/core/src/wire.rs", src).is_empty());
}

// ---------------------------------------------------------------- L010

#[test]
fn l010_fires_on_indexing_and_panicking_slice_calls() {
    let src = "fn dec(bytes: &[u8]) {\n let a = bytes[0];\n let b = &bytes[..4];\n\
               let (h, t) = bytes.split_at(4);\n dst.copy_from_slice(h);\n}\n";
    assert_eq!(
        hits("L010", "crates/core/src/wire.rs", src),
        vec![2, 3, 4, 5]
    );
}

#[test]
fn l010_fires_on_index_after_try_operator() {
    // Regression for the detection gap that let `take(1)?[0]` through.
    let src = "fn dec(r: &mut Reader) -> Result<u8, E> { Ok(r.take(1)?[0]) }\n";
    assert_eq!(hits("L010", "crates/core/src/wire.rs", src), vec![1]);
}

#[test]
fn l010_quiet_on_checked_access() {
    let src = "fn dec(bytes: &[u8]) -> Option<()> {\n let a = bytes.get(0)?;\n\
               let (h, t) = bytes.split_at_checked(4)?;\n\
               let arr: [u8; 4] = h.try_into().ok()?;\n Some(())\n}\n";
    assert!(hits("L010", "crates/core/src/wire.rs", src).is_empty());
}

#[test]
fn l010_quiet_on_array_literals_and_macros() {
    let src = "fn f() { let a = [0u8; 4]; let v = vec![1, 2]; let s = &a; }\n";
    assert!(hits("L010", "crates/core/src/wire.rs", src).is_empty());
}

#[test]
fn l010_quiet_outside_wire_files_and_in_tests() {
    let src = "fn dec(bytes: &[u8]) -> u8 { bytes[0] }\n";
    assert!(hits("L010", "crates/core/src/area/mod.rs", src).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n fn t(b: &[u8]) -> u8 { b[0] }\n}\n";
    assert!(hits("L010", "crates/core/src/wire.rs", in_test).is_empty());
}

#[test]
fn l010_suppressed_with_directive() {
    let src = "fn f(out: &mut Vec<u8>, start: usize) {\n\
               // mykil-lint: allow(L010) -- start bounded by the append above\n\
               mac.update(&out[start..]);\n}\n";
    assert!(hits("L010", "crates/core/src/wire.rs", src).is_empty());
}

// ------------------------------------------------- scoping agreement

/// Token rules (FileContext::crate_name) and AST rules (engine::crate_of)
/// must derive the same crate from the same path — otherwise a file
/// could be protocol-scoped for one rule family and exempt for the
/// other.
#[test]
fn token_and_ast_rules_agree_on_crate_scoping() {
    let paths = [
        "crates/core/src/wire.rs",
        "crates/core/src/area/mod.rs",
        "crates/net/src/sim.rs",
        "crates/tree/src/plan.rs",
        "crates/crypto/src/envelope.rs",
        "crates/core/tests/integration.rs", // tests/ is not src/
        "crates/core/benches/bench.rs",
        "src/lib.rs",
        "crates/lint/src/rules.rs",
    ];
    for path in paths {
        let ctx = FileContext {
            path,
            tokens: &[],
            test_mask: &[],
            comments: &[],
        };
        assert_eq!(
            ctx.crate_name(),
            crate_of(path),
            "crate scoping diverged for {path}"
        );
    }
}

/// Both rule families fire inside a protocol crate and both stay quiet
/// outside it, for a snippet violating one rule of each family.
#[test]
fn both_rule_families_share_protocol_scope() {
    let src = "struct S { m: std::collections::HashMap<u64, u32> }\nimpl S {\n\
               fn f(&self) { let v = g().unwrap(); for x in self.m.keys() { h(x, v); } }\n}\n";
    let core = rule_ids("crates/core/src/a.rs", src);
    assert!(core.contains(&"L001".to_string()), "{core:?}");
    assert!(core.contains(&"L006".to_string()), "{core:?}");
    let outside = rule_ids("crates/baselines/src/a.rs", src);
    assert!(outside.is_empty(), "{outside:?}");
}

/// lint_source over a file equals lint_files over the singleton batch —
/// the single-file entry point is a strict wrapper.
#[test]
fn lint_source_is_singleton_lint_files() {
    let src = "fn f() { g().unwrap(); }\nfn e(n: usize) -> u32 { n as u32 }\n";
    let path = "crates/core/src/wire.rs";
    let a = lint_source(path, src);
    let b = lint_files(&[(path.to_string(), src.to_string())]);
    assert_eq!(a, b);
}
