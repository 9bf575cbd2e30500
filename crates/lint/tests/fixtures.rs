//! Fixture tests: every rule must fire on a violating snippet and stay
//! quiet on clean and suppressed variants.

use mykil_lint::lint_source;

fn rules_at(path: &str, src: &str) -> Vec<(String, u32)> {
    lint_source(path, src)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

fn rule_ids(path: &str, src: &str) -> Vec<String> {
    rules_at(path, src).into_iter().map(|(r, _)| r).collect()
}

// ---------------------------------------------------------------- L001

#[test]
fn l001_fires_on_unwrap_in_protocol_crate() {
    let src = "pub fn handle(m: Msg) {\n    let x = decode(m).unwrap();\n    use_it(x);\n}\n";
    for krate in ["core", "net", "tree"] {
        let path = format!("crates/{krate}/src/handler.rs");
        assert_eq!(rules_at(&path, src), vec![("L001".to_string(), 2)], "{krate}");
    }
}

#[test]
fn l001_fires_on_expect() {
    let src = "fn f() { g().expect(\"boom\"); }";
    assert_eq!(rule_ids("crates/core/src/a.rs", src), vec!["L001"]);
}

#[test]
fn l001_quiet_outside_protocol_crates() {
    let src = "fn f() { g().unwrap(); }";
    assert!(rule_ids("crates/crypto/src/a.rs", src).is_empty());
    assert!(rule_ids("crates/baselines/src/a.rs", src).is_empty());
    assert!(rule_ids("src/main.rs", src).is_empty());
}

#[test]
fn l001_quiet_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { g().unwrap(); }\n}\n";
    assert!(rule_ids("crates/core/src/a.rs", src).is_empty());
    // Integration tests live outside src/ and are always exempt.
    assert!(rule_ids("crates/core/tests/a.rs", "fn f() { g().unwrap(); }").is_empty());
}

#[test]
fn l001_quiet_on_identifiers_merely_named_unwrap() {
    // `unwrap` not called as a method: a field access or free fn.
    let src = "fn f() { let unwrap = 1; h(unwrap); unwrap_all(); }";
    assert!(rule_ids("crates/core/src/a.rs", src).is_empty());
}

#[test]
fn l001_quiet_on_unwrap_inside_string_or_comment() {
    let src = "fn f() {\n    // calling .unwrap() would be bad here\n    log(\"never .unwrap() peers\");\n}\n";
    assert!(rule_ids("crates/core/src/a.rs", src).is_empty());
}

#[test]
fn l001_suppressed_with_directive() {
    let same_line =
        "fn f() { g().unwrap(); // mykil-lint: allow(L001) -- init-time, config validated\n}";
    assert!(rule_ids("crates/core/src/a.rs", same_line).is_empty());
    let own_line =
        "fn f() {\n    // mykil-lint: allow(L001) -- invariant: key present\n    g().unwrap();\n}";
    assert!(rule_ids("crates/core/src/a.rs", own_line).is_empty());
}

#[test]
fn l001_fires_on_batch_planner_expect_pattern() {
    // The exact shape that used to live in the batch planner: an
    // "invariant" lookup unwrapped with .expect() in protocol code. A
    // forged snapshot restored into the tree can violate the invariant,
    // so the panic was a remote crash vector; the planner now returns
    // TreeError::Inconsistent instead.
    let src = "fn plan(&self, m: MemberId) {\n    \
               let leaf = self.leaf_of(m).expect(\"just placed\");\n    \
               let old = self.displaced.get(&m).expect(\"displaced member present\");\n    \
               use_them(leaf, old);\n}\n";
    assert_eq!(
        rules_at("crates/tree/src/batch.rs", src),
        vec![("L001".to_string(), 2), ("L001".to_string(), 3)]
    );
    // The typed-error replacement is clean.
    let fixed = "fn plan(&self, m: MemberId) -> Result<(), TreeError> {\n    \
                 let leaf = self.leaf_of(m).ok_or(TreeError::Inconsistent(\"leaf missing\"))?;\n    \
                 let old = self\n        .displaced\n        .get(&m)\n        \
                 .ok_or(TreeError::Inconsistent(\"displaced member missing\"))?;\n    \
                 use_them(leaf, old);\n    Ok(())\n}\n";
    assert!(rule_ids("crates/tree/src/batch.rs", fixed).is_empty());
}

#[test]
fn l001_quiet_in_harness_allowlisted_files() {
    // The chaos fault injector and the invariant checker live inside
    // protocol crates but run only under the test harness; intentional
    // panics there are not remote crash vectors.
    let src = "pub fn apply(f: Fault) { plan.get(&f).unwrap().fire(); }";
    assert!(rule_ids("crates/net/src/chaos.rs", src).is_empty());
    assert!(rule_ids("crates/core/src/invariants.rs", src).is_empty());
    // The allowlist is exact-path: a sibling file still fires.
    assert_eq!(rule_ids("crates/net/src/sim.rs", src), vec!["L001"]);
}

#[test]
fn harness_allowlist_exempts_only_l001() {
    // Determinism still matters in the chaos layer: a wall-clock read
    // there would make fault schedules non-replayable.
    let src = "fn jitter() { let t = std::time::Instant::now(); use_it(t); }";
    assert_eq!(rule_ids("crates/net/src/chaos.rs", src), vec!["L004"]);
}

// ---------------------------------------------------------------- L002

#[test]
fn l002_fires_on_debug_derive_for_secret_type() {
    let src = "#[derive(Clone, Debug)]\npub struct SymmetricKey([u8; 16]);\nimpl Drop for SymmetricKey { fn drop(&mut self) {} }\n";
    assert_eq!(rule_ids("crates/crypto/src/keys.rs", src), vec!["L002"]);
}

#[test]
fn l002_fires_on_derived_partial_eq_and_hash() {
    let src = "#[derive(PartialEq, Eq, Hash)]\npub struct SymmetricKey([u8; 16]);\nimpl Drop for SymmetricKey { fn drop(&mut self) {} }\n";
    let ids = rule_ids("crates/crypto/src/keys.rs", src);
    assert_eq!(ids, vec!["L002", "L002"]); // PartialEq + Hash
}

#[test]
fn l002_fires_when_drop_is_missing() {
    let src = "#[derive(Clone)]\npub struct Rc4 { s: [u8; 256] }\n";
    let diags = lint_source("crates/crypto/src/rc4.rs", src);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("Drop"), "{}", diags[0].message);
}

#[test]
fn l002_quiet_on_clean_secret_type() {
    let src = "#[derive(Clone)]\npub struct ChaCha20 { state: [u32; 16] }\nimpl Drop for ChaCha20 { fn drop(&mut self) { self.state = [0; 16]; } }\n";
    assert!(rule_ids("crates/crypto/src/chacha.rs", src).is_empty());
}

#[test]
fn l002_quiet_on_non_secret_type_with_debug() {
    let src = "#[derive(Clone, Debug, PartialEq)]\npub struct KeyId(u64);\n";
    assert!(rule_ids("crates/crypto/src/keys.rs", src).is_empty());
}

#[test]
fn l002_quiet_outside_secret_type_crates() {
    // Other crates may name-collide; the secrecy rule is scoped to the
    // crates that define the real types (crypto and net).
    let src = "#[derive(Debug)]\nstruct SymmetricKey;\n";
    assert!(rule_ids("crates/analysis/src/a.rs", src).is_empty());
}

#[test]
fn l002_fires_on_secret_bytes_derives_in_net() {
    // The stable-storage buffer type holds at-rest key material; a
    // derived PartialEq walks it with early exit (timing leak) and a
    // derived Debug would print it.
    let src = "#[derive(Clone, PartialEq, Eq)]\npub struct SecretBytes(Vec<u8>);\nimpl Drop for SecretBytes { fn drop(&mut self) {} }\n";
    assert_eq!(rule_ids("crates/net/src/storage.rs", src), vec!["L002"]);
    let dbg = "#[derive(Debug)]\npub struct SecretBytes(Vec<u8>);\nimpl Drop for SecretBytes { fn drop(&mut self) {} }\n";
    assert_eq!(rule_ids("crates/net/src/storage.rs", dbg), vec!["L002"]);
}

#[test]
fn l002_fires_when_secret_bytes_misses_drop() {
    let src = "#[derive(Clone)]\npub struct SecretBytes(Vec<u8>);\n";
    let diags = mykil_lint::lint_source("crates/net/src/storage.rs", src);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("Drop"), "{}", diags[0].message);
}

#[test]
fn l002_quiet_on_manual_impls_for_secret_bytes() {
    // Manual constant-time PartialEq and a len-only Debug are the
    // sanctioned shape; only *derives* leak.
    let src = "#[derive(Clone)]\npub struct SecretBytes(Vec<u8>);\nimpl Drop for SecretBytes { fn drop(&mut self) { zeroize(&mut self.0); } }\nimpl PartialEq for SecretBytes { fn eq(&self, o: &SecretBytes) -> bool { ct_eq(&self.0, &o.0) } }\nimpl Eq for SecretBytes {}\n";
    assert!(rule_ids("crates/net/src/storage.rs", src).is_empty());
}

#[test]
fn l002_suppressed_with_directive() {
    let src = "// mykil-lint: allow(L002) -- test-only mirror of the real type\n#[derive(Debug)]\npub struct SymmetricKey([u8; 16]);\nimpl Drop for SymmetricKey { fn drop(&mut self) {} }\n";
    assert!(rule_ids("crates/crypto/src/keys.rs", src).is_empty());
}

#[test]
fn l002_fires_on_raw_buffer_written_in_at_rest_storage() {
    // A plain Vec at the disk boundary never zeroizes: both the io
    // trait's write_all and fs::write must go through SecretBytes.
    let src = "fn persist(f: &mut std::fs::File, key_material: &[u8]) {\n    f.write_all(key_material).unwrap_or(());\n}\n";
    assert_eq!(
        rules_at("crates/net/src/file_store.rs", src),
        vec![("L002".to_string(), 2)]
    );
    let src = "fn persist(path: &Path, wrapped_key: Vec<u8>) {\n    let _ = fs::write(path, wrapped_key);\n}\n";
    assert_eq!(
        rules_at("crates/net/src/file_store.rs", src),
        vec![("L002".to_string(), 2)]
    );
}

#[test]
fn l002_quiet_on_secret_bytes_and_framing_writes() {
    // The sanctioned shapes: SecretBytes::as_slice for payloads, and
    // SCREAMING_CASE consts / to_le_bytes integers for framing.
    let src = "fn persist(f: &mut std::fs::File, payload: &SecretBytes, len: u32) {\n    let _ = f.write_all(&WAL_MAGIC);\n    let _ = f.write_all(&len.to_le_bytes());\n    let _ = f.write_all(payload.as_slice());\n}\n";
    assert!(rule_ids("crates/net/src/file_store.rs", src).is_empty());
}

#[test]
fn l002_at_rest_pass_scoped_to_storage_files() {
    // Elsewhere in the net crate a raw write is fine (e.g. the trace
    // dumper); the at-rest pass covers only the disk-backed store.
    let src = "fn dump(f: &mut std::fs::File, line: &[u8]) {\n    let _ = f.write_all(line);\n}\n";
    assert!(rule_ids("crates/net/src/trace.rs", src).is_empty());
}

#[test]
fn l002_at_rest_pass_skips_test_code_and_mode_setters() {
    // Tests write deliberate garbage to model crashes, and
    // OpenOptions::write(true) is a mode setter, not a buffer write.
    let src = "fn open(p: &Path) -> std::fs::File {\n    OpenOptions::new().write(true).open(p).unwrap_or_else(|e| panic!(\"{e}\"))\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn tear() { let garbage = vec![7u8; 3]; let _ = std::fs::write(\"x\", &garbage); }\n}\n";
    assert!(rule_ids("crates/net/src/file_store.rs", src).is_empty());
}

// ---------------------------------------------------------------- L003

#[test]
fn l003_fires_on_mac_equality() {
    let src = "fn verify(expected_mac: &[u8], got_mac: &[u8]) -> bool {\n    expected_mac == got_mac\n}\n";
    assert_eq!(rules_at("crates/crypto/src/hmac.rs", src), vec![("L003".to_string(), 2)]);
}

#[test]
fn l003_fires_on_tag_inequality_in_core() {
    let src = "fn check(tag: [u8; 16], expected_tag: [u8; 16]) {\n    if tag != expected_tag { reject(); }\n}\n";
    assert_eq!(rule_ids("crates/core/src/a.rs", src), vec!["L003"]);
}

#[test]
fn l003_fires_on_digest_compare() {
    let src = "fn f(digest: &[u8; 32], other: &[u8; 32]) -> bool { digest == other }";
    assert_eq!(rule_ids("crates/crypto/src/sha256.rs", src), vec!["L003"]);
}

#[test]
fn l003_quiet_on_length_checks() {
    let src = "fn f(mac: &[u8]) -> bool { mac.len() == 16 }";
    assert!(rule_ids("crates/crypto/src/hmac.rs", src).is_empty());
}

#[test]
fn l003_quiet_on_unrelated_identifiers() {
    // `stage` and `message` contain no mac/tag/digest snake segment.
    let src = "fn f(stage: u8, message: u8) -> bool { stage == message }";
    assert!(rule_ids("crates/crypto/src/a.rs", src).is_empty());
}

#[test]
fn l003_quiet_on_ct_eq_usage() {
    let src = "fn verify(mac: &[u8], expected_mac: &[u8]) -> bool { ct_eq(mac, expected_mac) }";
    assert!(rule_ids("crates/crypto/src/hmac.rs", src).is_empty());
}

#[test]
fn l003_quiet_in_tests() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(mac_a == mac_b); }\n}\n";
    assert!(rule_ids("crates/crypto/src/hmac.rs", src).is_empty());
}

#[test]
fn l003_suppressed_with_directive() {
    let src = "fn f(mac: &[u8], m2: &[u8]) -> bool {\n    // mykil-lint: allow(L003) -- public values, not secret-dependent\n    mac == m2\n}\n";
    assert!(rule_ids("crates/crypto/src/a.rs", src).is_empty());
}

// ---------------------------------------------------------------- L004

#[test]
fn l004_fires_on_instant_in_net() {
    let src = "use std::time::Instant;\nfn now() -> Instant { Instant::now() }\n";
    let ids = rule_ids("crates/net/src/clock.rs", src);
    assert!(!ids.is_empty() && ids.iter().all(|r| r == "L004"), "{ids:?}");
}

#[test]
fn l004_fires_on_system_time_in_core() {
    let src = "fn stamp() -> u64 { std::time::SystemTime::now().elapsed().as_secs() }";
    assert_eq!(rule_ids("crates/core/src/a.rs", src), vec!["L004"]);
}

#[test]
fn l004_quiet_on_duration() {
    let src = "use std::time::Duration;\nfn d() -> Duration { Duration::from_millis(5) }\n";
    assert!(rule_ids("crates/net/src/a.rs", src).is_empty());
}

#[test]
fn l004_quiet_outside_sim_deterministic_crates() {
    // Benchmarks and the crypto crate may time things for reporting.
    let src = "use std::time::Instant;\nfn t() { let _ = Instant::now(); }\n";
    assert!(rule_ids("crates/crypto/src/a.rs", src).is_empty());
    assert!(rule_ids("crates/net/benches/b.rs", src).is_empty());
}

#[test]
fn l004_suppressed_with_directive() {
    let src = "fn t() {\n    let _ = std::time::Instant::now(); // mykil-lint: allow(L004) -- wall-clock metrics only\n}\n";
    assert!(rule_ids("crates/net/src/a.rs", src).is_empty());
}

// ---------------------------------------------------------------- L005

#[test]
fn l005_fires_on_catch_all_in_msg_dispatch() {
    let src = "fn on_msg(&mut self, m: Msg) {\n    match m {\n        Msg::Join1 { .. } => self.join(m),\n        Msg::Data(d) => self.data(d),\n        _ => {}\n    }\n}\n";
    assert_eq!(rules_at("crates/core/src/member.rs", src), vec![("L005".to_string(), 5)]);
}

#[test]
fn l005_fires_on_guarded_catch_all() {
    let src = "fn on_msg(m: Msg) {\n    match m {\n        Msg::Data(d) => handle(d),\n        _ if true => {}\n        _ => {}\n    }\n}\n";
    let ids = rule_ids("crates/core/src/member.rs", src);
    assert_eq!(ids, vec!["L005", "L005"]);
}

#[test]
fn l005_quiet_on_exhaustive_dispatch() {
    let src = "fn on_msg(m: Msg) {\n    match m {\n        Msg::Join1 { .. } | Msg::Join2 { .. } => join(m),\n        Msg::Data(d) => data(d),\n        other => log_unexpected(other),\n    }\n}\n";
    assert!(rule_ids("crates/core/src/member.rs", src).is_empty());
}

#[test]
fn l005_quiet_on_non_msg_matches() {
    // `_ =>` over ordinary enums and integers is fine.
    let src = "fn f(x: u8) -> u8 {\n    match x {\n        0 => 1,\n        _ => 0,\n    }\n}\n";
    assert!(rule_ids("crates/core/src/a.rs", src).is_empty());
}

#[test]
fn l005_quiet_outside_core() {
    let src = "fn f(m: Msg) {\n    match m {\n        Msg::Data(d) => g(d),\n        _ => {}\n    }\n}\n";
    assert!(rule_ids("crates/net/src/a.rs", src).is_empty());
}

#[test]
fn l005_quiet_on_nested_non_msg_match_inside_dispatch_arm() {
    // The catch-all belongs to the *inner* numeric match, not the Msg
    // dispatch.
    let src = "fn f(m: Msg) {\n    match m {\n        Msg::Data(d) => match d.kind {\n            0 => a(),\n            _ => b(),\n        },\n        Msg::Heartbeat => c(),\n        other => log(other),\n    }\n}\n";
    assert!(rule_ids("crates/core/src/a.rs", src).is_empty());
}

#[test]
fn l005_suppressed_with_directive() {
    let src = "fn f(m: Msg) {\n    match m {\n        Msg::Data(d) => g(d),\n        _ => {} // mykil-lint: allow(L005) -- relay ignores control traffic\n    }\n}\n";
    assert!(rule_ids("crates/core/src/a.rs", src).is_empty());
}

// ------------------------------------------------------- cross-cutting

#[test]
fn diagnostics_are_sorted_and_json_renderable() {
    let src = "fn f(mac: &[u8], m: &[u8]) {\n    let _ = mac == m;\n    x.unwrap();\n}\n";
    let diags = lint_source("crates/core/src/a.rs", src);
    assert_eq!(diags.len(), 2);
    assert!(diags[0].line <= diags[1].line);
    for d in &diags {
        let j = d.to_json();
        assert!(j.contains(&format!("\"rule\":\"{}\"", d.rule)));
        assert!(j.contains("\"line\":"));
    }
}

// ---------------------------------------------------------------- L011

#[test]
fn l011_fires_on_unsafe_outside_the_allowlist() {
    let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: trust me\n    unsafe { *p }\n}\n";
    for path in [
        "crates/core/src/wire.rs",
        "crates/crypto/src/sha256.rs",
        "crates/net/src/sim.rs",
    ] {
        assert_eq!(rules_at(path, src), vec![("L011".to_string(), 3)], "{path}");
    }
    // Declarations count too: an `unsafe fn` or `unsafe impl` is still
    // unsafe code a reviewer has to find.
    let decl = "unsafe fn g() {}\nunsafe impl Send for T {}\n";
    assert_eq!(rule_ids("crates/tree/src/a.rs", decl), vec!["L011", "L011"]);
}

#[test]
fn l011_fires_in_test_code_of_an_unlisted_file() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { unsafe { g() } }\n}\n";
    assert_eq!(rules_at("crates/core/src/a.rs", src), vec![("L011".to_string(), 4)]);
}

#[test]
fn l011_requires_a_safety_comment_on_each_block_in_a_listed_file() {
    let bare = "fn f(w: &mut u8) {\n    unsafe { core::ptr::write_volatile(w, 0) };\n}\n";
    assert_eq!(rules_at("crates/crypto/src/ct.rs", bare), vec![("L011".to_string(), 2)]);
    // A comment that is not about safety, or one separated from the
    // block by code, does not count.
    let wrong = "fn f(w: &mut u8) {\n    // wipe it\n    unsafe { core::ptr::write_volatile(w, 0) };\n}\n";
    assert_eq!(rule_ids("crates/crypto/src/ct.rs", wrong), vec!["L011"]);
    let detached = "fn f(w: &mut u8) {\n    // SAFETY: w is valid\n    let x = 1;\n    unsafe { core::ptr::write_volatile(w, x) };\n}\n";
    assert_eq!(rules_at("crates/crypto/src/ct.rs", detached), vec![("L011".to_string(), 4)]);
}

#[test]
fn l011_quiet_on_commented_blocks_and_declarations_in_listed_files() {
    let src = "// SAFETY: delegates to System.\nunsafe impl GlobalAlloc for A {\n\
               unsafe fn alloc(&self, l: Layout) -> *mut u8 {\n\
               // SAFETY: the caller's contract is\n// passed through unchanged.\n\
               unsafe { System.alloc(l) }\n}\n}\n\
               fn g(p: *const u8) -> u8 {\n    let v = unsafe { *p }; // SAFETY: p is valid\n    v\n}\n";
    for path in [
        "crates/bench/src/alloc_track.rs",
        "crates/crypto/src/ct.rs",
        "crates/crypto/src/keys.rs",
        "crates/crypto/src/sha_ni.rs",
    ] {
        assert!(rule_ids(path, src).is_empty(), "{path}");
    }
}

#[test]
fn l011_quiet_on_the_word_in_comments_strings_and_lint_names() {
    let src = "#![deny(unsafe_op_in_unsafe_fn)]\n// no unsafe here\nfn f() { log(\"unsafe\"); }\n";
    assert!(rule_ids("crates/crypto/src/lib.rs", src).is_empty());
    // Outside crates/*/src the rule does not apply (integration tests,
    // examples and the vendored stand-ins are not product code).
    assert!(rule_ids("crates/core/tests/a.rs", "fn f() { unsafe { g() } }").is_empty());
}

#[test]
fn l011_suppressed_with_directive() {
    let src = "fn f() {\n    // mykil-lint: allow(L011) -- FFI shim under review\n    unsafe { g() }\n}\n";
    assert!(rule_ids("crates/core/src/a.rs", src).is_empty());
}
