//! Fixture tests: every rule must fire on a violating snippet and stay
//! quiet on clean and suppressed variants, and a suppression directive
//! that suppresses nothing is itself a finding.

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

// ------------------------------------------------------- cross-cutting

#[test]
fn diagnostics_are_sorted_and_json_renderable() {
    let src = "fn handle(ctx: &mut Ctx, mac: &[u8], m: &[u8]) {\n    \
               ctx.send(peer, Msg::HeartbeatAck { seq });\n    \
               let _ = mac == m;\n    \
               self.wal_commit_record(ctx, &rec);\n}\n";
    let diags = lint_source("crates/core/src/a.rs", src);
    assert_eq!(diags.len(), 2);
    assert_eq!((diags[0].rule, diags[0].line), ("L007", 2));
    assert_eq!((diags[1].rule, diags[1].line), ("L003", 3));
    for d in &diags {
        let j = d.to_json();
        assert!(j.contains(&format!("\"rule\":\"{}\"", d.rule)));
        assert!(j.contains("\"line\":"));
    }
}

// ---------------------------------------------------------- directives

#[test]
fn a_directive_that_suppresses_nothing_is_a_finding() {
    // Line 2 compares nothing secret: the allow covers no finding.
    let src = "fn f(a: u8, b: u8) -> bool {\n    \
               // mykil-lint: allow(L003) -- leftover from a refactor\n    \
               a == b\n}\n";
    assert_eq!(
        rules_at("crates/crypto/src/a.rs", src),
        vec![("stale-allow".to_string(), 2)]
    );
    // Once a comparison of MAC material is back on the covered line,
    // the same directive is in use again.
    let used = src.replace("a == b", "mac == b");
    assert!(rule_ids("crates/crypto/src/a.rs", &used).is_empty());
}

#[test]
fn a_directive_naming_a_retired_rule_is_a_finding() {
    // Clippy judges these lines now; the old directives must go.
    for id in ["L001", "L004", "L005", "L006", "L009", "L010", "L011"] {
        let src = format!(
            "fn f() {{\n    g().unwrap(); // mykil-lint: allow({id}) -- deployment harness\n}}\n"
        );
        let diags = lint_source("crates/core/src/a.rs", &src);
        assert_eq!(diags.len(), 1, "{id}: {diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), ("stale-allow", 2));
        assert!(diags[0].message.contains(id), "{}", diags[0].message);
    }
}
