//! The seven retired rules are clippy lints now, switched on by inner
//! attributes in the crates and modules where each invariant holds.
//! Clippy reports what is switched on and is silent about what is not,
//! so deleting one of those attributes would pass CI unnoticed; this
//! test pins each of them (DESIGN.md §6).

use mykil_lint::tokenizer::{scan, TokenKind};

/// The identifiers inside each inner attribute `#![…]` of a file, so a
/// reflowed attribute still matches.
fn inner_attributes(src: &str) -> Vec<Vec<String>> {
    let tokens = scan(src).tokens;
    let mut out = Vec::new();
    for (i, w) in tokens.windows(3).enumerate() {
        if !(w[0].is_punct('#') && w[1].is_punct('!') && w[2].is_punct('[')) {
            continue;
        }
        let mut depth = 0;
        let mut idents = Vec::new();
        for t in &tokens[i + 2..] {
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokenKind::Ident {
                idents.push(t.text.clone());
            }
        }
        out.push(idents);
    }
    out
}

/// Whether one inner attribute of `src` names every word of `words`.
fn switched_on(src: &str, words: &[&str]) -> bool {
    inner_attributes(src)
        .iter()
        .any(|attr| words.iter().all(|w| attr.iter().any(|a| a == w)))
}

/// `(path, source)` of each file, given relative to `crates/`.
macro_rules! sources {
    ($($path:literal),* $(,)?) => {
        [$(($path, include_str!(concat!("../../", $path)))),*]
    };
}

#[test]
fn retired_rules_stay_switched_on_where_they_held() {
    // L001; L004 and L006; L011.
    for (path, src) in sources!("core/src/lib.rs", "net/src/lib.rs", "tree/src/lib.rs") {
        let no_panics = ["not", "test", "warn", "unwrap_used", "expect_used"];
        assert!(switched_on(src, &no_panics), "{path}");
        assert!(switched_on(src, &["warn", "disallowed_types"]), "{path}");
        assert!(switched_on(src, &["forbid", "unsafe_code"]), "{path}");
    }
    // L009 and L010.
    for (path, src) in sources!(
        "core/src/wire.rs",
        "core/src/msg.rs",
        "core/src/rekey.rs",
        "core/src/durable.rs",
        "core/src/welcome.rs",
        "core/src/ticket.rs",
        "crypto/src/envelope.rs",
        "net/src/chaos.rs",
        "net/src/storage.rs",
        "net/src/file_store.rs",
        "fuzz/src/engine.rs",
        "fuzz/src/targets.rs",
    ) {
        let lints = [
            "not",
            "test",
            "warn",
            "cast_possible_truncation",
            "indexing_slicing",
            "disallowed_methods",
        ];
        assert!(switched_on(src, &lints), "{path}");
    }
    // L005.
    for (path, src) in sources!(
        "core/src/msg.rs",
        "core/src/member.rs",
        "core/src/registration.rs",
        "core/src/area/mod.rs",
        "core/src/area/replication.rs",
    ) {
        let lints = ["not", "test", "warn", "wildcard_enum_match_arm"];
        assert!(switched_on(src, &lints), "{path}");
    }
    // L011 in the crate roots not covered above.
    for (path, src) in sources!(
        "analysis/src/lib.rs",
        "baselines/src/lib.rs",
        "bench/src/bin/report.rs",
        "bench/src/bin/gate/main.rs",
        "fuzz/src/main.rs",
        "lint/src/lib.rs",
        "lint/src/main.rs",
    ) {
        assert!(switched_on(src, &["forbid", "unsafe_code"]), "{path}");
    }
    for (path, src) in sources!("crypto/src/lib.rs", "bench/src/lib.rs") {
        assert!(switched_on(src, &["deny", "unsafe_code"]), "{path}");
        let documented = ["warn", "undocumented_unsafe_blocks"];
        assert!(switched_on(src, &documented), "{path}");
    }
    // The lists the two configurable lints read.
    let clippy_toml = include_str!("../../../clippy.toml");
    for path in [
        "std::time::Instant",
        "std::time::SystemTime",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "slice::split_at",
        "slice::split_at_mut",
        "slice::copy_from_slice",
        "slice::clone_from_slice",
    ] {
        assert!(
            clippy_toml.contains(&format!("path = \"{path}\"")),
            "{path}"
        );
    }
}
