//! Clippy lints and `unsafe_code` are switched on by inner attributes in
//! the crates and modules where each invariant holds (DESIGN.md §6).
//! Clippy reports what is switched on and is silent about what is not,
//! so deleting one of those attributes would pass CI unnoticed; this
//! test pins each of them.

/// The words inside each inner attribute `#![…]` of a file, so a
/// reflowed attribute still matches.
fn inner_attributes(src: &str) -> Vec<Vec<&str>> {
    src.match_indices("#![")
        .map(|(at, _)| {
            let body = &src[at + 2..];
            let mut depth = 0;
            let end = body
                .char_indices()
                .find_map(|(i, c)| {
                    match c {
                        '[' => depth += 1,
                        ']' => depth -= 1,
                        _ => {}
                    }
                    (depth == 0).then_some(i)
                })
                .unwrap_or(body.len());
            body[..end]
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .collect()
        })
        .collect()
}

/// Whether one inner attribute of `src` names every word of `words`.
fn switched_on(src: &str, words: &[&str]) -> bool {
    inner_attributes(src)
        .iter()
        .any(|attr| words.iter().all(|w| attr.contains(w)))
}

/// `(path, source)` of each file, given relative to `crates/`.
macro_rules! sources {
    ($($path:literal),* $(,)?) => {
        [$(($path, include_str!(concat!("../crates/", $path)))),*]
    };
}

#[test]
fn retired_rules_stay_switched_on_where_they_held() {
    // No panics, no unordered collections or wall clocks, no unsafe.
    for (path, src) in sources!("core/src/lib.rs", "net/src/lib.rs", "tree/src/lib.rs") {
        let no_panics = ["not", "test", "warn", "unwrap_used", "expect_used"];
        assert!(switched_on(src, &no_panics), "{path}");
        assert!(switched_on(src, &["warn", "disallowed_types"]), "{path}");
        assert!(switched_on(src, &["forbid", "unsafe_code"]), "{path}");
    }
    // Hostile-byte parsers: no narrowing casts or panicking slices.
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
    // Exhaustive `Msg` dispatch, and timer dispatch with no wildcard.
    for (path, src) in sources!(
        "core/src/msg.rs",
        "core/src/member.rs",
        "core/src/registration.rs",
        "core/src/area/mod.rs",
        "core/src/area/replication.rs",
    ) {
        let lints = [
            "not",
            "test",
            "warn",
            "wildcard_enum_match_arm",
            "match_wildcard_for_single_variants",
        ];
        assert!(switched_on(src, &lints), "{path}");
    }
    // `unsafe_code` in the crate roots not covered above.
    for (path, src) in sources!(
        "analysis/src/lib.rs",
        "baselines/src/lib.rs",
        "bench/src/bin/gate/main.rs",
        "fuzz/src/main.rs",
    ) {
        assert!(switched_on(src, &["forbid", "unsafe_code"]), "{path}");
    }
    for (path, src) in sources!("crypto/src/lib.rs", "bench/src/lib.rs") {
        assert!(switched_on(src, &["deny", "unsafe_code"]), "{path}");
        let documented = ["warn", "undocumented_unsafe_blocks"];
        assert!(switched_on(src, &documented), "{path}");
    }
    // The lists the two configurable lints read.
    let clippy_toml = include_str!("../clippy.toml");
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
