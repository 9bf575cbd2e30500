//! `mykil-lint --explain L00N`: per-rule invariant, a minimal
//! violating example, and fix guidance. CI prints a pointer to this
//! on failure so a red lint job explains itself.

/// The long-form explanation for one rule.
pub struct Explanation {
    /// Stable rule id (`L001`…).
    pub id: &'static str,
    /// The invariant the rule protects, and why it matters here.
    pub invariant: &'static str,
    /// A minimal violating snippet.
    pub example: &'static str,
    /// How to fix a finding (and when suppression is legitimate).
    pub fix: &'static str,
}

/// Explanations for every rule, in id order.
pub const EXPLANATIONS: &[Explanation] = &[
    Explanation {
        id: "L001",
        invariant: "Non-test code in the protocol crates (core, net, tree) must not \
                    call unwrap()/expect(). A node processes bytes from untrusted \
                    peers; a panic on malformed input is a remote crash. Errors \
                    must degrade to ProtocolError and be handled by the caller.",
        example: "let msg = Msg::from_bytes(&payload).unwrap(); // peer controls payload",
        fix: "Propagate with `?`, or map to ProtocolError::Malformed. Harness \
              files (chaos injector, invariant checker) are allowlisted in \
              HARNESS_PATHS because only the test harness drives them. Any other \
              suppression needs a `-- reason` proving the value cannot be absent.",
    },
    Explanation {
        id: "L002",
        invariant: "Secret-bearing types (SymmetricKey, Rc4, ChaCha20, RsaKeyPair, \
                    SecretBytes) must not derive Debug/PartialEq/Hash and must \
                    impl Drop. Derived Debug prints key bytes into logs; derived \
                    equality walks bytes with early exit (timing leak); a missing \
                    Drop leaves key material in freed memory. In at-rest storage \
                    files (FileStore), every buffer handed to a write call must \
                    be SecretBytes::as_slice() output or fixed framing metadata \
                    (SCREAMING_CASE consts, to_le_bytes integers): checkpoint \
                    payloads and WAL records hold wrapped keys, and a raw Vec at \
                    the write boundary never zeroizes.",
        example: "#[derive(Debug, Clone, PartialEq)]\npub struct SymmetricKey([u8; 16]);",
        fix: "Drop the offending derives, compare through ct_eq, and zeroize in \
              an explicit Drop impl. At the disk boundary, carry payloads as \
              SecretBytes end to end and write payload.as_slice().",
    },
    Explanation {
        id: "L003",
        invariant: "MAC/digest/tag comparisons must use mykil_crypto::ct_eq, never \
                    ==/!=. Short-circuiting comparison leaks how many prefix bytes \
                    matched, which lets an attacker forge a MAC byte by byte.",
        example: "if computed_mac != msg.mac { return Err(ProtocolError::BadMac); }",
        fix: "Replace with `if !ct_eq(&computed_mac, &msg.mac)`. Suppress only for \
              comparisons provably not on secret material.",
    },
    Explanation {
        id: "L004",
        invariant: "Sim-deterministic crates (net, core) must not read wall-clock \
                    time (SystemTime, Instant). All behavior flows from the \
                    simulator's logical clock; a wall-clock read makes seeded runs \
                    unreproducible.",
        example: "let started = std::time::Instant::now();",
        fix: "Take time from Context (ctx.now()) so the simulator owns it.",
    },
    Explanation {
        id: "L005",
        invariant: "Protocol Msg dispatch must match variants exhaustively with no \
                    `_ =>` catch-all. A catch-all silently swallows new wire \
                    messages instead of forcing each handler to triage them when a \
                    variant is added.",
        example: "match msg { Msg::Join1(j) => self.join(j), _ => {} }",
        fix: "List every variant; route genuinely-unhandled ones to an explicit \
              ignore arm per variant so the compiler flags new additions.",
    },
    Explanation {
        id: "L006",
        invariant: "Deterministic crates (core, net, tree) must not iterate \
                    HashMap/HashSet (.iter/.iter_mut/.keys/.values/.drain/for \
                    loops). Hash-bucket order varies per process (SipHash keys are \
                    randomized), so any iteration feeding message emission, \
                    snapshot bytes, or schedule decisions breaks seeded chaos \
                    replay and byte-identical wire output.",
        example: "for (client, member) in &self.members { /* HashMap field */ }",
        fix: "Declare the collection as BTreeMap/BTreeSet (all Mykil key types \
              are Ord), or collect-and-sort in the same statement: \
              `let mut v: Vec<_> = m.keys().copied().collect(); v.sort_unstable();` \
              collapsed into one statement with a BTree/sort marker.",
    },
    Explanation {
        id: "L007",
        invariant: "WAL-before-ack (DESIGN.md §9): in a core handler that commits \
                    to the write-ahead log, every ack/reply Msg send \
                    (*Ack/*Denied/*Welcome/*Grant/*Reply) must come after the \
                    commit. If the node crashes between ack and commit, the peer \
                    believes state changed that recovery will never replay.",
        example: "ctx.send(peer, Msg::HeartbeatAck(..));\nself.wal_commit_record(ctx, &rec);",
        fix: "Move the wal_commit/wal_commit_record call above the send. The rule \
              only fires in functions that contain both a WAL call and an \
              ack-like send, so pure read paths and deny-without-mutation paths \
              are untouched.",
    },
    Explanation {
        id: "L008",
        invariant: "Every set_timer arm site must pass a named TIMER_* kind, and \
                    that kind must be matched, compared, or cancelled somewhere \
                    else in the same crate. An armed kind nobody handles is the \
                    stale-timer bug class: it fires (or survives a crash) and no \
                    code path is responsible for it.",
        example: "ctx.set_timer(delay, 42); // bare literal, nothing matches 42",
        fix: "Define `const TIMER_FOO: u64 = …;`, arm with it, and dispatch it in \
              on_timer (or cancel it). The constant's own definition and use- \
              imports do not count as handling.",
    },
    Explanation {
        id: "L009",
        invariant: "Wire/codec files must not narrow integers with bare `as` \
                    (u8/u16/u32/i8/i16/i32). `len() as u32` silently truncates \
                    oversized values into valid-looking length prefixes — the \
                    exact bug PR 5 shipped and had to hand-fix. u64/usize targets \
                    widen on every supported platform and stay legal.",
        example: "w.u32(bytes.len() as u32); // 4 GiB + 1 bytes encodes as 1",
        fix: "Use `u32::try_from(x)` and surface ProtocolError::Malformed (or the \
              Writer poisoning path). For constants, define the narrow type first \
              and derive the wide one with a widening `as`.",
    },
    Explanation {
        id: "L010",
        invariant: "Wire/codec files must not use panicking slice access: `x[i]`, \
                    `x[a..b]`, split_at, copy_from_slice, clone_from_slice. \
                    Hostile bytes flow through these files; an out-of-range index \
                    is a remote panic.",
        example: "let klen = u32::from_le_bytes(bytes[..4].try_into()?);",
        fix: "Use get(..)/get_mut(..) with ok_or(Malformed), split_at_checked, or \
              fixed-size arrays via try_into. Suppress only where the bound is \
              established by construction in the same function, with a `-- reason` \
              stating the invariant.",
    },
    Explanation {
        id: "L011",
        invariant: "`unsafe` appears only in the allowlisted files (crypto ct.rs, keys.rs, \
                    sha_ni.rs; bench alloc_track.rs), and every `unsafe { … }` block there \
                    sits directly under a `// SAFETY:` comment. Nothing in the build detects \
                    undefined behaviour, so the places a reviewer must read stay few and \
                    each states its own proof.",
        example: "let v = unsafe { *ptr.add(i) }; // in crates/core/src/wire.rs",
        fix: "Write it in safe Rust (slices, iterators, `try_into`). If the operation has \
              no safe form (an intrinsic, a volatile write), put it in an allowlisted file \
              behind a safe function, with a `// SAFETY:` comment above the block naming \
              the check that makes it sound.",
    },
];

/// Looks up the explanation for `id` (case-insensitive).
pub fn explain(id: &str) -> Option<&'static Explanation> {
    let id = id.to_ascii_uppercase();
    EXPLANATIONS.iter().find(|e| e.id == id)
}

/// Renders one explanation as the `--explain` output text.
pub fn render(e: &Explanation) -> String {
    format!(
        "{id}\n{underline}\n\nInvariant:\n  {invariant}\n\nExample violation:\n\
         {example}\n\nFix:\n  {fix}\n",
        id = e.id,
        underline = "=".repeat(e.id.len()),
        invariant = e.invariant,
        example = e
            .example
            .lines()
            .map(|l| format!("  | {l}"))
            .collect::<Vec<_>>()
            .join("\n"),
        fix = e.fix,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RULES;

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in RULES {
            assert!(
                explain(rule.id).is_some(),
                "missing --explain entry for {}",
                rule.id
            );
        }
        assert_eq!(EXPLANATIONS.len(), RULES.len());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(explain("l006").is_some());
        assert!(explain("L999").is_none());
    }

    #[test]
    fn render_contains_sections() {
        let text = render(explain("L007").unwrap());
        assert!(text.contains("Invariant:"));
        assert!(text.contains("Example violation:"));
        assert!(text.contains("Fix:"));
    }
}
