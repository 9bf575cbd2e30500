//! `mykil-lint --explain <rule>`: per-rule invariant, a minimal
//! violating example, and fix guidance. CI prints a pointer to this
//! on failure so a red lint job explains itself.

/// The long-form explanation for one rule.
pub struct Explanation {
    /// Stable rule id (`L002`…).
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
        assert!(explain("l007").is_some());
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
