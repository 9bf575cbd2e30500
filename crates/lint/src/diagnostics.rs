//! Diagnostics: what a rule reports, and how it is rendered for humans
//! and machines.

use std::fmt;
use std::path::Path;

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id, e.g. `L003`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Diagnostic {
    /// Renders the finding as one JSON object (machine-readable mode
    /// emits one object per line — JSON Lines).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            escape_json(self.rule),
            escape_json(&self.file),
            self.line,
            escape_json(&self.message)
        )
    }
}

/// Renders a diagnostic set as a SARIF 2.1.0 log, the format CI
/// annotation tooling ingests. Hand-rolled like the JSON mode — the
/// workspace builds with zero external dependencies.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let rules: Vec<String> = crate::rules::RULES
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
                escape_json(r.id),
                escape_json(&collapse_ws(r.description))
            )
        })
        .collect();
    let results: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                 {{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                escape_json(d.rule),
                escape_json(&d.message),
                escape_json(&d.file),
                d.line
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":\
         {{\"name\":\"mykil-lint\",\"informationUri\":\
         \"https://example.invalid/mykil\",\"rules\":[{}]}}}},\
         \"results\":[{}]}}]}}",
        rules.join(","),
        results.join(",")
    )
}

/// Collapses the multi-line registry descriptions to single-space text.
fn collapse_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Minimal JSON string escaping (the diagnostics contain no exotic
/// control characters, but quoting must still be airtight).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Normalizes a path for diagnostics: workspace-relative with forward
/// slashes.
pub fn display_path(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn human_format_is_clickable() {
        let d = Diagnostic {
            rule: "L003",
            file: "crates/core/src/x.rs".into(),
            line: 17,
            message: "use ct_eq".into(),
        };
        assert_eq!(d.to_string(), "crates/core/src/x.rs:17: L003: use ct_eq");
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic {
            rule: "L002",
            file: "a.rs".into(),
            line: 1,
            message: "derive(\"Debug\") forbidden".into(),
        };
        let j = d.to_json();
        assert!(j.contains("\\\"Debug\\\""), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn sarif_contains_schema_rules_and_results() {
        let d = Diagnostic {
            rule: "L007",
            file: "crates/core/src/area/join.rs".into(),
            line: 5,
            message: "ack before the WAL commit".into(),
        };
        let s = to_sarif(&[d]);
        assert!(s.contains("\"version\":\"2.1.0\""), "{s}");
        assert!(s.contains("\"ruleId\":\"L007\""));
        assert!(s.contains("\"startLine\":5"));
        // Every registry rule is described in the driver section.
        for rule in crate::rules::RULES {
            assert!(s.contains(&format!("\"id\":\"{}\"", rule.id)));
        }
        // Empty result sets still produce a valid log.
        let empty = to_sarif(&[]);
        assert!(empty.contains("\"results\":[]"));
    }

    #[test]
    fn paths_are_workspace_relative() {
        let root = PathBuf::from("/ws");
        let p = PathBuf::from("/ws/crates/core/src/a.rs");
        assert_eq!(display_path(&p, &root), "crates/core/src/a.rs");
    }
}
