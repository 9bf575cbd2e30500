//! The little JSON this benchmark writes: result lines, the manifest
//! and span records. Output only; keys keep insertion order.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Multi-line rendering with two-space indentation (the manifest).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        match self {
            // Rows of scalars stay on one line so the manifest reads
            // as a table.
            Json::Obj(fields) if fields.iter().any(|(_, v)| v.is_nested()) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&format!("{pad}{}: ", Json::str(k)));
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&format!("{}}}", "  ".repeat(depth)));
            }
            Json::Arr(items) if items.iter().any(Json::is_nested) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad);
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&format!("{}]", "  ".repeat(depth)));
            }
            flat => out.push_str(&flat.to_string()),
        }
    }

    fn is_nested(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // JSON has no NaN or infinity; a metric that cannot be
            // computed is a harness bug, surfaced as null.
            Json::Num(x) if !x.is_finite() => write!(f, "null"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {v}", Json::str(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes_strings() {
        let v = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(3)),
            ("x", Json::Num(1.25)),
            ("s", Json::str("a\"b\\c\n")),
            ("l", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"ok": true, "n": 3, "x": 1.25, "s": "a\"b\\c\n", "l": [1, 2]}"#
        );
    }

    #[test]
    fn pretty_keeps_scalar_rows_on_one_line() {
        let v = Json::obj([(
            "rows",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("a")),
                ("bound", Json::Num(0.1)),
            ])]),
        )]);
        assert_eq!(
            v.pretty(),
            "{\n  \"rows\": [\n    {\"name\": \"a\", \"bound\": 0.1}\n  ]\n}\n"
        );
    }
}
