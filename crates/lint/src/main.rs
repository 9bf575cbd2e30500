//! `mykil-lint` CLI.
//!
//! ```text
//! mykil-lint --workspace [--format human|json|sarif] [--out FILE]
//! mykil-lint [--format human|json|sarif] FILE...
//! mykil-lint --list-rules
//! mykil-lint --explain L007
//! ```
//!
//! Exit codes: `0` clean, `1` findings reported, `2` usage or I/O
//! error. JSON mode emits one object per finding (JSON Lines); SARIF
//! mode emits one SARIF 2.1.0 log. `--out` additionally writes the
//! machine-readable form to a file (human mode still prints findings
//! to stdout), which is how CI captures the artifact.

#![forbid(unsafe_code)]

use mykil_lint::diagnostics::{display_path, to_sarif};
use mykil_lint::explain::{explain, render};
use mykil_lint::{lint_source, lint_workspace, Diagnostic, RULES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

enum Format {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut workspace = false;
    let mut list_rules = false;
    let mut explain_id: Option<String> = None;
    let mut out_file: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--list-rules" => list_rules = true,
            "--json" => format = Format::Json,
            "--explain" => match args.next() {
                Some(id) => explain_id = Some(id),
                None => {
                    eprintln!("mykil-lint: --explain expects a rule id ({})", rule_ids());
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(p) => out_file = Some(PathBuf::from(p)),
                None => {
                    eprintln!("mykil-lint: --out expects a file path");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    let got = other.unwrap_or("nothing");
                    eprintln!("mykil-lint: --format expects human|json|sarif, got {got:?}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("mykil-lint: unknown flag {arg}");
                print_usage();
                return ExitCode::from(2);
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    if let Some(id) = explain_id {
        return match explain(&id) {
            Some(e) => {
                println!("{}", render(e));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "mykil-lint: unknown rule {id:?}; known rules: {}",
                    rule_ids()
                );
                ExitCode::from(2)
            }
        };
    }
    if list_rules {
        for rule in RULES {
            println!("{}  {}", rule.id, normalize_ws(rule.description));
        }
        return ExitCode::SUCCESS;
    }
    if !workspace && paths.is_empty() {
        eprintln!("mykil-lint: pass --workspace or at least one file");
        print_usage();
        return ExitCode::from(2);
    }

    let root = workspace_root();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    if workspace {
        match lint_workspace(&root) {
            Ok(d) => diagnostics.extend(d),
            Err(e) => {
                eprintln!("mykil-lint: workspace walk failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(source) => {
                let rel = display_path(path, &root);
                diagnostics.extend(lint_source(&rel, &source));
            }
            Err(e) => {
                eprintln!("mykil-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    match format {
        Format::Human => {
            for d in &diagnostics {
                println!("{d}");
            }
        }
        Format::Json => {
            for d in &diagnostics {
                println!("{}", d.to_json());
            }
        }
        Format::Sarif => println!("{}", to_sarif(&diagnostics)),
    }
    if let Some(path) = &out_file {
        // The artifact file is always machine-readable: SARIF when that
        // format was chosen, JSON Lines otherwise.
        let body = match format {
            Format::Sarif => to_sarif(&diagnostics),
            _ => diagnostics
                .iter()
                .map(|d| d.to_json())
                .collect::<Vec<_>>()
                .join("\n"),
        };
        if let Err(e) = std::fs::write(path, body + "\n") {
            eprintln!("mykil-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if diagnostics.is_empty() {
        if matches!(format, Format::Human) {
            eprintln!("mykil-lint: clean");
        }
        ExitCode::SUCCESS
    } else {
        if matches!(format, Format::Human) {
            eprintln!(
                "mykil-lint: {} finding{} (run `mykil-lint --explain <rule>` for \
                 the invariant and fix guidance)",
                diagnostics.len(),
                if diagnostics.len() == 1 { "" } else { "s" }
            );
        }
        ExitCode::from(1)
    }
}

/// The workspace root: nearest ancestor of the current directory with a
/// `Cargo.toml` containing `[workspace]` (falls back to the cwd).
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir: &Path = &cwd;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir.to_path_buf();
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return cwd,
        }
    }
}

fn rule_ids() -> String {
    RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
}

fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn print_usage() {
    eprintln!(
        "usage: mykil-lint [--workspace] [--format human|json|sarif] [--out FILE]\n\
         \x20                 [--list-rules] [--explain L00N] [FILE...]\n\
         exit codes: 0 clean, 1 findings, 2 error"
    );
}
