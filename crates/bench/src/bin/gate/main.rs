//! The regression gate CI runs (DESIGN.md §10, "The regression gate").
//!
//! ```text
//! gate rekey                   # rekey hot path, both tree backends, wire, RSA
//! gate paper                   # every number of EXPERIMENTS.md, n = 100,000
//!      --write                 #   (re)write the subcommand's BENCH_*.json
//!      --check <path>          #   fail (exit 1) on regression against it
//!      --out <path>            #   also dump the fresh JSON (CI artifact)
//! ```
//!
//! Every row is measured [`gate::REPS`] times in this process (twice
//! when no column is a time); a count that differs between two
//! repetitions exits 2. The rules, the reader
//! and the checker are [`mykil_bench::gate`]; this binary holds the
//! workloads and their row declarations.

#![forbid(unsafe_code)]

mod paper;
mod rekey;

use mykil_bench::alloc_track::CountingAllocator;
use mykil_bench::gate;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let gates = [rekey::GATE, paper::PAPER];
    let code = gate::command(&gates, std::env::args().skip(1)).unwrap_or_else(|why| {
        eprintln!("{why}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_bench::gate::{check, read_json, Rule, Value, Verdict};

    fn read_root(file: &str) -> String {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).expect(&path)
    }

    /// The two committed baselines read back under the rules of the
    /// subcommand that writes them: every declared row is there with
    /// every `Exact` column, and each file passes against itself.
    #[test]
    fn committed_baselines_carry_every_declared_row_and_exact_column() {
        for gate in [rekey::GATE, paper::PAPER] {
            let path = gate.baseline;
            let table = read_json(&read_root(path)).expect(path);
            for (row, columns, _) in gate.rows {
                let cells = table.rows.iter().find(|r| r.0 == *row);
                let cells = &cells.unwrap_or_else(|| panic!("{path}: no row {row}")).1;
                for (column, rule) in *columns {
                    let exact = cells
                        .iter()
                        .any(|c| c.0 == *column && matches!(c.1, Value::Int(_)));
                    assert!(
                        exact || *rule != Rule::Exact,
                        "{path}: {row}: no integer {column}"
                    );
                }
            }
            assert_eq!(
                check(&gate, &table, Some(&table)),
                Verdict::default(),
                "{path}"
            );
        }
    }

    /// EXPERIMENTS.md shows the committed `BENCH_paper.json`: a table
    /// line whose first cell names a row carries that row's cells in its
    /// column order (thousands separated by commas), and every row has
    /// such a line.
    #[test]
    fn experiments_md_shows_every_paper_row_as_committed() {
        let baseline = read_json(&read_root(paper::PAPER.baseline)).expect("paper baseline");
        let (doc, mut shown) = (read_root("EXPERIMENTS.md"), Vec::new());
        for line in doc.lines() {
            let Some(line) = line.trim().strip_prefix('|') else {
                continue;
            };
            let mut cells = line.trim_end_matches('|').split('|').map(|c| c.trim());
            let name = cells.next().unwrap_or_default().trim_matches('`');
            let Some((_, row)) = baseline.rows.iter().find(|r| r.0 == name) else {
                continue;
            };
            let doc: Vec<String> = cells.map(|c| c.replace(',', "")).collect();
            let committed: Vec<String> = row.iter().map(|c| c.1.to_string()).collect();
            assert_eq!(doc, committed, "EXPERIMENTS.md: row {name}");
            shown.push(name);
        }
        for (name, _) in &baseline.rows {
            assert!(
                shown.contains(&name.as_str()),
                "EXPERIMENTS.md shows no row {name}"
            );
        }
    }
}
