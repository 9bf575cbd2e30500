//! The regression gate CI runs (DESIGN.md §10, "The regression gate").
//!
//! ```text
//! gate rekey                   # rekey hot path, both tree backends, wire, RSA
//! gate scale                   # flash-crowd join + mass leave, 100k and 1M
//! gate mobility                # mobility storms under a chaos fault plan
//!      --smoke                 #   first scenario only (bounded CI wall time)
//!      --write                 #   (re)write the subcommand's BENCH_*.json
//!      --check <path>          #   fail (exit 1) on regression against it
//!      --out <path>            #   also dump the fresh JSON (CI artifact)
//!      --dump-dir <dir>        #   on failure, leave the fault plan and the
//!                              #   per-area ledger dump there
//! ```
//!
//! Every row is measured [`gate::REPS`] times in this process; a count
//! that differs between two repetitions exits 2. The rules, the reader
//! and the checker are [`mykil_bench::gate`]; this binary holds the
//! workloads and their row declarations.

#![forbid(unsafe_code)]

mod rekey;
mod scale;

use mykil_bench::alloc_track::CountingAllocator;
use mykil_bench::gate;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let gates = [rekey::GATE, scale::SCALE, scale::MOBILITY];
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

    /// The three committed baselines read back under the rules of the
    /// subcommand that writes them: every declared row is there with
    /// every `Exact` column, and each file passes against itself.
    #[test]
    fn committed_baselines_carry_every_declared_row_and_exact_column() {
        for gate in [rekey::GATE, scale::SCALE, scale::MOBILITY] {
            let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), gate.baseline);
            let text = std::fs::read_to_string(&path).expect(&path);
            let table = read_json(&text).expect(&path);
            for (row, _) in gate.rows {
                let cells = table.rows.iter().find(|r| r.0 == *row);
                let cells = &cells.unwrap_or_else(|| panic!("{path}: no row {row}")).1;
                for (column, rule) in gate.columns {
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
                check(&gate, false, &table, Some(&table)),
                Verdict::default(),
                "{path}"
            );
        }
    }
}
