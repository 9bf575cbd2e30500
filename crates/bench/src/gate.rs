//! The regression gate: one table, one renderer, one baseline reader,
//! one checker and one command-line tail behind the `gate` binary's
//! `rekey` and `paper` subcommands (DESIGN.md §10, "The regression
//! gate").
//!
//! A subcommand is a [`Gate`]: the rows a full run produces, each with
//! its columns (each with a [`Rule`]) and its workload; and the
//! [`Ratio`]s between rows of one run. Counts the seeds fix are
//! `Exact`; absolute times are `Info`, and time is gated only as a
//! ratio of two rows measured in the same process, compared with the
//! same ratio in the baseline.

use std::fmt::Write as _;

/// How a column of a fresh run is judged against the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Fixed by the seeds: any difference, up or down, fails.
    Exact,
    /// Recorded, never compared (absolute times).
    Info,
}

/// A cell: the integer a count is, or a measured time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    Int(u64),
    Real(f64),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Real(x) => write!(f, "{x:.3}"),
        }
    }
}

/// How far `of / over` may go.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// Structural: the ratio stays below this on any host.
    Below(f64),
    /// Timing: at most this many percent above the same ratio in the
    /// baseline, when both ran on the same SHA-256 back end.
    Drift(u64),
}

/// `column` of row `of` divided by `column` of row `over`, both taken
/// from the same run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    pub column: &'static str,
    pub of: &'static str,
    pub over: &'static str,
    pub limit: Limit,
}

/// One repetition of one row: the wall time of its measured region
/// and its cells in the order of the row's [`Columns`].
pub struct Rep {
    pub secs: f64,
    pub values: Vec<Value>,
}

/// Measures one repetition of the row it is declared for, given the
/// row's name.
pub type Workload = fn(&str) -> Rep;

/// The columns a row carries, each with its rule.
pub type Columns = &'static [(&'static str, Rule)];

/// A declared row: its name, its columns and the workload that
/// measures it.
pub type Row = (&'static str, Columns, Workload);

/// One subcommand's declaration.
pub struct Gate {
    /// Subcommand name.
    pub name: &'static str,
    /// The committed baseline `--write` refreshes.
    pub baseline: &'static str,
    /// What the baseline calls its rows (`"workloads"`, `"rows"`).
    pub noun: &'static str,
    /// Every row a run produces.
    pub rows: &'static [Row],
    pub ratios: &'static [Ratio],
}

impl Gate {
    /// In-process repetitions per row: [`REPS`] when a row records a
    /// time, whose fastest repetition is the one reported; two when
    /// every cell is a count, which is all it takes to prove the counts
    /// deterministic.
    fn reps(&self) -> usize {
        let timed = self
            .rows
            .iter()
            .flat_map(|r| r.1)
            .any(|c| c.1 == Rule::Info);
        if timed {
            REPS
        } else {
            2
        }
    }
}

/// A run (fresh) or a baseline (read back): rows of named cells.
#[derive(Debug, Default, PartialEq)]
pub struct Table {
    /// `sha256::backend()` of the process that measured the rows.
    pub backend: String,
    pub rows: Vec<(String, Vec<(String, Value)>)>,
}

impl Table {
    fn row(&self, name: &str) -> Option<&[(String, Value)]> {
        let row = self.rows.iter().find(|r| r.0 == name)?;
        Some(&row.1)
    }

    fn ratio(&self, r: &Ratio) -> Option<f64> {
        let number = |row| match cell(self.row(row)?, r.column)? {
            Value::Int(n) => Some(n as f64),
            Value::Real(x) => Some(x),
        };
        Some(number(r.of)? / number(r.over)?)
    }
}

fn cell(cells: &[(String, Value)], column: &str) -> Option<Value> {
    Some(cells.iter().find(|c| c.0 == column)?.1)
}

/// In-process repetitions per row of a gate that records times.
pub const REPS: usize = 7;

/// Runs every row of `gate` [`Gate::reps`] times,
/// round-robin so that a slow stretch of a shared host falls on every
/// row alike, and keeps the fastest repetition of each — the estimator
/// `e2ebench` uses: the minimum is the run least disturbed.
///
/// # Errors
///
/// An `Exact` column that differs between two repetitions of one row:
/// the workload is not deterministic and nothing it reports can be
/// gated.
pub fn run(gate: &Gate) -> Result<Table, String> {
    let measure = |&(name, _, workload): &Row| workload(name);
    let mut best: Vec<Rep> = gate.rows.iter().map(measure).collect();
    for _ in 1..gate.reps() {
        for (row, best) in gate.rows.iter().zip(&mut best) {
            let rep = measure(row);
            let pairs = best.values.iter().zip(&rep.values);
            for (&(column, rule), (a, b)) in row.1.iter().zip(pairs) {
                if rule == Rule::Exact && a != b {
                    return Err(format!("{}: {column}: {a}, then {b}", row.0));
                }
            }
            if rep.secs < best.secs {
                *best = rep;
            }
        }
    }
    let backend = mykil_crypto::sha256::backend().to_string();
    let mut rows = Vec::new();
    for (&(name, columns, _), rep) in gate.rows.iter().zip(best) {
        assert_eq!(rep.values.len(), columns.len(), "{name}");
        let cells = columns.iter().zip(rep.values);
        let cells = cells.map(|(c, v)| (c.0.to_string(), v)).collect();
        rows.push((name.to_string(), cells));
    }
    Ok(Table { backend, rows })
}

/// The baseline file for `table`, one row per line.
pub fn render_json(gate: &Gate, table: &Table) -> String {
    let mut out = format!(
        "{{\n  \"schema\": 1,\n  \"description\": \"gate {0}: integer columns are compared \
         exactly, times only as ratios between rows; refresh with: cargo run --release \
         -p mykil-bench --bin gate -- {0} --write\",\n  \"sha256_backend\": \"{1}\",\n  \
         \"{2}\": {{\n",
        gate.name, table.backend, gate.noun
    );
    for (i, (name, cells)) in table.rows.iter().enumerate() {
        let cells: Vec<String> = cells.iter().map(|(c, v)| format!("\"{c}\": {v}")).collect();
        let comma = if i + 1 == table.rows.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{name}\": {{ {} }}{comma}", cells.join(", "));
    }
    out + "  }\n}\n"
}

/// A number as [`render_json`] writes it: an integer stays the integer
/// it is, anything with a fraction is a time.
fn json_num(token: &str) -> Result<Value, String> {
    let int = token.parse().map(Value::Int).ok();
    let real = token.parse().map(Value::Real).ok();
    int.or(real).ok_or(format!("not a number: `{token}`"))
}

/// Reads a baseline in the layout [`render_json`] writes: the back end
/// and each row on a line of their own. A line that is neither is
/// skipped, so a damaged row reads as a missing one — which fails.
///
/// # Errors
///
/// A row whose cells are not `"column": number`, or no back end.
pub fn read_json(text: &str) -> Result<Table, String> {
    let unquote = |s: &str| s.trim().trim_matches('"').to_string();
    let mut table = Table::default();
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let rest = rest.trim().trim_end_matches(',');
        if unquote(key) == "sha256_backend" {
            table.backend = unquote(rest);
        } else if let Some(body) = rest.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
            let mut cells = Vec::new();
            for cell in body.split(',') {
                let (column, number) = cell.split_once(':').ok_or(format!("no cell: `{cell}`"))?;
                cells.push((unquote(column), json_num(number.trim())?));
            }
            table.rows.push((unquote(key), cells));
        }
    }
    if table.backend.is_empty() {
        return Err("no sha256_backend recorded".into());
    }
    Ok(table)
}

/// A gated value out of bounds, or present on one side only.
#[derive(Debug, PartialEq)]
pub struct Regression {
    pub row: String,
    pub column: String,
    pub why: String,
}

/// What [`check`] found: `regressions` fail the gate, `notes` are
/// printed (a time ratio that could not be compared, and why).
#[derive(Debug, Default, PartialEq)]
pub struct Verdict {
    pub regressions: Vec<Regression>,
    pub notes: Vec<String>,
}

const ONE_SIDED: &str = "present in the run or in the baseline, not in both";

impl Verdict {
    fn fail(&mut self, row: &str, column: &str, why: impl Into<String>) {
        self.regressions.push(Regression {
            row: row.into(),
            column: column.into(),
            why: why.into(),
        });
    }

    /// Cell by cell.
    fn compare_cells(&mut self, gate: &Gate, fresh: &Table, baseline: &Table) {
        for (name, _) in &baseline.rows {
            if !gate.rows.iter().any(|r| r.0 == name) {
                self.fail(name, "*", ONE_SIDED);
            }
        }
        for &(name, columns, _) in gate.rows {
            let (Some(cells), Some(base_cells)) = (fresh.row(name), baseline.row(name)) else {
                self.fail(name, "*", ONE_SIDED);
                continue;
            };
            for (column, _) in base_cells {
                if !columns.iter().any(|c| c.0 == column) {
                    self.fail(name, column, ONE_SIDED);
                }
            }
            for &(column, rule) in columns {
                match (rule, cell(cells, column), cell(base_cells, column)) {
                    (Rule::Info, ..) => {}
                    (_, None, _) | (_, _, None) => self.fail(name, column, ONE_SIDED),
                    (Rule::Exact, Some(Value::Int(f)), Some(Value::Int(b))) if f == b => {}
                    (rule, Some(f), Some(b)) => {
                        let why = format!("baseline {b}, fresh {f}, rule {rule:?}");
                        self.fail(name, column, why);
                    }
                }
            }
        }
    }
}

/// Judges a fresh run under `gate`'s rules: cell by cell and ratio by
/// ratio against `baseline` when there is one, and against the
/// structural ratio limits always. A row or a gated column present on
/// one side and absent on the other is a regression.
pub fn check(gate: &Gate, fresh: &Table, baseline: Option<&Table>) -> Verdict {
    let mut v = Verdict::default();
    if let Some(baseline) = baseline {
        v.compare_cells(gate, fresh, baseline);
    }
    for r in gate.ratios {
        let pair = format!("{} / {}", r.of, r.over);
        // A table lacking a side fails as a missing row, above.
        let Some(ratio) = fresh.ratio(r) else {
            continue;
        };
        match (r.limit, baseline) {
            (Limit::Below(bound), _) if ratio < bound => {}
            (Limit::Below(bound), _) => {
                let why = format!("ratio {ratio:.3}, must stay below {bound}");
                v.fail(&pair, r.column, why);
            }
            (Limit::Drift(_), None) => {}
            (Limit::Drift(pct), Some(baseline)) => match baseline.ratio(r) {
                None => v.fail(&pair, r.column, ONE_SIDED),
                Some(_) if fresh.backend != baseline.backend => v.notes.push(format!(
                    "{pair}: {}: ratio {ratio:.3} not compared, baseline measured on sha256 \
                     back end {}",
                    r.column, baseline.backend
                )),
                Some(base) if ratio <= base * (1.0 + pct as f64 / 100.0) => {}
                Some(base) => {
                    let why = format!("ratio {ratio:.3}, baseline {base:.3}, over {pct}% above");
                    v.fail(&pair, r.column, why);
                }
            },
        }
    }
    v
}

/// The flags every subcommand takes.
#[derive(Debug, Default, PartialEq)]
pub struct Opts {
    pub write: bool,
    pub check: Option<String>,
    pub out: Option<String>,
}

/// Splits the command line into the subcommand and its flags.
///
/// # Errors
///
/// No or an unknown subcommand, an unknown flag, or a flag without its
/// value.
pub fn parse_args(
    gates: &[Gate],
    mut args: impl Iterator<Item = String>,
) -> Result<(&Gate, Opts), String> {
    let sub = args.next().ok_or("missing subcommand")?;
    let gate = gates.iter().find(|g| g.name == sub);
    let gate = gate.ok_or(format!("unknown subcommand: {sub}"))?;
    let mut o = Opts::default();
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--write" => o.write = true,
            "--check" => o.check = Some(value()?),
            "--out" => o.out = Some(value()?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok((gate, o))
}

/// The whole command: parse, run the subcommand's rows, print the table
/// as the JSON it would commit and the ratios, serve `--out`, `--write`
/// and `--check`. Returns the exit code: 0 pass, 1 regression.
///
/// # Errors
///
/// Exit code 2: bad usage, a file that cannot be written, a baseline
/// that cannot be read, or a run that is not deterministic.
pub fn command(gates: &[Gate], args: impl Iterator<Item = String>) -> Result<i32, String> {
    let (gate, opts) = parse_args(gates, args).map_err(|why| {
        let subs: Vec<&str> = gates.iter().map(|g| g.name).collect();
        let flags = "[--write] [--check <baseline>] [--out <path>]";
        format!("{why}\nusage: gate <{}> {flags}", subs.join("|"))
    })?;
    // Before the run: an unreadable baseline should not cost one.
    let read = |path: &String| {
        let table = std::fs::read_to_string(path).map_err(|e| e.to_string());
        let table = table.and_then(|text| read_json(&text));
        table.map_err(|e| format!("cannot read baseline {path}: {e}"))
    };
    let baseline = opts.check.as_ref().map(read).transpose()?;
    let table = run(gate).map_err(|drift| format!("not deterministic: {drift}"))?;
    let json = render_json(gate, &table);
    print!("{json}");
    for r in gate.ratios {
        if let Some(ratio) = table.ratio(r) {
            println!("{} / {} {}: {ratio:.3}", r.of, r.over, r.column);
        }
    }
    let targets = [opts.out.as_deref(), opts.write.then_some(gate.baseline)];
    for path in targets.into_iter().flatten() {
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    let verdict = check(gate, &table, baseline.as_ref());
    for note in &verdict.notes {
        println!("note: {note}");
    }
    if verdict.regressions.is_empty() {
        if baseline.is_some() {
            println!("gate {}: PASS", gate.name);
        }
        return Ok(0);
    }
    println!("gate {}: FAIL", gate.name);
    for r in &verdict.regressions {
        println!("  {}: {}: {}", r.row, r.column, r.why);
    }
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fixed(_: &str) -> Rep {
        unreachable!("the checker never runs a workload")
    }

    const DRIFT: Ratio = Ratio {
        column: "per_sec",
        of: "a",
        over: "b",
        limit: Limit::Drift(25),
    };
    const BELOW: Ratio = Ratio {
        column: "count",
        of: "b",
        over: "a",
        limit: Limit::Below(0.25),
    };
    const COLUMNS: Columns = &[
        ("count", Rule::Exact),
        ("heap", Rule::Info),
        ("per_sec", Rule::Info),
    ];
    const G: Gate = Gate {
        name: "t",
        baseline: "unused.json",
        noun: "rows",
        rows: &[("a", COLUMNS, fixed), ("b", COLUMNS, fixed)],
        ratios: &[DRIFT, BELOW],
    };

    fn row(name: &str, count: u64, heap: u64, per_sec: f64) -> (String, Vec<(String, Value)>) {
        let cells = [
            ("count", Value::Int(count)),
            ("heap", Value::Int(heap)),
            ("per_sec", Value::Real(per_sec)),
        ];
        let cells = cells.into_iter().map(|(c, v)| (c.to_string(), v));
        (name.to_string(), cells.collect())
    }

    /// `a` runs 1.5 times as fast as `b` and counts ten times as much.
    fn table() -> Table {
        Table {
            backend: "portable".into(),
            rows: vec![row("a", 1000, 200, 3000.0), row("b", 100, 200, 2000.0)],
        }
    }

    fn failed(v: &Verdict) -> Vec<(&str, &str)> {
        let named = v.regressions.iter();
        named.map(|r| (r.row.as_str(), r.column.as_str())).collect()
    }

    #[test]
    fn render_then_read_is_the_same_table() {
        let t = table();
        let json = render_json(&G, &t);
        assert!(json.contains("\"rows\": {") && json.contains("\"count\": 1000, "));
        assert_eq!(read_json(&json), Ok(t));
    }

    #[test]
    fn reader_rejects_what_is_not_a_baseline() {
        let json = render_json(&G, &table());
        assert!(read_json(&json.replace("sha256_backend", "calibration")).is_err());
        assert!(read_json(&json.replace("1000,", "1000 apples,")).is_err());
        assert!(read_json(&json.replace("\"heap\": 200", "\"heap\" 200")).is_err());
    }

    #[test]
    fn a_run_equal_to_its_baseline_passes() {
        assert_eq!(
            check(&G, &table(), Some(&table())),
            Verdict::default()
        );
    }

    #[test]
    fn exact_fails_one_above_and_one_below() {
        for count in [999, 1001] {
            let mut fresh = table();
            fresh.rows[0] = row("a", count, 200, 3000.0);
            let v = check(&G, &fresh, Some(&table()));
            assert_eq!(failed(&v), [("a", "count")]);
            assert!(v.regressions[0]
                .why
                .contains(&format!("baseline 1000, fresh {count}")));
        }
    }

    #[test]
    fn info_never_fails_alone() {
        // Both rows ten times slower: no absolute time is compared.
        let mut fresh = table();
        fresh.rows = vec![row("a", 1000, 200, 300.0), row("b", 100, 200, 200.0)];
        assert_eq!(check(&G, &fresh, Some(&table())), Verdict::default());
        // And an Info column the baseline lacks is not a gated one.
        let mut base = table();
        base.rows[1].1.pop();
        base.rows[0].1.pop();
        let info_only = Gate { ratios: &[], ..G };
        assert_eq!(
            check(&info_only, &table(), Some(&base)),
            Verdict::default()
        );
    }

    #[test]
    fn ratio_above_its_bound_fails_and_another_back_end_downgrades_it() {
        // Baseline ratio 1.5, bound 1.875: 1.87 passes, 1.88 does not.
        let mut fresh = table();
        fresh.rows[0] = row("a", 1000, 200, 3740.0);
        assert_eq!(check(&G, &fresh, Some(&table())), Verdict::default());
        fresh.rows[0] = row("a", 1000, 200, 3760.0);
        let v = check(&G, &fresh, Some(&table()));
        assert_eq!(failed(&v), [("a / b", "per_sec")]);
        // Tightening the bound below the measured ratio: a faster `b`
        // in the baseline lowers the ratio the run is held to.
        let mut tight = table();
        tight.rows[1] = row("b", 100, 200, 2600.0);
        assert_eq!(
            failed(&check(&G, &table(), Some(&tight))),
            [("a / b", "per_sec")]
        );
        // Measured on another SHA-256 back end, the same excess is a note.
        fresh.backend = "x86-sha-ext".into();
        let v = check(&G, &fresh, Some(&table()));
        assert!(v.regressions.is_empty());
        assert!(v.notes[0].contains("a / b") && v.notes[0].contains("portable"));
    }

    #[test]
    fn structural_ratio_holds_without_a_baseline_and_on_any_back_end() {
        let mut fresh = table();
        fresh.rows[1] = row("b", 250, 200, 2000.0);
        assert_eq!(
            failed(&check(&G, &fresh, None)),
            [("b / a", "count")]
        );
        fresh.backend = "x86-sha-ext".into();
        let v = check(&G, &fresh, Some(&table()));
        assert_eq!(failed(&v), [("b", "count"), ("b / a", "count")]);
        assert_eq!(check(&G, &table(), None), Verdict::default());
    }

    #[test]
    fn a_row_on_one_side_only_fails_in_both_directions() {
        let mut short = table();
        short.rows.pop();
        // In the baseline, not produced by the run.
        assert_eq!(
            failed(&check(&G, &short, Some(&table()))),
            [("b", "*")]
        );
        // Produced by the run, not in the baseline: the row, and the
        // ratio that needs it.
        let v = check(&G, &table(), Some(&short));
        assert_eq!(failed(&v), [("b", "*"), ("a / b", "per_sec")]);
        // A baseline row the gate does not declare.
        let mut extra = table();
        extra.rows.push(row("c", 1, 1, 1.0));
        assert_eq!(
            failed(&check(&G, &table(), Some(&extra))),
            [("c", "*")]
        );
    }

    #[test]
    fn a_gated_column_on_one_side_only_fails_in_both_directions() {
        let mut short = table();
        short.rows[0].1.remove(0);
        // In the baseline, not produced by the run; then the reverse.
        assert_eq!(
            failed(&check(&G, &short, Some(&table()))),
            [("a", "count")]
        );
        assert_eq!(
            failed(&check(&G, &table(), Some(&short))),
            [("a", "count")]
        );
        // A baseline column the gate does not declare.
        let mut extra = table();
        extra.rows[0]
            .1
            .push(("allocs_per_op".into(), Value::Real(7.001)));
        let v = check(&G, &table(), Some(&extra));
        assert_eq!(failed(&v), [("a", "allocs_per_op")]);
        // A time column a ratio needs.
        let mut untimed = table();
        untimed.rows[1].1.pop();
        let v = check(&G, &table(), Some(&untimed));
        assert_eq!(failed(&v), [("a / b", "per_sec")]);
    }

    static CALLS: AtomicU64 = AtomicU64::new(0);

    fn rep(secs: f64, count: u64, heap: u64) -> Rep {
        let values = vec![Value::Int(count), Value::Int(heap), Value::Real(1.0 / secs)];
        Rep { secs, values }
    }

    #[test]
    fn run_keeps_the_fastest_repetition_and_rejects_a_drifting_count() {
        // Repetition k of REPS takes |k - 3| + 1 seconds: the fourth is
        // the fastest, and its ungated cells are the ones kept.
        fn steady(_: &str) -> Rep {
            let k = CALLS.fetch_add(1, Ordering::Relaxed);
            rep(k.abs_diff(3) as f64 + 1.0, 7, 100 + k)
        }
        // The fifth repetition counts one more.
        fn drifting(name: &str) -> Rep {
            static CALLS: AtomicU64 = AtomicU64::new(0);
            assert_eq!(name, "a");
            rep(1.0, 7 + CALLS.fetch_add(1, Ordering::Relaxed) / 4, 100)
        }
        let gate = Gate {
            rows: &[("a", COLUMNS, steady)],
            ..G
        };
        let table = run(&gate).expect("deterministic");
        assert_eq!(CALLS.load(Ordering::Relaxed), REPS as u64);
        assert_eq!(table.rows, [row("a", 7, 103, 1.0)]);
        assert_eq!(table.backend, mykil_crypto::sha256::backend());

        let gate = Gate {
            rows: &[("a", COLUMNS, drifting)],
            ..G
        };
        let drift = run(&gate).expect_err("count moved");
        assert_eq!(drift, "a: count: 7, then 8");
    }

    #[test]
    fn rows_carry_their_own_columns_and_counts_run_twice() {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        fn count(name: &str) -> Rep {
            CALLS.fetch_add(1, Ordering::Relaxed);
            let values = if name == "wide" {
                vec![1, 2, 3]
            } else {
                vec![4]
            };
            let values = values.into_iter().map(Value::Int).collect();
            Rep { secs: 0.0, values }
        }
        const WIDE: Columns = &[("x", Rule::Exact), ("y", Rule::Exact), ("z", Rule::Exact)];
        let gate = Gate {
            rows: &[
                ("wide", WIDE, count),
                ("narrow", &[("w", Rule::Exact)], count),
            ],
            ratios: &[],
            ..G
        };
        assert_eq!((G.reps(), gate.reps()), (REPS, 2));
        let table = run(&gate).expect("deterministic");
        assert_eq!(CALLS.load(Ordering::Relaxed), 4);
        let names =
            |cells: &[(String, Value)]| cells.iter().map(|c| c.0.clone()).collect::<Vec<_>>();
        assert_eq!(names(&table.rows[0].1), ["x", "y", "z"]);
        assert_eq!(table.rows[1].1, [("w".to_string(), Value::Int(4))]);
        assert_eq!(
            check(&gate, &table, Some(&table)),
            Verdict::default()
        );
        // A column of one row in another row of the baseline.
        let mut base = read_json(&render_json(&gate, &table)).expect("reads back");
        base.rows[1].1.push(("x".into(), Value::Int(1)));
        assert_eq!(
            failed(&check(&gate, &table, Some(&base))),
            [("narrow", "x")]
        );
    }

    #[test]
    fn command_line_is_three_flags_and_a_subcommand() {
        let parse = |line: &str| parse_args(&[G], line.split_whitespace().map(String::from));
        let (gate, opts) = parse("t --check b.json --out o.json").expect("valid");
        assert_eq!(gate.name, "t");
        let expected = Opts {
            write: false,
            check: Some("b.json".into()),
            out: Some("o.json".into()),
        };
        assert_eq!(opts, expected);
        assert!(parse("t --write").expect("valid").1.write);
        for bad in ["", "u", "t --mobility", "t --check", "t --smoke", "t --dump-dir d"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
