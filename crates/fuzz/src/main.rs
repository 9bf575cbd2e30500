//! `mykil-fuzz` — deterministic structure-aware fuzzing of Mykil's
//! byte-level decoders.
//!
//! ```text
//! mykil-fuzz list
//! mykil-fuzz gen-corpus [--corpus DIR]
//! mykil-fuzz repro <target> <file>
//! mykil-fuzz run [<target>] [--seed N] [--iters N] [--budget-secs N]
//!                [--corpus DIR] [--crashes DIR] [--hang-secs N]
//! ```
//!
//! `run` fuzzes one target (or all five) from the committed seed
//! corpus plus the built-in generators. The input stream is a pure
//! function of `--seed`, so any crash reproduces from the artifact the
//! harness drops — or from the same seed and iteration budget alone.
//! Exit codes: 0 clean, 1 crash(es) found, 2 usage error, 3 hang.

#![forbid(unsafe_code)]

mod engine;
mod targets;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use engine::Mutator;
use targets::Target;

struct RunOptions {
    seed: u64,
    iters: u64,
    budget_secs: u64,
    hang_secs: u64,
    corpus_dir: PathBuf,
    crash_dir: PathBuf,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            seed: 1,
            iters: 20_000,
            budget_secs: 0, // 0 = iteration-bound only
            hang_secs: 30,
            corpus_dir: PathBuf::from("tests/corpus"),
            crash_dir: PathBuf::from("fuzz-crashes"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("run");
    match cmd {
        "list" => {
            for t in targets::all() {
                println!("{}", t.name);
            }
            ExitCode::SUCCESS
        }
        "gen-corpus" => match parse_run_options(&args[1..]) {
            Ok((opts, None)) => gen_corpus(&opts.corpus_dir),
            Ok((_, Some(t))) => usage(&format!("gen-corpus takes no target (got `{t}`)")),
            Err(e) => usage(&e),
        },
        "repro" => {
            let (Some(name), Some(file)) = (args.get(1), args.get(2)) else {
                return usage("repro needs <target> <file>");
            };
            repro(name, Path::new(file))
        }
        "run" => match parse_run_options(&args[1..]) {
            Ok((opts, only)) => run(&opts, only.as_deref()),
            Err(e) => usage(&e),
        },
        other => usage(&format!("unknown command `{other}`")),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: mykil-fuzz [list | gen-corpus [--corpus DIR] | repro <target> <file> |\n\
         \x20       run [<target>] [--seed N] [--iters N] [--budget-secs N]\n\
         \x20           [--corpus DIR] [--crashes DIR] [--hang-secs N]]"
    );
    ExitCode::from(2)
}

fn parse_run_options(args: &[String]) -> Result<(RunOptions, Option<String>), String> {
    let mut opts = RunOptions::default();
    let mut only = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--seed" => opts.seed = num(&val("--seed")?)?,
            "--iters" => opts.iters = num(&val("--iters")?)?,
            "--budget-secs" => opts.budget_secs = num(&val("--budget-secs")?)?,
            "--hang-secs" => opts.hang_secs = num(&val("--hang-secs")?)?.max(1),
            "--corpus" => opts.corpus_dir = PathBuf::from(val("--corpus")?),
            "--crashes" => opts.crash_dir = PathBuf::from(val("--crashes")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            name => {
                if only.replace(name.to_string()).is_some() {
                    return Err("at most one target name".to_string());
                }
            }
        }
    }
    Ok((opts, only))
}

fn num(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("bad number `{s}`"))
}

/// Writes every target's built-in seeds (including regression
/// fixtures) under `<dir>/<target>/`. Idempotent: names are stable.
fn gen_corpus(dir: &Path) -> ExitCode {
    for t in targets::all() {
        let tdir = dir.join(t.name);
        if let Err(e) = std::fs::create_dir_all(&tdir) {
            eprintln!("error: create {}: {e}", tdir.display());
            return ExitCode::from(2);
        }
        for (name, bytes) in (t.seeds)() {
            let path = tdir.join(name);
            if let Err(e) = std::fs::write(&path, &bytes) {
                eprintln!("error: write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("wrote {} ({} bytes)", path.display(), bytes.len());
        }
    }
    ExitCode::SUCCESS
}

/// Replays one input file against one target, with panics surfaced
/// normally (no catch) so a debugger or backtrace points at the bug.
fn repro(name: &str, file: &Path) -> ExitCode {
    let Some(t) = targets::find(name) else {
        return usage(&format!("unknown target `{name}`"));
    };
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: read {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    println!("repro: {} <- {} ({} bytes)", t.name, file.display(), bytes.len());
    (t.run)(&bytes);
    println!("input ran clean");
    ExitCode::SUCCESS
}

/// Loads the on-disk corpus for a target (sorted for determinism) and
/// merges in the built-in seeds so the harness is self-sufficient even
/// before `gen-corpus` has run.
fn load_corpus(dir: &Path, t: &Target) -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = (t.seeds)().into_iter().map(|(_, b)| b).collect();
    let tdir = dir.join(t.name);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&tdir)
        .map(|rd| rd.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default();
    paths.sort();
    for p in paths {
        if let Ok(bytes) = std::fs::read(&p) {
            if !corpus.contains(&bytes) {
                corpus.push(bytes);
            }
        }
    }
    corpus
}

fn run(opts: &RunOptions, only: Option<&str>) -> ExitCode {
    let chosen: Vec<Target> = match only {
        Some(name) => match targets::find(name) {
            Some(t) => vec![t],
            None => return usage(&format!("unknown target `{name}`")),
        },
        None => targets::all(),
    };

    engine::install_panic_hook();

    // Watchdog: decoders must never loop on arbitrary bytes, and a
    // silent infinite loop would otherwise just eat the CI budget. A
    // side thread watches the iteration counter; if it stalls for
    // --hang-secs the current input is dumped and the process exits 3.
    let progress = Arc::new(AtomicU64::new(0));
    let current: Arc<Mutex<(String, Vec<u8>)>> =
        Arc::new(Mutex::new((String::new(), Vec::new())));
    {
        let progress = Arc::clone(&progress);
        let current = Arc::clone(&current);
        let crash_dir = opts.crash_dir.clone();
        let hang_secs = opts.hang_secs;
        std::thread::spawn(move || {
            let mut last = (0u64, Instant::now());
            loop {
                std::thread::sleep(Duration::from_millis(500));
                let now = progress.load(Ordering::Relaxed);
                if now != last.0 {
                    last = (now, Instant::now());
                } else if last.1.elapsed() >= Duration::from_secs(hang_secs) {
                    let (target, input) = current
                        .lock()
                        .map(|g| g.clone())
                        .unwrap_or_default();
                    let path = save_artifact(&crash_dir, &target, "hang", &input);
                    eprintln!(
                        "HANG: target `{target}` made no progress for {hang_secs}s; \
                         input saved to {path}"
                    );
                    eprintln!("repro: mykil-fuzz repro {target} {path}");
                    std::process::exit(3);
                }
            }
        });
    }

    let mut total_crashes = 0usize;
    for t in &chosen {
        total_crashes += fuzz_target(t, opts, &progress, &current);
    }
    if total_crashes > 0 {
        eprintln!("{total_crashes} crashing input(s) found");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn fuzz_target(
    t: &Target,
    opts: &RunOptions,
    progress: &AtomicU64,
    current: &Mutex<(String, Vec<u8>)>,
) -> usize {
    let corpus = load_corpus(&opts.corpus_dir, t);
    let mut mutator = Mutator::new(opts.seed);
    let started = Instant::now();
    let mut crashes = 0usize;
    let mut seen_messages: Vec<String> = Vec::new();
    let mut executed = 0u64;

    // The corpus itself runs first: committed regression fixtures are
    // part of every budget, mutated or not.
    let mut queue: Vec<Vec<u8>> = corpus.clone();

    for i in 0..opts.iters {
        if opts.budget_secs > 0 && started.elapsed() >= Duration::from_secs(opts.budget_secs) {
            break;
        }
        let input = match queue.pop() {
            Some(seed_input) => seed_input,
            None => {
                let mut buf = mutator.pick(&corpus).to_vec();
                mutator.mutate(&mut buf, &corpus);
                buf
            }
        };
        if let Ok(mut guard) = current.lock() {
            *guard = (t.name.to_string(), input.clone());
        }
        let result = engine::run_caught(t.run, &input);
        executed += 1;
        progress.fetch_add(1, Ordering::Relaxed);
        if let Err(msg) = result {
            // Deduplicate by panic message so one bug doesn't flood the
            // artifact dir across thousands of mutants.
            if !seen_messages.contains(&msg) {
                seen_messages.push(msg.clone());
                crashes += 1;
                let path = save_artifact(&opts.crash_dir, t.name, "crash", &input);
                eprintln!("CRASH [{}] iter {i}: {msg}", t.name);
                eprintln!("  input saved to {path}");
                eprintln!("  repro: mykil-fuzz repro {} {path}", t.name);
            }
        }
    }
    println!(
        "{}: {executed} inputs in {:.1}s, {crashes} unique crash(es), corpus {}",
        t.name,
        started.elapsed().as_secs_f64(),
        corpus.len()
    );
    crashes
}

/// Saves a crashing/hanging input; the name is content-addressed via
/// the WAL CRC so identical inputs dedupe across runs.
fn save_artifact(dir: &Path, target: &str, kind: &str, input: &[u8]) -> String {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!(
        "{target}-{kind}-{:08x}.bin",
        mykil_net::crc32(input)
    ));
    let _ = std::fs::write(&path, input);
    path.display().to_string()
}
