//! Rekey hot-path performance gate.
//!
//! Runs the rekey-critical workloads — single-leave rekey, batched
//! mixed join/leave, and a 5000-member controller-storage build, each
//! on *both* tree backends (explicit keys and the keyed-hash forest),
//! plus wire encode/decode and the RSA private/public operations every
//! handshake step and key update pays (`rsa768_private`,
//! `rsa768_public`, `rsa2048_private`: fixed seeded key, fixed block) —
//! under a counting allocator and reports
//! ops/sec, bytes/op, allocations/op and resident key bytes as
//! machine-readable JSON (`BENCH_rekey.json` at the repo root). Either
//! backend regressing past the tolerance fails the gate, and the KHF
//! backend's resident key bytes must stay sublinear (< 1/4) relative
//! to the explicit backend's O(n) at the 5000-member scale.
//!
//! ```text
//! perfgate                  # run and print
//! perfgate --write          # run and (re)write BENCH_rekey.json
//! perfgate --check <path>   # run and fail (exit 1) on regression
//!          --tolerance 15   #   deterministic-metric band, percent
//!          --out <path>     #   also dump the fresh JSON (CI artifact)
//! ```
//!
//! Gate semantics (see DESIGN.md §10): allocations/op and bytes/op are
//! deterministic for the fixed seeds used here and are gated at the
//! given tolerance; ops/sec is first normalized by the integer
//! calibration loop of [`mykil_bench::calibrate`] (absorbing host-speed
//! differences between the committing machine and CI runners; it calls
//! none of the code the rows measure) and gated at twice the tolerance.

use mykil::rekey::write_entries_from_plan;
use mykil::wire::{Reader, Writer};
use mykil_bench::alloc_track::{alloc_count, CountingAllocator};
use mykil_bench::{calibrate, CALIBRATION_FIELD};
use mykil_crypto::drbg::Drbg;
use mykil_crypto::rsa::RsaKeyPair;
use mykil_tree::{KeyTree, MemberId, TreeBackend, TreeConfig};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One workload's measurements.
struct Sample {
    name: &'static str,
    ops: u64,
    ops_per_sec: f64,
    bytes_per_op: f64,
    allocs_per_op: f64,
    /// Key material resident in the controller's tree after the run
    /// (the storage axis the KHF backend trades compute for).
    resident_key_bytes: f64,
}

/// Single-member leave rekey, the paper's Figure 5 path: tree mutation,
/// envelope sealing and wire encoding of the key-update body. The
/// vacated slot is re-joined outside the measured region to keep the
/// population stable.
fn rekey_single_leave(name: &'static str, backend: TreeBackend) -> Sample {
    let mut rng = Drbg::from_seed(0xBE9C_0001);
    let mut tree = KeyTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
    const N: u64 = 1024;
    const OPS: u64 = 2000;
    for m in 0..N {
        // mykil-lint: allow(L001) -- bench setup with fresh ids
        tree.join(MemberId(m), &mut rng).expect("fresh id");
    }
    let mut elapsed = std::time::Duration::ZERO;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    // Frame buffer reused across rekeys, as the production flush path
    // reuses its scratch: steady-state encodes allocate nothing.
    let mut scratch: Vec<u8> = Vec::new();
    for i in 0..OPS {
        let victim = MemberId(i % N);
        let t0 = Instant::now();
        let a0 = alloc_count();
        // mykil-lint: allow(L001) -- victim resident by construction
        let plan = tree.leave(victim, &mut rng).expect("resident member");
        let mut w = Writer::into_reused(std::mem::take(&mut scratch));
        write_entries_from_plan(&plan, &mut rng, &mut w);
        allocs += alloc_count() - a0;
        elapsed += t0.elapsed();
        bytes += w.len() as u64;
        scratch = w.into_bytes();
        // Restore population (unmeasured).
        // mykil-lint: allow(L001) -- id vacated two lines above
        tree.join(victim, &mut rng).expect("slot just vacated");
    }
    Sample {
        name,
        ops: OPS,
        ops_per_sec: OPS as f64 / elapsed.as_secs_f64(),
        bytes_per_op: bytes as f64 / OPS as f64,
        allocs_per_op: allocs as f64 / OPS as f64,
        resident_key_bytes: tree.resident_key_bytes() as f64,
    }
}

/// Batched mixed join/leave (Section III-E aggregation): eight leavers
/// and eight joiners per flush, one combined plan, sealed and encoded.
fn rekey_batch_mixed(name: &'static str, backend: TreeBackend) -> Sample {
    let mut rng = Drbg::from_seed(0xBE9C_0002);
    let mut tree = KeyTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
    const N: u64 = 4096;
    const OPS: u64 = 250;
    const CHURN: u64 = 8;
    for m in 0..N {
        // mykil-lint: allow(L001) -- bench setup with fresh ids
        tree.join(MemberId(m), &mut rng).expect("fresh id");
    }
    let mut next_id = N;
    let mut oldest = 0u64;
    let mut elapsed = std::time::Duration::ZERO;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    let mut scratch: Vec<u8> = Vec::new();
    for _ in 0..OPS {
        let joins: Vec<MemberId> = (0..CHURN).map(|k| MemberId(next_id + k)).collect();
        let leaves: Vec<MemberId> = (0..CHURN).map(|k| MemberId(oldest + k)).collect();
        next_id += CHURN;
        oldest += CHURN;
        let t0 = Instant::now();
        let a0 = alloc_count();
        // mykil-lint: allow(L001) -- ids validated by construction
        let out = tree.batch(&joins, &leaves, &mut rng).expect("valid batch");
        let mut w = Writer::into_reused(std::mem::take(&mut scratch));
        write_entries_from_plan(&out.plan, &mut rng, &mut w);
        allocs += alloc_count() - a0;
        elapsed += t0.elapsed();
        bytes += w.len() as u64;
        scratch = w.into_bytes();
    }
    Sample {
        name,
        ops: OPS,
        ops_per_sec: OPS as f64 / elapsed.as_secs_f64(),
        bytes_per_op: bytes as f64 / OPS as f64,
        allocs_per_op: allocs as f64 / OPS as f64,
        resident_key_bytes: tree.resident_key_bytes() as f64,
    }
}

/// Controller storage at scale: build a 5000-member area, then one
/// mixed 64-leave/64-join batch (so the KHF override table reflects
/// realistic leave churn). The headline metric is `resident_key_bytes`
/// — O(n) for the explicit store, O(overrides) for the forest.
fn resident_keys_5000(name: &'static str, backend: TreeBackend) -> Sample {
    let mut rng = Drbg::from_seed(0xBE9C_0003);
    let mut tree = KeyTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
    const N: u64 = 5000;
    const CHURN: u64 = 64;
    let t0 = Instant::now();
    let a0 = alloc_count();
    for m in 0..N {
        // mykil-lint: allow(L001) -- bench setup with fresh ids
        tree.join(MemberId(m), &mut rng).expect("fresh id");
    }
    let joins: Vec<MemberId> = (N..N + CHURN).map(MemberId).collect();
    let leaves: Vec<MemberId> = (0..CHURN).map(MemberId).collect();
    // mykil-lint: allow(L001) -- ids validated by construction
    let out = tree.batch(&joins, &leaves, &mut rng).expect("valid batch");
    let allocs = alloc_count() - a0;
    let elapsed = t0.elapsed();
    let ops = N + 1;
    Sample {
        name,
        ops,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
        bytes_per_op: out.plan.multicast_bytes() as f64,
        allocs_per_op: allocs as f64 / ops as f64,
        resident_key_bytes: tree.resident_key_bytes() as f64,
    }
}

/// Wire codec round trip: a key-update-shaped frame (header plus 16
/// length-prefixed envelope fields) encoded then fully decoded.
fn wire_encode_decode() -> Sample {
    const OPS: u64 = 20_000;
    const ENTRIES: usize = 16;
    let env = [0xA5u8; 44]; // sealed 16-byte key + envelope overhead
    let mut elapsed = std::time::Duration::ZERO;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    let mut checksum = 0u64;
    for i in 0..OPS {
        let t0 = Instant::now();
        let a0 = alloc_count();
        let mut w = Writer::new();
        w.u8(30).u32(7).u64(i);
        w.u32(ENTRIES as u32);
        for e in 0..ENTRIES {
            w.u32(e as u32).u8(1).u32((e * 2) as u32);
            w.bytes(&env);
        }
        let frame = w.into_bytes();
        let mut r = Reader::new(&frame);
        let mut acc = 0u64;
        acc += u64::from(r.u8().unwrap_or(0));
        acc += u64::from(r.u32().unwrap_or(0));
        acc += r.u64().unwrap_or(0);
        let n = r.u32().unwrap_or(0);
        for _ in 0..n {
            acc += u64::from(r.u32().unwrap_or(0));
            acc += u64::from(r.u8().unwrap_or(0));
            acc += u64::from(r.u32().unwrap_or(0));
            acc += r.bytes().map(|b| b.len() as u64).unwrap_or(0);
        }
        allocs += alloc_count() - a0;
        elapsed += t0.elapsed();
        bytes += frame.len() as u64;
        checksum = checksum.wrapping_add(acc);
    }
    // Keep the decode loop observable.
    assert!(checksum > 0);
    Sample {
        name: "wire_encode_decode",
        ops: OPS,
        ops_per_sec: OPS as f64 / elapsed.as_secs_f64(),
        bytes_per_op: bytes as f64 / OPS as f64,
        allocs_per_op: allocs as f64 / OPS as f64,
        resident_key_bytes: 0.0,
    }
}

/// The crypto floor under every handshake step: one RSA signature
/// (`private`) or one verification of it over a fixed 64-byte block,
/// with a key generated from a fixed seed. The gated column is
/// `allocs_per_op` — exact under the counting allocator, and what
/// scratch reuse in the Montgomery arithmetic keeps flat (it was two
/// allocations per modular product, 2,285 per 768-bit signature);
/// `ops_per_sec` records the trajectory and `bytes_per_op` is the
/// signature length.
fn rsa_op(name: &'static str, bits: usize, private: bool, ops: u64) -> Sample {
    let mut rng = Drbg::from_seed(0xBE9C_0004);
    // mykil-lint: allow(L001) -- bench setup, fixed valid size
    let pair = RsaKeyPair::generate(bits, &mut rng).expect("keygen");
    let block = [0x5Au8; 64];
    let sig = pair.sign(&block);
    // Five equal batches, the fastest one reported: a shared host slows
    // down for a second at a time, and a signature's work is fixed.
    const BATCHES: u64 = 5;
    let mut verified = 0u64;
    let mut fastest = std::time::Duration::MAX;
    let a0 = alloc_count();
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..ops / BATCHES {
            if private {
                verified += u64::from(pair.sign(&block) == sig);
            } else {
                verified += u64::from(pair.public().verify(&block, &sig));
            }
        }
        fastest = fastest.min(t0.elapsed());
    }
    let allocs = alloc_count() - a0;
    assert_eq!(
        verified, ops,
        "{name}: signatures must be deterministic and verify"
    );
    Sample {
        name,
        ops,
        ops_per_sec: (ops / BATCHES) as f64 / fastest.as_secs_f64(),
        bytes_per_op: sig.len() as f64,
        allocs_per_op: allocs as f64 / ops as f64,
        resident_key_bytes: 0.0,
    }
}

fn render_json(samples: &[Sample], calibration: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n");
    out.push_str("  \"description\": \"rekey hot-path perf gate; refresh with: cargo run --release -p mykil-bench --bin perfgate -- --write\",\n");
    out.push_str(&format!(
        "  \"{CALIBRATION_FIELD}\": {calibration:.1},\n"
    ));
    out.push_str("  \"workloads\": {\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{ \"ops\": {}, \"ops_per_sec\": {:.1}, \"bytes_per_op\": {:.2}, \"allocs_per_op\": {:.3}, \"resident_key_bytes\": {:.0} }}{}\n",
            s.name,
            s.ops,
            s.ops_per_sec,
            s.bytes_per_op,
            s.allocs_per_op,
            s.resident_key_bytes,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Extracts `"key": <number>` from `text` scoped to the object that
/// follows `"scope"` (a flat scan is enough for the format we emit).
fn json_num(text: &str, scope: &str, key: &str) -> Option<f64> {
    let start = match scope.is_empty() {
        true => 0,
        false => text.find(&format!("\"{scope}\""))?,
    };
    let scoped = &text[start..];
    let end = scoped.find('}').unwrap_or(scoped.len());
    let scoped = &scoped[..end];
    let kpos = scoped.find(&format!("\"{key}\""))?;
    let after = &scoped[kpos..];
    let colon = after.find(':')?;
    let rest = after[colon + 1..].trim_start();
    let numlen = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    rest[..numlen].parse().ok()
}

struct Regression {
    what: String,
    base: f64,
    fresh: f64,
    limit_pct: f64,
}

/// Compares fresh samples against a committed baseline. Returns the
/// list of out-of-band metrics.
fn check(baseline: &str, samples: &[Sample], calibration: f64, tol_pct: f64) -> Vec<Regression> {
    let mut bad = Vec::new();
    let base_calib = json_num(baseline, "", CALIBRATION_FIELD).unwrap_or(calibration);
    for s in samples {
        let Some(base_allocs) = json_num(baseline, s.name, "allocs_per_op") else {
            bad.push(Regression {
                what: format!("{}: missing from baseline", s.name),
                base: 0.0,
                fresh: 0.0,
                limit_pct: 0.0,
            });
            continue;
        };
        let base_bytes = json_num(baseline, s.name, "bytes_per_op").unwrap_or(0.0);
        let base_ops = json_num(baseline, s.name, "ops_per_sec").unwrap_or(0.0);

        // Deterministic metrics: hard band at the tolerance (plus a
        // small absolute slack so near-zero counts cannot flake).
        if s.allocs_per_op > base_allocs * (1.0 + tol_pct / 100.0) + 0.5 {
            bad.push(Regression {
                what: format!("{}: allocs_per_op", s.name),
                base: base_allocs,
                fresh: s.allocs_per_op,
                limit_pct: tol_pct,
            });
        }
        if s.bytes_per_op > base_bytes * (1.0 + tol_pct / 100.0) + 4.0 {
            bad.push(Regression {
                what: format!("{}: bytes_per_op", s.name),
                base: base_bytes,
                fresh: s.bytes_per_op,
                limit_pct: tol_pct,
            });
        }
        // Resident key bytes are deterministic too (a new tree built
        // from fixed seeds); absent from older baselines -> skip.
        if let Some(base_resident) = json_num(baseline, s.name, "resident_key_bytes") {
            if s.resident_key_bytes > base_resident * (1.0 + tol_pct / 100.0) + 16.0 {
                bad.push(Regression {
                    what: format!("{}: resident_key_bytes", s.name),
                    base: base_resident,
                    fresh: s.resident_key_bytes,
                    limit_pct: tol_pct,
                });
            }
        }

        // Throughput: normalize by the calibration ratio, then allow a
        // doubled band for residual host noise.
        if base_ops > 0.0 && base_calib > 0.0 && calibration > 0.0 {
            let expected = base_ops * (calibration / base_calib);
            if s.ops_per_sec < expected * (1.0 - 2.0 * tol_pct / 100.0) {
                bad.push(Regression {
                    what: format!("{}: ops_per_sec (calibrated)", s.name),
                    base: expected,
                    fresh: s.ops_per_sec,
                    limit_pct: 2.0 * tol_pct,
                });
            }
        }
    }
    bad
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write = false;
    let mut check_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut tolerance = 15.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--write" => write = true,
            "--check" => check_path = it.next().cloned(),
            "--out" => out_path = it.next().cloned(),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or(tolerance)
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let calibration = calibrate();
    let samples = vec![
        rekey_single_leave("rekey_single_leave", TreeBackend::Explicit),
        rekey_single_leave("rekey_single_leave_khf", TreeBackend::Khf),
        rekey_batch_mixed("rekey_batch_mixed", TreeBackend::Explicit),
        rekey_batch_mixed("rekey_batch_mixed_khf", TreeBackend::Khf),
        resident_keys_5000("resident_keys_5000", TreeBackend::Explicit),
        resident_keys_5000("resident_keys_5000_khf", TreeBackend::Khf),
        wire_encode_decode(),
        rsa_op("rsa768_private", 768, true, 2000),
        rsa_op("rsa768_public", 768, false, 20_000),
        rsa_op("rsa2048_private", 2048, true, 200),
    ];

    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>14}",
        "workload", "ops/sec", "bytes/op", "allocs/op", "resident-keys"
    );
    for s in &samples {
        println!(
            "{:<24} {:>12.0} {:>12.1} {:>12.2} {:>14.0}",
            s.name, s.ops_per_sec, s.bytes_per_op, s.allocs_per_op, s.resident_key_bytes
        );
    }
    // The back end is printed so a runner whose CPU lacks the SHA
    // extension (every hashing row is then ~5x slower) shows in the log.
    println!(
        "calibration: {calibration:.0} xorshift64 steps/sec; sha256 back end: {}",
        mykil_crypto::sha256::backend()
    );

    // The KHF backend's reason to exist: resident key bytes must be
    // decisively sublinear relative to the explicit store's O(n) at
    // the 5000-member scale. This is structural, not host-dependent.
    let explicit_resident = samples
        .iter()
        .find(|s| s.name == "resident_keys_5000")
        .map(|s| s.resident_key_bytes)
        .unwrap_or(0.0);
    let khf_resident = samples
        .iter()
        .find(|s| s.name == "resident_keys_5000_khf")
        .map(|s| s.resident_key_bytes)
        .unwrap_or(f64::MAX);
    if khf_resident * 4.0 >= explicit_resident {
        eprintln!(
            "khf resident key bytes not sublinear: khf {khf_resident:.0} vs explicit {explicit_resident:.0}"
        );
        std::process::exit(1);
    }

    let json = render_json(&samples, calibration);
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    if write {
        if let Err(e) = std::fs::write("BENCH_rekey.json", &json) {
            eprintln!("cannot write BENCH_rekey.json: {e}");
            std::process::exit(2);
        }
        println!("wrote BENCH_rekey.json");
    }

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let bad = check(&baseline, &samples, calibration, tolerance);
        if bad.is_empty() {
            println!("perf gate: PASS (tolerance {tolerance}%)");
        } else {
            println!("perf gate: FAIL");
            for r in &bad {
                println!(
                    "  {} regressed beyond {:.0}%: baseline {:.2}, fresh {:.2}",
                    r.what, r.limit_pct, r.base, r.fresh
                );
            }
            std::process::exit(1);
        }
    }
}
