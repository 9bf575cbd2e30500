//! `gate rekey`: the rekey hot path — single-leave rekey, batched mixed
//! join/leave and a 5000-member controller-storage build, each on both
//! tree backends (explicit keys and the keyed-hash forest), plus the
//! wire codec and the RSA operations every handshake step and key
//! update pays — under the counting allocator.

use mykil::rekey::write_entries_from_plan;
use mykil::wire::{Reader, Writer};
use mykil_bench::alloc_track::alloc_count;
use mykil_bench::gate::{Columns, Gate, Limit, Ratio, Rep, Row, Rule, Value, Workload};
use mykil_crypto::drbg::Drbg;
use mykil_crypto::rsa::RsaKeyPair;
use mykil_tree::TreeBackend::{self, Explicit, Khf};
use mykil_tree::{KeyTree, MemberId, TreeConfig};
use std::time::{Duration, Instant};

/// KHF trades compute for storage: by how many percent it may slow
/// down, relative to the explicit backend in the same process and to
/// the same ratio in the baseline, before the gate fails.
const fn khf_time(of: &'static str, over: &'static str, pct: u64) -> Ratio {
    Ratio {
        column: "ops_per_sec",
        of,
        over,
        limit: Limit::Drift(pct),
    }
}

const COLUMNS: Columns = &[
    ("ops", Rule::Exact),
    ("ops_per_sec", Rule::Info),
    // Wire bytes and allocation events of the measured region, whole.
    ("bytes", Rule::Exact),
    ("allocs", Rule::Exact),
    // Key material resident in the controller's tree after the run
    // (the storage axis the KHF backend trades compute for).
    ("resident_key_bytes", Rule::Exact),
];

/// A workload with the columns every rekey row carries.
const fn row(name: &'static str, workload: Workload) -> Row {
    (name, COLUMNS, workload)
}

const ROWS: &[Row] = &[
    row("rekey_single_leave", |_| rekey_single_leave(Explicit)),
    row("rekey_single_leave_khf", |_| rekey_single_leave(Khf)),
    row("rekey_batch_mixed", |_| rekey_batch_mixed(Explicit)),
    row("rekey_batch_mixed_khf", |_| rekey_batch_mixed(Khf)),
    row("resident_keys_5000", |_| resident_keys_5000(Explicit)),
    row("resident_keys_5000_khf", |_| resident_keys_5000(Khf)),
    row("wire_encode_decode", |_| wire_encode_decode()),
    row("rsa768_private", |_| rsa_op(768, true, 2000)),
    row("rsa768_public", |_| rsa_op(768, false, 20_000)),
    row("rsa2048_private", |_| rsa_op(2048, true, 200)),
];

pub const GATE: Gate = Gate {
    name: "rekey",
    baseline: "BENCH_rekey.json",
    noun: "workloads",
    rows: ROWS,
    ratios: &[
        khf_time("rekey_single_leave", "rekey_single_leave_khf", 25),
        khf_time("rekey_batch_mixed", "rekey_batch_mixed_khf", 25),
        // The explicit build is bound by the allocator and the memory
        // system, the KHF one by hashing: under a busy neighbour the
        // ratio reads anywhere from 3.4 to 4.5 on unchanged code.
        khf_time("resident_keys_5000", "resident_keys_5000_khf", 50),
        // The KHF backend's reason to exist: resident key bytes stay
        // decisively sublinear against the explicit store's O(n).
        Ratio {
            column: "resident_key_bytes",
            of: "resident_keys_5000_khf",
            over: "resident_keys_5000",
            limit: Limit::Below(0.25),
        },
    ],
};

fn rep(ops: u64, elapsed: Duration, bytes: u64, allocs: u64, resident_key_bytes: usize) -> Rep {
    let secs = elapsed.as_secs_f64();
    Rep {
        secs,
        values: vec![
            Value::Int(ops),
            Value::Real(ops as f64 / secs),
            Value::Int(bytes),
            Value::Int(allocs),
            Value::Int(resident_key_bytes as u64),
        ],
    }
}

fn join_all(tree: &mut KeyTree, n: u64, rng: &mut Drbg) {
    for m in 0..n {
        tree.join(MemberId(m), rng).expect("fresh id");
    }
}

/// Single-member leave rekey, the paper's Figure 5 path: tree mutation,
/// envelope sealing and wire encoding of the key-update body. The
/// vacated slot is re-joined outside the measured region to keep the
/// population stable.
fn rekey_single_leave(backend: TreeBackend) -> Rep {
    const N: u64 = 1024;
    const OPS: u64 = 2000;
    let mut rng = Drbg::from_seed(0xBE9C_0001);
    let mut tree = KeyTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
    join_all(&mut tree, N, &mut rng);
    let mut elapsed = Duration::ZERO;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    // Frame buffer reused across rekeys, as the production flush path
    // reuses its scratch: steady-state encodes allocate nothing.
    let mut scratch: Vec<u8> = Vec::new();
    for i in 0..OPS {
        let victim = MemberId(i % N);
        let t0 = Instant::now();
        let a0 = alloc_count();
        let plan = tree.leave(victim, &mut rng).expect("resident member");
        let mut w = Writer::into_reused(std::mem::take(&mut scratch));
        write_entries_from_plan(&plan, &mut rng, &mut w);
        allocs += alloc_count() - a0;
        elapsed += t0.elapsed();
        bytes += w.len() as u64;
        scratch = w.into_bytes();
        tree.join(victim, &mut rng).expect("slot just vacated");
    }
    rep(OPS, elapsed, bytes, allocs, tree.resident_key_bytes())
}

/// Batched mixed join/leave (Section III-E aggregation): eight leavers
/// and eight joiners per flush, one combined plan, sealed and encoded.
fn rekey_batch_mixed(backend: TreeBackend) -> Rep {
    const N: u64 = 4096;
    const OPS: u64 = 250;
    const CHURN: u64 = 8;
    let mut rng = Drbg::from_seed(0xBE9C_0002);
    let mut tree = KeyTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
    join_all(&mut tree, N, &mut rng);
    let mut elapsed = Duration::ZERO;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    let mut scratch: Vec<u8> = Vec::new();
    for op in 0..OPS {
        let joins: Vec<MemberId> = (0..CHURN).map(|k| MemberId(N + op * CHURN + k)).collect();
        let leaves: Vec<MemberId> = (0..CHURN).map(|k| MemberId(op * CHURN + k)).collect();
        let t0 = Instant::now();
        let a0 = alloc_count();
        let out = tree.batch(&joins, &leaves, &mut rng).expect("valid batch");
        let mut w = Writer::into_reused(std::mem::take(&mut scratch));
        write_entries_from_plan(&out.plan, &mut rng, &mut w);
        allocs += alloc_count() - a0;
        elapsed += t0.elapsed();
        bytes += w.len() as u64;
        scratch = w.into_bytes();
    }
    rep(OPS, elapsed, bytes, allocs, tree.resident_key_bytes())
}

/// Controller storage at scale: build a 5000-member area, then one
/// mixed 64-leave/64-join batch (so the KHF override table reflects
/// realistic leave churn). The headline column is `resident_key_bytes`
/// — O(n) for the explicit store, O(overrides) for the forest; `bytes`
/// is that batch's multicast.
fn resident_keys_5000(backend: TreeBackend) -> Rep {
    const N: u64 = 5000;
    const CHURN: u64 = 64;
    let mut rng = Drbg::from_seed(0xBE9C_0003);
    let mut tree = KeyTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
    let t0 = Instant::now();
    let a0 = alloc_count();
    join_all(&mut tree, N, &mut rng);
    let joins: Vec<MemberId> = (N..N + CHURN).map(MemberId).collect();
    let leaves: Vec<MemberId> = (0..CHURN).map(MemberId).collect();
    let out = tree.batch(&joins, &leaves, &mut rng).expect("valid batch");
    let allocs = alloc_count() - a0;
    let elapsed = t0.elapsed();
    rep(
        N + 1,
        elapsed,
        out.plan.multicast_bytes() as u64,
        allocs,
        tree.resident_key_bytes(),
    )
}

/// Wire codec round trip: a key-update-shaped frame (header plus 16
/// length-prefixed envelope fields) encoded then fully decoded.
fn wire_encode_decode() -> Rep {
    const OPS: u64 = 20_000;
    const ENTRIES: usize = 16;
    let env = [0xA5u8; 44]; // sealed 16-byte key + envelope overhead
    let mut elapsed = Duration::ZERO;
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
    rep(OPS, elapsed, bytes, allocs, 0)
}

/// The crypto floor under every handshake step: `ops` RSA signatures
/// (`private`) or verifications of one over a fixed 64-byte block, with
/// a key generated from a fixed seed. `allocs` is what scratch reuse in
/// the Montgomery arithmetic keeps flat (it was two allocations per
/// modular product, 2,285 per 768-bit signature); `bytes` is the
/// signature bytes handled.
fn rsa_op(bits: usize, private: bool, ops: u64) -> Rep {
    let mut rng = Drbg::from_seed(0xBE9C_0004);
    let pair = RsaKeyPair::generate(bits, &mut rng).expect("keygen");
    let block = [0x5Au8; 64];
    let sig = pair.sign(&block);
    let mut verified = 0u64;
    let t0 = Instant::now();
    let a0 = alloc_count();
    for _ in 0..ops {
        if private {
            verified += u64::from(pair.sign(&block) == sig);
        } else {
            verified += u64::from(pair.public().verify(&block, &sig));
        }
    }
    let allocs = alloc_count() - a0;
    let elapsed = t0.elapsed();
    assert_eq!(verified, ops, "signatures must be deterministic and verify");
    rep(ops, elapsed, ops * sig.len() as u64, allocs, 0)
}
