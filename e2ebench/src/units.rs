//! Unit costs: direct calls to each layer's public functions at the
//! sizes the workloads use them. The traced run cannot see below a
//! protocol handler, so what crypto, tree, wire, net and store work
//! costs inside a step is measured here and multiplied out by the
//! reader with the per-op counts.
//!
//! Every figure is the smallest mean over many short batches: a batch
//! lasts a fraction of a millisecond, so some batches run undisturbed
//! even on a busy host.

use mykil::durable::replay_ac;
use mykil::rekey::{write_entries_from_plan, KeyState};
use mykil::wire::Writer;
use mykil_crypto::drbg::Drbg;
use mykil_crypto::envelope::{self, HybridCiphertext};
use mykil_crypto::hmac::hmac_sha256;
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::rc4::Rc4;
use mykil_crypto::rsa::RsaKeyPair;
use mykil_crypto::sha256::Sha256;
use mykil_net::{
    Context, Duration, FileStore, Node, NodeId, Recovered, SimStore, Simulator, StableStore,
};
use mykil_tree::{AreaTree, MemberId, TreeBackend, TreeConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::workload::{DATA_BYTES, RSA_BITS};

/// Members in the tree the tree and wire rows are measured on (the
/// `rekey_fanout` area size).
const TREE_MEMBERS: u64 = 256;
/// Payload of the checkpoint row: about an area controller's snapshot
/// at 32 members.
const CHECKPOINT_BYTES: usize = 16 * 1024;
/// Payload of the WAL rows: about one membership record.
const WAL_RECORD_BYTES: usize = 200;

/// Smallest mean time of one call, in nanoseconds: batches of about
/// 0.3 ms for `budget_ms` in total.
fn min_mean_ns<T>(budget_ms: u64, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    let once = start.elapsed().as_nanos().max(1) as u64;
    let batch = (300_000 / once).clamp(1, 100_000);
    let mut best = f64::INFINITY;
    while start.elapsed().as_millis() < u128::from(budget_ms) {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    best
}

/// Smallest mean of separately timed calls: `rounds` rounds of `calls`
/// calls, where `f(i)` returns the nanoseconds call `i` took (so it can
/// leave its own preparation untimed).
fn min_round_mean_ns(rounds: usize, calls: usize, mut f: impl FnMut(usize) -> u64) -> f64 {
    (0..rounds)
        .map(|_| (0..calls).map(&mut f).sum::<u64>() as f64 / calls as f64)
        .fold(f64::INFINITY, f64::min)
}

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_nanos() as u64, out)
}

struct Echo;

impl Node for Echo {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_millis(1), 0);
    }
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        ctx.send(from, "ping", bytes.to_vec());
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        ctx.set_timer(Duration::from_millis(1), tag);
    }
}

/// Nanoseconds per simulator event for no-op nodes: message deliveries
/// when `messages`, timer firings otherwise.
fn sim_event_ns(messages: bool) -> f64 {
    let mut sim = Simulator::new(1);
    let nodes: Vec<NodeId> = (0..64).map(|_| sim.add_node(Echo)).collect();
    sim.run_until(mykil_net::Time::from_micros(500));
    if messages {
        // 32 messages bounce between node pairs for good; the timers
        // (64 per virtual millisecond) are a small share of the events.
        for pair in nodes.chunks(2) {
            sim.invoke(pair[0], |_: &mut Echo, ctx| {
                ctx.send(pair[1], "ping", vec![0u8; 64])
            });
        }
    }
    let mut best = f64::INFINITY;
    for _ in 0..40 {
        let before = sim.events_processed();
        let (ns, ()) = timed(|| {
            for _ in 0..2000 {
                sim.step();
            }
        });
        best = best.min(ns as f64 / (sim.events_processed() - before) as f64);
    }
    best
}

fn tree_rows(backend: TreeBackend, out: &mut Vec<(String, f64)>) {
    let tag = match backend {
        TreeBackend::Explicit => "explicit",
        TreeBackend::Khf => "khf",
    };
    let mut rng = Drbg::from_seed(0x7472_6565);
    let mut tree = AreaTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
    for m in 0..TREE_MEMBERS {
        tree.join(MemberId(m), &mut rng).expect("fresh member");
    }
    // Thirty-two members spread over the tree leave and come back.
    let (mut leave_ns, mut join_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let (mut leave, mut join) = (0, 0);
        for i in 0..32 {
            let m = MemberId(i * (TREE_MEMBERS / 32));
            leave += timed(|| tree.leave(m, &mut rng).expect("member present")).0;
            join += timed(|| tree.join(m, &mut rng).expect("member absent")).0;
        }
        leave_ns = leave_ns.min(leave as f64 / 32.0);
        join_ns = join_ns.min(join as f64 / 32.0);
    }
    out.push((format!("tree.plan_leave_us.{tag}"), leave_ns / 1e3));
    out.push((format!("tree.plan_join_us.{tag}"), join_ns / 1e3));
    if backend != TreeBackend::Explicit {
        return;
    }

    let snapshot = tree.snapshot();
    out.push((
        "tree.snapshot_us".into(),
        min_mean_ns(20, || tree.snapshot()) / 1e3,
    ));
    out.push((
        "tree.restore_us".into(),
        min_mean_ns(20, || AreaTree::restore(&snapshot).expect("own snapshot")) / 1e3,
    ));

    // One leave plan at this size, encoded by the controller and
    // applied by a member that stays.
    let stays = MemberId(1);
    let mut path = Vec::new();
    tree.path_keys_into(stays, &mut path)
        .expect("member present");
    let mut keys = KeyState::new();
    keys.install_tree_path(&path);
    let plan = tree.leave(MemberId(2), &mut rng).expect("member present");
    let encode = || {
        let mut w = Writer::new();
        write_entries_from_plan(&plan, &mut Drbg::from_seed(9), &mut w);
        w.into_bytes()
    };
    let body = encode();
    out.push(("wire.encode_plan_us".into(), min_mean_ns(20, encode) / 1e3));
    let learned = keys
        .clone()
        .apply_encoded(&body)
        .expect("own encoding")
        .learned;
    assert!(learned > 0, "the staying member learns the rotated path");
    let apply = min_round_mean_ns(20, 50, |_| {
        let mut k = keys.clone();
        timed(|| k.apply_encoded(&body).expect("own encoding")).0
    });
    out.push(("wire.decode_apply_us".into(), apply / 1e3));
}

fn store_rows(scratch: &Path, out: &mut Vec<(String, f64)>) {
    let record = vec![0xabu8; WAL_RECORD_BYTES];
    let mut sim = SimStore::new();
    out.push((
        "store.wal_commit_us.sim".into(),
        min_mean_ns(10, || StableStore::wal_commit(&mut sim, record.clone())) / 1e3,
    ));
    let dir = scratch.join("units");
    let mut file = FileStore::open(&dir).unwrap_or_else(|e| panic!("open {}: {e}", dir.display()));
    out.push((
        "store.wal_commit_us.file".into(),
        min_round_mean_ns(10, 20, |_| timed(|| file.wal_commit(record.clone())).0) / 1e3,
    ));
    let payload = vec![0xcdu8; CHECKPOINT_BYTES];
    out.push((
        "store.checkpoint_us.file".into(),
        min_round_mean_ns(5, 8, |_| timed(|| file.checkpoint(payload.clone())).0) / 1e3,
    ));
    for _ in 0..8 {
        file.wal_commit(record.clone());
    }
    out.push((
        "store.load_us.file".into(),
        min_mean_ns(20, || file.load()) / 1e3,
    ));
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Measures every unit-cost row. `ac_storage` is what an area
/// controller of the traced pass had on stable storage at the end of
/// the pass; `scratch` is a directory for the file-store rows.
pub fn unit_costs(ac_storage: &Recovered, scratch: &Path) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, value: f64| out.push((name.to_string(), value));
    let mut rng = Drbg::from_seed(0x756e_6974);

    // Four keygens from a fixed seed, twice: the prime search is the
    // same work both times.
    let keygen = min_round_mean_ns(2, 4, |i| {
        let mut r = Drbg::from_seed(100 + i as u64);
        timed(|| RsaKeyPair::generate(RSA_BITS, &mut r).expect("keygen")).0
    });
    push("crypto.rsa_keygen_ms", keygen / 1e6);

    let pair = RsaKeyPair::generate(RSA_BITS, &mut rng).expect("keygen");
    let msg = [0x5au8; 64];
    let sig = pair.sign(&msg);
    push(
        "crypto.rsa_private_us",
        min_mean_ns(40, || pair.sign(&msg)) / 1e3,
    );
    push(
        "crypto.rsa_public_us",
        min_mean_ns(20, || pair.public().verify(&msg, &sig)) / 1e3,
    );
    let ct = HybridCiphertext::encrypt(pair.public(), &msg, &mut rng).expect("encrypt");
    push(
        "crypto.hybrid_encrypt_us",
        min_mean_ns(20, || {
            HybridCiphertext::encrypt(pair.public(), &msg, &mut rng)
        }) / 1e3,
    );
    push(
        "crypto.hybrid_decrypt_us",
        min_mean_ns(40, || ct.decrypt(&pair)) / 1e3,
    );

    let key = SymmetricKey::random(&mut rng);
    let sealed = envelope::seal(&key, key.as_bytes(), &mut rng);
    push(
        "crypto.envelope_seal_us",
        min_mean_ns(10, || envelope::seal(&key, key.as_bytes(), &mut rng)) / 1e3,
    );
    push(
        "crypto.envelope_open_us",
        min_mean_ns(10, || envelope::open(&key, &sealed)) / 1e3,
    );
    push(
        "crypto.hmac_16b_us",
        min_mean_ns(10, || hmac_sha256(key.as_bytes(), &msg[..16])) / 1e3,
    );
    let block = vec![0x11u8; 4096];
    let sha_ns = min_mean_ns(10, || Sha256::digest(&block));
    push(
        "crypto.sha256_4k_mibs",
        4096.0 / (1024.0 * 1024.0) / (sha_ns / 1e9),
    );
    let mut data = vec![0x22u8; DATA_BYTES];
    push(
        "crypto.rc4_1k_us",
        min_mean_ns(10, || Rc4::new(key.as_bytes()).apply_keystream(&mut data)) / 1e3,
    );

    tree_rows(TreeBackend::Explicit, &mut out);
    tree_rows(TreeBackend::Khf, &mut out);

    out.push(("net.dispatch_ns".into(), sim_event_ns(true)));
    out.push(("net.timer_ns".into(), sim_event_ns(false)));

    store_rows(scratch, &mut out);
    let checkpoint = ac_storage
        .checkpoint
        .as_ref()
        .map(|(_, bytes)| bytes.as_slice());
    assert!(
        replay_ac(checkpoint, &ac_storage.wal).is_some(),
        "an area controller's storage replays"
    );
    out.push((
        "durable.replay_ac_us".into(),
        min_mean_ns(20, || replay_ac(checkpoint, &ac_storage.wal)) / 1e3,
    ));
    out
}
