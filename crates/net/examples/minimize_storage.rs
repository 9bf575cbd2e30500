//! Exhaustive backend-equivalence search for the stable-storage layer.
//!
//! Enumerates every operation/fault sequence up to a fixed length and
//! checks that `SimStore` and `FileStore`, each behind a `FaultyStore`,
//! agree on every observable (recovered checkpoint with its sequence
//! number, WAL suffix, durable-state flag, counters). The proptest in
//! `tests/proptest_storage.rs` samples
//! this space randomly; this brute-forces it to a minimal counter-
//! example when the proptest reports a divergence:
//!
//! ```text
//! cargo run --release -p mykil-net --example minimize_storage
//! ```
//!
//! It has already earned its keep: it minimized the double-corruption
//! resurrection bug (`[K, CC, CS0]` — an XOR-based slot corruption is
//! an involution) that the proptest first surfaced.

use mykil_net::{scratch_dir, FaultyStore, FileStore, SimStore, StableStore, StoreFault};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// wal_append
    A,
    /// wal_commit
    C,
    /// sync
    S,
    /// checkpoint
    K,
    /// on_crash
    Crash,
    /// arm lost-tail
    LT,
    /// arm torn-write
    TT,
    /// corrupt the newest valid checkpoint
    CC,
    /// corrupt slot 0
    CS0,
    /// corrupt slot 1
    CS1,
    /// short reads
    SR,
    /// failing appends
    AF,
    /// heal
    H,
}
use Op::*;

fn apply(store: &mut dyn StableStore, ops: &[Op]) {
    fn inject(store: &mut dyn StableStore, fault: StoreFault) {
        store.inject(fault);
    }
    for (i, op) in ops.iter().enumerate() {
        let pl = vec![i as u8 + 1; 3];
        match op {
            A => store.wal_append(pl),
            C => store.wal_commit(pl),
            S => store.sync(),
            K => store.checkpoint(pl),
            Crash => {
                store.on_crash();
            }
            LT => inject(store, StoreFault::LostTail),
            TT => inject(store, StoreFault::TornWrite),
            CC => inject(store, StoreFault::CorruptCheckpoint),
            CS0 => inject(store, StoreFault::CorruptSlot(0)),
            CS1 => inject(store, StoreFault::CorruptSlot(1)),
            SR => inject(store, StoreFault::ShortRead),
            AF => inject(store, StoreFault::AppendFail),
            H => store.heal(),
        }
    }
}

type View = (Option<(u64, Vec<u8>)>, Vec<Vec<u8>>, bool, u64, u64);

fn view(store: &dyn StableStore) -> View {
    let r = store.load();
    (
        r.checkpoint,
        r.wal,
        store.has_durable_state(),
        store.sync_count(),
        store.checkpoint_count(),
    )
}

fn main() {
    let alphabet = [A, C, S, K, Crash, LT, TT, CC, CS0, CS1, SR, AF, H];
    for len in 1..=4usize {
        let total = alphabet.len().pow(len as u32);
        let mut diverged = false;
        for n in 0..total {
            let mut seq = Vec::with_capacity(len);
            let mut x = n;
            for _ in 0..len {
                seq.push(alphabet[x % alphabet.len()]);
                x /= alphabet.len();
            }
            let mut sim = FaultyStore::new(Box::new(SimStore::new()));
            let dir = scratch_dir("minimize");
            let mut file = match FileStore::open(&dir) {
                Ok(f) => FaultyStore::new(Box::new(f)),
                Err(e) => panic!("open {}: {e}", dir.display()),
            };
            apply(&mut sim, &seq);
            apply(&mut file, &seq);
            let vs = view(&sim);
            let vw = view(&file);
            let _ = std::fs::remove_dir_all(&dir);
            if vs != vw {
                println!(
                    "len {len} DIVERGES: {seq:?}\n  sim:  {vs:?}\n  file: {vw:?}"
                );
                diverged = true;
                break;
            }
        }
        if diverged {
            std::process::exit(1);
        }
        println!("len {len}: all {total} sequences agree");
    }
}
