//! Regenerates every table and figure of the paper's evaluation.
//!
//! Run with `cargo run -p mykil-bench --bin report --release` for the
//! full paper-scale sweep, or pass `--quick` for a shrunk version.
//! The output of a release run is recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

use mykil_analysis::cpu;
use mykil_bench::workload::{replay, replay_unaggregated, ChurnSchedule};
use mykil_bench::*;
use mykil_baselines::{FlatLkh, IolusGroup, MykilModel};
use mykil_crypto::drbg::Drbg;
use mykil_tree::TreeConfig;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: u64 = if quick { 10_000 } else { PAPER_GROUP };
    let arity = 2; // the shape behind the paper's arithmetic

    println!("=== Mykil reproduction report ===");
    println!("group size n = {n}, tree arity = {arity} (paper arithmetic)");
    println!();

    println!("--- Figure 8: key bytes for one leave event (measured) ---");
    println!("{:>6} {:>12} {:>8} {:>8}", "areas", "iolus", "lkh", "mykil");
    for r in fig8_measured(n, arity) {
        println!(
            "{:>6} {:>12} {:>8} {:>8}",
            r.areas, r.iolus, r.lkh, r.mykil
        );
    }
    println!();

    println!("--- Figure 8 (analytic cross-check, paper arithmetic) ---");
    println!("{:>6} {:>12} {:>8} {:>8}", "areas", "iolus", "lkh", "mykil");
    for r in fig8_analytic(n) {
        println!(
            "{:>6} {:>12} {:>8} {:>8}",
            r.areas, r.iolus, r.lkh, r.mykil
        );
    }
    println!();

    println!("--- Figure 9: zoom on LKH vs Mykil (measured) ---");
    println!("{:>6} {:>8} {:>8}", "areas", "lkh", "mykil");
    for r in fig8_measured(n, arity) {
        println!("{:>6} {:>8} {:>8}", r.areas, r.lkh, r.mykil);
    }
    println!();

    println!("--- Figure 8 extension: leave cost vs group size to 1M (analytic) ---");
    println!(
        "{:>9} {:>6} {:>12} {:>8} {:>8}",
        "members", "areas", "iolus", "lkh", "mykil"
    );
    for r in fig8_group_size_sweep() {
        println!(
            "{:>9} {:>6} {:>12} {:>8} {:>8}",
            r.members, r.areas, r.iolus, r.lkh, r.mykil
        );
    }
    println!();

    println!("--- Figure 10: ten aggregated leaves (measured key bytes) ---");
    println!(
        "{:>6} {:>10} {:>12} {:>12}",
        "areas", "lkh_seq", "mykil_best", "mykil_worst"
    );
    for r in fig10_measured(n, 10, arity) {
        println!(
            "{:>6} {:>10} {:>12} {:>12}",
            r.areas, r.lkh_sequential, r.mykil_best, r.mykil_worst
        );
    }
    println!();

    println!("--- Section V-A: storage (measured, bytes of symmetric keys) ---");
    println!("{:>8} {:>12} {:>14}", "protocol", "per-member", "per-controller");
    for r in storage_measured(n, 20, arity) {
        println!(
            "{:>8} {:>12} {:>14}",
            r.protocol, r.member_bytes, r.controller_bytes
        );
    }
    println!();

    println!("--- Section V-B: members updating k keys on one leave ---");
    for (name, dist) in cpu_table(n, 20) {
        let head: Vec<String> = dist
            .iter()
            .take(5)
            .map(|b| format!("{}x{}keys", b.members, b.keys_updated))
            .collect();
        println!(
            "{:>8}: {} ... (affected={}, mean keys/affected={:.2})",
            name,
            head.join(", "),
            cpu::members_affected(&dist),
            cpu::mean_updates_per_affected(&dist),
        );
    }
    println!();

    println!("--- Section V-C: join unicast key-path size ---");
    let p = mykil_analysis::Params { members: n, ..mykil_analysis::Params::paper() };
    println!(
        "lkh  : {} bytes (paper: 16*17 = 272 B)",
        mykil_analysis::bandwidth::lkh_join_unicast_bytes(&p)
    );
    println!(
        "mykil: {} bytes (paper: 16*12 ~ 192 B)",
        mykil_analysis::bandwidth::mykil_join_unicast_bytes(&p)
    );
    println!();

    println!("--- Section III-E: batching savings (full protocol sim) ---");
    let (batched, immediate) = batching_savings(7, if quick { 3 } else { 5 });
    println!(
        "key-update bytes: batched={batched}, immediate={immediate} (saved {:.0}%)",
        100.0 * (1.0 - batched as f64 / immediate as f64)
    );
    println!();

    println!("--- Section V-D: join/rejoin latency (simulated P-III 1 GHz, RSA-2048) ---");
    let lat = vd_latency();
    println!("join            : {:.3} s   (paper: ~0.45 s)", lat.join_s);
    println!(
        "join + blinding : {:.3} s   (paper: +~0.01 s)",
        lat.join_blinding_s
    );
    println!("rejoin          : {:.3} s   (paper: ~0.40 s)", lat.rejoin_s);
    println!(
        "rejoin w/o 4-5  : {:.3} s   (paper: ~0.28 s)",
        lat.rejoin_fast_s
    );
    println!();

    println!("--- Section V-E: hand-held data cipher throughput ---");
    let mb = if quick { 4 } else { 16 };
    let mbps = ve_rc4_throughput_mb_s(mb);
    println!(
        "rc4 over {mb} MB: {mbps:.1} MB/s (paper: ~50 MB/s on a 600 MHz Celeron; \
         a 16 MB file took ~0.32 s)"
    );
    println!();

    println!("--- Section V-D (analytic cross-check) ---");
    for (name, seconds) in mykil_analysis::latency::paper_predictions() {
        println!("{name:>12}: {seconds:.3} s predicted from critical-path RSA ops");
    }
    println!();

    println!("--- Churn workloads (macro-benchmark, key bytes) ---");
    let wl_n = if quick { 4_000 } else { 20_000 };
    let schedules = [
        ("steady (20 rounds, 5 join + 5 leave)",
         ChurnSchedule::steady(1, wl_n, 20, 5, 5)),
        ("flash crowd (500 joins)", ChurnSchedule::flash_crowd(wl_n, 500, 0)),
        ("end-of-month (200 cancellations)",
         ChurnSchedule::end_of_month(2, wl_n, 200)),
    ];
    for (label, schedule) in &schedules {
        let mut rng = Drbg::from_seed(0xC0FFEE);
        let mut iolus = IolusGroup::new(16);
        mykil_baselines::populate(&mut iolus, wl_n / 20, &mut rng);
        let mut lkh = FlatLkh::new(TreeConfig::binary(), &mut rng);
        mykil_baselines::populate(&mut lkh, wl_n, &mut rng);
        let mut mykil = MykilModel::new(20, TreeConfig::binary(), &mut rng);
        mykil_baselines::populate(&mut mykil, wl_n, &mut rng);
        let mut mykil_unagg = mykil.clone();

        let ti = replay(&mut iolus, schedule, &mut rng).total_key_bytes();
        let tl = replay(&mut lkh, schedule, &mut rng).total_key_bytes();
        let tm = replay(&mut mykil, schedule, &mut rng).total_key_bytes();
        let tmu = replay_unaggregated(&mut mykil_unagg, schedule, &mut rng).total_key_bytes();
        println!("{label}:");
        println!(
            "    iolus={ti}  lkh={tl}  mykil={tm}  mykil-unaggregated={tmu}"
        );
    }
    println!();

    println!("--- Ablation: tree arity (leave bytes at area=5000) ---");
    for arity in [2usize, 4, 8] {
        let rows = fig8_measured(if quick { 10_000 } else { n }, arity);
        let last = rows.last().unwrap();
        println!("arity {arity}: mykil leave = {} bytes at 20 areas", last.mykil);
    }
    println!();

    println!("--- Ablation: keep-vacant-leaves vs prune-on-leave (Section III-D) ---");
    let (keep, prune) = vacant_leaf_ablation(if quick { 2_000 } else { 5_000 }, 200);
    println!("over 200 leave+join cycles:");
    println!(
        "  keep : join-unicast={}B leave-multicast={}B nodes={}",
        keep.join_unicast_bytes, keep.leave_multicast_bytes, keep.final_nodes
    );
    println!(
        "  prune: join-unicast={}B leave-multicast={}B nodes={}",
        prune.join_unicast_bytes, prune.leave_multicast_bytes, prune.final_nodes
    );
    println!(
        "  (bandwidth is near-neutral in 1:1 churn; the keep rule avoids \
splits when joins burst after correlated leaves, at the cost of \
retaining empty nodes)"
    );
    println!();
    println!("=== end of report ===");
}
