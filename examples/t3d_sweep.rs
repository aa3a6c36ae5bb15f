//! Explore the distributed-memory design space of §7 on the simulated
//! Cray T3D: pick the best data distribution (V1 / V2 / V3) for a
//! given problem and machine size, then validate the simulator against
//! a real message-passing execution.
//!
//! Run: `cargo run --release --example t3d_sweep`

use block_schur::perfmodel::Rep;
use block_schur::prelude::*;
use block_schur::simulator::analytic::{simulate, SimConfig};
use block_schur::simulator::{factor_sharded, Clock, Scheme, ShardOptions, T3DModel};
use std::sync::Arc;

fn best_scheme(n: usize, m: usize, np: usize, model: &T3DModel) -> (Scheme, f64) {
    let mut candidates = vec![Scheme::V1];
    for b in [2usize, 4, 8, 16, 32] {
        candidates.push(Scheme::V2 { b });
    }
    for spread in [2usize, 4, 8, 16] {
        if np.is_multiple_of(spread) && m.is_multiple_of(spread) {
            candidates.push(Scheme::V3 { spread });
        }
    }
    candidates
        .into_iter()
        .map(|s| {
            let r = simulate(
                &SimConfig {
                    n,
                    m,
                    np,
                    scheme: s,
                    rep: Rep::VY2,
                },
                model,
            );
            (s, r.total)
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
}

fn main() {
    let model = T3DModel::default();
    println!("best data distribution per (n, m, NP) on the simulated T3D:\n");
    println!(
        "{:>6} {:>4} {:>4}  {:<16} {:>12}",
        "n", "m", "NP", "best scheme", "time (ms)"
    );
    for (n, m, np) in [
        (4096usize, 1usize, 16usize), // Experiment 1 regime
        (4096, 8, 64),                // Experiment 2 regime
        (4096, 32, 64),               // Experiment 3 regime
        (1024, 4, 8),
        (2048, 16, 32),
    ] {
        let (scheme, secs) = best_scheme(n, m, np, &model);
        println!(
            "{n:>6} {m:>4} {np:>4}  {:<16} {:>12.3}",
            scheme.label(),
            secs * 1e3
        );
    }

    // Validate: run the real message-passing execution on a small
    // problem and compare against the sequential factorization.
    println!("\nvalidating the distributed execution against the sequential factorization...");
    let t = workloads::random_spd_block(4, 16, 99);
    let seq = factor_spd(&t, &SchurOptions::default()).expect("sequential");
    let dist = factor_sharded(&t, &ShardOptions::new(Scheme::V1, 4));
    let diff = dist.r.max_abs_diff(&seq.r);
    println!(
        "‖R_dist − R_seq‖_max = {diff:.3e} over {} ranks",
        dist.rank_wall_s.len()
    );
    assert!(diff < 1e-10);

    // And with the T3D clock: report the simulated factor time.
    let dist_timed = factor_sharded(
        &t,
        &ShardOptions {
            clock: Clock::Model(Arc::new(T3DModel::default())),
            ..ShardOptions::new(Scheme::V1, 4)
        },
    );
    println!(
        "simulated factor time on 4 T3D PEs: {:.3} ms ({} bytes on the wire)",
        dist_timed.wall_s * 1e3,
        dist_timed.comm_volume()
    );
    println!("ok");
}
