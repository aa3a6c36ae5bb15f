//! Distributed execution (§7) integration tests: the sharded executor
//! must produce the sequential factor under every distribution scheme,
//! and its modeled clock must agree with the analytic simulator.

use block_schur::distmem::{CostModel, WallOpts, World, ZeroCost};
use block_schur::perfmodel::Rep;
use block_schur::prelude::*;
use block_schur::simulator::analytic::{simulate, SimConfig};
use block_schur::simulator::{factor_sharded, Clock, Scheme, ShardOptions, ShardRun, T3DModel};
use std::sync::Arc;
use std::time::Duration;

/// The sharded executor on a cost-model clock.
fn modeled(
    t: &SymBlockToeplitz,
    np: usize,
    scheme: Scheme,
    rep: RepKind,
    cost: impl CostModel + 'static,
) -> ShardRun {
    let opts = ShardOptions {
        rep,
        clock: Clock::Model(Arc::new(cost)),
        ..ShardOptions::new(scheme, np)
    };
    factor_sharded(t, &opts)
}

#[test]
fn v1_v2_match_sequential_across_sizes() {
    for (m, p) in [(1usize, 24usize), (2, 12), (4, 8)] {
        let t = workloads::random_spd_block(m, p, (m * 31 + p) as u64);
        let seq = factor_spd(&t, &SchurOptions::default()).unwrap();
        for np in [1usize, 2, 3, 5] {
            for scheme in [Scheme::V1, Scheme::V2 { b: 2 }, Scheme::V2 { b: 4 }] {
                let d = modeled(&t, np, scheme, RepKind::VY2, ZeroCost);
                assert!(
                    d.r.max_abs_diff(&seq.r) < 1e-9,
                    "m={m} p={p} np={np} {}: {:e}",
                    scheme.label(),
                    d.r.max_abs_diff(&seq.r)
                );
            }
        }
    }
}

#[test]
fn distributed_solve_end_to_end() {
    for (m, p, seed, np, scheme, rep) in [
        (2, 16, 8, 4, Scheme::V2 { b: 2 }, RepKind::YTY),
        (2, 10, 9, 3, Scheme::V1, RepKind::VY2),
        (4, 12, 21, 8, Scheme::V3 { spread: 4 }, RepKind::YTY),
    ] {
        let t = workloads::random_spd_block(m, p, seed);
        let (b, x_true) = workloads::rhs_for_ones(&t);
        let d = modeled(&t, np, scheme, rep, ZeroCost);
        let x = block_schur::core::solve::solve_rtdr(&d.r, None, &b).unwrap();
        for i in 0..x.len() {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "{} i={i}", scheme.label());
        }
    }
}

#[test]
fn virtual_times_match_analytic_across_schemes() {
    let model = T3DModel::default();
    for (m, p, np, scheme) in [
        (2usize, 16usize, 4usize, Scheme::V1),
        (2, 16, 4, Scheme::V2 { b: 2 }),
        (4, 12, 3, Scheme::V1),
        (4, 12, 4, Scheme::V1),
    ] {
        let t = workloads::random_spd_block(m, p, 55);
        let d = modeled(&t, np, scheme, RepKind::VY2, model.clone());
        let sim = simulate(
            &SimConfig {
                n: m * p,
                m,
                np,
                scheme,
                rep: Rep::VY2,
            },
            &model,
        );
        let rel = (d.wall_s - sim.total).abs() / sim.total;
        assert!(
            rel < 0.05,
            "{} np={np}: exec {} vs sim {} (rel {rel})",
            scheme.label(),
            d.wall_s,
            sim.total
        );
    }
}

#[test]
fn more_ranks_do_not_change_the_result_but_cut_time() {
    let t = workloads::random_spd_block(4, 16, 3);
    let model = T3DModel::default();
    let d1 = modeled(&t, 1, Scheme::V1, RepKind::VY2, model.clone());
    let d4 = modeled(&t, 4, Scheme::V1, RepKind::VY2, model.clone());
    assert!(d1.r.max_abs_diff(&d4.r) < 1e-9);
    assert!(
        d4.wall_s < d1.wall_s,
        "4 ranks ({}) should beat 1 rank ({})",
        d4.wall_s,
        d1.wall_s
    );
}

#[test]
fn comm_volume_tracks_representation_size() {
    // YTYᵀ broadcasts fewer bytes than VY (the §6.5 argument).
    let t = workloads::random_spd_block(8, 8, 4);
    let model = T3DModel::default();
    let d_vy = modeled(&t, 4, Scheme::V1, RepKind::VY2, model.clone());
    let d_yty = modeled(&t, 4, Scheme::V1, RepKind::YTY, model);
    let vy_bytes: usize = d_vy.bytes_sent.iter().sum();
    let yty_bytes: usize = d_yty.bytes_sent.iter().sum();
    assert!(
        yty_bytes < vy_bytes,
        "yty {yty_bytes} must be below vy {vy_bytes}"
    );
}

#[test]
fn analytic_simulator_is_deterministic() {
    let model = T3DModel::default();
    let cfg = SimConfig {
        n: 1024,
        m: 4,
        np: 16,
        scheme: Scheme::V2 { b: 4 },
        rep: Rep::VY2,
    };
    let a = simulate(&cfg, &model);
    let b = simulate(&cfg, &model);
    assert_eq!(a.total, b.total);
    assert_eq!(a.bytes, b.bytes);
}

#[test]
fn experiment_regimes_reproduce_paper_winners() {
    // Compressed versions of Figs. 6-8 as assertions.
    let model = T3DModel::default();
    let run = |n: usize, m: usize, np: usize, scheme: Scheme| {
        simulate(
            &SimConfig {
                n,
                m,
                np,
                scheme,
                rep: Rep::VY2,
            },
            &model,
        )
        .total
    };
    // Fig. 6 regime: moderate grouping beats both extremes.
    let t_b1 = run(2048, 1, 16, Scheme::V1);
    let t_b8 = run(2048, 1, 16, Scheme::V2 { b: 8 });
    let t_b128 = run(2048, 1, 16, Scheme::V2 { b: 128 });
    assert!(t_b8 < t_b1 && t_b8 < t_b128, "{t_b1} {t_b8} {t_b128}");
    // Fig. 7 regime: V1 beats large grouping and wide spreading.
    let t_v1 = run(2048, 8, 32, Scheme::V1);
    let t_v2 = run(2048, 8, 32, Scheme::V2 { b: 8 });
    let t_v3 = run(2048, 8, 32, Scheme::V3 { spread: 4 });
    assert!(t_v1 < t_v2 && t_v1 < t_v3, "{t_v1} {t_v2} {t_v3}");
    // Fig. 8 regime: moderate spreading beats V1.
    let t8_v1 = run(2048, 32, 32, Scheme::V1);
    let t8_v3 = run(2048, 32, 32, Scheme::V3 { spread: 4 });
    assert!(t8_v3 < t8_v1, "{t8_v3} vs {t8_v1}");
}

// ---------------------------------------------------------------------
// Measured sharded backend (wall transport): correctness, determinism,
// and failure paths.
// ---------------------------------------------------------------------

/// Valid schemes for the sharded sweep at one `(m, np)`.
fn shard_schemes(m: usize, np: usize) -> Vec<Scheme> {
    let mut out = vec![Scheme::V1, Scheme::V2 { b: 2 }];
    if np > 1 && np.is_multiple_of(2) && m.is_multiple_of(2) {
        out.push(Scheme::V3 { spread: 2 });
    }
    out
}

#[test]
fn sharded_matches_sequential_across_schemes_and_np() {
    for (m, p) in [(2usize, 12usize), (4, 8)] {
        let t = workloads::random_spd_block(m, p, (m * 17 + p) as u64);
        let seq = factor_spd(&t, &SchurOptions::default()).unwrap();
        let tol = 1e-8 * t.norm_inf().max(1.0);
        for np in [1usize, 2, 4] {
            for scheme in shard_schemes(m, np) {
                let run = factor_sharded(&t, &ShardOptions::new(scheme, np));
                let diff = run.r.max_abs_diff(&seq.r);
                assert!(
                    diff < tol,
                    "m={m} p={p} np={np} {}: measured shard run deviates {diff:e}",
                    scheme.label()
                );
                assert!(run.wall_s > 0.0, "wall time must be a real measurement");
                if np > 1 {
                    assert!(
                        run.comm_volume() > 0,
                        "multi-rank runs must move real bytes"
                    );
                }
            }
        }
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn one_rank_shard_equals_sequential_engine_bitwise() {
    // One rank runs the sequential engine's kernel on the same stacked
    // generator layout, so on either clock its factor must match
    // `factor_spd` to the last bit — packed block sizes included. At
    // np = 1 every scheme is the one rank body at spread 1.
    for m in [1usize, 2, 4, 8, 16, 32] {
        let t = workloads::random_spd_block(m, 384 / m, (m * 13 + 5) as u64);
        let seq = bits(&factor_spd(&t, &SchurOptions::default()).unwrap().r);
        for scheme in [Scheme::V1, Scheme::V2 { b: 2 }, Scheme::V3 { spread: 1 }] {
            let wall = factor_sharded(&t, &ShardOptions::new(scheme, 1));
            let model = modeled(&t, 1, scheme, RepKind::VY2, T3DModel::default());
            let label = scheme.label();
            assert!(
                bits(&wall.r) == seq,
                "m={m} {label}: wall-clock shard differs"
            );
            assert!(
                bits(&model.r) == seq,
                "m={m} {label}: modeled-clock shard differs"
            );
        }
    }
}

#[test]
fn v3_one_group_equals_two_level_engine_bitwise() {
    // V3 is §6.2's two-level panel with its chunks on different ranks:
    // one group of `spread` ranks must return the engine's factor with
    // chunks of m/spread, to the last bit, on either clock. The slices
    // stay at mc <= 8 columns: at m = 32, spread = 2 (mc = 16) the
    // packed gemm path groups the columns of a rank's 16-wide slices
    // differently from the engine's full-width trailing update, and
    // the factors differ by ~1e-15.
    for (m, spread) in [(4usize, 2usize), (8, 2), (8, 4), (16, 4)] {
        let t = workloads::random_spd_block(m, 256 / m, (m * 7 + spread) as u64);
        let opts = SchurOptions {
            two_level: Some(m / spread),
            exec: ExecPolicy::sequential(),
            ..Default::default()
        };
        let seq = bits(&factor_spd(&t, &opts).unwrap().r);
        let scheme = Scheme::V3 { spread };
        let wall = factor_sharded(&t, &ShardOptions::new(scheme, spread));
        let model = modeled(&t, spread, scheme, RepKind::VY2, T3DModel::default());
        assert!(
            bits(&wall.r) == seq,
            "m={m} spread={spread}: wall-clock shard differs"
        );
        assert!(
            bits(&model.r) == seq,
            "m={m} spread={spread}: modeled-clock shard differs"
        );
    }
}

#[test]
fn sharded_factor_is_bitwise_reproducible() {
    // Fixed (matrix, scheme, np, rep, kernel): thread scheduling may
    // reorder arrivals but never contents, so two runs must agree to
    // the last bit.
    let t = workloads::random_spd_block(4, 12, 21);
    for scheme in [Scheme::V1, Scheme::V2 { b: 2 }, Scheme::V3 { spread: 2 }] {
        let opts = ShardOptions::new(scheme, 2);
        let a = factor_sharded(&t, &opts);
        let b = factor_sharded(&t, &opts);
        assert_eq!(
            bits(&a.r),
            bits(&b.r),
            "{} not reproducible",
            scheme.label()
        );
    }
}

#[test]
fn sharded_solve_end_to_end() {
    let t = workloads::random_spd_block(2, 16, 8);
    let (b, x_true) = workloads::rhs_for_ones(&t);
    let run = factor_sharded(&t, &ShardOptions::new(Scheme::V2 { b: 2 }, 4));
    let x = block_schur::core::solve::solve_rtdr(&run.r, None, &b).unwrap();
    for i in 0..x.len() {
        assert!((x[i] - x_true[i]).abs() < 1e-8, "i={i}");
    }
}

#[test]
fn rank_panic_mid_elimination_poisons_the_group() {
    // A rank dying between the panel broadcast and the step barrier
    // must fail the whole group (peers are blocked in barriers and
    // selective receives), not deadlock it.
    let result = std::panic::catch_unwind(|| {
        World::run_wall(4, WallOpts::default(), |p| {
            // Step 0 completes everywhere.
            let x = p.broadcast(0, 0, if p.rank() == 0 { &[2.0][..] } else { &[] });
            p.barrier();
            // Step 1: rank 2 dies; the others head into the barrier /
            // a receive that will never be satisfied.
            if p.rank() == 2 {
                panic!("injected mid-elimination failure");
            }
            if p.rank() == 3 {
                let _ = p.recv(2, 1); // rank 2 will never send this
            }
            p.barrier();
            x[0]
        })
    });
    assert!(result.is_err(), "group must report the poisoned barrier");
}

#[test]
fn recv_timeout_diagnostic_names_the_stuck_edge() {
    // Message-schedule bugs surface as a diagnostic naming the exact
    // (rank, source, tag) edge instead of an eternal hang.
    let result = std::panic::catch_unwind(|| {
        World::run_wall(
            3,
            WallOpts {
                recv_deadline: Some(Duration::from_millis(150)),
            },
            |p| {
                if p.rank() == 2 {
                    p.recv(1, 99); // never sent
                } else {
                    std::thread::sleep(Duration::from_millis(500));
                }
            },
        )
    });
    let err = result.expect_err("deadline must fire");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    for needle in ["rank 2", "from rank 1", "tag 99"] {
        assert!(msg.contains(needle), "diagnostic lacks {needle:?}: {msg}");
    }
}

#[test]
fn broadcast_payloads_are_bit_identical_across_ranks() {
    // The panel broadcast underpins the determinism contract: every
    // rank must see byte-identical reflector data, including exotic
    // values (signed zero, subnormals, NaN payloads).
    let payload = [
        f64::from_bits(0x8000_0000_0000_0000), // -0.0
        f64::from_bits(0x0000_0000_0000_0001), // min subnormal
        f64::from_bits(0x7ff8_0123_4567_89ab), // payload-carrying NaN
        f64::NEG_INFINITY,
        3.5e-310,
    ];
    let out = World::run_wall(4, WallOpts::default(), |p| {
        let got = p.broadcast(1, 5, if p.rank() == 1 { &payload[..] } else { &[] });
        got.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    });
    let want: Vec<u64> = payload.iter().map(|v| v.to_bits()).collect();
    for (rank, got) in out.iter().enumerate() {
        assert_eq!(got, &want, "rank {rank} saw different broadcast bits");
    }
}
