//! Randomized cross-validation sweep: every solver in the workspace is
//! run against every other on hundreds of random configurations, and
//! the worst observed disagreement is reported. A fuzz-style confidence
//! harness on top of the unit/property tests.
//!
//! Run: `cargo run -p bs-bench --release --bin cross_validate [--quick]`

use bs_baselines::{block_levinson_solve, dense_lu_solve, levinson_solve};
use bs_bench::{print_table, quick_mode, sci};
use bs_core::{
    factor_indefinite, factor_spd, solve_refined, IndefOptions, RefineOperator, RefineOptions,
    RepKind, SchurOptions,
};
use bs_simulator::{factor_sharded, Clock, Scheme, ShardOptions};
use bs_toeplitz::workloads;
use std::sync::Arc;

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn main() {
    let timer = bs_bench::RunTimer::start("cross_validate");
    let cases = if quick_mode() { 40 } else { 200 };
    let mut worst_spd = 0.0f64;
    let mut worst_indef = 0.0f64;
    let mut worst_dist = 0.0f64;
    let mut spd_runs = 0usize;
    let mut indef_runs = 0usize;
    let mut dist_runs = 0usize;
    let mut skipped = 0usize;

    for seed in 0..cases {
        let m = 1 + (seed % 4) as usize;
        let p = 4 + (seed % 11) as usize;

        // --- SPD agreement: Schur vs block Levinson vs dense LU. ---
        {
            let t = workloads::random_spd_block(m, p, 10_000 + seed);
            let (b, _) = workloads::rhs_for_ones(&t);
            let rep = RepKind::ALL[seed as usize % RepKind::ALL.len()];
            let opts = SchurOptions {
                rep,
                exec: if seed % 3 == 0 {
                    bs_matrix::ExecPolicy::max_threads()
                } else {
                    bs_matrix::ExecPolicy::sequential()
                },
                two_level: if seed % 5 == 0 { Some(2) } else { None },
                ..Default::default()
            };
            let f = factor_spd(&t, &opts).expect("SPD factorization");
            let x_schur = f.solve(&b).expect("solve");
            let x_bl = block_levinson_solve(&t, &b).expect("block Levinson");
            let x_lu = dense_lu_solve(&t, &b).expect("dense LU");
            worst_spd = worst_spd
                .max(max_err(&x_schur, &x_bl))
                .max(max_err(&x_schur, &x_lu));
            if m == 1 {
                let row: Vec<f64> = (0..t.order()).map(|j| t.get(0, j)).collect();
                let x_lev = levinson_solve(&row, &b).expect("Levinson");
                worst_spd = worst_spd.max(max_err(&x_schur, &x_lev));
            }
            spd_runs += 1;
        }

        // --- Indefinite / singular-minor agreement vs dense LU. ---
        {
            let n = m * p + 2;
            let t = if seed % 2 == 0 {
                workloads::singular_minor_scalar(n, 20_000 + seed)
            } else {
                workloads::random_indefinite_scalar(n, 20_000 + seed)
            };
            let dense_ok = bs_matrix::lu::lu_factor(&t.to_dense());
            let cond = bs_matrix::norms::cond_one_estimate(&t.to_dense());
            if let (Ok(lu), true) = (dense_ok, cond.is_finite() && cond < 1e7) {
                let (b, _) = workloads::rhs_for_ones(&t);
                let x_lu = lu.solve(&b).expect("lu solve");
                match factor_indefinite(&t, &IndefOptions::default()) {
                    Ok(f) => {
                        let res = solve_refined(
                            &t,
                            &RefineOperator::new(&t),
                            &f,
                            &b,
                            &RefineOptions::default(),
                        )
                        .expect("refinement");
                        if res.converged {
                            // Allow conditioning-scaled tolerance.
                            let err = max_err(&res.x, &x_lu) / cond.max(1.0);
                            worst_indef = worst_indef.max(err);
                            indef_runs += 1;
                        } else {
                            skipped += 1;
                        }
                    }
                    Err(_) => skipped += 1,
                }
            } else {
                skipped += 1;
            }
        }

        // --- Distributed vs sequential (every scheme). ---
        if seed % 4 == 0 {
            let mm = if m.is_multiple_of(2) { m } else { 2 * m };
            let t = workloads::random_spd_block(mm, p, 30_000 + seed);
            let seq = factor_spd(&t, &SchurOptions::default()).expect("sequential");
            let scheme = match seed % 3 {
                0 => Scheme::V1,
                1 => Scheme::V2 { b: 2 },
                _ => Scheme::V3 { spread: 2 },
            };
            let np = match scheme {
                Scheme::V3 { spread } => spread * 2,
                _ => 3,
            };
            let opts = ShardOptions {
                clock: Clock::Model(Arc::new(bs_distmem::ZeroCost)),
                ..ShardOptions::new(scheme, np)
            };
            let d = factor_sharded(&t, &opts);
            worst_dist = worst_dist.max(d.r.max_abs_diff(&seq.r));
            dist_runs += 1;
        }
    }

    print_table(
        "Cross-validation sweep",
        &["check", "runs", "worst disagreement", "budget"],
        &[
            vec![
                "SPD: Schur vs {block Levinson, LU, Levinson}".into(),
                spd_runs.to_string(),
                sci(worst_spd),
                "1e-6".into(),
            ],
            vec![
                "indefinite: refined Schur vs LU (cond-scaled)".into(),
                indef_runs.to_string(),
                sci(worst_indef),
                "1e-8".into(),
            ],
            vec![
                "distributed V1/V2/V3 vs sequential R".into(),
                dist_runs.to_string(),
                sci(worst_dist),
                "1e-9".into(),
            ],
        ],
    );
    println!("\nskipped (singular / too ill-conditioned / non-convergent): {skipped}");
    assert!(worst_spd < 1e-6, "SPD disagreement {worst_spd:e}");
    assert!(
        worst_indef < 1e-8,
        "indefinite disagreement {worst_indef:e}"
    );
    assert!(worst_dist < 1e-9, "distributed disagreement {worst_dist:e}");
    println!("all checks within budget");
    timer.finish();
}
