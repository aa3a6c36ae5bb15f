//! Solving a large Toeplitz system end to end with the [`Factor`]
//! handle: automatic SPD/indefinite dispatch, block size tuning, and
//! FFT-accelerated residual verification.
//!
//! Run: `cargo run --release --example large_system`

use block_schur::prelude::*;
use block_schur::toeplitz::FastToeplitzMatVec;
use std::time::Instant;

fn main() {
    let n = 4096;
    let t = workloads::random_spd_scalar(n, 99);
    let (b, x_true) = workloads::rhs_for_ones(&t);

    // Factor with a tuned algorithmic block size (§6.5) under a pinned
    // plan.
    let spd = SchurOptions {
        block_size: Some(8),
        exec: ExecPolicy::max_threads(),
        ..Default::default()
    };
    let start = Instant::now();
    let plan = FactorPlan::from_options(&t, &spd, &IndefOptions::default()).expect("plan");
    let solver = Factor::from_plan(&t, plan, RefineOptions::default()).expect("factorization");
    let t_factor = start.elapsed();

    let start = Instant::now();
    let x = solver.solve(&b).expect("solve");
    let t_solve = start.elapsed();

    println!(
        "n = {n}: factored in {:.1} ms (m_s = 8, pooled), solved in {:.2} ms",
        t_factor.as_secs_f64() * 1e3,
        t_solve.as_secs_f64() * 1e3
    );
    println!("positive definite: {}", solver.is_positive_definite());
    let (sign, ln_det) = solver.det_sign_ln();
    println!("det: sign {sign:+.0}, ln|det| = {ln_det:.3}");

    // Verify with the O(n log n) product — the full residual costs
    // ~n log n instead of n².
    let fast = FastToeplitzMatVec::new(&t);
    let start = Instant::now();
    let r = fast.residual(&x, &b);
    let t_res = start.elapsed();
    let rn = block_schur::matrix::norms::vec_two(&r);
    let bn = block_schur::matrix::norms::vec_two(&b);
    println!(
        "relative residual ‖b − Tx‖/‖b‖ = {:.3e} (FFT check in {:.2} ms)",
        rn / bn,
        t_res.as_secs_f64() * 1e3
    );
    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("‖x − x*‖_inf = {err:.3e}");
    assert!(rn / bn < 1e-12 && err < 1e-7);

    // The same API transparently handles a large indefinite
    // singular-minor system via perturbation + FFT-assisted refinement.
    let ti = workloads::singular_minor_scalar(n, 5);
    let (bi, xi_true) = workloads::rhs_for_ones(&ti);
    let start = Instant::now();
    let solver_i = Factor::new(&ti).expect("indefinite factorization");
    let xi = solver_i.solve(&bi).expect("refined solve");
    println!(
        "\nindefinite singular-minor system (n = {n}): solved in {:.1} ms total",
        start.elapsed().as_secs_f64() * 1e3
    );
    let (pos, neg) = solver_i.inertia();
    println!("inertia: {pos}+ / {neg}-");
    let erri = xi
        .iter()
        .zip(&xi_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("‖x − x*‖_inf = {erri:.3e}");
    assert!(erri < 1e-6);
    println!("ok");
}
