//! Baseline agreement tests: every solver in the workspace must agree
//! on the same systems, and each must fail exactly where theory says.

use block_schur::baselines::{
    cg, dense_cholesky_solve, dense_lu_solve, levinson_solve, scalar_schur_factor,
};
#[allow(unused_imports)]
use block_schur::core::{factor_indefinite, IndefOptions};
use block_schur::prelude::*;

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn first_row(t: &SymBlockToeplitz) -> Vec<f64> {
    (0..t.order()).map(|j| t.get(0, j)).collect()
}

#[test]
fn four_solvers_agree_on_spd_scalar_system() {
    let n = 64;
    let t = workloads::random_spd_scalar(n, 13);
    let (b, _) = workloads::rhs_for_ones(&t);

    let x_lev = levinson_solve(&first_row(&t), &b).unwrap();
    let x_chol = dense_cholesky_solve(&t, &b).unwrap();
    let x_lu = dense_lu_solve(&t, &b).unwrap();
    let f = factor_spd(&t, &SchurOptions::default()).unwrap();
    let x_schur = f.solve(&b).unwrap();
    let x_cg = cg(|v| t.matvec(v), &b, 1e-13, 500).x;

    for (label, x) in [
        ("levinson", &x_lev),
        ("dense lu", &x_lu),
        ("schur", &x_schur),
        ("cg", &x_cg),
    ] {
        assert!(
            max_err(x, &x_chol) < 1e-7,
            "{label} vs cholesky: {:e}",
            max_err(x, &x_chol)
        );
    }
}

#[test]
fn scalar_schur_and_block_schur_same_factor() {
    for seed in 0..4 {
        let t = workloads::random_spd_scalar(40, 20 + seed);
        let r1 = scalar_schur_factor(&first_row(&t)).unwrap();
        let f = factor_spd(&t, &SchurOptions::default()).unwrap();
        assert!(r1.max_abs_diff(&f.r) < 1e-9, "seed {seed}");
    }
}

#[test]
fn breakdown_happens_exactly_on_non_spd_inputs() {
    // All SPD-only methods break on the indefinite matrix; LU and the
    // extended Schur still solve it.
    let t = workloads::random_indefinite_scalar(24, 5);
    let row = first_row(&t);
    let (b, x_true) = workloads::rhs_for_ones(&t);

    assert!(levinson_solve(&row, &b).is_err());
    assert!(scalar_schur_factor(&row).is_err());
    assert!(dense_cholesky_solve(&t, &b).is_err());
    assert!(factor_spd(&t, &SchurOptions::default()).is_err());

    let x_lu = dense_lu_solve(&t, &b).unwrap();
    let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
    let res = solve_refined(
        &t,
        &RefineOperator::new(&t),
        &f,
        &b,
        &RefineOptions::default(),
    )
    .unwrap();
    assert!(max_err(&res.x, &x_lu) < 1e-8);
    assert!(max_err(&res.x, &x_true) < 1e-8);
}

#[test]
fn schur_asymptotically_cheaper_than_dense_cholesky() {
    // Flop instrumentation: O(m n²) vs O(n³/3).
    let n = 256;
    let t = workloads::random_spd_scalar(n, 2);
    block_schur::matrix::flops::reset();
    let _ = factor_spd(&t, &SchurOptions::default()).unwrap();
    let schur_flops = block_schur::matrix::flops::get();

    block_schur::matrix::flops::reset();
    let _ = block_schur::matrix::chol::cholesky(&t.to_dense()).unwrap();
    let chol_flops = block_schur::matrix::flops::get();

    assert!(
        schur_flops * 2 < chol_flops,
        "schur {schur_flops} vs cholesky {chol_flops}"
    );
}

#[test]
fn cg_iteration_count_tracks_conditioning() {
    let well = workloads::kms(64, 0.3);
    let ill = workloads::kms(64, 0.97);
    let (bw, _) = workloads::rhs_for_ones(&well);
    let (bi, _) = workloads::rhs_for_ones(&ill);
    let rw = cg(|v| well.matvec(v), &bw, 1e-10, 500);
    let ri = cg(|v| ill.matvec(v), &bi, 1e-10, 500);
    assert!(rw.converged && ri.converged);
    assert!(
        rw.iterations < ri.iterations,
        "well {} vs ill {}",
        rw.iterations,
        ri.iterations
    );
}

#[test]
fn spectrum_predicts_cg_behaviour() {
    // κ₂(KMS(ρ)) grows with ρ, and CG needs ~√κ iterations: the exact
    // spectrum from the symmetric eigensolver must order both.
    let mut conds = Vec::new();
    let mut iters = Vec::new();
    for rho in [0.3, 0.6, 0.9] {
        let t = workloads::kms(48, rho);
        let cond = block_schur::matrix::eig::spd_condition(&t.to_dense()).unwrap();
        let (b, _) = workloads::rhs_for_ones(&t);
        let res = cg(|v| t.matvec(v), &b, 1e-10, 1000);
        assert!(res.converged);
        conds.push(cond);
        iters.push(res.iterations);
    }
    assert!(conds[0] < conds[1] && conds[1] < conds[2], "{conds:?}");
    assert!(iters[0] <= iters[1] && iters[1] <= iters[2], "{iters:?}");
}

#[test]
fn eigen_inertia_matches_schur_signature() {
    for seed in [3u64, 9, 21] {
        let t = workloads::random_indefinite_scalar(18, seed);
        let ev = block_schur::matrix::eig::sym_eigenvalues(&t.to_dense()).unwrap();
        let neg_eig = ev.iter().filter(|&&v| v < 0.0).count();
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        if f.perturbations.is_empty() {
            assert_eq!(f.negative_inertia(), neg_eig, "seed {seed}");
        }
    }
}
