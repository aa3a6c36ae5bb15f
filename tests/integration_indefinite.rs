//! End-to-end indefinite / singular-minor pipeline tests (§8):
//! extended Schur factorization + iterative refinement, validated
//! against dense LU solutions.

use block_schur::baselines::dense_lu_solve;
use block_schur::prelude::*;

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn refinement_matches_dense_lu_on_many_singular_minor_systems() {
    for seed in 0..10 {
        let n = 40 + (seed as usize % 3) * 17;
        let t = workloads::singular_minor_scalar(n, 500 + seed);
        let (b, _) = workloads::rhs_for_ones(&t);
        let x_lu = match dense_lu_solve(&t, &b) {
            Ok(x) => x,
            Err(_) => continue, // matrix itself singular: skip
        };
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        let res = solve_refined(
            &t,
            &RefineOperator::new(&t),
            &f,
            &b,
            &RefineOptions::default(),
        )
        .unwrap();
        assert!(res.converged, "seed {seed}");
        assert!(
            max_err(&res.x, &x_lu) < 1e-9,
            "seed {seed}: {:e}",
            max_err(&res.x, &x_lu)
        );
    }
}

#[test]
fn indefinite_block_systems_solve() {
    for seed in 0..5 {
        let t = workloads::random_indefinite_block(2, 8, 700 + seed);
        let (b, x_true) = workloads::rhs_for_ones(&t);
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        let res = solve_refined(
            &t,
            &RefineOperator::new(&t),
            &f,
            &b,
            &RefineOptions::default(),
        )
        .unwrap();
        assert!(
            max_err(&res.x, &x_true) < 1e-9,
            "seed {seed}: {:e}",
            max_err(&res.x, &x_true)
        );
    }
}

#[test]
fn inertia_matches_dense_ldlt_across_seeds() {
    for seed in 0..8 {
        let t = workloads::random_indefinite_scalar(20, 900 + seed);
        let f = match factor_indefinite(
            &t,
            &IndefOptions {
                allow_perturbation: false,
                ..Default::default()
            },
        ) {
            Ok(f) => f,
            Err(_) => continue, // near-singular minor: skip without perturbation
        };
        let mut dense = t.to_dense();
        let d = match block_schur::matrix::ldlt::ldlt_in_place(dense.mt(), 1e-12) {
            Ok(d) => d,
            Err(_) => continue,
        };
        let neg_dense = d.iter().filter(|&&v| v < 0.0).count();
        assert_eq!(
            f.negative_inertia(),
            neg_dense,
            "seed {seed}: Sylvester inertia mismatch"
        );
    }
}

#[test]
fn delta_tradeoff_larger_delta_needs_more_refinement() {
    // Eq. 45: error ≈ δ + ε/δ². Both very small and very large δ are
    // bad; the direct-solve error grows with δ.
    let t = workloads::paper_singular_minor_example();
    let (b, x_true) = workloads::rhs_for_ones(&t);
    let mut direct_errors = Vec::new();
    for delta in [1e-7, 1e-5, 1e-3] {
        let f = factor_indefinite(
            &t,
            &IndefOptions {
                delta: Some(delta),
                zero_tol: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
        let x1 = f.solve(&b).unwrap();
        direct_errors.push(max_err(&x1, &x_true));
    }
    // Direct error grows with delta (the δ term of eq. 45 dominates
    // at these magnitudes).
    assert!(
        direct_errors[0] < direct_errors[1] && direct_errors[1] < direct_errors[2],
        "direct errors not monotone in delta: {direct_errors:?}"
    );
    // And refinement cleans all of them up.
    for delta in [1e-7, 1e-5, 1e-3] {
        let f = factor_indefinite(
            &t,
            &IndefOptions {
                delta: Some(delta),
                zero_tol: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
        let res = solve_refined(
            &t,
            &RefineOperator::new(&t),
            &f,
            &b,
            &RefineOptions::default(),
        )
        .unwrap();
        assert!(
            max_err(&res.x, &x_true) < 1e-10,
            "delta={delta:e}: {:e}",
            max_err(&res.x, &x_true)
        );
    }
}

#[test]
fn spd_input_through_indefinite_path_matches_spd_driver() {
    let t = workloads::random_spd_scalar(32, 4);
    let fi = factor_indefinite(&t, &IndefOptions::default()).unwrap();
    let fs = factor_spd(&t, &SchurOptions::default()).unwrap();
    assert!(fi.d.iter().all(|&s| s > 0));
    assert!(fi.r.max_abs_diff(&fs.r) < 1e-9);
}

#[test]
fn pcg_and_refinement_agree() {
    let t = workloads::singular_minor_scalar(64, 77);
    let (b, _) = workloads::rhs_for_ones(&t);
    let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
    let res = solve_refined(
        &t,
        &RefineOperator::new(&t),
        &f,
        &b,
        &RefineOptions::default(),
    )
    .unwrap();
    let cg = block_schur::baselines::pcg(|v| t.matvec(v), |r| f.solve(r).unwrap(), &b, 1e-13, 50);
    assert!(cg.converged);
    assert!(max_err(&res.x, &cg.x) < 1e-9);
}
