//! §8.2 worked example: the 6×6 symmetric Toeplitz matrix with first
//! row (1, 1, 0.5297, 0.6711, 0.0077, 0.3834), whose leading 2×2 minor
//! is singular.
//!
//! Paper numbers (δ = 10⁻⁵, x = 1⃗):
//!   b              = (3.5919, 4.2085, 4.7305, 4.7305, 4.2085, 3.5919)
//!   ‖x − x₁‖       ≈ 3.6375e−5   (after the perturbed direct solve)
//!   ‖x − x₂‖       ≈ 6.9982e−10  (after 1 refinement step)
//!   ‖x − x₃‖       ≈ 1.5877e−14  (after 2 refinement steps)
//!   ‖δT·T⁻¹‖       ≈ 2.8753e−5
//!
//! Run: `cargo run -p bs-bench --release --bin sec8_example`

use bs_bench::{print_table, sci};
use bs_core::{factor_indefinite, solve_refined, IndefOptions, RefineOperator, RefineOptions};
use bs_matrix::Matrix;
use bs_toeplitz::workloads;

fn main() {
    let timer = bs_bench::RunTimer::start("sec8_example");
    let t = workloads::paper_singular_minor_example();
    let (b, x_true) = workloads::rhs_for_ones(&t);
    println!(
        "b = {:?}  (paper: 3.5919 4.2085 4.7305 4.7305 4.2085 3.5919)",
        b
    );

    let opts = IndefOptions {
        delta: Some(1e-5),
        ..Default::default()
    };
    let f = factor_indefinite(&t, &opts).unwrap();
    println!(
        "\nperturbations: {} (step {}, column {}, delta {:.1e});  exchanges: {};  max ‖U‖ est: {:.4e}",
        f.perturbations.len(),
        f.perturbations[0].step,
        f.perturbations[0].column,
        f.perturbations[0].delta,
        f.exchanges,
        f.max_reflector_norm,
    );
    println!("signature D = {:?}", f.d);

    // ‖δT · T⁻¹‖ — the refinement convergence factor γ (eq. 41).
    let dense = t.to_dense();
    let rec = f.reconstruct();
    let mut dt = rec.clone();
    dt.axpy(-1.0, &dense);
    let lu = bs_matrix::lu::lu_factor(&dense).unwrap();
    // M = δT · T⁻¹ columnwise: column j of M solves Tᵀ mᵀ... use
    // M = δT · T⁻¹  =>  Mᵀ = T⁻ᵀ δTᵀ; both symmetric here, column by column.
    let n = 6;
    let mut m = Matrix::zeros(n, n);
    for j in 0..n {
        // (T⁻¹ δT) column j, then transpose-relate: since both are
        // symmetric, ‖δT T⁻¹‖₂ = ‖T⁻¹ δT‖₂.
        let col: Vec<f64> = (0..n).map(|i| dt[(i, j)]).collect();
        let x = lu.solve(&col).unwrap();
        for i in 0..n {
            m[(i, j)] = x[i];
        }
    }
    let gamma = bs_matrix::norms::mat_two_estimate(&m, 100);
    println!("‖δT·T⁻¹‖₂ ≈ {gamma:.4e}  (paper: 2.8753e−5)");

    // Refinement trace.
    let x1 = f.solve(&b).unwrap();
    let mut rows = Vec::new();
    let err = |x: &[f64]| -> f64 {
        x.iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    };
    rows.push(vec![
        "x1 (direct)".into(),
        sci(err(&x1)),
        "3.6375e-5".into(),
    ]);
    let res = solve_refined(
        &t,
        &RefineOperator::new(&t),
        &f,
        &b,
        &RefineOptions::default(),
    )
    .unwrap();
    // Recompute the per-iterate errors by replaying.
    let mut x = x1.clone();
    for (i, _) in res.correction_norms.iter().enumerate() {
        let r = t.residual(&x, &b);
        let dx = f.solve(&r).unwrap();
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        let paper = match i {
            0 => "6.9982e-10",
            1 => "1.5877e-14",
            _ => "-",
        };
        rows.push(vec![
            format!("x{} (refined)", i + 2),
            sci(err(&x)),
            paper.into(),
        ]);
        if i >= 2 {
            break;
        }
    }
    print_table(
        "§8.2 — iterative refinement on the singular-minor example (δ = 1e−5)",
        &["iterate", "‖x − xᵢ‖₂", "paper"],
        &rows,
    );
    println!(
        "\nrefinement converged = {} in {} steps (paper: two steps suffice)",
        res.converged, res.iterations
    );
    timer.finish();
}
