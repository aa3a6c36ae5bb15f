//! Solving a symmetric *indefinite* Toeplitz system whose leading
//! principal minor is singular — the §8 extension: perturbed
//! factorization plus iterative refinement.
//!
//! Uses the exact 6×6 example from §8.2 of the paper and then a larger
//! random singular-minor system.
//!
//! Run: `cargo run --release --example indefinite_refinement`

use block_schur::prelude::*;

fn solve_and_report(t: &SymBlockToeplitz, label: &str) {
    let n = t.order();
    let (b, x_true) = workloads::rhs_for_ones(t);

    let opts = IndefOptions::default();
    let f = factor_indefinite(t, &opts).expect("extended Schur factorization");
    println!(
        "\n[{label}] n = {n}: {} perturbation(s) of δ = {:.2e}, {} exchange(s), inertia: {}−/{}+",
        f.perturbations.len(),
        opts.effective_delta(),
        f.exchanges,
        f.negative_inertia(),
        n - f.negative_inertia(),
    );

    // Direct (perturbed) solve: error is O(δ·cond).
    let x1 = f.solve(&b).unwrap();
    let e1 = x1
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("direct solve error: {e1:.3e}");

    // Refinement pushes it to machine precision in ~2 steps.
    let res = solve_refined(
        t,
        &RefineOperator::new(t),
        &f,
        &b,
        &RefineOptions::default(),
    )
    .unwrap();
    let e2 = res
        .x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "after {} refinement step(s): error {e2:.3e}, corrections: {:?}",
        res.iterations,
        res.correction_norms
            .iter()
            .map(|c| format!("{c:.1e}"))
            .collect::<Vec<_>>()
    );
    assert!(res.converged);
    assert!(e2 < 1e-10);
}

fn main() {
    // The paper's own 6×6 example (singular 2×2 leading minor).
    solve_and_report(&workloads::paper_singular_minor_example(), "paper §8.2");

    // A larger random symmetric Toeplitz with a prescribed singular
    // minor; Levinson-Durbin would break down here.
    let t = workloads::singular_minor_scalar(200, 31);
    let row: Vec<f64> = (0..200).map(|j| t.get(0, j)).collect();
    let (b, _) = workloads::rhs_for_ones(&t);
    assert!(
        block_schur::baselines::levinson_solve(&row, &b).is_err(),
        "Levinson must break down on a singular minor"
    );
    println!("\nLevinson-Durbin breaks down on the random singular-minor system, as expected");
    solve_and_report(&t, "random singular-minor, n = 200");
    println!("\nok");
}
