//! §8 claims about iterative refinement, quantified:
//!
//! 1. "typically two steps of iterative refinement are sufficient" on
//!    singular-minor Toeplitz systems perturbed with `δ = ε^{1/3}`;
//! 2. "the iterative refinement technique we propose requires
//!    significantly lesser work than the preconditioned
//!    conjugate-gradient algorithm per iteration" — both use the same
//!    perturbed `LDLᵀ` factorization; refinement does one Toeplitz
//!    matvec + one factor solve per step, PCG adds the Krylov
//!    bookkeeping (extra inner products and vector updates).
//!
//! Run: `cargo run -p bs-bench --release --bin refinement_study [--quick]`

use bs_baselines::pcg;
use bs_bench::{print_table, quick_mode, sci};
use bs_core::{factor_indefinite, solve_refined, IndefOptions, RefineOperator, RefineOptions};
use bs_toeplitz::workloads;

fn main() {
    let timer = bs_bench::RunTimer::start("refinement_study");
    let sizes: &[usize] = if quick_mode() {
        &[64, 128]
    } else {
        &[64, 256, 1024]
    };
    let seeds = 0..8u64;

    let mut rows = Vec::new();
    for &n in sizes {
        for seed in seeds.clone() {
            let t = workloads::singular_minor_scalar(n, 1000 + seed);
            let f = match factor_indefinite(&t, &IndefOptions::default()) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("n={n} seed={seed}: {e}");
                    continue;
                }
            };
            let (b, x_true) = workloads::rhs_for_ones(&t);

            // Refinement: count flops, plus the *marginal* cost of one
            // refinement iteration (residual + factor solve), which is
            // the honest per-iteration comparison with PCG.
            bs_matrix::flops::reset();
            let res = solve_refined(
                &t,
                &RefineOperator::new(&t),
                &f,
                &b,
                &RefineOptions::default(),
            )
            .unwrap();
            let ref_flops = bs_matrix::flops::get();
            let (_, ref_iter_flops) = bs_matrix::flops::measure(|| {
                let r = t.residual(&res.x, &b);
                let _ = f.solve(&r).unwrap();
            });
            let err_ref: f64 = res
                .x
                .iter()
                .zip(&x_true)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            // "Meaningful" steps: corrections above the roundoff floor.
            let significant = res
                .correction_norms
                .iter()
                .filter(|&&c| c > 1e3 * f64::EPSILON * (n as f64).sqrt())
                .count();

            // PCG with the same factorization as preconditioner.
            bs_matrix::flops::reset();
            let cg = pcg(|v| t.matvec(v), |r| f.solve(r).unwrap(), &b, 1e-13, 100);
            let pcg_flops = bs_matrix::flops::get();
            let err_pcg: f64 =
                cg.x.iter()
                    .zip(&x_true)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);

            rows.push(vec![
                n.to_string(),
                seed.to_string(),
                f.perturbations.len().to_string(),
                significant.to_string(),
                sci(err_ref),
                cg.iterations.to_string(),
                sci(err_pcg),
                format!(
                    "{:.3}",
                    (pcg_flops as f64 / cg.iterations.max(1) as f64) / ref_iter_flops as f64
                ),
                format!("{:.2}", pcg_flops as f64 / ref_flops as f64),
            ]);
        }
    }
    print_table(
        "§8 — refinement vs preconditioned CG on singular-minor Toeplitz systems",
        &[
            "n",
            "seed",
            "perts",
            "refine steps",
            "refine err",
            "PCG iters",
            "PCG err",
            "PCG/refine flops per iter",
            "PCG/refine total flops",
        ],
        &rows,
    );
    println!(
        "\npaper: two refinement steps typically suffice; refinement is cheaper per iteration\n\
         than PCG with the same perturbed-LDL^T preconditioner (the per-iteration gap is the\n\
         Krylov bookkeeping, O(n) on top of the shared matvec + solve, so the ratio tends to\n\
         1 from above as n grows; the bigger win is needing fewer iterations)"
    );
    timer.finish();
}
