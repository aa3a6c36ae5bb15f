//! Iterative refinement (§8.1 of the paper).
//!
//! Given the (possibly perturbed) factorization `T + δT = Rᵀ D R`, the
//! refinement loop
//!
//! ```text
//! solve  Rᵀ D R x₁ = b
//! repeat: rᵢ = b − T xᵢ ;  solve RᵀDR Δxᵢ = rᵢ ;  xᵢ₊₁ = xᵢ + Δxᵢ
//! ```
//!
//! converges linearly with factor `γ ≈ ‖ΔT T⁻¹‖` (eq. 41). With the
//! optimum perturbation `δ = ε^{1/3}` the paper predicts ≈3 steps to
//! machine precision, and observes that two are typically sufficient.
//! Each iteration costs one Toeplitz residual plus two triangular
//! solves (`2n²` flops) — well below one PCG iteration with the same
//! preconditioner, which needs those *and* the preconditioner
//! application bookkeeping of a Krylov step.
//!
//! The residual's operator side is prepared once per operator as a
//! [`RefineOperator`]: `‖T‖∞` for the stopping rule and, on operators
//! where [`FastToeplitzMatVec::pays_off`], the FFT symbols, so a round's
//! residual costs `O(m² p log p)` instead of the direct `2n²`.
//! [`crate::Factor`] builds it when it factors an operator whose solves
//! refine and keeps it for every solve.

use crate::indefinite::IndefFactor;
use crate::{Error, Result};
use bs_matrix::norms::vec_two;
use bs_probe::metrics::{self, Counter};
use bs_probe::stability;
use bs_toeplitz::{FastToeplitzMatVec, SymBlockToeplitz};

/// Options for [`solve_refined`]: when to stop. How residuals are
/// computed is not an option; the [`RefineOperator`] picks the product
/// from the operator's shape.
#[derive(Clone, Debug)]
pub struct RefineOptions {
    /// Stop when `‖Δxᵢ‖ ≤ tol · ‖xᵢ‖` (the paper's criterion).
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iter: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            tol: 4.0 * f64::EPSILON,
            max_iter: 20,
        }
    }
}

/// The operator side of the refinement loop, prepared once per
/// operator: `‖T‖∞` for the residual floor and, when the shape favours
/// it ([`FastToeplitzMatVec::pays_off`]), the circulant-embedding
/// symbols the residuals are computed with. Build it again when the
/// operator's values change.
///
/// ```
/// use bs_core::refine::{solve_refined, RefineOperator, RefineOptions};
/// use bs_core::{factor_indefinite, IndefOptions};
/// use bs_toeplitz::workloads;
///
/// let t = workloads::singular_minor_scalar(64, 3);
/// let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
/// let op = RefineOperator::new(&t);
/// assert!(op.uses_fft());
/// let (b, x_true) = workloads::rhs_for_ones(&t);
/// let res = solve_refined(&t, &op, &f, &b, &RefineOptions::default()).unwrap();
/// assert!(res.converged && (res.x[7] - x_true[7]).abs() < 1e-10);
/// ```
#[derive(Clone, Debug)]
pub struct RefineOperator {
    order: usize,
    norm_inf: f64,
    fast: Option<FastToeplitzMatVec>,
}

impl RefineOperator {
    /// Prepare the residual side of refinement against `t`.
    pub fn new(t: &SymBlockToeplitz) -> Self {
        RefineOperator {
            order: t.order(),
            norm_inf: t.norm_inf(),
            fast: FastToeplitzMatVec::pays_off(t.num_blocks()).then(|| FastToeplitzMatVec::new(t)),
        }
    }

    /// Whether residuals go through the FFT product.
    pub fn uses_fft(&self) -> bool {
        self.fast.is_some()
    }

    /// Normwise backward error `‖b − T x‖₂ / (‖T‖∞ ‖x‖₂ + ‖b‖₂)` of
    /// the final iterate of `res`, from its last residual norm.
    pub(crate) fn backward_error(&self, res: &RefineResult, b: &[f64]) -> f64 {
        let rnorm = res.residual_norms.last().copied().unwrap_or(f64::INFINITY);
        rnorm / (self.norm_inf * vec_two(&res.x) + vec_two(b)).max(f64::MIN_POSITIVE)
    }

    fn residual(&self, t: &SymBlockToeplitz, x: &[f64], b: &[f64]) -> Vec<f64> {
        match &self.fast {
            Some(f) => f.residual(x, b),
            None => t.residual(x, b),
        }
    }
}

/// Outcome of the refinement loop.
#[derive(Clone, Debug)]
#[must_use]
pub struct RefineResult {
    /// Final solution estimate.
    pub x: Vec<f64>,
    /// Refinement iterations actually performed (0 = the direct solve
    /// already met the tolerance).
    pub iterations: usize,
    /// `‖Δxᵢ‖₂` per iteration — the §8.2 experiment's convergence
    /// trace.
    pub correction_norms: Vec<f64>,
    /// `‖b − T xᵢ‖₂` per iterate, starting with the direct solve.
    pub residual_norms: Vec<f64>,
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
}

impl RefineResult {
    /// Whether the loop stopped because its corrections stopped
    /// shrinking (`‖Δxᵢ‖ ≥ ‖Δxᵢ₋₁‖/2`) while the residual was still
    /// above the backward-stable floor — as opposed to meeting the
    /// tolerance or running out of `max_iter`.
    pub(crate) fn stagnated(&self) -> bool {
        !self.converged && stalled(&self.correction_norms)
    }
}

/// The last correction is at least half the one before it.
fn stalled(correction_norms: &[f64]) -> bool {
    matches!(correction_norms, [.., prev, last] if *last >= 0.5 * *prev)
}

/// Solve `T x = b` by the direct (perturbed) factorization plus
/// iterative refinement, with residuals through `op` (prepared from
/// `t`).
pub fn solve_refined(
    t: &SymBlockToeplitz,
    op: &RefineOperator,
    factor: &IndefFactor,
    b: &[f64],
    opts: &RefineOptions,
) -> Result<RefineResult> {
    let n = t.order();
    for (context, found) in [
        ("right-hand side length", b.len()),
        ("factor order", factor.order()),
        ("refinement operator order", op.order),
    ] {
        if found != n {
            return Err(Error::DimensionMismatch {
                context,
                expected: n,
                found,
            });
        }
    }
    let _span = bs_probe::span!("refine", n = n, max_iter = opts.max_iter);
    let mut x = factor.solve(b)?;
    let mut correction_norms: Vec<f64> = Vec::new();
    let mut residual_norms = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    let r0 = op.residual(t, &x, b);
    let r0_norm = vec_two(&r0);
    residual_norms.push(r0_norm);
    stability::record_residual(r0_norm);
    let mut resid = r0;
    let tnorm = op.norm_inf.max(f64::MIN_POSITIVE);
    let bnorm = vec_two(b);

    for _ in 0..opts.max_iter {
        let dx = factor.solve(&resid)?;
        let dx_norm = vec_two(&dx);
        let x_norm = vec_two(&x).max(f64::MIN_POSITIVE);
        correction_norms.push(dx_norm);
        let stagnated = stalled(&correction_norms);
        // Always apply the correction — it is already computed and can
        // only help; then test the paper's criterion.
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        bs_matrix::flops::add(x.len() as u64);
        iterations += 1;
        metrics::incr(Counter::RefineIterations);
        resid = op.residual(t, &x, b);
        let rnorm = vec_two(&resid);
        residual_norms.push(rnorm);
        stability::record_residual(rnorm);
        // Eq. 42's steady state: once corrections stop shrinking the
        // iterate sits at the attainable accuracy; accept it when the
        // residual is at the backward-stable level ε(‖T‖‖x‖ + ‖b‖).
        let resid_floor = 64.0 * f64::EPSILON * (tnorm * x_norm + bnorm);
        if dx_norm <= opts.tol * x_norm || (stagnated && rnorm <= resid_floor) {
            converged = true;
            break;
        }
        if stagnated {
            // Corrections stopped shrinking while the residual is still
            // large: the factorization is too inaccurate for refinement
            // to help further (γ too large). Report non-convergence.
            break;
        }
    }

    Ok(RefineResult {
        x,
        iterations,
        correction_norms,
        residual_norms,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indefinite::{factor_indefinite, IndefOptions};
    use bs_toeplitz::workloads;

    fn refine(t: &SymBlockToeplitz, f: &IndefFactor, b: &[f64]) -> RefineResult {
        solve_refined(t, &RefineOperator::new(t), f, b, &RefineOptions::default()).unwrap()
    }

    fn err_inf(x: &[f64], y: &[f64]) -> f64 {
        x.iter()
            .zip(y)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn paper_example_converges_in_two_steps() {
        // §8.2: errors ≈ 3.6e−5 → 7.0e−10 → 1.6e−14 with δ = 1e−5.
        let t = workloads::paper_singular_minor_example();
        let opts = IndefOptions {
            delta: Some(1e-5),
            ..Default::default()
        };
        let f = factor_indefinite(&t, &opts).unwrap();
        let (b, x_true) = workloads::rhs_for_ones(&t);

        // Reproduce the error sequence manually.
        let x1 = f.solve(&b).unwrap();
        let e1 = err_inf(&x1, &x_true);
        assert!(e1 > 1e-8 && e1 < 1e-2, "e1 = {e1:e} (paper: 3.6e−5)");

        let res = refine(&t, &f, &b);
        assert!(res.converged);
        assert!(
            res.iterations <= 4,
            "paper: two refinement steps typically suffice; got {}",
            res.iterations
        );
        let efinal = err_inf(&res.x, &x_true);
        assert!(efinal < 1e-12, "final error {efinal:e} (paper: 1.6e−14)");

        // Each refinement step must shrink the error by orders of
        // magnitude (linear convergence with tiny γ).
        if res.correction_norms.len() >= 2 {
            assert!(res.correction_norms[1] < 1e-3 * res.correction_norms[0]);
        }
    }

    #[test]
    fn refinement_on_unperturbed_factor_is_immediate() {
        let t = workloads::random_spd_scalar(20, 9);
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        let (b, x_true) = workloads::rhs_for_ones(&t);
        let res = refine(&t, &f, &b);
        assert!(res.converged);
        assert!(res.iterations <= 2);
        assert!(err_inf(&res.x, &x_true) < 1e-12);
    }

    #[test]
    fn refinement_fixes_random_singular_minor_systems() {
        for seed in 0..5 {
            let t = workloads::singular_minor_scalar(12, 100 + seed);
            let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
            let (b, x_true) = workloads::rhs_for_ones(&t);
            let res = refine(&t, &f, &b);
            assert!(res.converged, "seed {seed} did not converge");
            let e = err_inf(&res.x, &x_true);
            assert!(e < 1e-10, "seed {seed}: error {e:e}");
        }
    }

    #[test]
    fn residual_norms_are_monotone_enough() {
        let t = workloads::paper_singular_minor_example();
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        let (b, _) = workloads::rhs_for_ones(&t);
        let res = refine(&t, &f, &b);
        // First refinement step must reduce the residual dramatically.
        assert!(res.residual_norms.len() >= 2);
        assert!(res.residual_norms[1] < res.residual_norms[0] * 1e-2);
    }

    #[test]
    fn max_iter_zero_returns_direct_solution() {
        let t = workloads::random_spd_scalar(10, 3);
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        let (b, _) = workloads::rhs_for_ones(&t);
        let res = solve_refined(
            &t,
            &RefineOperator::new(&t),
            &f,
            &b,
            &RefineOptions {
                max_iter: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(res.iterations, 0);
        assert!(!res.converged);
        let direct = f.solve(&b).unwrap();
        assert_eq!(res.x, direct);
    }
}

#[cfg(test)]
mod fft_residual_tests {
    use super::*;
    use crate::indefinite::{factor_indefinite, IndefOptions};
    use bs_toeplitz::workloads;

    #[test]
    fn refinement_converges_on_both_sides_of_the_crossover() {
        // Order 8 keeps the direct residual, order 96 takes the FFT one.
        for (n, fft) in [(8usize, false), (96, true)] {
            let t = workloads::singular_minor_scalar(n, 12);
            let op = RefineOperator::new(&t);
            assert_eq!(op.uses_fft(), fft, "n={n}");
            let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
            assert!(
                !f.perturbations.is_empty(),
                "n={n}: the minor must be perturbed"
            );
            let (b, x_true) = workloads::rhs_for_ones(&t);
            let res = solve_refined(&t, &op, &f, &b, &RefineOptions::default()).unwrap();
            assert!(res.converged, "n={n}");
            for i in 0..n {
                assert!((res.x[i] - x_true[i]).abs() < 1e-10, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_shapes_are_typed_errors() {
        let t = workloads::singular_minor_scalar(16, 2);
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        let op = RefineOperator::new(&t);
        let opts = RefineOptions::default();
        assert!(matches!(
            solve_refined(&t, &op, &f, &[1.0; 15], &opts),
            Err(Error::DimensionMismatch {
                context: "right-hand side length",
                expected: 16,
                found: 15,
            })
        ));
        let (b, _) = workloads::rhs_for_ones(&t);
        let other = RefineOperator::new(&workloads::kms(12, 0.5));
        assert!(matches!(
            solve_refined(&t, &other, &f, &b, &opts),
            Err(Error::DimensionMismatch {
                context: "refinement operator order",
                expected: 16,
                found: 12,
            })
        ));
    }
}
