//! The extended Schur algorithm for symmetric *indefinite* (block)
//! Toeplitz matrices, including singular principal minors (§8).
//!
//! Three mechanisms on top of the SPD algorithm:
//!
//! - **General signature.** The leading block is factored
//!   `T̂₁ = L₁ Σ L₁ᵀ` and the working signature becomes
//!   `W = diag(Σ, −Σ)` (eq. 11).
//! - **Row exchanges.** When a pivot column's hyperbolic norm has the
//!   wrong sign for the pivot position, the pivot row is swapped with a
//!   lower-half generator row of matching signature ("interchanging
//!   rows such that the pivot element always lies along the diagonal
//!   row of the pivot block"). The exchange is sound because both the
//!   pivot row (upper triangular invariant) and the lower rows
//!   (already eliminated) are zero in the processed panel columns.
//! - **Perturbation.** When the hyperbolic norm is numerically zero
//!   (singular principal minor), the pivot entry is scaled by
//!   `√(1+δ)` with `δ ≈ ε^{1/3}` — exactly the §8.2 recipe (their
//!   perturbed entry `1.0000049999875 = √(1+10⁻⁵)`). The factorization
//!   then applies to `T + δT`; iterative refinement ([`crate::refine`])
//!   removes the `O(δ)` solution error.
//!
//! The elimination is performed reflector-by-reflector (the paper's
//! "sequential" option): with row exchanges interleaved the blocked
//! representations of §4 no longer commute past the permutations, and
//! the indefinite experiments of §8 are about accuracy, not peak rate.

use crate::eliminate::{eliminate_indefinite, Attempt, EngineScratch};
use crate::solve;
use crate::{Error, Result};
use bs_matrix::{Matrix, Scalar, Workspace};
use bs_toeplitz::SymBlockToeplitz;

/// Options for [`factor_indefinite`].
#[derive(Clone, Debug)]
pub struct IndefOptions {
    /// Perturbation size `δ` for singular minors; `None` selects the
    /// analysis optimum `ε^{1/3}` (eq. 45-46), with `ε` the unit
    /// roundoff of the factorization's own precision: 6.1e-6 for an
    /// f64 factor, 4.9e-3 for an f32 one (f64's δ is at f32 rounding
    /// level, where refinement stalls).
    pub delta: Option<f64>,
    /// Whether singular minors may be perturbed at all. When `false`
    /// a singular minor aborts with [`Error::SingularMinor`].
    pub allow_perturbation: bool,
    /// Relative threshold below which `|uᵀWu|` counts as zero.
    pub zero_tol: f64,
}

impl Default for IndefOptions {
    fn default() -> Self {
        IndefOptions {
            delta: None,
            allow_perturbation: true,
            zero_tol: 1e-7,
        }
    }
}

impl IndefOptions {
    /// Effective perturbation size of an f64 factorization.
    pub fn effective_delta(&self) -> f64 {
        self.effective_delta_for::<f64>()
    }

    /// Effective perturbation size of a factorization at precision `T`:
    /// the first `δ` of its schedule.
    pub fn effective_delta_for<T: Scalar>(&self) -> f64 {
        self.schedule::<T>(1)[0]
    }

    /// The `δ` schedule of a pass at precision `T` that may perturb up
    /// to `k` singular minors: `δᵢ = ε^{1/3^{k−i}}`, graded so the
    /// first perturbation is the smallest, or the fixed
    /// [`delta`](Self::delta) throughout.
    fn schedule<T: Scalar>(&self, k: usize) -> Vec<f64> {
        match self.delta {
            Some(d) => vec![d; 16], // fixed δ, effectively unbounded
            None => (0..k)
                .map(|i| T::EPSILON.powf(1.0 / 3f64.powi((k - i) as i32)))
                .collect(),
        }
    }
}

/// Record of one perturbation event (§8.2).
#[derive(Clone, Debug, PartialEq)]
pub struct Perturbation {
    /// Schur step (block column) at which it happened; step 0 means the
    /// leading block `T̂₁` itself was perturbed before generator
    /// construction.
    pub step: usize,
    /// Column within the pivot block.
    pub column: usize,
    /// `δ` used.
    pub delta: f64,
    /// Hyperbolic norm of the pivot column before perturbation.
    pub hnorm_before: f64,
}

/// The factorization `T + δT = Rᵀ D R` produced by
/// [`factor_indefinite`] (`δT = 0` when no perturbation was needed).
#[derive(Clone, Debug)]
#[must_use]
pub struct IndefFactor<T: Scalar = f64> {
    /// Upper triangular `n × n` factor with positive diagonal.
    pub r: Matrix<T>,
    /// Signature `D` of the factorization, one ±1 per row of `R`.
    pub d: Vec<i8>,
    /// Perturbations applied (empty for strongly nonsingular input).
    pub perturbations: Vec<Perturbation>,
    /// Number of row exchanges performed.
    pub exchanges: usize,
    /// Largest elementary reflector norm estimate seen — `≈ 1/δ` when a
    /// perturbation fired, `O(1)` otherwise (§8.2 growth factor).
    pub max_reflector_norm: f64,
    /// Block size / number of blocks the factorization ran with.
    pub m: usize,
    pub p: usize,
}

impl<T: Scalar> IndefFactor<T> {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.r.rows()
    }

    /// Number of negative eigenvalues of `T + δT` (Sylvester: equals
    /// the number of −1 entries in `D`).
    pub fn negative_inertia(&self) -> usize {
        self.d.iter().filter(|&&s| s < 0).count()
    }

    /// Solve `(T + δT) x = b` — one forward and one backward
    /// triangular solve plus a signature scaling.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        solve::solve_rtdr(&self.r, Some(&self.d), b)
    }

    /// Dense reconstruction `Rᵀ D R` (test / verification).
    pub fn reconstruct(&self) -> Matrix<T> {
        solve::reconstruct_rtdr(&self.r, Some(&self.d))
    }
}

/// Factor a symmetric (possibly indefinite, possibly singular-minor)
/// Toeplitz matrix as `T + δT = Rᵀ D R`.
///
/// ```
/// use bs_core::{factor_indefinite, IndefOptions};
/// use bs_toeplitz::workloads;
///
/// // The paper's §8.2 example: singular 2x2 leading minor.
/// let t = workloads::paper_singular_minor_example();
/// let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
/// assert_eq!(f.perturbations.len(), 1);
/// assert!(f.negative_inertia() > 0);
/// ```
///
/// When several singular minors occur, the §8.2 analysis (eqs. 47-49)
/// requires grading the perturbations: for `k` of them the optimum is
/// `δᵢ = ε^(1/3^(k-i+1))` (e.g. `ε^{1/9}, ε^{1/3}` for two). Since the
/// number of perturbations is unknown beforehand, the driver backtracks:
/// it first tries the single-perturbation schedule and restarts with a
/// longer one if more singular minors surface ("we would have to
/// backtrack to the first perturbation and change the value of δ₁" —
/// wasteful, as the paper notes, but rarely needed: a perturbed matrix
/// generically has no further singular minors). A user-supplied
/// [`IndefOptions::delta`] disables grading and is used throughout.
/// The passes share one scratch arena, so a backtrack reuses the
/// working buffers of the pass before it.
pub fn factor_indefinite<T: Scalar>(
    t: &SymBlockToeplitz<T>,
    opts: &IndefOptions,
) -> Result<IndefFactor<T>> {
    let mut ws = Workspace::new();
    let mut scratch = EngineScratch::default();
    let max_k = 3usize;
    for k in 1..=max_k {
        let schedule = opts.schedule::<T>(k);
        match eliminate_indefinite(t, opts, &schedule, &mut ws, &mut scratch)? {
            Attempt::Done(f) => return Ok(*f),
            Attempt::NeedsLongerSchedule => continue,
        }
    }
    Err(Error::SingularMinor {
        step: 0,
        column: 0,
        hnorm: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_toeplitz::workloads;

    fn check_reconstruction(t: &SymBlockToeplitz, f: &IndefFactor, tol: f64) {
        let rec = f.reconstruct();
        let dense = t.to_dense();
        let scale = t.norm_inf().max(1.0);
        let diff = rec.max_abs_diff(&dense);
        assert!(
            diff < tol * scale,
            "||R^T D R − T|| = {diff:e} (perturbations: {:?})",
            f.perturbations
        );
    }

    #[test]
    fn spd_input_reduces_to_cholesky() {
        let t = workloads::random_spd_scalar(16, 5);
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        assert!(f.perturbations.is_empty());
        assert_eq!(f.exchanges, 0);
        assert!(f.d.iter().all(|&s| s > 0));
        check_reconstruction(&t, &f, 1e-12);
    }

    #[test]
    fn indefinite_scalar_factorizes_with_exchanges() {
        let t = workloads::random_indefinite_scalar(14, 7);
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        assert!(
            f.exchanges > 0,
            "dominant off-diagonal must force exchanges"
        );
        assert!(f.perturbations.is_empty());
        check_reconstruction(&t, &f, 1e-10);
        // Inertia must match the true negative eigenvalue count
        // (Sylvester's law) — cross-check via dense LDLᵀ.
        let mut lfac = t.to_dense();
        let dd = bs_matrix::ldlt::ldlt_in_place(lfac.mt(), 0.0).unwrap();
        let neg = dd.iter().filter(|&&v| v < 0.0).count();
        assert_eq!(f.negative_inertia(), neg);
    }

    #[test]
    fn indefinite_block_factorizes() {
        let t = workloads::random_indefinite_block(2, 5, 21);
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        check_reconstruction(&t, &f, 1e-9);
        assert!(f.negative_inertia() > 0);
    }

    #[test]
    fn paper_example_is_perturbed_once() {
        let t = workloads::paper_singular_minor_example();
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        assert_eq!(f.perturbations.len(), 1, "{:?}", f.perturbations);
        assert_eq!(f.perturbations[0].step, 1);
        // The reflector norm after a perturbation is ≈ 1/δ (§8.2).
        // With the x = Wu + σe_j construction the elementary norm is
        // ≈ 2/√δ (the paper's printed U_(2) uses a different reflector
        // normalization with ‖U‖ ≈ 1/δ, but the resulting factor R is
        // the same by uniqueness of the triangular factorization).
        let delta = IndefOptions::default().effective_delta();
        assert!(
            f.max_reflector_norm > 0.1 / delta.sqrt(),
            "‖U‖ = {:e}, expected ≳ {:e}",
            f.max_reflector_norm,
            1.0 / delta.sqrt()
        );
        // The factorization reconstructs T only up to O(δ‖T‖).
        let rec = f.reconstruct();
        let diff = rec.max_abs_diff(&t.to_dense());
        assert!(diff < 50.0 * delta, "diff {diff:e}");
        assert!(diff > 1e-12, "perturbation must be visible");
    }

    #[test]
    fn paper_example_solution_error_matches_paper() {
        // §8.2: with x = 1⃗, ‖x − x₁‖ ≈ 3.6e−5 for δ = 1e−5.
        let t = workloads::paper_singular_minor_example();
        let opts = IndefOptions {
            delta: Some(1e-5),
            ..Default::default()
        };
        let f = factor_indefinite(&t, &opts).unwrap();
        let (b, x_true) = workloads::rhs_for_ones(&t);
        let x1 = f.solve(&b).unwrap();
        let err: f64 = x1
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        // Same order of magnitude as the paper's 3.6375e−5.
        assert!(
            err > 1e-7 && err < 1e-2,
            "first-solve error {err:e}, paper reports ≈ 3.6e−5"
        );
    }

    #[test]
    fn perturbation_disabled_reports_singular_minor() {
        let t = workloads::paper_singular_minor_example();
        let opts = IndefOptions {
            allow_perturbation: false,
            ..Default::default()
        };
        match factor_indefinite(&t, &opts) {
            Err(Error::SingularMinor { step: 1, .. }) => {}
            other => panic!("expected SingularMinor at step 1, got {other:?}"),
        }
    }

    #[test]
    fn random_singular_minor_matrices_factor() {
        for seed in 0..6 {
            let t = workloads::singular_minor_scalar(10, seed);
            let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
            assert!(
                !f.perturbations.is_empty(),
                "seed {seed}: singular minor must trigger a perturbation"
            );
            // Solvable and close after the (perturbed) direct solve.
            let (b, x_true) = workloads::rhs_for_ones(&t);
            let x = f.solve(&b).unwrap();
            let err: f64 = x
                .iter()
                .zip(&x_true)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-1, "seed {seed}: direct-solve error {err:e}");
        }
    }

    #[test]
    fn singular_leading_entry_perturbs_t1() {
        // t0 = 0: the leading 1x1 minor is singular.
        let t = SymBlockToeplitz::from_scalar_row(&[0.0, 1.0, 0.25]);
        let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
        assert!(f.perturbations.iter().any(|p| p.step == 0));
    }
}
