#![allow(clippy::needless_range_loop)]
// index-heavy numeric kernels read
// clearer with explicit indices when several parallel arrays are walked
// together; iterator-zip rewrites were measured to obscure, not improve.

//! The block Schur algorithm of Thirumalai, Gallivan & Van Dooren
//! (ICPP 1994): factorization of symmetric (block) Toeplitz matrices
//! `T = Rᵀ D R` by reducing the `2m × n` displacement generator with
//! (block) hyperbolic Householder reflectors.
//!
//! Crate layout mirrors the paper:
//!
//! - [`reflector`] — elementary hyperbolic Householder transformations
//!   `U_x = W − 2xxᵀ/(xᵀWx)` (§3), including the pivot-column variant
//!   with sparse support used by the Schur steps.
//! - [`rep`] — the four block representations of a product of reflectors
//!   (§4): naive accumulated `U`, the two `VY` forms, and the `YTYᵀ`
//!   form, each with production and level-3 application routines.
//! - [`panel`] — phase 1 of each Schur step: factoring the `2m × m`
//!   pivot panel into a block reflector (§6.2).
//! - [`schur`] — the SPD driver (§5-§6): explicit-shift and in-place
//!   variants, optional pooled parallel generator update, optional
//!   algorithmic block size `m_s ≠ m` (§6.5).
//! - [`indefinite`] — the extension to symmetric indefinite Toeplitz
//!   matrices with row exchanges and the `δ ≈ ε^{1/3}` perturbation for
//!   singular principal minors (§8).
//! - [`refine`] — iterative refinement driver and its convergence
//!   diagnostics (§8.1).
//! - [`solve`] — triangular solves with the `Rᵀ D R` factors.
//! - [`factor`] — [`Factor`], the one factor-and-solve handle:
//!   automatic SPD/indefinite dispatch, `&self` solves sharable behind
//!   an `Arc` by concurrent tenants, and warm re-factorization through
//!   a caller-owned [`PlanWorkspace`].

pub mod contracts;
pub mod eliminate;
pub mod factor;
pub mod indefinite;
pub mod panel;
pub mod plan;
pub mod refine;
pub mod reflector;
pub mod rep;
pub mod schur;
pub mod solve;

pub use eliminate::{EngineScratch, PivotPolicy};
pub use factor::{Factor, Factorization};
pub use indefinite::{factor_indefinite, IndefFactor, IndefOptions, Perturbation};
pub use plan::{FactorPlan, PlanRequest, PlanWorkspace, Precision};
pub use refine::{solve_refined, RefineOperator, RefineOptions, RefineResult};
pub use rep::RepKind;
pub use schur::{factor_spd, SchurOptions, SpdFactor};

/// Errors produced by the Schur drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Underlying dense linear algebra failed (e.g. the leading block of
    /// an allegedly SPD matrix was not positive definite).
    Matrix(bs_matrix::Error),
    /// A pivot column had non-positive hyperbolic norm during the SPD
    /// factorization: the matrix is not positive definite.
    NotPositiveDefinite {
        step: usize,
        column: usize,
        hnorm: f64,
    },
    /// A pivot column's hyperbolic norm was (numerically) zero and
    /// perturbation was disabled: a principal minor is singular.
    SingularMinor {
        step: usize,
        column: usize,
        hnorm: f64,
    },
    /// The indefinite elimination needed an exchange but no generator
    /// row of the required signature was available.
    NoExchangeCandidate { step: usize, column: usize },
    /// An option combination was invalid (e.g. `m_s` not a multiple of
    /// `m` or not dividing `n`).
    InvalidOptions(String),
    /// A caller-supplied operand had the wrong size for the factored
    /// system (right-hand side length, signature length, or a matrix
    /// with a different order/block size than the plan was built for).
    DimensionMismatch {
        /// What was being checked (e.g. `"rhs length"`).
        context: &'static str,
        expected: usize,
        found: usize,
    },
    /// Iterative refinement (§8.1) stopped because its corrections
    /// stopped shrinking while the residual was still above the
    /// backward-stable floor: the perturbed factorization is too far
    /// from `T` for refinement to reach working accuracy, so the answer
    /// is refused rather than returned uncertified.
    RefinementStagnated {
        /// Refinement rounds run before the stall.
        iterations: usize,
        /// Normwise backward error `‖b − Tx‖₂ / (‖T‖∞‖x‖₂ + ‖b‖₂)` of
        /// the last iterate.
        backward_error: f64,
    },
}

impl From<bs_matrix::Error> for Error {
    fn from(e: bs_matrix::Error) -> Self {
        Error::Matrix(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Matrix(e) => write!(f, "dense kernel failure: {e}"),
            Error::NotPositiveDefinite { step, column, hnorm } => write!(
                f,
                "pivot column {column} at step {step} has non-positive hyperbolic norm {hnorm:e}: matrix is not positive definite"
            ),
            Error::SingularMinor { step, column, hnorm } => write!(
                f,
                "pivot column {column} at step {step} has zero hyperbolic norm {hnorm:e}: singular principal minor (enable perturbation to continue)"
            ),
            Error::NoExchangeCandidate { step, column } => write!(
                f,
                "no exchange row with matching signature for column {column} at step {step}"
            ),
            Error::InvalidOptions(msg) => write!(f, "invalid options: {msg}"),
            Error::DimensionMismatch {
                context,
                expected,
                found,
            } => write!(f, "dimension mismatch: {context} expected {expected}, found {found}"),
            Error::RefinementStagnated {
                iterations,
                backward_error,
            } => write!(
                f,
                "iterative refinement stagnated after {iterations} rounds at backward error {backward_error:e}"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
