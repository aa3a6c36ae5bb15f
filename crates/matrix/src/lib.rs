#![allow(clippy::needless_range_loop)]
// index-heavy numeric kernels read
// clearer with explicit indices when several parallel arrays are walked
// together; iterator-zip rewrites were measured to obscure, not improve.

//! Dense linear-algebra substrate for the block Schur Toeplitz solver.
//!
//! The 1994 ICPP paper this workspace reproduces assumes a vendor BLAS
//! (Cray Y-MP / T3D libraries). This crate is the from-scratch stand-in:
//! a column-major [`Matrix`] type with borrowed views, level-1/2/3
//! kernels (`dot`, `axpy`, `gemv`, `ger`, `gemm`, `trsm`, `syrk`, ...),
//! and the dense factorizations the Schur algorithm needs as building
//! blocks (Cholesky, signature LDLᵀ, LU, Householder QR).
//!
//! Design notes:
//! - Generic over a sealed [`Scalar`] trait (`f64` and `f32` only), with
//!   `f64` as the default type parameter everywhere so existing call
//!   sites read unchanged. The `f64` instantiation performs the exact
//!   pre-generic operation sequence (bitwise-identical results); the
//!   `f32` instantiation exists for the mixed-precision factor + refine
//!   path and the wider-SIMD kernels it unlocks.
//! - Dimension mismatches are programming errors and panic; *numerical*
//!   failures (not positive definite, singular pivot) are reported through
//!   [`Error`].
//! - Every kernel reports its flop count through [`flops`], so the
//!   paper's analytic operation counts (eqs. 25-32) can be checked against
//!   instrumented reality.

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod chol;
pub mod dense;
pub mod eig;
pub mod flops;
pub mod kernel;
pub mod ldlt;
pub mod lu;
pub mod norms;
pub mod par;
pub mod pool;
pub mod qr;
pub mod scalar;
pub mod sched;
pub mod trmm;
pub mod view;
pub mod workspace;

pub use blas3::{gemm, gemm_ws, syrk, trsm, Side, Trans, Uplo};
pub use chol::cholesky_in_place;
pub use dense::Matrix;
pub use ldlt::{ldlt_in_place, Signature};
pub use lu::LuFactors;
pub use par::{ExecPolicy, Partition};
pub use pool::{PooledWorkspace, WorkspacePool};
pub use scalar::Scalar;
pub use trmm::{symm, trmm};
pub use view::{MatMut, MatRef};
pub use workspace::Workspace;

/// Numerical failures surfaced by the factorization routines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A Cholesky pivot was non-positive: the matrix is not numerically
    /// positive definite. Carries the failing pivot index and value.
    NotPositiveDefinite { index: usize, pivot: f64 },
    /// An LDLᵀ or LU pivot was exactly (or numerically) zero. The leading
    /// principal submatrix of that order is singular.
    SingularPivot { index: usize, pivot: f64 },
    /// A triangular solve met a zero diagonal entry.
    SingularTriangle { index: usize },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NotPositiveDefinite { index, pivot } => write!(
                f,
                "matrix is not positive definite: pivot {pivot:e} at index {index}"
            ),
            Error::SingularPivot { index, pivot } => {
                write!(f, "singular pivot {pivot:e} at index {index}")
            }
            Error::SingularTriangle { index } => {
                write!(f, "triangular factor has zero diagonal at index {index}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
