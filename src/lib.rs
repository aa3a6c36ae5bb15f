//! **block-schur** — a reproduction of *"On Solving Block Toeplitz
//! Systems Using a Block Schur Algorithm"* (Thirumalai, Gallivan,
//! Van Dooren; ICPP 1994) as a Rust workspace.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`matrix`] — dense kernels (the BLAS stand-in);
//! - [`toeplitz`] — symmetric block Toeplitz representations,
//!   displacement structure, generators, synthetic workloads;
//! - [`core`] — the block Schur factorization itself (hyperbolic
//!   Householder reflectors, the four block representations, the SPD
//!   driver, the indefinite extension with perturbation, iterative
//!   refinement);
//! - [`baselines`] — Levinson, scalar Schur, dense solves, (P)CG;
//! - [`distmem`] — message-passing runtime with virtual clocks;
//! - [`simulator`] — Cray T3D machine model and the three data
//!   distribution schemes;
//! - [`perfmodel`] — the paper's analytic flop formulas (eqs. 25-32).
//!
//! # Quickstart
//!
//! ```
//! use block_schur::prelude::*;
//!
//! // An SPD block Toeplitz matrix (block size 2, 8 block rows).
//! let t = workloads::random_spd_block(2, 8, 42);
//! // Factor T = RᵀR with the block Schur algorithm.
//! let f = factor_spd(&t, &SchurOptions::default()).unwrap();
//! // Solve T x = b.
//! let (b, x_true) = workloads::rhs_for_ones(&t);
//! let x = f.solve(&b).unwrap();
//! assert!((x[0] - x_true[0]).abs() < 1e-8);
//! ```

pub mod cli;

pub use bs_baselines as baselines;
pub use bs_core as core;
pub use bs_distmem as distmem;
pub use bs_matrix as matrix;
pub use bs_perfmodel as perfmodel;
pub use bs_simulator as simulator;
pub use bs_toeplitz as toeplitz;

/// The commonly used types and functions in one import.
pub mod prelude {
    pub use bs_core::{
        factor_indefinite, factor_spd, solve_refined, Factor, FactorPlan, Factorization,
        IndefFactor, IndefOptions, Perturbation, PlanRequest, PlanWorkspace, Precision,
        RefineOperator, RefineOptions, RefineResult, RepKind, SchurOptions, SpdFactor,
    };
    pub use bs_matrix::{ExecPolicy, Matrix, Partition, Signature};
    pub use bs_toeplitz::{build_generator, workloads, Generator, SymBlockToeplitz};
}
