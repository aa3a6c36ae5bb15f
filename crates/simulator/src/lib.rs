#![allow(clippy::needless_range_loop)]
// index-heavy numeric kernels read
// clearer with explicit indices when several parallel arrays are walked
// together; iterator-zip rewrites were measured to obscure, not improve.

//! Cray T3D machine model and the distributed block Schur algorithm
//! under the paper's three data-distribution schemes (§7).
//!
//! Two engines:
//!
//! - [`analytic`] — the fast predictor: a closed-form walk over the
//!   Schur steps charging the paper's per-phase costs (shift messages,
//!   panel "blocking flops", representation broadcast, trailing
//!   "application flops", barrier synchronizations) against a
//!   [`T3DModel`]. This is what regenerates Figures 6–9: the curves are
//!   pure functions of the cost model and the exact message/flop counts.
//! - [`shard`] — the executor: the three distributions run for real on
//!   the [`bs_distmem`] runtime, each rank a dedicated OS thread owning
//!   a packed generator shard, with actual data movement and trailing
//!   updates through the SIMD kernel engine. One run keeps one
//!   [`Clock`]: the wall clock measures this machine (`dist_sweep` in
//!   bs-bench), and a cost-model clock charges the same per-phase
//!   quantities as the analytic engine on the same message schedule,
//!   which validates the predictor against real execution.
//!
//! What the paper ran on hardware we run on a model; the *algorithmic*
//! quantities (who sends how many bytes to whom at which step, who
//! computes how many flops) are exact, not modeled.

pub mod analytic;
pub mod calibrated;
pub mod scheme;
pub mod shard;
pub mod t3d;

pub use analytic::{simulate, SimResult};
pub use calibrated::{
    choose_distribution, measure_comm, CalibratedCost, DistChoice, DistPrediction,
};
pub use scheme::Scheme;
pub use shard::{factor_sharded, Clock, ShardOptions, ShardRun};
pub use t3d::T3DModel;
