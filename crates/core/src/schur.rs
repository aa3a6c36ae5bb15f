//! The SPD block Schur factorization driver (§5-§6 of the paper).
//!
//! Reduces the `2m × n` generator to the upper triangular factor `R`
//! with `T = RᵀR` in `p − 1` steps. Each step is the paper's three
//! phases:
//!
//! 1. factor the `2m × m` pivot panel into a block hyperbolic
//!    Householder reflector ([`crate::panel::factor_panel`]);
//! 2. apply the block reflector to the trailing generator columns
//!    (level-3, optionally fanned out on the persistent worker pool);
//! 3. shift the upper block row one block to the right.
//!
//! The working generator is one stacked `2m × n` buffer, the layout
//! each shard rank packs: phase 1 factors the pivot panel in place, and
//! phases 3 and 2 run over the contiguous trailing columns. When every
//! VY chunk of a step is below the packed-GEMM threshold (`k < 16`: all
//! of `m_s < 16`, and two-level chunks of `k < 16` at larger `m_s`)
//! they are one descending sweep that reads each column's shifted upper
//! rows by index offset, applies the reflectors with `z` in registers
//! and writes the column's `R` entries — §6.4's "no phase-3 copy"
//! inside the stacked buffer — unless the execution policy fans the
//! update out to the pool. Otherwise phase 3 moves the upper rows and
//! phase 2 is one reflector application per chunk. Either way each `R`
//! row is written once with its sign applied
//! ([`crate::eliminate::emit_rows`]).

use crate::eliminate::{eliminate_spd, retiled};
use crate::rep::RepKind;
use crate::solve::solve_rtdr;
use crate::Result;
use bs_matrix::{ExecPolicy, Matrix, Scalar};
use bs_toeplitz::SymBlockToeplitz;

/// Options for [`factor_spd`].
#[derive(Clone, Debug)]
pub struct SchurOptions {
    /// Block reflector representation (phase 1/2 tradeoff, §4 & §6).
    pub rep: RepKind,
    /// Execution policy for the trailing update (phase 2): thread
    /// count, minimum work to fan out, and column partitioning. Strip
    /// boundaries are thread-independent, so any thread count produces
    /// a bitwise-identical factor.
    pub exec: ExecPolicy,
    /// Algorithmic block size `m_s` (§6.5). Must be a multiple of the
    /// structural block size and divide `n`; `None` keeps `m_s = m`.
    pub block_size: Option<usize>,
    /// Two-level blocking chunk size (§6.2): block the elementary
    /// reflectors every `k` steps and update the rest of the pivot
    /// panel with level-3 kernels between chunks. `None` blocks the
    /// whole panel at once (`k = m`). Useful for large block sizes.
    pub two_level: Option<usize>,
    /// Relative threshold below which a pivot's hyperbolic norm counts
    /// as zero (singular principal minor).
    pub zero_tol: f64,
}

impl Default for SchurOptions {
    fn default() -> Self {
        SchurOptions {
            // The paper's §6.3 analysis: the second VY form has the
            // cheapest application for most k, and its production is
            // close to YTYᵀ; it is the all-round default.
            rep: RepKind::VY2,
            // Honors BS_THREADS when set; sequential otherwise.
            exec: ExecPolicy::from_env(),
            block_size: None,
            two_level: None,
            zero_tol: 1e-13,
        }
    }
}

/// The factorization `T = RᵀR` produced by [`factor_spd`].
#[derive(Clone, Debug)]
#[must_use]
pub struct SpdFactor<T: Scalar = f64> {
    /// Upper triangular `n × n` factor with positive diagonal.
    pub r: Matrix<T>,
    /// Algorithmic block size the factorization ran with.
    pub m: usize,
    /// Number of blocks at that block size.
    pub p: usize,
    /// Words one broadcast of the block reflector would need per step
    /// (the distributed-memory communication volume of §7).
    pub comm_words_per_step: usize,
}

impl<T: Scalar> SpdFactor<T> {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.r.rows()
    }

    /// Solve `T x = b` via `Rᵀ(Rx) = b`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        solve_rtdr(&self.r, None, b)
    }

    /// Reconstruct `RᵀR` densely (test / verification, O(n³)).
    pub fn reconstruct(&self) -> Matrix<T> {
        let n = self.r.rows();
        let mut out = Matrix::zeros(n, n);
        bs_matrix::blas3::gemm(
            T::ONE,
            self.r.rf(),
            bs_matrix::Trans::Yes,
            self.r.rf(),
            bs_matrix::Trans::No,
            T::ZERO,
            out.mt(),
        );
        out
    }
}

/// Factor a symmetric positive definite (block) Toeplitz matrix:
/// `T = RᵀR` in `≈ 4·m·n²` flops.
///
/// ```
/// use bs_core::{factor_spd, SchurOptions};
/// use bs_toeplitz::workloads;
///
/// let t = workloads::kms(32, 0.8); // SPD scalar Toeplitz
/// let f = factor_spd(&t, &SchurOptions::default()).unwrap();
/// let (b, x_true) = workloads::rhs_for_ones(&t);
/// let x = f.solve(&b).unwrap();
/// assert!((x[0] - x_true[0]).abs() < 1e-9);
/// ```
pub fn factor_spd<T: Scalar>(t: &SymBlockToeplitz<T>, opts: &SchurOptions) -> Result<SpdFactor<T>> {
    let t_ref = retiled(t, opts.block_size)?;
    let n = t.block_size() * t.num_blocks();
    let mut r = Matrix::zeros(n, n);
    let (m, p, comm_words_per_step) = eliminate_spd(&t_ref, opts, &mut r)?;
    crate::contracts::spd_diagonal(&r, "factor_spd");
    Ok(SpdFactor {
        r,
        m,
        p,
        comm_words_per_step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;
    use bs_toeplitz::workloads;

    fn check_factor(t: &SymBlockToeplitz, opts: &SchurOptions, tol: f64) {
        let f = factor_spd(t, opts).unwrap();
        let dense = t.to_dense();
        let rec = f.reconstruct();
        let scale = t.norm_inf().max(1.0);
        let diff = rec.max_abs_diff(&dense);
        assert!(
            diff < tol * scale,
            "rep={:?} m={} p={}: ||R^TR - T|| = {diff:e}",
            opts.rep,
            f.m,
            f.p
        );
        // R upper triangular with positive diagonal.
        for j in 0..f.order() {
            assert!(f.r[(j, j)] > 0.0, "diagonal {j}");
            for i in j + 1..f.order() {
                assert_eq!(f.r[(i, j)], 0.0, "({i},{j}) below diagonal");
            }
        }
    }

    #[test]
    fn factors_scalar_spd() {
        let t = workloads::random_spd_scalar(24, 3);
        check_factor(&t, &SchurOptions::default(), 1e-10);
    }

    #[test]
    fn factors_block_spd_all_reps() {
        for (m, p) in [(1usize, 9usize), (2, 6), (3, 5), (4, 4)] {
            let t = workloads::random_spd_block(m, p, 17 * m as u64 + p as u64);
            for rep in RepKind::ALL {
                let opts = SchurOptions {
                    rep,
                    ..Default::default()
                };
                check_factor(&t, &opts, 1e-9);
            }
        }
    }

    #[test]
    fn parallel_update_matches_sequential() {
        let t = workloads::random_spd_block(4, 12, 5);
        let seq = SchurOptions {
            exec: ExecPolicy::sequential(),
            ..Default::default()
        };
        let f1 = factor_spd(&t, &seq).unwrap();
        // min_work: 1 forces the strip dispatcher even at this size;
        // the pooled factor must be bitwise identical, not merely close.
        for threads in [2usize, bs_matrix::par::current_num_threads() * 2 + 1] {
            let par = SchurOptions {
                exec: ExecPolicy {
                    threads,
                    min_work: 1,
                    partition: bs_matrix::Partition::Auto,
                },
                ..Default::default()
            };
            let f2 = factor_spd(&t, &par).unwrap();
            assert_eq!(f1.r.max_abs_diff(&f2.r), 0.0, "threads={threads}");
        }
        // Scalar input below the packed threshold: sequentially each step
        // is one inline streamed sweep, while a pooled policy runs the
        // same per-column kernel in parallel strips after an explicit
        // shift. The factor's bits (signed zeros included) must agree.
        let t = workloads::random_spd_scalar(96, 5);
        let bits = |r: &Matrix| r.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ms in [1usize, 2, 4, 8] {
            let seq = SchurOptions {
                block_size: Some(ms),
                exec: ExecPolicy::sequential(),
                ..Default::default()
            };
            let want = bits(&factor_spd(&t, &seq).unwrap().r);
            for threads in [2usize, 5] {
                let par = SchurOptions {
                    exec: ExecPolicy {
                        threads,
                        min_work: 1,
                        partition: bs_matrix::Partition::Auto,
                    },
                    ..seq.clone()
                };
                let got = bits(&factor_spd(&t, &par).unwrap().r);
                assert!(got == want, "m_s={ms} threads={threads}");
            }
        }
    }

    #[test]
    fn matches_dense_cholesky() {
        let t = workloads::kms(16, 0.7);
        let f = factor_spd(&t, &SchurOptions::default()).unwrap();
        let l = bs_matrix::chol::cholesky(&t.to_dense()).unwrap();
        // R must equal Lᵀ (both have positive diagonals; Cholesky is
        // unique).
        let lt = l.transpose();
        assert!(f.r.max_abs_diff(&lt) < 1e-10, "{}", f.r.max_abs_diff(&lt));
    }

    #[test]
    fn solve_spd_system() {
        let t = workloads::random_spd_block(3, 6, 8);
        let (b, x_true) = workloads::rhs_for_ones(&t);
        let f = factor_spd(&t, &SchurOptions::default()).unwrap();
        let x = f.solve(&b).unwrap();
        for i in 0..x.len() {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "i={i}: {}", x[i]);
        }
    }

    #[test]
    fn block_size_override_retiles() {
        let t = workloads::random_spd_scalar(32, 12);
        for ms in [2usize, 4, 8, 16] {
            let opts = SchurOptions {
                block_size: Some(ms),
                ..Default::default()
            };
            let f = factor_spd(&t, &opts).unwrap();
            assert_eq!(f.m, ms);
            assert_eq!(f.p, 32 / ms);
            let rec = f.reconstruct();
            assert!(
                rec.max_abs_diff(&t.to_dense()) < 1e-10,
                "m_s={ms}: {}",
                rec.max_abs_diff(&t.to_dense())
            );
        }
    }

    #[test]
    fn invalid_block_size_rejected() {
        let t = workloads::random_spd_scalar(10, 2);
        let opts = SchurOptions {
            block_size: Some(3), // does not divide 10
            ..Default::default()
        };
        assert!(matches!(
            factor_spd(&t, &opts),
            Err(Error::InvalidOptions(_))
        ));
        let t2 = workloads::random_spd_block(2, 5, 2);
        let opts2 = SchurOptions {
            block_size: Some(5), // not a multiple of m = 2
            ..Default::default()
        };
        assert!(matches!(
            factor_spd(&t2, &opts2),
            Err(Error::InvalidOptions(_))
        ));
    }

    #[test]
    fn indefinite_input_rejected() {
        let t = workloads::random_indefinite_scalar(12, 3);
        assert!(matches!(
            factor_spd(&t, &SchurOptions::default()),
            Err(Error::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn one_arena_serves_every_step() {
        // Scratch lives for one factorization: the first step checks out
        // the working buffers and the later steps reuse them, since the
        // trailing extent only shrinks. Allocating per step would miss
        // the pool at least p − 1 = 127 times.
        use bs_probe::metrics::{self, Counter};
        let p = 128;
        for m in [1usize, 4, 16] {
            let t = workloads::random_spd_block(m, p, 29 + m as u64);
            for rep in RepKind::ALL {
                for two_level in [None, Some(4)] {
                    let opts = SchurOptions {
                        rep,
                        exec: ExecPolicy::sequential(),
                        two_level,
                        ..Default::default()
                    };
                    let before = metrics::local_get(Counter::WorkspaceAllocs);
                    let _f = factor_spd(&t, &opts).unwrap();
                    let misses = metrics::local_get(Counter::WorkspaceAllocs) - before;
                    assert!(
                        misses <= 16,
                        "m={m} rep={rep:?} two_level={two_level:?}: {misses} pool misses"
                    );
                }
            }
        }
    }

    #[test]
    fn trivial_single_block() {
        // p = 1: R is just the Cholesky transpose of T̂₁.
        let t = workloads::random_spd_block(4, 1, 6);
        let f = factor_spd(&t, &SchurOptions::default()).unwrap();
        let rec = f.reconstruct();
        assert!(rec.max_abs_diff(&t.to_dense()) < 1e-11);
    }
}

#[cfg(test)]
mod two_level_tests {
    use super::*;
    use bs_toeplitz::workloads;

    #[test]
    fn two_level_matches_single_level() {
        let t = workloads::random_spd_block(8, 8, 7);
        let reference = factor_spd(&t, &SchurOptions::default()).unwrap();
        for k in [1usize, 2, 3, 4, 8, 16] {
            let opts = SchurOptions {
                two_level: Some(k),
                ..Default::default()
            };
            let f = factor_spd(&t, &opts).unwrap();
            let diff = f.r.max_abs_diff(&reference.r);
            assert!(diff < 1e-10, "k_block={k}: diff {diff:e}");
        }
    }

    #[test]
    fn two_level_with_retiling_and_reps() {
        let t = workloads::random_spd_scalar(64, 5);
        let d0 = t.to_dense();
        for rep in RepKind::ALL {
            let opts = SchurOptions {
                block_size: Some(16),
                two_level: Some(4),
                rep,
                ..Default::default()
            };
            let f = factor_spd(&t, &opts).unwrap();
            assert!(f.reconstruct().max_abs_diff(&d0) < 1e-9, "rep={rep:?}");
        }
    }

    #[test]
    fn panel_chunking_produces_expected_chunk_count() {
        use crate::panel::{factor_panel_into, PanelScratch};
        use bs_matrix::ldlt::Signature;
        let m = 6;
        let w = Signature::hyperbolic(m);
        let mut p = Matrix::identity(2 * m).sub(0, 0, 2 * m, m).to_matrix();
        for j in 0..m {
            p[(j, j)] = 2.0;
            p[(m + j, j)] = 0.5;
        }
        let mut reps = Vec::new();
        factor_panel_into(
            p.mt(),
            &w,
            RepKind::VY2,
            0,
            1e-13,
            1.0,
            4,
            &mut reps,
            &mut PanelScratch::default(),
            &mut bs_matrix::Workspace::new(),
        )
        .unwrap();
        assert_eq!(reps.len(), 2); // chunks of 4 and 2
        assert_eq!(reps[0].len(), 4);
        assert_eq!(reps[1].len(), 2);
    }
}
