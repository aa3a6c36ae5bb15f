//! The factor-and-solve handle.
//!
//! [`Factor`] is the one object the paper's solver is: it owns the
//! system copy, the [`FactorPlan`], the factorization `T = RᵀR` (or
//! `T + δT = RᵀDR`, §8), the refinement config and, when its solves
//! refine, the prepared [`RefineOperator`]. Every solve surface
//! takes `&self`, so a `Factor` behind an [`Arc`] can serve interleaved
//! solves from any number of threads, with results bitwise identical to
//! a sequential run (each column runs the identical per-column
//! arithmetic regardless of which thread or tenant issues it).
//!
//! Per-call mutable state is a [`PooledWorkspace`] checked out from the
//! factor's embedded [`WorkspacePool`]: a serving loop stages its
//! right-hand sides and solutions in pooled buffers, so the steady
//! state request path performs no heap allocation. The one `&mut self`
//! method, [`Factor::refactor`], re-factors a same-shaped system with
//! scratch from a caller-owned [`PlanWorkspace`], so a warm refactor
//! loop performs no heap allocation inside the elimination either.
//!
//! [`Arc`]: std::sync::Arc

use crate::indefinite::{IndefFactor, IndefOptions};
use crate::plan::{FactorPlan, PlanWorkspace, Precision};
use crate::refine::{solve_refined, RefineOperator, RefineOptions, RefineResult};
use crate::schur::{SchurOptions, SpdFactor};
use crate::solve::solve_rtdr_in_place;
use crate::{Error, Result};
use bs_matrix::pool::{PooledWorkspace, WorkspacePool};
use bs_matrix::{par, Matrix};
use bs_toeplitz::SymBlockToeplitz;
use std::sync::{Mutex, OnceLock};

/// Which factorization a [`Factor`] ended up with.
#[derive(Debug, Clone)]
#[must_use]
pub enum Factorization {
    /// `T = RᵀR` (positive definite path).
    Spd(SpdFactor),
    /// `T + δT = RᵀDR` (indefinite / singular-minor path).
    Indefinite(IndefFactor),
}

/// An immutable factored symmetric (block) Toeplitz operator.
///
/// All solve methods take `&self`; `Factor` is `Send + Sync` and is
/// designed to be shared behind an `Arc` by concurrent tenants:
///
/// ```
/// use bs_core::Factor;
/// use bs_toeplitz::workloads;
/// use std::sync::Arc;
///
/// let t = workloads::kms(32, 0.6);
/// let (b, x_true) = workloads::rhs_for_ones(&t);
/// let f = Arc::new(Factor::new(&t).unwrap());
/// let handles: Vec<_> = (0..4)
///     .map(|_| {
///         let (f, b) = (Arc::clone(&f), b.clone());
///         std::thread::spawn(move || f.solve(&b).unwrap())
///     })
///     .collect();
/// for h in handles {
///     let x = h.join().unwrap();
///     assert!((x[0] - x_true[0]).abs() < 1e-8);
/// }
/// ```
///
/// Indefinite systems and systems with a singular minor fall back to
/// the perturbed factorization, and every solve refines automatically:
///
/// ```
/// use bs_core::Factor;
/// use bs_toeplitz::workloads;
///
/// let t = workloads::paper_singular_minor_example();
/// let (b, x_true) = workloads::rhs_for_ones(&t);
/// let f = Factor::new(&t).unwrap();
/// assert!(!f.is_positive_definite());
/// let x = f.solve(&b).unwrap();
/// assert!((x[3] - x_true[3]).abs() < 1e-10);
/// ```
///
/// For a stream of same-shaped systems, keep one factor and one
/// [`PlanWorkspace`] and [`refactor`](Self::refactor): the plan and the
/// workspace are reused and the warm elimination loop allocates nothing.
///
/// ```
/// use bs_core::{Factor, PlanWorkspace};
/// use bs_toeplitz::workloads;
///
/// let mut f = Factor::new(&workloads::kms(32, 0.6)).unwrap();
/// let mut pw = PlanWorkspace::new();
/// for rho in [0.5f64, 0.7, 0.8] {
///     let t = workloads::kms(32, rho);
///     f.refactor(&t, &mut pw).unwrap();
///     let (b, x_true) = workloads::rhs_for_ones(&t);
///     let x = f.solve(&b).unwrap();
///     assert!((x[0] - x_true[0]).abs() < 1e-8);
/// }
/// ```
#[derive(Debug)]
#[must_use]
pub struct Factor {
    t: SymBlockToeplitz,
    plan: FactorPlan,
    factorization: Factorization,
    refine: RefineOptions,
    /// The refinement's operator side (`‖T‖∞`, FFT symbols where the
    /// shape favours them), prepared when this factor's solves refine:
    /// under [`Precision::Mixed`] and after a δ perturbation. `None`
    /// for SPD and unperturbed indefinite factors.
    refine_op: Option<RefineOperator>,
    /// Lazily-computed full-f64 factorization, used only when a
    /// [`Precision::Mixed`] solve's refinement stalls on the promoted
    /// f32 factor. Reset by [`Factor::refactor`].
    fallback: OnceLock<Factorization>,
    /// Per-call scratch arenas for concurrent tenants.
    pool: WorkspacePool,
}

// The whole point of the split: a factor is shareable across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Factor>();
};

impl Clone for Factor {
    /// Clones the system, plan, factorization and prepared refinement
    /// operator; the clone starts with a cold scratch pool of its own.
    fn clone(&self) -> Self {
        Factor {
            t: self.t.clone(),
            plan: self.plan.clone(),
            factorization: self.factorization.clone(),
            refine: self.refine.clone(),
            refine_op: self.refine_op.clone(),
            fallback: OnceLock::new(),
            pool: WorkspacePool::new(),
        }
    }
}

impl Factor {
    /// Factor `t` with default options: SPD fast path, indefinite
    /// fallback with `δ = ε^{1/3}` perturbation.
    pub fn new(t: &SymBlockToeplitz) -> Result<Self> {
        let plan = FactorPlan::from_options(t, &SchurOptions::default(), &IndefOptions::default())?;
        Self::from_plan(t, plan, RefineOptions::default())
    }

    /// Factor `t` with a pre-built plan, using a throwaway workspace.
    pub fn from_plan(
        t: &SymBlockToeplitz,
        plan: FactorPlan,
        refine: RefineOptions,
    ) -> Result<Self> {
        let _span = bs_probe::span!("factor", n = t.order(), m = t.block_size());
        let factorization = plan.execute(t, &mut PlanWorkspace::new())?;
        Ok(Factor {
            t: t.clone(),
            refine_op: prepare_refinement(t, &plan, &factorization),
            plan,
            factorization,
            refine,
            fallback: OnceLock::new(),
            pool: WorkspacePool::new(),
        })
    }

    /// Re-factor a new system of the *same shape* (order and block
    /// size) under the same plan, drawing scratch from `pw`. The
    /// retired factorization's storage goes back into `pw` and the
    /// stored matrix copy is overwritten in place, so from the second
    /// refactor against one workspace on, the whole cycle performs
    /// zero heap allocations (observable via
    /// [`PlanWorkspace::allocations`]).
    ///
    /// A factor whose solves refine also prepares its refinement
    /// operator again (`‖T‖∞` and the FFT symbols), which allocates
    /// outside the workspace.
    ///
    /// On error the factor is left unchanged (still holding the
    /// previous system's factorization).
    pub fn refactor(&mut self, t: &SymBlockToeplitz, pw: &mut PlanWorkspace) -> Result<()> {
        if t.order() != self.t.order() {
            return Err(Error::DimensionMismatch {
                context: "refactor matrix order",
                expected: self.t.order(),
                found: t.order(),
            });
        }
        if t.block_size() != self.t.block_size() {
            return Err(Error::DimensionMismatch {
                context: "refactor block size",
                expected: self.t.block_size(),
                found: t.block_size(),
            });
        }
        let _span = bs_probe::span!("refactor", n = t.order(), m = t.block_size());
        let new_f = self.plan.execute(t, pw)?;
        self.refine_op = prepare_refinement(t, &self.plan, &new_f);
        self.fallback.take();
        pw.recycle(std::mem::replace(&mut self.factorization, new_f));
        self.t.clone_data_from(t);
        bs_probe::event!(
            "refactor_done",
            allocations = pw.allocations(),
            high_water_elems = pw.high_water_elems(),
        );
        Ok(())
    }

    /// The factored operator (the solver's own copy of the generator).
    pub fn operator(&self) -> &SymBlockToeplitz {
        &self.t
    }

    /// Matrix order `n`.
    pub fn order(&self) -> usize {
        self.t.order()
    }

    /// Structural block size `m`.
    pub fn block_size(&self) -> usize {
        self.t.block_size()
    }

    /// The execution plan in use.
    pub fn plan(&self) -> &FactorPlan {
        &self.plan
    }

    /// The factorization in use.
    pub fn factorization(&self) -> &Factorization {
        &self.factorization
    }

    /// The concurrent scratch pool backing [`scratch`](Self::scratch).
    pub fn scratch_pool(&self) -> &WorkspacePool {
        &self.pool
    }

    /// Check out a per-call scratch arena. The arena returns to the
    /// factor's pool when the guard drops, so a serving loop reaches an
    /// allocation-free steady state: stage the RHS in pooled buffers,
    /// solve into pooled buffers, give them back.
    ///
    /// ```
    /// use bs_core::Factor;
    /// use bs_toeplitz::workloads;
    ///
    /// let t = workloads::kms(16, 0.5);
    /// let (b, _) = workloads::rhs_for_ones(&t);
    /// let f = Factor::new(&t).unwrap();
    /// let mut scratch = f.scratch();
    /// let mut x = scratch.take_vec(16);
    /// f.solve_col_into(&b, &mut x).unwrap();
    /// scratch.give_vec(x);
    /// drop(scratch);
    /// assert_eq!(f.scratch_pool().outstanding(), 0);
    /// ```
    pub fn scratch(&self) -> PooledWorkspace<'_> {
        self.pool.checkout()
    }

    /// `true` when the SPD fast path succeeded.
    pub fn is_positive_definite(&self) -> bool {
        match &self.factorization {
            Factorization::Spd(_) => true,
            Factorization::Indefinite(f) => f.perturbations.is_empty() && f.negative_inertia() == 0,
        }
    }

    /// `(n₊, n₋)` — counts of positive/negative eigenvalues of the
    /// factored matrix (Sylvester's law of inertia; exact when no
    /// perturbation fired, otherwise the inertia of `T + δT`).
    pub fn inertia(&self) -> (usize, usize) {
        let n = self.t.order();
        match &self.factorization {
            Factorization::Spd(_) => (n, 0),
            Factorization::Indefinite(f) => {
                let neg = f.negative_inertia();
                (n - neg, neg)
            }
        }
    }

    /// `(sign, ln|det T|)` computed from the triangular factor:
    /// `det T = (Π dᵢ) · (Π rᵢᵢ)²`.
    pub fn det_sign_ln(&self) -> (f64, f64) {
        let (r, d): (&Matrix, Option<&[i8]>) = match &self.factorization {
            Factorization::Spd(f) => (&f.r, None),
            Factorization::Indefinite(f) => (&f.r, Some(&f.d)),
        };
        let n = r.rows();
        let mut ln = 0.0;
        let mut sign = 1.0;
        for i in 0..n {
            ln += 2.0 * r[(i, i)].ln();
            if let Some(d) = d {
                if d[i] < 0 {
                    sign = -sign;
                }
            }
        }
        (sign, ln)
    }

    /// Solve `T x = b`. On the perturbed path the answer is refined to
    /// working accuracy (typically two extra matvec+solve rounds, §8.1).
    /// When the corrections stop shrinking while the residual is still
    /// above its backward-stable floor, the answer is refused with
    /// [`Error::RefinementStagnated`] instead; an answer that merely
    /// ran out of iterations is returned.
    ///
    /// Under [`Precision::Mixed`] the promoted f32 factor plays the
    /// role of the perturbed factorization `Rᵀ D R` of `T + δT` (here
    /// `δT` is the f32 rounding backward error), so every solve runs
    /// the same §8.1 refinement against the f64 operator. When
    /// refinement stalls before the residual bound is met, the solver
    /// falls back to a lazily-computed full-f64 factorization, counted
    /// in `Counter::MixedStallFallbacks`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.t.order()];
        self.solve_col_into(b, &mut x)?;
        Ok(x)
    }

    /// The unified per-column solve path every surface ([`solve`],
    /// [`solve_batch`], and the serve layer's pooled request loop) runs
    /// through. Writes the solution for the single right-hand side `b`
    /// into `x` without allocating on the direct (unperturbed) path.
    ///
    /// [`solve`]: Self::solve
    /// [`solve_batch`]: Self::solve_batch
    pub fn solve_col_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        let n = self.t.order();
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                context: "right-hand side length",
                expected: n,
                found: b.len(),
            });
        }
        if x.len() != n {
            return Err(Error::DimensionMismatch {
                context: "solution length",
                expected: n,
                found: x.len(),
            });
        }
        let _span = bs_probe::span!("solve", n = n);
        let t0 = bs_probe::histogram::is_enabled().then(std::time::Instant::now);
        let out = self.dispatch_col_into(b, x);
        if let Some(t0) = t0 {
            bs_probe::histogram::record(bs_probe::Hist::SolveNs, t0.elapsed().as_nanos() as u64);
        }
        out
    }

    fn dispatch_col_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        match (&self.factorization, &self.refine_op) {
            (Factorization::Spd(f), _) => {
                x.copy_from_slice(b);
                solve_rtdr_in_place(&f.r, None, x)
            }
            (Factorization::Indefinite(f), None) => {
                x.copy_from_slice(b);
                solve_rtdr_in_place(&f.r, Some(&f.d), x)
            }
            (Factorization::Indefinite(f), Some(op)) => {
                let res = solve_refined(&self.t, op, f, b, &self.refine)?;
                if !res.converged && self.plan.precision() == Precision::Mixed {
                    bs_probe::metrics::incr(bs_probe::metrics::Counter::MixedStallFallbacks);
                    bs_probe::event!(
                        "mixed_stall_fallback",
                        n = b.len(),
                        iterations = res.iterations,
                    );
                    self.solve_via_fallback_into(op, b, x)
                } else {
                    accept_refined(op, &res, b, x)
                }
            }
        }
    }

    /// Solve through the lazily-computed full-f64 factorization
    /// (mixed-precision stall recovery), refining against the same
    /// prepared operator when it is perturbed.
    fn solve_via_fallback_into(&self, op: &RefineOperator, b: &[f64], x: &mut [f64]) -> Result<()> {
        let f = match self.fallback.get() {
            Some(f) => f,
            None => {
                let _span = bs_probe::span!("mixed_fallback_refactor", n = self.t.order());
                let mut pw = PlanWorkspace::new();
                let f = self.plan.execute_f64(&self.t, &mut pw)?;
                self.fallback.get_or_init(|| f)
            }
        };
        match f {
            Factorization::Spd(f) => {
                x.copy_from_slice(b);
                solve_rtdr_in_place(&f.r, None, x)
            }
            Factorization::Indefinite(f) if f.perturbations.is_empty() => {
                x.copy_from_slice(b);
                solve_rtdr_in_place(&f.r, Some(&f.d), x)
            }
            Factorization::Indefinite(f) => {
                let res = solve_refined(&self.t, op, f, b, &self.refine)?;
                accept_refined(op, &res, b, x)
            }
        }
    }

    /// Solve `T X = B` with the right-hand-side columns fanned out
    /// across the plan's worker threads in a single pool dispatch:
    /// columns are chunked so pack/dispatch overhead is amortized over
    /// the whole batch instead of paid per column. Each column runs the
    /// identical sequential per-column path as [`solve`](Self::solve),
    /// so the result is bitwise identical at any thread count. The
    /// lowest-indexed failing column reports its error.
    pub fn solve_batch(&self, b: &Matrix) -> Result<Matrix> {
        let mut x = Matrix::zeros(b.rows(), b.cols());
        self.solve_cols_into(b, &mut x)?;
        Ok(x)
    }

    /// [`solve_batch`](Self::solve_batch) into a caller-provided (e.g.
    /// pooled) output matrix — the serve layer's allocation-free
    /// multi-RHS surface, and the one multi-RHS driver: chunk `B`'s
    /// columns, fan the chunks across the plan's workers (a sequential
    /// policy degenerates to a plain column loop), and run each column
    /// through [`solve_col_into`](Self::solve_col_into).
    pub fn solve_cols_into(&self, b: &Matrix, x: &mut Matrix) -> Result<()> {
        let n = self.t.order();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                context: "right-hand-side row count",
                expected: n,
                found: b.rows(),
            });
        }
        let ncols = b.cols();
        if x.rows() != n {
            return Err(Error::DimensionMismatch {
                context: "solution row count",
                expected: n,
                found: x.rows(),
            });
        }
        if x.cols() != ncols {
            return Err(Error::DimensionMismatch {
                context: "solution column count",
                expected: ncols,
                found: x.cols(),
            });
        }
        if n == 0 || ncols == 0 {
            return Ok(());
        }
        let exec = &self.plan.schur_options().exec;
        let threads = exec.threads.clamp(1, ncols);
        let chunk_cols = ncols.div_ceil(threads);
        let failed: Mutex<Option<(usize, Error)>> = Mutex::new(None);
        // Column-major storage: a chunk of `chunk_cols` columns is one
        // contiguous mutable slice.
        let jobs: Vec<(usize, &mut [f64])> = x
            .as_mut_slice()
            .chunks_mut(chunk_cols * n)
            .enumerate()
            .map(|(ci, xs)| (ci * chunk_cols, xs))
            .collect();
        bs_probe::event!("solve_batch", n = n, rhs = ncols, chunks = jobs.len());
        par::for_each_policy(exec, jobs, |(j0, xs)| {
            for (dj, xcol) in xs.chunks_mut(n).enumerate() {
                if let Err(e) = self.solve_col_into(b.col(j0 + dj), xcol) {
                    let mut g = failed.lock().unwrap_or_else(|p| p.into_inner());
                    if g.as_ref().is_none_or(|(fj, _)| j0 + dj < *fj) {
                        *g = Some((j0 + dj, e));
                    }
                    break;
                }
            }
        });
        if let Some((_, e)) = failed.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
        Ok(())
    }

    /// Build the Gohberg–Semencul representation of `T⁻¹` (scalar
    /// Toeplitz only, `m = 1`): one extra solve for `T u = e₀`, after
    /// which every further solve costs `O(n log n)` through
    /// [`bs_toeplitz::ToeplitzInverse::apply`]. Returns `None` when
    /// `m > 1` or when the representation does not exist (`u₀ = 0`).
    pub fn inverse_representation(&self) -> Option<bs_toeplitz::ToeplitzInverse> {
        if self.t.block_size() != 1 {
            return None;
        }
        let n = self.t.order();
        let mut e0 = vec![0.0; n];
        e0[0] = 1.0;
        let u = self.solve(&e0).ok()?;
        bs_toeplitz::ToeplitzInverse::from_first_column(&u)
    }
}

/// The prepared refinement operator for a factor whose solves refine:
/// an indefinite factorization under [`Precision::Mixed`] (the
/// promoted f32 factor is the perturbed one) or one a δ perturbation
/// fired in. An unperturbed [`Precision::F32`] factor answers directly:
/// that precision is a deliberate accuracy/throughput trade.
fn prepare_refinement(
    t: &SymBlockToeplitz,
    plan: &FactorPlan,
    factorization: &Factorization,
) -> Option<RefineOperator> {
    let refines = match factorization {
        Factorization::Spd(_) => false,
        Factorization::Indefinite(f) => {
            plan.precision() == Precision::Mixed || !f.perturbations.is_empty()
        }
    };
    refines.then(|| RefineOperator::new(t))
}

/// Write a refined answer into `x`, or refuse it when refinement
/// stagnated above the residual floor (§8.1 with `γ` too large).
fn accept_refined(op: &RefineOperator, res: &RefineResult, b: &[f64], x: &mut [f64]) -> Result<()> {
    if res.stagnated() {
        return Err(Error::RefinementStagnated {
            iterations: res.iterations,
            backward_error: op.backward_error(res, b),
        });
    }
    x.copy_from_slice(&res.x);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_matrix::ExecPolicy;
    use bs_toeplitz::workloads;
    use std::sync::Arc;

    /// A factor whose plan runs every multi-RHS solve as a plain
    /// sequential column loop (`threads = 1`).
    fn sequential(t: &SymBlockToeplitz) -> Factor {
        let spd = SchurOptions {
            exec: ExecPolicy::sequential(),
            ..Default::default()
        };
        let plan = FactorPlan::from_options(t, &spd, &IndefOptions::default()).unwrap();
        Factor::from_plan(t, plan, RefineOptions::default()).unwrap()
    }

    #[test]
    fn factor_is_shareable_and_matches_sequential() {
        let t = workloads::random_spd_block(2, 8, 21);
        let f = Arc::new(Factor::new(&t).unwrap());
        let (b, _) = workloads::rhs_for_ones(&t);
        let reference = f.solve(&b).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..16 {
                        let x = f.solve(&b).unwrap();
                        assert_eq!(x, reference, "concurrent solve must be bitwise equal");
                    }
                });
            }
        });
    }

    #[test]
    fn scratch_checkout_balances_and_reuses() {
        let t = workloads::random_spd_scalar(24, 7);
        let f = Factor::new(&t).unwrap();
        let (b, _) = workloads::rhs_for_ones(&t);
        for _ in 0..3 {
            let mut scratch = f.scratch();
            let mut x = scratch.take_vec(24);
            f.solve_col_into(&b, &mut x).unwrap();
            scratch.give_vec(x);
        }
        assert_eq!(f.scratch_pool().outstanding(), 0);
        assert_eq!(f.scratch_pool().checkouts(), 3);
        assert_eq!(f.scratch_pool().cold_checkouts(), 1, "arena is reused");
        assert!(f.scratch_pool().audit_balanced("factor_scratch_test"));
    }

    #[test]
    fn all_solve_surfaces_agree_bitwise() {
        for t in [
            workloads::random_spd_block(2, 6, 3),
            workloads::paper_singular_minor_example(),
        ] {
            let n = t.order();
            let f = Factor::new(&t).unwrap();
            let b = Matrix::from_fn(n, 3, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
            let looped = sequential(&t).solve_batch(&b).unwrap();
            let batch = f.solve_batch(&b).unwrap();
            assert_eq!(looped.max_abs_diff(&batch), 0.0);
            for j in 0..3 {
                let xj = f.solve(b.col(j)).unwrap();
                assert_eq!(xj.as_slice(), looped.col(j));
            }
        }
    }

    #[test]
    fn solve_cols_into_rejects_bad_output_shape() {
        let t = workloads::random_spd_scalar(8, 2);
        let f = Factor::new(&t).unwrap();
        let b = Matrix::zeros(8, 2);
        let mut x = Matrix::zeros(8, 3);
        assert!(matches!(
            f.solve_cols_into(&b, &mut x),
            Err(Error::DimensionMismatch {
                context: "solution column count",
                expected: 2,
                found: 3,
            })
        ));
        let mut x = Matrix::zeros(5, 2);
        assert!(matches!(
            f.solve_cols_into(&b, &mut x),
            Err(Error::DimensionMismatch {
                context: "solution row count",
                expected: 8,
                found: 5,
            })
        ));
    }

    #[test]
    fn spd_path_selected_for_spd_input() {
        let t = workloads::random_spd_block(2, 8, 1);
        let f = Factor::new(&t).unwrap();
        assert!(matches!(f.factorization(), Factorization::Spd(_)));
        assert!(f.is_positive_definite());
        assert_eq!(f.inertia(), (16, 0));
    }

    #[test]
    fn indefinite_fallback_and_inertia() {
        let t = workloads::random_indefinite_scalar(14, 3);
        let f = Factor::new(&t).unwrap();
        assert!(matches!(f.factorization(), Factorization::Indefinite(_)));
        assert!(!f.is_positive_definite());
        let (pos, neg) = f.inertia();
        assert_eq!(pos + neg, 14);
        assert!(neg > 0);
    }

    #[test]
    fn solve_spd_and_singular_minor_through_one_api() {
        for t in [
            workloads::random_spd_scalar(20, 4),
            workloads::paper_singular_minor_example(),
            workloads::random_indefinite_scalar(16, 9),
        ] {
            let (b, x_true) = workloads::rhs_for_ones(&t);
            let f = Factor::new(&t).unwrap();
            let x = f.solve(&b).unwrap();
            let err = x
                .iter()
                .zip(&x_true)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(err < 1e-8, "n={}: err {err:e}", t.order());
        }
    }

    #[test]
    fn multiple_right_hand_sides() {
        let t = workloads::random_spd_block(2, 6, 7);
        let n = t.order();
        let x_true = Matrix::from_fn(n, 3, |i, j| (i + j) as f64 - 5.0);
        let mut b = Matrix::zeros(n, 3);
        for j in 0..3 {
            let bj = t.matvec(x_true.col(j));
            b.col_mut(j).copy_from_slice(&bj);
        }
        let f = Factor::new(&t).unwrap();
        let x = f.solve_batch(&b).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn wrong_shapes_are_typed_errors() {
        let t = workloads::random_spd_scalar(8, 1);
        let mut f = Factor::new(&t).unwrap();
        // Short right-hand side.
        assert!(matches!(
            f.solve(&[1.0; 5]),
            Err(Error::DimensionMismatch {
                expected: 8,
                found: 5,
                ..
            })
        ));
        // Wrong solve_batch row count.
        let b = Matrix::zeros(5, 2);
        assert!(matches!(
            f.solve_batch(&b),
            Err(Error::DimensionMismatch {
                expected: 8,
                found: 5,
                ..
            })
        ));
        // Refactor with a different order, then a different block size.
        let mut pw = PlanWorkspace::new();
        let t2 = workloads::random_spd_scalar(10, 1);
        assert!(matches!(
            f.refactor(&t2, &mut pw),
            Err(Error::DimensionMismatch {
                context: "refactor matrix order",
                expected: 8,
                found: 10,
            })
        ));
        let t3 = workloads::random_spd_block(2, 4, 1);
        assert!(matches!(
            f.refactor(&t3, &mut pw),
            Err(Error::DimensionMismatch {
                context: "refactor block size",
                expected: 1,
                found: 2,
            })
        ));
        // The factor still answers for the original system.
        let (b, x_true) = workloads::rhs_for_ones(&t);
        let x = f.solve(&b).unwrap();
        assert!((x[0] - x_true[0]).abs() < 1e-9);
    }

    #[test]
    fn failed_refactor_leaves_the_factor_unchanged() {
        // Same shape, but not factorable: the SPD attempt fails and the
        // indefinite fallback may not perturb the singular minor.
        let t = workloads::kms(6, 0.5);
        let plan = FactorPlan::from_options(
            &t,
            &SchurOptions::default(),
            &IndefOptions {
                allow_perturbation: false,
                ..Default::default()
            },
        )
        .unwrap();
        let mut f = Factor::from_plan(&t, plan, RefineOptions::default()).unwrap();
        let before = match f.factorization() {
            Factorization::Spd(s) => s.r.clone(),
            other => panic!("expected SPD, got {other:?}"),
        };
        let (b, _) = workloads::rhs_for_ones(&t);
        let x0 = f.solve(&b).unwrap();
        let mut pw = PlanWorkspace::new();
        let singular = workloads::paper_singular_minor_example();
        assert!(matches!(
            f.refactor(&singular, &mut pw),
            Err(Error::SingularMinor { .. })
        ));
        match f.factorization() {
            Factorization::Spd(s) => assert_eq!(s.r.max_abs_diff(&before), 0.0),
            other => panic!("expected the old SPD factor, got {other:?}"),
        }
        assert_eq!(f.operator().to_dense().max_abs_diff(&t.to_dense()), 0.0);
        assert_eq!(f.solve(&b).unwrap(), x0);
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        // A warm refactor must produce exactly the factor a fresh
        // factorization computes (pooled buffers are zero-filled on
        // checkout, so the arithmetic paths are identical).
        let t1 = workloads::random_spd_block(2, 6, 11);
        let t2 = workloads::random_spd_block(2, 6, 12);
        let mut pw = PlanWorkspace::new();
        let mut warm = Factor::new(&t1).unwrap();
        warm.refactor(&t2, &mut pw).unwrap();
        let fresh = Factor::new(&t2).unwrap();
        match (warm.factorization(), fresh.factorization()) {
            (Factorization::Spd(a), Factorization::Spd(b)) => {
                assert_eq!(a.r.max_abs_diff(&b.r), 0.0, "factors must be bitwise equal");
            }
            other => panic!("expected SPD factorizations, got {other:?}"),
        }
        // And through the indefinite path too.
        let i1 = workloads::random_indefinite_scalar(12, 5);
        let i2 = workloads::random_indefinite_scalar(12, 6);
        let mut pw = PlanWorkspace::new();
        let mut warm = Factor::new(&i1).unwrap();
        warm.refactor(&i2, &mut pw).unwrap();
        let fresh = Factor::new(&i2).unwrap();
        match (warm.factorization(), fresh.factorization()) {
            (Factorization::Indefinite(a), Factorization::Indefinite(b)) => {
                assert_eq!(a.r.max_abs_diff(&b.r), 0.0);
                assert_eq!(a.d, b.d);
            }
            other => panic!("expected indefinite factorizations, got {other:?}"),
        }
    }

    #[test]
    fn warm_refactor_performs_zero_workspace_allocations() {
        let systems: Vec<_> = (0..4)
            .map(|s| workloads::random_spd_block(2, 8, 40 + s))
            .collect();
        let mut f = Factor::new(&systems[0]).unwrap();
        let mut pw = PlanWorkspace::new();
        // The first refactor warms the workspace (the retired factor's
        // storage only goes back into it as it retires).
        f.refactor(&systems[1], &mut pw).unwrap();
        pw.reset_stats();
        for t in &systems[2..] {
            f.refactor(t, &mut pw).unwrap();
            let (b, _) = workloads::rhs_for_ones(t);
            f.solve(&b).unwrap();
        }
        assert_eq!(
            pw.allocations(),
            0,
            "warm refactor+solve cycles must not allocate from the pool"
        );
        assert!(pw.high_water_elems() > 0);
    }

    /// `‖b − T x‖₂ / (‖T‖∞ ‖x‖₂ + ‖b‖₂)` with the direct product.
    fn backward_error(t: &SymBlockToeplitz, x: &[f64], b: &[f64]) -> f64 {
        use bs_matrix::norms::vec_two;
        vec_two(&t.residual(x, b)) / (t.norm_inf() * vec_two(x) + vec_two(b))
    }

    fn mixed(t: &SymBlockToeplitz) -> Factor {
        let req = crate::PlanRequest {
            precision: Precision::Mixed,
            ..Default::default()
        };
        let plan = FactorPlan::new(t, &req).unwrap();
        Factor::from_plan(t, plan, RefineOptions::default()).unwrap()
    }

    #[test]
    fn only_refining_factors_prepare_an_operator() {
        let spd = Factor::new(&workloads::random_spd_block(2, 8, 1)).unwrap();
        assert!(spd.refine_op.is_none());
        let unperturbed = Factor::new(&workloads::random_indefinite_scalar(14, 3)).unwrap();
        assert!(
            matches!(unperturbed.factorization(), Factorization::Indefinite(f) if f.perturbations.is_empty())
        );
        assert!(unperturbed.refine_op.is_none());
        let perturbed = Factor::new(&workloads::singular_minor_scalar(64, 5)).unwrap();
        assert!(perturbed
            .refine_op
            .as_ref()
            .is_some_and(RefineOperator::uses_fft));
        let m = mixed(&workloads::spd_ar1_block(8, 64, 0.9, 1));
        assert!(m.refine_op.as_ref().is_some_and(RefineOperator::uses_fft));
    }

    #[test]
    fn mixed_refactor_prepares_the_new_operator() {
        use bs_probe::metrics::{self, Counter};
        let t1 = workloads::spd_ar1_block(8, 64, 0.9, 1);
        // Same shape, every entry 0.1% larger: refining against a stale
        // `t1` would converge to 1.001·x at backward error ~5e-4.
        let t2 = SymBlockToeplitz::new(
            t1.first_block_row()
                .iter()
                .map(|g| {
                    let mut g = g.clone();
                    g.scale(1.001);
                    g
                })
                .collect(),
        );
        let mut f = mixed(&t1);
        f.refactor(&t2, &mut PlanWorkspace::new()).unwrap();
        let fallbacks = metrics::local_get(Counter::MixedStallFallbacks);
        for j in 0..3 {
            let b: Vec<f64> = (0..t2.order())
                .map(|i| ((i * 7 + j * 13) % 11) as f64 - 5.0)
                .collect();
            let x = f.solve(&b).unwrap();
            let be = backward_error(&t2, &x, &b);
            assert!(be <= 1e-12, "rhs {j}: backward error {be:e}");
        }
        assert_eq!(
            metrics::local_get(Counter::MixedStallFallbacks),
            fallbacks,
            "the refined answers must not come from the f64 fallback"
        );
    }

    #[test]
    fn clones_solve_bitwise_equal() {
        for f in [
            mixed(&workloads::spd_ar1_block(8, 64, 0.9, 2)),
            Factor::new(&workloads::singular_minor_scalar(96, 12)).unwrap(),
        ] {
            let (b, _) = workloads::rhs_for_ones(f.operator());
            let g = f.clone();
            assert_eq!(g.solve(&b).unwrap(), f.solve(&b).unwrap());
        }
    }

    #[test]
    fn stagnated_refinement_is_refused() {
        // The perturbed factorization is too far from T here: the
        // corrections stop shrinking after two rounds, far above the
        // residual floor.
        let t = workloads::singular_minor_scalar(64, 151);
        let (b, _) = workloads::rhs_for_ones(&t);
        match Factor::new(&t).unwrap().solve(&b) {
            Err(Error::RefinementStagnated {
                iterations,
                backward_error,
            }) => {
                assert_eq!(iterations, 2);
                assert!(
                    backward_error > 1e-10 && backward_error < 1e-7,
                    "{backward_error:e}"
                );
            }
            other => panic!("expected a stagnation error, got {other:?}"),
        }
    }

    #[test]
    fn refinement_out_of_iterations_still_answers() {
        // Corrections keep shrinking but never reach the tolerance
        // within `max_iter`; the answer is at working accuracy.
        let t = workloads::singular_minor_scalar(256, 96);
        let (b, _) = workloads::rhs_for_ones(&t);
        let f = Factor::new(&t).unwrap();
        let Factorization::Indefinite(indef) = f.factorization() else {
            panic!("expected the perturbed factorization");
        };
        let opts = RefineOptions::default();
        let op = RefineOperator::new(&t);
        let res = solve_refined(&t, &op, indef, &b, &opts).unwrap();
        assert!(!res.converged && !res.stagnated());
        assert_eq!(res.iterations, opts.max_iter);
        let x = f.solve(&b).unwrap();
        assert!(backward_error(&t, &x, &b) <= 1e-12);
    }

    #[test]
    fn gohberg_semencul_representation_solves() {
        let t = workloads::random_spd_scalar(48, 3);
        let f = Factor::new(&t).unwrap();
        let inv = f.inverse_representation().expect("GS rep");
        let (b, x_true) = workloads::rhs_for_ones(&t);
        let x = inv.apply(&b);
        for i in 0..48 {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "i={i}");
        }
        // Block matrices have no scalar GS representation.
        let tb = workloads::random_spd_block(2, 8, 4);
        assert!(Factor::new(&tb).unwrap().inverse_representation().is_none());
    }

    #[test]
    fn determinant_matches_dense_lu() {
        for t in [
            workloads::random_spd_scalar(12, 2),
            workloads::random_indefinite_scalar(12, 5),
        ] {
            let f = Factor::new(&t).unwrap();
            let (sign, ln) = f.det_sign_ln();
            let lu = bs_matrix::lu::lu_factor(&t.to_dense()).unwrap();
            let det = lu.det();
            assert_eq!(sign, det.signum(), "sign mismatch");
            assert!(
                (ln - det.abs().ln()).abs() < 1e-8,
                "ln|det| {} vs {}",
                ln,
                det.abs().ln()
            );
        }
    }
}
