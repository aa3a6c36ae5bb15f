//! Elementary hyperbolic Householder transformations (§3 of the paper).
//!
//! Given a signature `W = diag(±1)` and a vector `x` with `xᵀWx ≠ 0`,
//!
//! ```text
//! U_x = W − 2 x xᵀ / (xᵀ W x)
//! ```
//!
//! is `W`-unitary (`U_xᵀ W U_x = W`). Choosing `x = Wu + σ e_j` with
//! `σ = sign(u_j) √(uᵀWu)` maps `u` to `−σ e_j` (eqs. 14-16).
//!
//! In the Schur algorithm every eliminating vector has the sparse
//! support `{j} ∪ {m..2m}` — one pivot entry in the upper half and a
//! dense lower half (Fig. 1). [`PivotReflector`] stores exactly that and
//! its `apply_*` kernels skip the structural zeros.
//!
//! Both reflector types are generic over the working [`Scalar`]
//! (`f64` by default): the mixed-precision pipeline builds the same
//! reflectors at `f32`. Pivot *classification* thresholds
//! (`zero_tol`, `scale`) stay `f64` — they are tolerances, not working
//! data — and the reported `hnorm` diagnostics are widened to `f64`.

use bs_matrix::flops;
use bs_matrix::ldlt::Signature;
use bs_matrix::Scalar;

/// Outcome of attempting to build a reflector from a pivot column.
#[derive(Debug, Clone, PartialEq)]
pub enum PivotOutcome {
    /// Reflector built; elimination may proceed.
    Ok,
    /// `uᵀWu` has the opposite sign of `W_jj`: an exchange with an
    /// opposite-signature row is required first (§8).
    WrongSign { hnorm: f64 },
    /// `uᵀWu ≈ 0`: singular principal minor; the perturbation of §8.2
    /// applies. Carries the tiny hyperbolic norm.
    ZeroNorm { hnorm: f64 },
}

/// A dense elementary hyperbolic reflector (general support).
///
/// Stores `x` and `beta = −2/(xᵀWx)`, so `U_x c = W c + beta · x (xᵀ c)`.
#[derive(Debug, Clone)]
pub struct HypReflector<T: Scalar = f64> {
    pub x: Vec<T>,
    pub beta: T,
    /// `σ`: the pivot entry maps to `−σ`.
    pub sigma: T,
    /// Pivot index `j`.
    pub pivot: usize,
}

impl<T: Scalar> HypReflector<T> {
    /// Build the reflector mapping `u → −σ e_j` under signature `w`.
    /// Requires `sign(uᵀWu) = w_j`; callers decide how to handle the
    /// other outcomes (exchange / perturbation / failure).
    pub fn compute(u: &[T], w: &Signature, pivot: usize) -> (Option<HypReflector<T>>, T) {
        let n = u.len();
        assert_eq!(w.len(), n);
        assert!(pivot < n);
        let h = bs_matrix::blas1::wdot(u, &w.0, u);
        let wj = T::from_f64(w.sign(pivot) as f64);
        if h * wj <= T::ZERO {
            return (None, h);
        }
        let sigma = sign_or_one(u[pivot]) * (h * wj).sqrt() * wj.signum();
        // x = W u + σ e_j.
        let mut x = u.to_vec();
        w.apply(&mut x);
        x[pivot] += sigma;
        // xᵀWx = 2(uᵀWu + σ u_j) — the closed form from §3; computing it
        // directly is cheaper and avoids cancellation.
        let two = T::from_f64(2.0);
        let xtwx = two * (h + sigma * u[pivot]);
        flops::add(6);
        if xtwx == T::ZERO {
            return (None, h);
        }
        (
            Some(HypReflector {
                x,
                beta: (-two) / xtwx,
                sigma,
                pivot,
            }),
            h,
        )
    }

    /// Apply to a dense column: `c ← W c + beta x (xᵀ c)`, counting one
    /// flop per entry `W` negates.
    pub fn apply_col(&self, w: &Signature, c: &mut [T]) {
        let s = bs_matrix::blas1::dot(&self.x, c);
        let mut negated = 0u64;
        for (ci, &wi) in c.iter_mut().zip(&w.0) {
            if wi < 0 {
                *ci = -*ci;
                negated += 1;
            }
        }
        flops::add(negated);
        bs_matrix::blas1::axpy(self.beta * s, &self.x, c);
    }

    /// Dense `2m × 2m` matrix `U_x` (test / diagnostic use).
    pub fn to_dense(&self, w: &Signature) -> bs_matrix::Matrix<T> {
        let n = self.x.len();
        bs_matrix::Matrix::from_fn(n, n, |i, j| {
            let wij = if i == j {
                T::from_f64(w.sign(i) as f64)
            } else {
                T::ZERO
            };
            wij + self.beta * self.x[i] * self.x[j]
        })
    }
}

#[inline]
fn sign_or_one<T: Scalar>(v: T) -> T {
    if v < T::ZERO {
        -T::ONE
    } else {
        T::ONE
    }
}

/// The Schur-step reflector with sparse support `{pivot} ∪ {m..2m}`
/// (Fig. 1 of the paper): one nonzero in the upper half, dense lower
/// half. Storing only the support makes both construction and
/// application `O(m)` per column instead of `O(2m)`.
#[derive(Debug, Clone)]
pub struct PivotReflector<T: Scalar = f64> {
    /// Upper-half entry `x_j` at row `pivot`.
    pub x_top: T,
    /// Lower-half entries `x_{m..2m}`.
    pub x_low: Vec<T>,
    pub beta: T,
    pub sigma: T,
    /// Pivot row index within the upper half (`0 ≤ pivot < m`).
    pub pivot: usize,
}

impl<T: Scalar> PivotReflector<T> {
    /// A placeholder reflector ready for [`compute_into`](Self::compute_into)
    /// to overwrite; its `x_low` buffer is reused across Schur steps.
    pub fn empty() -> PivotReflector<T> {
        PivotReflector {
            x_top: T::ZERO,
            x_low: Vec::new(),
            beta: T::ZERO,
            sigma: T::ZERO,
            pivot: 0,
        }
    }

    /// Classify and (when possible) build into `out` the reflector for
    /// the pivot column (`u_top` at row `pivot`; `u_low`) under working
    /// signature `w` (length `m + u_low.len()`; the lower half starts
    /// at `m`). `out.x_low` reuses its existing heap buffer; on
    /// non-`Ok` outcomes `out` holds unspecified (stale) data.
    ///
    /// `zero_tol * scale` is the absolute threshold below which `uᵀWu`
    /// counts as zero (singular principal minor). The hyperbolic norm of
    /// a pivot column is a ratio of consecutive principal minors of `T`
    /// — an invariant of the elimination — so `scale` must be an
    /// absolute matrix scale (e.g. `‖T‖∞`), *not* the column norm: the
    /// column entries blow up by `1/√δ` after a perturbation while `h`
    /// keeps its meaning, and a column-relative test would misclassify
    /// healthy pivots as singular.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_into(
        u_top: T,
        u_low: &[T],
        w: &Signature,
        m: usize,
        pivot: usize,
        zero_tol: f64,
        scale: f64,
        out: &mut PivotReflector<T>,
    ) -> PivotOutcome {
        assert!(pivot < m);
        assert_eq!(w.len(), m + u_low.len());
        let wj = T::from_f64(w.sign(pivot) as f64);
        let mut h = wj * u_top * u_top;
        for (i, &v) in u_low.iter().enumerate() {
            let s = T::from_f64(w.sign(m + i) as f64);
            h += s * v * v;
        }
        flops::add(3 * u_low.len() as u64 + 3);
        if h.abs().to_f64() <= zero_tol * scale.max(f64::MIN_POSITIVE) {
            return PivotOutcome::ZeroNorm { hnorm: h.to_f64() };
        }
        if h * wj < T::ZERO {
            return PivotOutcome::WrongSign { hnorm: h.to_f64() };
        }
        let sigma = sign_or_one(u_top) * (h * wj).sqrt() * wj.signum();
        // x = W u + σ e_j on the support.
        let x_top = wj * u_top + sigma;
        out.x_low.clear();
        out.x_low.extend_from_slice(u_low);
        for (i, v) in out.x_low.iter_mut().enumerate() {
            if w.sign(m + i) < 0 {
                *v = -*v;
            }
        }
        let two = T::from_f64(2.0);
        let xtwx = two * (h + sigma * u_top);
        flops::add(6);
        if xtwx == T::ZERO {
            return PivotOutcome::ZeroNorm { hnorm: h.to_f64() };
        }
        out.x_top = x_top;
        out.beta = (-two) / xtwx;
        out.sigma = sigma;
        out.pivot = pivot;
        PivotOutcome::Ok
    }

    /// Inner product of the support with a split column.
    #[inline]
    pub fn dot(&self, c_top: T, c_low: &[T]) -> T {
        flops::add(2 * self.x_low.len() as u64 + 2);
        self.x_top * c_top + bs_matrix::blas1::dot(&self.x_low, c_low)
    }

    /// Apply to a split column `(c_top at the pivot row; c_low)` in
    /// place. Rows of the upper half other than the pivot row are
    /// *not* touched — callers that need the full `W` action on them
    /// (sign flips under an indefinite Σ) handle that separately; under
    /// the SPD signature the upper half of `W` is `+I` so nothing is
    /// needed.
    #[inline]
    pub fn apply_split(&self, w: &Signature, m: usize, c_top: &mut T, c_low: &mut [T]) {
        let s = self.dot(*c_top, c_low);
        // W action on the support rows.
        let wj = T::from_f64(w.sign(self.pivot) as f64);
        *c_top *= wj;
        for (i, v) in c_low.iter_mut().enumerate() {
            if w.sign(m + i) < 0 {
                *v = -*v;
            }
        }
        flops::add(self.x_low.len() as u64 + 1);
        *c_top += self.beta * s * self.x_top;
        bs_matrix::blas1::axpy(self.beta * s, &self.x_low, c_low);
        flops::add(2);
    }

    /// Cheap upper estimate of `‖U_x‖₂ ≤ 1 + |β|·‖x‖₂²` — the growth
    /// factor the §8.2 perturbation analysis tracks (`‖U‖ ≈ 1/δ` after
    /// a perturbed pivot). Reported in f64 whatever the working scalar.
    pub fn norm_est(&self) -> f64 {
        let x2 = self.x_top * self.x_top + self.x_low.iter().fold(T::ZERO, |acc, &v| acc + v * v);
        1.0 + self.beta.abs().to_f64() * x2.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_matrix::Matrix;

    fn spd_w(m: usize) -> Signature {
        Signature::hyperbolic(m)
    }

    #[test]
    fn reflector_maps_u_to_sigma_ej() {
        let w = spd_w(2); // (+,+,-,-)
        let u = vec![3.0, 0.5, 1.0, 0.5]; // uᵀWu = 9+.25-1-.25 = 8 > 0
        let (r, h) = HypReflector::compute(&u, &w, 0);
        let r = r.unwrap();
        assert!((h - 8.0).abs() < 1e-14);
        let mut c = u.clone();
        r.apply_col(&w, &mut c);
        assert!((c[0] + r.sigma).abs() < 1e-12, "c0 = {}", c[0]);
        for i in 1..4 {
            assert!(c[i].abs() < 1e-12, "c[{i}] = {}", c[i]);
        }
        // |σ| = sqrt(uᵀWu)
        assert!((r.sigma.abs() - 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn reflector_is_w_unitary() {
        let w = spd_w(3);
        let u = vec![2.0, -1.0, 0.3, 0.5, 0.2, -0.1];
        let (r, _) = HypReflector::compute(&u, &w, 1);
        let r = r.unwrap();
        let ud = r.to_dense(&w);
        let wd = w.to_matrix();
        // UᵀWU must equal W.
        let mut wu = Matrix::zeros(6, 6);
        bs_matrix::gemm(
            1.0,
            wd.rf(),
            bs_matrix::Trans::No,
            ud.rf(),
            bs_matrix::Trans::No,
            0.0,
            wu.mt(),
        );
        let mut utwu = Matrix::zeros(6, 6);
        bs_matrix::gemm(
            1.0,
            ud.rf(),
            bs_matrix::Trans::Yes,
            wu.rf(),
            bs_matrix::Trans::No,
            0.0,
            utwu.mt(),
        );
        assert!(utwu.max_abs_diff(&wd) < 1e-12);
    }

    #[test]
    fn wrong_sign_detected() {
        let w = spd_w(1); // (+,-)
        let u = vec![1.0, 2.0]; // uᵀWu = -3 < 0 but w_0 = +1
        let (r, h) = HypReflector::compute(&u, &w, 0);
        assert!(r.is_none());
        assert!((h + 3.0).abs() < 1e-14);
    }

    #[test]
    fn preserves_hyperbolic_norm_of_any_vector() {
        let w = spd_w(2);
        let u = vec![5.0, 1.0, 2.0, 1.0];
        let (r, _) = HypReflector::compute(&u, &w, 0);
        let r = r.unwrap();
        let c0 = vec![0.3, -1.2, 0.7, 2.5];
        let h0 = bs_matrix::blas1::wdot(&c0, &w.0, &c0);
        let mut c = c0.clone();
        r.apply_col(&w, &mut c);
        let h1 = bs_matrix::blas1::wdot(&c, &w.0, &c);
        assert!((h0 - h1).abs() < 1e-10 * h0.abs().max(1.0));
    }

    #[test]
    fn pivot_reflector_matches_dense() {
        let m = 3;
        let w = spd_w(m);
        // Column with support {1} ∪ lower.
        let mut u = vec![0.0; 6];
        u[1] = 4.0;
        u[3] = 1.0;
        u[4] = -0.5;
        u[5] = 2.0;
        let (full, _) = HypReflector::compute(&u, &w, 1);
        let full = full.unwrap();
        let mut sparse = PivotReflector::empty();
        let out = PivotReflector::compute_into(4.0, &u[3..], &w, m, 1, 1e-14, 1.0, &mut sparse);
        assert_eq!(out, PivotOutcome::Ok);
        assert!((sparse.beta - full.beta).abs() < 1e-14);
        assert!((sparse.sigma - full.sigma).abs() < 1e-14);

        // Apply both to a generic column; on the support rows the
        // results must agree (other upper rows: dense applies W=+I and
        // x is zero there, so they agree trivially).
        let c0 = vec![1.0, -2.0, 0.5, 3.0, 0.25, -1.5];
        let mut cd = c0.clone();
        full.apply_col(&w, &mut cd);
        let mut c_top = c0[1];
        let mut c_low = c0[3..].to_vec();
        sparse.apply_split(&w, m, &mut c_top, &mut c_low);
        assert!((c_top - cd[1]).abs() < 1e-13);
        for i in 0..3 {
            assert!((c_low[i] - cd[3 + i]).abs() < 1e-13);
        }
        // Untouched upper rows keep their values.
        assert_eq!(cd[0], c0[0]);
        assert_eq!(cd[2], c0[2]);
    }

    #[test]
    fn pivot_reflector_eliminates_lower() {
        let m = 2;
        let w = spd_w(m);
        let u_top = 3.0;
        let u_low = vec![1.0, -2.0];
        let mut r = PivotReflector::empty();
        let out = PivotReflector::compute_into(u_top, &u_low, &w, m, 0, 1e-14, 1.0, &mut r);
        assert_eq!(out, PivotOutcome::Ok);
        let mut c_top = u_top;
        let mut c_low = u_low.clone();
        r.apply_split(&w, m, &mut c_top, &mut c_low);
        assert!((c_top + r.sigma).abs() < 1e-12);
        for v in &c_low {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn zero_norm_reported() {
        let m = 1;
        let w = spd_w(m);
        let mut r = PivotReflector::empty();
        let out = PivotReflector::compute_into(1.0, &[1.0], &w, m, 0, 1e-12, 1.0, &mut r);
        assert!(matches!(out, PivotOutcome::ZeroNorm { .. }));
    }

    #[test]
    fn wrong_sign_reported_for_pivot_variant() {
        let m = 1;
        let w = spd_w(m);
        let mut r = PivotReflector::empty();
        let out = PivotReflector::compute_into(1.0, &[2.0], &w, m, 0, 1e-12, 1.0, &mut r);
        match out {
            PivotOutcome::WrongSign { hnorm } => assert!((hnorm + 3.0).abs() < 1e-14),
            other => panic!("expected WrongSign, got {other:?}"),
        }
    }
}
