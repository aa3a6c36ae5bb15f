//! Independent scalar (m = 1) hyperbolic Schur factorization in the
//! style of Cybenko & Berry, using hyperbolic *rotations*
//! (`H = 1/√(1−ρ²) · [[1, −ρ], [−ρ, 1]]`) instead of reflectors.
//!
//! This is deliberately a from-scratch second implementation: `bs-core`
//! at `m = 1` must produce the same `R` (the Cholesky factor transpose
//! is unique), so the two act as cross-checks on each other.

use bs_matrix::flops;
use bs_matrix::Matrix;

/// Error from the scalar Schur recursion.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarSchurError {
    /// `t₀ ≤ 0` at the start.
    NotPositiveDefinite { step: usize },
    /// `|ρ| ≥ 1` at some step: a principal minor is non-positive.
    ReflectionOutOfRange { step: usize, rho: f64 },
}

impl std::fmt::Display for ScalarSchurError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalarSchurError::NotPositiveDefinite { step } => {
                write!(f, "scalar Schur: not positive definite at step {step}")
            }
            ScalarSchurError::ReflectionOutOfRange { step, rho } => {
                write!(f, "scalar Schur: |rho| = {rho} >= 1 at step {step}")
            }
        }
    }
}

impl std::error::Error for ScalarSchurError {}

/// Factor a symmetric positive definite scalar Toeplitz matrix (first
/// row `t`) as `T = RᵀR`, returning upper triangular `R` with positive
/// diagonal.
pub fn scalar_schur_factor(t: &[f64]) -> Result<Matrix, ScalarSchurError> {
    let n = t.len();
    assert!(n > 0);
    if t[0] <= 0.0 {
        return Err(ScalarSchurError::NotPositiveDefinite { step: 0 });
    }
    let s0 = t[0].sqrt();
    // Generator rows (eq. 9 at m = 1).
    let mut g1: Vec<f64> = t.iter().map(|v| v / s0).collect();
    let mut g2 = g1.clone();
    g2[0] = 0.0;
    flops::add(2 * n as u64 + 1);

    let mut r = Matrix::zeros(n, n);
    for j in 0..n {
        r[(0, j)] = g1[j];
    }

    for s in 1..n {
        // Shift g1 right by one.
        for j in (s..n).rev() {
            g1[j] = g1[j - 1];
        }
        // Hyperbolic rotation eliminating g2[s] against g1[s].
        let a = g1[s];
        let b = g2[s];
        if a == 0.0 {
            return Err(ScalarSchurError::ReflectionOutOfRange {
                step: s,
                rho: f64::INFINITY,
            });
        }
        let rho = b / a;
        if rho.abs() >= 1.0 {
            return Err(ScalarSchurError::ReflectionOutOfRange { step: s, rho });
        }
        let c = 1.0 / (1.0 - rho * rho).sqrt();
        flops::add(5);
        for j in s..n {
            let (x, y) = (g1[j], g2[j]);
            g1[j] = c * (x - rho * y);
            g2[j] = c * (y - rho * x);
        }
        flops::add(6 * (n - s) as u64);
        g2[s] = 0.0;
        for j in s..n {
            r[(s, j)] = g1[j];
        }
    }
    // Normalize diagonal positive.
    for i in 0..n {
        if r[(i, i)] < 0.0 {
            for j in i..n {
                r[(i, j)] = -r[(i, j)];
            }
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_toeplitz::workloads;

    fn first_row(t: &bs_toeplitz::SymBlockToeplitz) -> Vec<f64> {
        (0..t.order()).map(|j| t.get(0, j)).collect()
    }

    #[test]
    fn reconstructs_t() {
        let t = workloads::random_spd_scalar(20, 3);
        let r = scalar_schur_factor(&first_row(&t)).unwrap();
        let mut rec = Matrix::zeros(20, 20);
        bs_matrix::gemm(
            1.0,
            r.rf(),
            bs_matrix::Trans::Yes,
            r.rf(),
            bs_matrix::Trans::No,
            0.0,
            rec.mt(),
        );
        assert!(rec.max_abs_diff(&t.to_dense()) < 1e-11);
    }

    #[test]
    fn agrees_with_block_schur_at_m_equals_1() {
        let t = workloads::kms(24, 0.85);
        let r1 = scalar_schur_factor(&first_row(&t)).unwrap();
        let f = bs_core::factor_spd(&t, &bs_core::SchurOptions::default()).unwrap();
        assert!(
            r1.max_abs_diff(&f.r) < 1e-10,
            "independent implementations disagree: {}",
            r1.max_abs_diff(&f.r)
        );
    }

    #[test]
    fn agrees_with_block_schur_at_serving_size() {
        // The engine's m_s = 1 step and this rotation loop apply the same
        // hyperbolic transformations in different forms, so their R
        // agree to roundoff (1.1–1.6e-14 relative at n = 256).
        for seed in 0..3 {
            let t = workloads::random_spd_scalar(256, seed);
            let r1 = scalar_schur_factor(&first_row(&t)).unwrap();
            let opts = bs_core::SchurOptions {
                block_size: Some(1),
                ..Default::default()
            };
            let f = bs_core::factor_spd(&t, &opts).unwrap();
            let scale = f.r.as_slice().iter().fold(0.0f64, |a, v| a.max(v.abs()));
            let rel = r1.max_abs_diff(&f.r) / scale;
            assert!(rel < 1e-13, "seed {seed}: relative disagreement {rel:e}");
        }
    }

    #[test]
    fn rejects_indefinite() {
        let t = workloads::random_indefinite_scalar(8, 2);
        assert!(scalar_schur_factor(&first_row(&t)).is_err());
    }

    #[test]
    fn rejects_singular_minor() {
        let t = workloads::paper_singular_minor_example();
        match scalar_schur_factor(&first_row(&t)) {
            Err(ScalarSchurError::ReflectionOutOfRange { step: 1, .. }) => {}
            other => panic!("expected breakdown at step 1, got {other:?}"),
        }
    }
}
