//! Triangular solves with the `Rᵀ D R` factors (`D = I` on the SPD
//! path), plus the dense reconstruction the tests verify against.

use crate::{Error, Result};
use bs_matrix::{Matrix, Scalar};

/// Solve `Rᵀ D R x = b` where `R` is upper triangular and
/// `D = diag(d)` with `d ∈ {±1}ⁿ` (`None` means `D = I`, the SPD case).
pub fn solve_rtdr<T: Scalar>(r: &Matrix<T>, d: Option<&[i8]>, b: &[T]) -> Result<Vec<T>> {
    if b.len() != r.rows() {
        return Err(Error::DimensionMismatch {
            context: "right-hand side length",
            expected: r.rows(),
            found: b.len(),
        });
    }
    let mut x = b.to_vec();
    solve_rtdr_in_place(r, d, &mut x)?;
    Ok(x)
}

/// In-place form of [`solve_rtdr`]: on entry `x` holds `b`, on exit the
/// solution. The allocation-free core every solve surface shares — the
/// per-call output buffer is the only storage a warm triangular solve
/// touches.
pub fn solve_rtdr_in_place<T: Scalar>(r: &Matrix<T>, d: Option<&[i8]>, x: &mut [T]) -> Result<()> {
    let n = r.rows();
    if r.cols() != n {
        return Err(Error::DimensionMismatch {
            context: "triangular factor must be square",
            expected: n,
            found: r.cols(),
        });
    }
    if x.len() != n {
        return Err(Error::DimensionMismatch {
            context: "right-hand side length",
            expected: n,
            found: x.len(),
        });
    }
    if let Some(d) = d {
        if d.len() != n {
            return Err(Error::DimensionMismatch {
                context: "signature length",
                expected: n,
                found: d.len(),
            });
        }
    }
    let _span = bs_probe::span!("tri_solve", n = n);
    // Rᵀ y = b.
    bs_matrix::blas2::trsv_upper_t(r.rf(), x)?;
    // y ← D⁻¹ y = D y.
    if let Some(d) = d {
        for (xi, &s) in x.iter_mut().zip(d) {
            if s < 0 {
                *xi = -*xi;
            }
        }
        bs_matrix::flops::add(n as u64);
    }
    // R x = y.
    bs_matrix::blas2::trsv_upper(r.rf(), x)?;
    // Two triangular solves at n² flops each (roofline attribution).
    bs_probe::event!("tri_solve_done", flops = 2 * n * n);
    Ok(())
}

/// Dense reconstruction `Rᵀ D R` (test / verification, O(n³)).
pub fn reconstruct_rtdr<T: Scalar>(r: &Matrix<T>, d: Option<&[i8]>) -> Matrix<T> {
    let n = r.rows();
    let mut dr = r.clone();
    if let Some(d) = d {
        for i in 0..n {
            if d[i] < 0 {
                for j in i..n {
                    dr[(i, j)] = -dr[(i, j)];
                }
            }
        }
    }
    let mut out = Matrix::zeros(n, n);
    bs_matrix::blas3::gemm(
        T::ONE,
        r.rf(),
        bs_matrix::Trans::Yes,
        dr.rf(),
        bs_matrix::Trans::No,
        T::ZERO,
        out.mt(),
    );
    out
}

#[cfg(test)]
mod rtdr_tests {
    use super::*;

    fn upper(n: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut r = Matrix::from_fn(n, n, |i, j| {
            if j < i {
                return 0.0;
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 1000) as f64 - 500.0) / 500.0
        });
        for i in 0..n {
            r[(i, i)] = r[(i, i)].abs() + 1.0;
        }
        r
    }

    #[test]
    fn spd_solve_round_trip() {
        let n = 9;
        let r = upper(n, 4);
        let a = reconstruct_rtdr(&r, None);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let mut b = vec![0.0; n];
        bs_matrix::blas2::gemv(1.0, a.rf(), &x_true, 0.0, &mut b);
        let x = solve_rtdr(&r, None, &b).unwrap();
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn signed_solve_round_trip() {
        let n = 7;
        let r = upper(n, 9);
        let d: Vec<i8> = (0..n).map(|i| if i % 3 == 1 { -1 } else { 1 }).collect();
        let a = reconstruct_rtdr(&r, Some(&d));
        // A must be symmetric.
        for i in 0..n {
            for j in 0..n {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64).cos()).collect();
        let mut b = vec![0.0; n];
        bs_matrix::blas2::gemv(1.0, a.rf(), &x_true, 0.0, &mut b);
        let x = solve_rtdr(&r, Some(&d), &b).unwrap();
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_triangle_propagates() {
        let mut r = upper(3, 2);
        r[(1, 1)] = 0.0;
        assert!(solve_rtdr(&r, None, &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        let r = upper(4, 1);
        assert!(matches!(
            solve_rtdr(&r, None, &[1.0; 3]),
            Err(Error::DimensionMismatch {
                expected: 4,
                found: 3,
                ..
            })
        ));
        let d = [1i8, -1];
        assert!(matches!(
            solve_rtdr(&r, Some(&d), &[1.0; 4]),
            Err(Error::DimensionMismatch {
                expected: 4,
                found: 2,
                ..
            })
        ));
    }
}
