//! Level-2 kernels: matrix-vector products, rank-1 updates, triangular
//! solves with a single right-hand side.
//!
//! The paper's first VY form wants two matrix-vector products per step,
//! the second VY form one matvec plus one rank-1 update (§4); these are
//! those primitives.

use crate::blas1;
use crate::flops;
#[cfg(target_arch = "x86_64")]
use crate::kernel::{self, Isa};
use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};
use crate::{Error, Result};
use bs_probe::metrics::{self, Counter};

/// `y <- alpha * A x + beta * y`.
pub fn gemv<T: Scalar>(alpha: T, a: MatRef<'_, T>, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(a.cols(), x.len(), "gemv: A cols vs x len");
    assert_eq!(a.rows(), y.len(), "gemv: A rows vs y len");
    metrics::incr(Counter::Matvecs);
    if beta == T::ZERO {
        y.fill(T::ZERO);
    // bs-lint: allow(float-eq) -- BLAS convention: beta = 1.0 exactly means "skip the scale", not a computed value
    } else if beta != T::ONE {
        blas1::scal(beta, y);
    }
    // Column-major: accumulate one column at a time (axpy per column),
    // which keeps accesses contiguous.
    for j in 0..a.cols() {
        blas1::axpy(alpha * x[j], a.col(j), y);
    }
}

/// `y <- alpha * Aᵀ x + beta * y`.
pub fn gemv_t<T: Scalar>(alpha: T, a: MatRef<'_, T>, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(a.rows(), x.len(), "gemv_t: A rows vs x len");
    assert_eq!(a.cols(), y.len(), "gemv_t: A cols vs y len");
    metrics::incr(Counter::Matvecs);
    for j in 0..a.cols() {
        let d = blas1::dot(a.col(j), x);
        y[j] = alpha * d
            + if beta == T::ZERO {
                T::ZERO
            } else {
                beta * y[j]
            };
    }
    if beta != T::ZERO {
        flops::add_l2(2 * a.cols() as u64);
    }
}

/// Rank-1 update `A += alpha * x yᵀ`.
pub fn ger<T: Scalar>(alpha: T, x: &[T], y: &[T], mut a: MatMut<'_, T>) {
    assert_eq!(a.rows(), x.len(), "ger: A rows vs x len");
    assert_eq!(a.cols(), y.len(), "ger: A cols vs y len");
    metrics::incr(Counter::Rank1Updates);
    for j in 0..a.cols() {
        blas1::axpy(alpha * y[j], x, a.col_mut(j));
    }
}

/// Symmetric matrix-vector product using only the given triangle of `A`:
/// `y <- alpha * A x + beta * y` with `A = Aᵀ`.
pub fn symv<T: Scalar>(
    uplo: crate::Uplo,
    alpha: T,
    a: MatRef<'_, T>,
    x: &[T],
    beta: T,
    y: &mut [T],
) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "symv: A must be square");
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), n);
    if beta == T::ZERO {
        y.fill(T::ZERO);
    // bs-lint: allow(float-eq) -- BLAS gemv convention: beta exactly 1.0 skips the y rescale; computed betas take the scal path
    } else if beta != T::ONE {
        blas1::scal(beta, y);
    }
    metrics::incr(Counter::Matvecs);
    flops::add_l2(2 * (n * n) as u64);
    match uplo {
        crate::Uplo::Lower => {
            for j in 0..n {
                let ajj = a.get(j, j);
                let mut t = ajj * x[j];
                for i in j + 1..n {
                    let aij = a.get(i, j);
                    y[i] += alpha * aij * x[j];
                    t += aij * x[i];
                }
                y[j] += alpha * t;
            }
        }
        crate::Uplo::Upper => {
            for j in 0..n {
                let ajj = a.get(j, j);
                let mut t = ajj * x[j];
                for i in 0..j {
                    let aij = a.get(i, j);
                    y[i] += alpha * aij * x[j];
                    t += aij * x[i];
                }
                y[j] += alpha * t;
            }
        }
    }
}

/// Solve `L x = b` (unit or non-unit lower triangle) in place in `b`.
pub fn trsv_lower<T: Scalar>(a: MatRef<'_, T>, b: &mut [T], unit_diag: bool) -> Result<()> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.len(), n);
    metrics::incr(Counter::TriangularSolves);
    flops::add_l2((n * n) as u64);
    for j in 0..n {
        if !unit_diag {
            let d = a.get(j, j);
            if d == T::ZERO {
                return Err(Error::SingularTriangle { index: j });
            }
            b[j] /= d;
        }
        let bj = b[j];
        if bj != T::ZERO {
            let col = a.col(j);
            for i in j + 1..n {
                b[i] -= bj * col[i];
            }
        }
    }
    Ok(())
}

/// Rows (`trsv_upper_t`) or columns (`trsv_upper`) one pass over `b`
/// serves.
const BLOCK: usize = 4;

/// `true` when the active kernel ISA is AVX2 or AVX-512F: then both
/// upper solves run their AVX2 compile (same source, same bits).
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_compile() -> bool {
    matches!(kernel::active_isa(), Isa::Avx2 | Isa::Avx512)
}

/// Solve `U x = b` (non-unit upper triangle) in place in `b`.
///
/// Every `b[i]` takes its terms one column at a time, last column
/// first, and a column whose `x_j` is exactly `±0` adds none. The
/// columns go in descending groups of four: the group's
/// 4 × 4 diagonal block is solved first, then one pass over the rows
/// above the group subtracts its four terms from each row, last column
/// first. A group with an `x_j` of `±0` falls back to one axpy per
/// nonzero column instead, so signed zeros and `0·∞` come out as they
/// would column by column. The order is fixed in the source and Rust
/// never fuses a multiply-add, so the AVX2 compile that
/// [`crate::kernel::active_isa`] selects returns the baseline compile's
/// bits.
///
/// A zero diagonal is reported as `SingularTriangle` at the largest such
/// index, the first one the solve reaches; what `b` holds after an error
/// is unspecified.
pub fn trsv_upper<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.len(), n);
    metrics::incr(Counter::TriangularSolves);
    flops::add_l2((n * n) as u64);
    #[cfg(target_arch = "x86_64")]
    if avx2_compile() {
        // SAFETY: [isa avx2 — `avx2_compile` holds only when `active_isa`
        // resolved Avx2 (AVX2 and FMA detected by `isa_supported`) or
        // Avx512 (AVX-512F detected; every such CPU implements AVX2)]
        return unsafe { kernel::x86::trsv_upper_avx2(a, b) };
    }
    upper_body(a, b)
}

/// [`trsv_upper`]'s arithmetic. Always inlined, so the AVX2 wrapper
/// compiles a copy of its own.
#[inline(always)]
pub(crate) fn upper_body<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    let mut hi = b.len();
    while hi > 0 {
        let lo = hi.saturating_sub(BLOCK);
        for j in (lo..hi).rev() {
            let col = a.col(j);
            let d = col[j];
            if d == T::ZERO {
                return Err(Error::SingularTriangle { index: j });
            }
            let (head, tail) = b.split_at_mut(j);
            tail[0] /= d;
            axpy_sub(tail[0], &col[lo..j], &mut head[lo..]);
        }
        let (head, x) = b.split_at_mut(lo);
        match x[..hi - lo] {
            [x0, x1, x2, x3] if [x0, x1, x2, x3].iter().all(|&v| v != T::ZERO) => {
                let c = |k: usize| &a.col(lo + k)[..lo];
                for ((((bi, &c0), &c1), &c2), &c3) in
                    head.iter_mut().zip(c(0)).zip(c(1)).zip(c(2)).zip(c(3))
                {
                    *bi = (((*bi - x3 * c3) - x2 * c2) - x1 * c1) - x0 * c0;
                }
            }
            _ => {
                for j in (lo..hi).rev() {
                    axpy_sub(x[j - lo], &a.col(j)[..lo], head);
                }
            }
        }
        hi = lo;
    }
    Ok(())
}

/// `y -= alpha * x`, skipped when `alpha` is exactly `±0`.
#[inline(always)]
fn axpy_sub<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    if alpha != T::ZERO {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi -= alpha * xi;
        }
    }
}

/// Solve `Lᵀ x = b` with `L` lower triangular, in place in `b`.
pub fn trsv_lower_t<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.len(), n);
    metrics::incr(Counter::TriangularSolves);
    flops::add_l2((n * n) as u64);
    for j in (0..n).rev() {
        let col = a.col(j);
        let mut s = b[j];
        for i in j + 1..n {
            s -= col[i] * b[i];
        }
        let d = col[j];
        if d == T::ZERO {
            return Err(Error::SingularTriangle { index: j });
        }
        b[j] = s / d;
    }
    Ok(())
}

/// Partial sums each row's dot product in [`trsv_upper_t`] is split
/// into. Fixed, so the bits do not depend on the vector width.
const LANES: usize = 8;

/// Solve `Uᵀ x = b` with `U` upper triangular, in place in `b`.
///
/// Row `j` is `x[j] = (b[j] − Σ − col[t]·x[t] for t in full..j) / col[j]`,
/// where `full` is `j` rounded down to a multiple of 8 and `Σ` is the
/// dot of `col[..full]` with `x[..full]` taken in 8 partial sums and
/// reduced by one fixed pairwise tree. The partial sums are independent,
/// so the dot vectorizes; the tail terms are subtracted one at a time,
/// so rows shorter than one lane group keep the plain serial order.
///
/// Rows `8g .. 8g + 8` share `full = 8g`, so their partial sums do not
/// depend on each other: one pass over `x[..full]` accumulates four
/// rows' sums (4 × 8 independent chains, each in ascending
/// order), and the four rows are then finished in order. Rows of a
/// group left over when fewer than four remain go one at a time. The
/// order is fixed in the source and Rust never fuses a multiply-add, so
/// the AVX2 compile that [`crate::kernel::active_isa`] selects returns the
/// baseline compile's bits.
///
/// A zero diagonal is reported as `SingularTriangle` at the smallest
/// such index, the first one the solve reaches; what `b` holds after an
/// error is unspecified.
pub fn trsv_upper_t<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.len(), n);
    metrics::incr(Counter::TriangularSolves);
    flops::add_l2((n * n) as u64);
    #[cfg(target_arch = "x86_64")]
    if avx2_compile() {
        // SAFETY: [isa avx2 — `avx2_compile` holds only when `active_isa`
        // resolved Avx2 (AVX2 and FMA detected by `isa_supported`) or
        // Avx512 (AVX-512F detected; every such CPU implements AVX2)]
        return unsafe { kernel::x86::trsv_upper_t_avx2(a, b) };
    }
    upper_t_body(a, b)
}

/// [`trsv_upper_t`]'s arithmetic. Always inlined, so the AVX2 wrapper
/// compiles a copy of its own.
#[inline(always)]
pub(crate) fn upper_t_body<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    let n = b.len();
    let mut j = 0;
    while j < n {
        let full = j - j % LANES;
        if full > 0 && (full + LANES).min(n) - j >= BLOCK {
            let cols = [a.col(j), a.col(j + 1), a.col(j + 2), a.col(j + 3)];
            let sums = lane_sums4(cols, &b[..full]);
            for (k, (col, sum)) in cols.into_iter().zip(sums).enumerate() {
                finish_row(col, b, j + k, full, sum)?;
            }
            j += BLOCK;
        } else {
            let col = a.col(j);
            let mut acc = [T::ZERO; LANES];
            for (c, xs) in col[..full]
                .chunks_exact(LANES)
                .zip(b[..full].chunks_exact(LANES))
            {
                for l in 0..LANES {
                    acc[l] += c[l] * xs[l];
                }
            }
            finish_row(col, b, j, full, lane_sum(acc))?;
            j += 1;
        }
    }
    Ok(())
}

/// The reduced lane sums of four rows that share `full = x.len()`,
/// from one pass over `x`: chain `l` of row `k` is `Σ cols[k][t]·x[t]`
/// over `t ≡ l (mod 8)`, ascending, and each row's 8 chains go through
/// [`lane_sum`], exactly as a single row takes them.
#[inline(always)]
fn lane_sums4<T: Scalar>(cols: [&[T]; BLOCK], x: &[T]) -> [T; BLOCK] {
    let full = x.len();
    let mut acc = [[T::ZERO; LANES]; BLOCK];
    let [c0, c1, c2, c3] = cols.map(|c| c[..full].chunks_exact(LANES));
    for ((((xs, c0), c1), c2), c3) in x.chunks_exact(LANES).zip(c0).zip(c1).zip(c2).zip(c3) {
        for (acc, c) in acc.iter_mut().zip([c0, c1, c2, c3]) {
            for l in 0..LANES {
                acc[l] += c[l] * xs[l];
            }
        }
    }
    // Without this barrier LLVM's SLP vectorizer bundles the four rows'
    // finished sums and, working up from them, every chain across rows:
    // each vector would then gather one entry from each of four columns.
    // Through memory, the loop vectorizes along the lanes instead.
    std::hint::black_box(acc).map(lane_sum)
}

/// Finish row `j` of [`trsv_upper_t`] from `sum`, its reduced lane sums
/// over `x[..full]`: subtract it, then the `< 8` tail terms one at a
/// time, then the zero-diagonal check and the divide.
#[inline(always)]
fn finish_row<T: Scalar>(col: &[T], b: &mut [T], j: usize, full: usize, sum: T) -> Result<()> {
    let (x, rest) = b.split_at_mut(j);
    let mut s = rest[0];
    if full > 0 {
        s -= sum;
    }
    for (&c, &xt) in col[full..j].iter().zip(&x[full..]) {
        s -= c * xt;
    }
    let d = col[j];
    if d == T::ZERO {
        return Err(Error::SingularTriangle { index: j });
    }
    rest[0] = s / d;
    Ok(())
}

/// The fixed pairwise tree that reduces [`trsv_upper_t`]'s partial sums.
#[inline(always)]
fn lane_sum<T: Scalar>(v: [T; LANES]) -> T {
    let q = [v[0] + v[4], v[1] + v[5], v[2] + v[6], v[3] + v[7]];
    (q[0] + q[2]) + (q[1] + q[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;

    fn a_3x2() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
    }

    #[test]
    fn gemv_plain() {
        let a = a_3x2();
        let x = [1.0, -1.0];
        let mut y = [100.0, 100.0, 100.0];
        gemv(1.0, a.rf(), &x, 0.0, &mut y);
        assert_eq!(y, [-1.0, -1.0, -1.0]);
    }

    #[test]
    fn gemv_with_beta() {
        let a = a_3x2();
        let x = [1.0, 0.0];
        let mut y = [1.0, 1.0, 1.0];
        gemv(2.0, a.rf(), &x, 3.0, &mut y);
        assert_eq!(y, [5.0, 9.0, 13.0]);
    }

    #[test]
    fn gemv_t_matches_transpose() {
        let a = a_3x2();
        let at = a.transpose();
        let x = [1.0, 2.0, 3.0];
        let mut y1 = [0.0, 0.0];
        let mut y2 = [0.0, 0.0];
        gemv_t(1.0, a.rf(), &x, 0.0, &mut y1);
        gemv(1.0, at.rf(), &x, 0.0, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn ger_rank1() {
        let mut a = Matrix::zeros(2, 3);
        ger(2.0, &[1.0, 2.0], &[1.0, 10.0, 100.0], a.mt());
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(1, 2)], 400.0);
    }

    #[test]
    fn symv_uses_one_triangle() {
        // Full symmetric matrix.
        let full = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[1.0, 3.0, -1.0], &[0.5, -1.0, 4.0]]);
        // Store only the lower triangle; junk in the upper.
        let mut low = full.clone();
        low[(0, 1)] = f64::NAN;
        low[(0, 2)] = f64::NAN;
        low[(1, 2)] = f64::NAN;
        let x = [1.0, 2.0, 3.0];
        let mut want = [0.0; 3];
        gemv(1.0, full.rf(), &x, 0.0, &mut want);
        let mut got = [0.0; 3];
        symv(crate::Uplo::Lower, 1.0, low.rf(), &x, 0.0, &mut got);
        for i in 0..3 {
            assert!((got[i] - want[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn trsv_round_trips() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[3.0, 4.0]]);
        let x = [1.0, 2.0];
        let mut b = [0.0, 0.0];
        gemv(1.0, l.rf(), &x, 0.0, &mut b);
        trsv_lower(l.rf(), &mut b, false).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-14 && (b[1] - 2.0).abs() < 1e-14);

        let u = l.transpose();
        let mut b2 = [0.0, 0.0];
        gemv(1.0, u.rf(), &x, 0.0, &mut b2);
        trsv_upper(u.rf(), &mut b2).unwrap();
        assert!((b2[0] - 1.0).abs() < 1e-14 && (b2[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn trsv_transposed_variants() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[3.0, 4.0]]);
        let u = Matrix::from_rows(&[&[2.0, 5.0], &[0.0, 4.0]]);
        let x = [1.0, -2.0];

        let lt = l.transpose();
        let mut b = [0.0, 0.0];
        gemv(1.0, lt.rf(), &x, 0.0, &mut b);
        trsv_lower_t(l.rf(), &mut b).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-14 && (b[1] + 2.0).abs() < 1e-14);

        let ut = u.transpose();
        let mut b2 = [0.0, 0.0];
        gemv(1.0, ut.rf(), &x, 0.0, &mut b2);
        trsv_upper_t(u.rf(), &mut b2).unwrap();
        assert!((b2[0] - 1.0).abs() < 1e-14 && (b2[1] + 2.0).abs() < 1e-14);
    }

    #[test]
    fn trsv_reports_singularity() {
        let l = Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 4.0]]);
        let mut b = [1.0, 1.0];
        assert_eq!(
            trsv_lower(l.rf(), &mut b, false),
            Err(crate::Error::SingularTriangle { index: 0 })
        );
    }

    #[test]
    fn trsv_unit_diag_ignores_diagonal() {
        // Diagonal entries deliberately wrong; unit_diag must ignore them.
        let l = Matrix::from_rows(&[&[9.0, 0.0], &[3.0, 9.0]]);
        let mut b = [1.0, 5.0];
        trsv_lower(l.rf(), &mut b, true).unwrap();
        assert_eq!(b, [1.0, 2.0]);
    }

    /// Orders that straddle the lane width (8) and a longer solve.
    const ORDERS: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 256];

    /// A well-conditioned upper triangle (`|u_jj| ≥ 1`) and a right-hand
    /// side, both filled from an xorshift stream.
    fn upper_system<T: Scalar>(n: usize, seed: u64) -> (Matrix<T>, Vec<T>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2001) as f64 - 1000.0) / 1000.0
        };
        let u = Matrix::from_fn(n, n, |i, j| {
            let v = next();
            match i.cmp(&j) {
                std::cmp::Ordering::Greater => T::ZERO,
                std::cmp::Ordering::Equal => T::from_f64(1.0 + v.abs()),
                std::cmp::Ordering::Less => T::from_f64(v),
            }
        });
        let b = (0..n).map(|_| T::from_f64(next())).collect();
        (u, b)
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// `trsv_upper_t` as it was before the lane split: one serial chain
    /// of subtractions per row.
    fn serial_upper_t<T: Scalar>(u: &Matrix<T>, b: &mut [T]) {
        for j in 0..b.len() {
            let col = u.col(j);
            let mut s = b[j];
            for i in 0..j {
                s -= col[i] * b[i];
            }
            b[j] = s / col[j];
        }
    }

    /// `trsv_upper_t`'s documented order written out index by index:
    /// partial sum `i % 8` over the largest multiple of 8 below the
    /// diagonal, the pairwise tree, then the tail one term at a time.
    fn lane_order_upper_t<T: Scalar>(u: &Matrix<T>, b: &mut [T]) {
        for j in 0..b.len() {
            let col = u.col(j);
            let full = j / 8 * 8;
            let mut v = [T::ZERO; 8];
            for i in 0..full {
                v[i % 8] += col[i] * b[i];
            }
            let mut s = b[j];
            if full > 0 {
                s -= ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
            }
            for i in full..j {
                s -= col[i] * b[i];
            }
            b[j] = s / col[j];
        }
    }

    /// `trsv_upper`'s order: one axpy per column, last column first.
    fn axpy_order_upper<T: Scalar>(u: &Matrix<T>, b: &mut [T]) {
        for j in (0..b.len()).rev() {
            let col = u.col(j);
            b[j] /= col[j];
            let bj = b[j];
            if bj != T::ZERO {
                for i in 0..j {
                    b[i] -= bj * col[i];
                }
            }
        }
    }

    /// The bits of both upper solves are set by their written order, so
    /// no target or enabled target feature can change them.
    fn upper_solves_follow_their_fixed_order<T: Scalar>() {
        for n in ORDERS {
            let (u, b) = upper_system::<T>(n, 11 + n as u64);
            let mut got_t = b.clone();
            trsv_upper_t(u.rf(), &mut got_t).unwrap();
            let mut want_t = b.clone();
            lane_order_upper_t(&u, &mut want_t);
            assert_eq!(
                bits(&got_t),
                bits(&want_t),
                "{} n={n}: trsv_upper_t",
                T::NAME
            );
            let mut got = b.clone();
            trsv_upper(u.rf(), &mut got).unwrap();
            let mut want = b;
            axpy_order_upper(&u, &mut want);
            assert_eq!(bits(&got), bits(&want), "{} n={n}: trsv_upper", T::NAME);
        }
    }

    #[test]
    fn upper_solves_follow_their_fixed_order_f64() {
        upper_solves_follow_their_fixed_order::<f64>();
    }

    #[test]
    fn upper_solves_follow_their_fixed_order_f32() {
        upper_solves_follow_their_fixed_order::<f32>();
    }

    #[test]
    fn rows_shorter_than_a_lane_group_keep_the_serial_order() {
        for n in ORDERS {
            for seed in 0..4 {
                let (u, b) = upper_system::<f64>(n, 100 * seed + n as u64);
                let mut want = b.clone();
                serial_upper_t(&u, &mut want);
                let mut got = b;
                trsv_upper_t(u.rf(), &mut got).unwrap();
                let short = n.min(8);
                assert_eq!(
                    bits(&got[..short]),
                    bits(&want[..short]),
                    "n={n} seed={seed}: a row shorter than 8 left the serial order"
                );
                let err = got
                    .iter()
                    .zip(&want)
                    .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
                    .fold(0.0f64, f64::max);
                assert!(err < 1e-12, "n={n} seed={seed}: lane split drifted {err:e}");
            }
        }
    }

    /// Orders that leave partial groups of four rows or columns.
    const PARTIAL: [usize; 9] = [2, 3, 4, 5, 12, 13, 20, 31, 33];

    /// The public upper solves equal the bodies compiled for the
    /// baseline target (and the AVX2 wrappers, where the CPU has AVX2)
    /// bit for bit, and all of them follow the written-out order.
    fn dispatched_solves_equal_the_baseline_compile<T: Scalar>() {
        for n in ORDERS.into_iter().chain(PARTIAL) {
            let (u, b) = upper_system::<T>(n, 29 + n as u64);
            let mut want_t = b.clone();
            lane_order_upper_t(&u, &mut want_t);
            let mut want = b.clone();
            axpy_order_upper(&u, &mut want);
            let mut runs: Vec<(&str, Vec<T>, Vec<T>)> = Vec::new();
            let (mut x_t, mut x) = (b.clone(), b.clone());
            trsv_upper_t(u.rf(), &mut x_t).unwrap();
            trsv_upper(u.rf(), &mut x).unwrap();
            runs.push(("public", x_t, x));
            let (mut x_t, mut x) = (b.clone(), b.clone());
            upper_t_body(u.rf(), &mut x_t).unwrap();
            upper_body(u.rf(), &mut x).unwrap();
            runs.push(("baseline", x_t, x));
            #[cfg(target_arch = "x86_64")]
            if kernel::isa_supported(Isa::Avx2) {
                let (mut x_t, mut x) = (b.clone(), b.clone());
                // SAFETY: [isa avx2 — `isa_supported` detected it above]
                unsafe {
                    kernel::x86::trsv_upper_t_avx2(u.rf(), &mut x_t).unwrap();
                    kernel::x86::trsv_upper_avx2(u.rf(), &mut x).unwrap();
                }
                runs.push(("avx2", x_t, x));
            }
            for (name, x_t, x) in runs {
                let tag = format!("{} n={n} {name}", T::NAME);
                assert_eq!(bits(&x_t), bits(&want_t), "{tag}: trsv_upper_t");
                assert_eq!(bits(&x), bits(&want), "{tag}: trsv_upper");
            }
        }
    }

    #[test]
    fn dispatched_solves_equal_the_baseline_compile_f64() {
        dispatched_solves_equal_the_baseline_compile::<f64>();
    }

    #[test]
    fn dispatched_solves_equal_the_baseline_compile_f32() {
        dispatched_solves_equal_the_baseline_compile::<f32>();
    }

    /// `trsm` hands the solves diagonal blocks of a larger matrix: the
    /// written orders hold through a view whose column stride is not its
    /// row count.
    fn written_orders_hold_through_strided_views<T: Scalar>() {
        for n in ORDERS.into_iter().chain(PARTIAL) {
            let (big, _) = upper_system::<T>(n + 5, 41 + n as u64);
            let view = big.rf().sub(2, 2, n, n);
            assert_ne!(view.cstride(), n);
            let u = Matrix::from_fn(n, n, |i, j| view.get(i, j));
            let (_, b) = upper_system::<T>(n, 43 + n as u64);
            let mut got_t = b.clone();
            trsv_upper_t(view, &mut got_t).unwrap();
            let mut want_t = b.clone();
            lane_order_upper_t(&u, &mut want_t);
            let tag = format!("{} n={n}", T::NAME);
            assert_eq!(bits(&got_t), bits(&want_t), "{tag}: trsv_upper_t");
            let mut got = b.clone();
            trsv_upper(view, &mut got).unwrap();
            let mut want = b;
            axpy_order_upper(&u, &mut want);
            assert_eq!(bits(&got), bits(&want), "{tag}: trsv_upper");
        }
    }

    #[test]
    fn written_orders_hold_through_strided_views_f64() {
        written_orders_hold_through_strided_views::<f64>();
    }

    #[test]
    fn written_orders_hold_through_strided_views_f32() {
        written_orders_hold_through_strided_views::<f32>();
    }

    /// A four-column group whose `x_j` include an exact `±0` must skip
    /// those columns as the column-by-column order does: no `0·∞`, and no
    /// `-0.0` turned into `+0.0` by subtracting a zero term.
    #[test]
    fn exact_zero_multipliers_keep_the_column_order() {
        for n in PARTIAL.into_iter().chain([64, 65]) {
            let (mut u, b) = upper_system::<f64>(n, 53 + n as u64);
            // b = e₀ makes every x_j but x_0 exactly +0; the ∞ sits in
            // the last column, above the diagonal, in the one row whose
            // value is not zero.
            u[(0, n - 1)] = f64::INFINITY;
            let mut e0 = vec![0.0; n];
            e0[0] = 1.0;
            // -0.0 below the first entry: every x_j but x_0 is -0.0, and
            // every row but the first stays -0.0 unless a zero is
            // subtracted from it.
            let mut neg_zero = vec![-0.0; n];
            neg_zero[0] = b[0];
            for (name, rhs) in [("e0", e0), ("-0.0", neg_zero)] {
                let mut got = rhs.clone();
                trsv_upper(u.rf(), &mut got).unwrap();
                let mut want = rhs.clone();
                axpy_order_upper(&u, &mut want);
                assert_eq!(bits(&got), bits(&want), "n={n} b={name}: trsv_upper");
                let mut got_t = rhs.clone();
                trsv_upper_t(u.rf(), &mut got_t).unwrap();
                let mut want_t = rhs;
                lane_order_upper_t(&u, &mut want_t);
                assert_eq!(bits(&got_t), bits(&want_t), "n={n} b={name}: trsv_upper_t");
            }
        }
    }

    #[test]
    fn a_zero_diagonal_is_reported_at_its_index_by_both_upper_solves() {
        let n = 20;
        for k in [0, n / 2, n - 1] {
            let (mut u, b) = upper_system::<f64>(n, 7);
            u[(k, k)] = 0.0;
            let want = Err(crate::Error::SingularTriangle { index: k });
            assert_eq!(
                trsv_upper_t(u.rf(), &mut b.clone()),
                want,
                "trsv_upper_t, zero at {k}"
            );
            assert_eq!(
                trsv_upper(u.rf(), &mut b.clone()),
                want,
                "trsv_upper, zero at {k}"
            );
        }
    }
}
