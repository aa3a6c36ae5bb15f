//! Compact representation of a symmetric block Toeplitz matrix.

use bs_matrix::blas3::{gemm, Trans};
use bs_matrix::{Matrix, Scalar};

/// A symmetric block Toeplitz matrix stored by its first block row
/// `T̂₁, T̂₂, …, T̂_p` (eq. 2 of the paper).
///
/// ```
/// use bs_toeplitz::SymBlockToeplitz;
///
/// // Scalar 4x4 Toeplitz with first row (2, 1, 0.5, 0.25).
/// let t = SymBlockToeplitz::from_scalar_row(&[2.0, 1.0, 0.5, 0.25]);
/// assert_eq!(t.order(), 4);
/// assert_eq!(t.get(3, 1), 0.5); // |3-1| = 2 -> 0.5
/// let y = t.matvec(&[1.0, 0.0, 0.0, 0.0]); // first column
/// assert_eq!(y, vec![2.0, 1.0, 0.5, 0.25]);
/// ```
///
/// The full `n × n` matrix (`n = m·p`) has block `(i, j)` equal to
/// `T̂_{j−i+1}` for `j ≥ i` and `T̂_{i−j+1}ᵀ` for `j < i`. Symmetry of the
/// whole matrix requires `T̂₁ = T̂₁ᵀ`, which the constructor enforces.
#[derive(Clone, Debug)]
pub struct SymBlockToeplitz<T: Scalar = f64> {
    m: usize,
    p: usize,
    /// `blocks[d]` is `T̂_{d+1}` (offset-`d` block diagonal).
    blocks: Vec<Matrix<T>>,
}

impl<T: Scalar> SymBlockToeplitz<T> {
    /// Build from the first block row. Panics on shape violations or a
    /// non-symmetric leading block.
    pub fn new(blocks: Vec<Matrix<T>>) -> Self {
        assert!(!blocks.is_empty(), "need at least one block");
        let m = blocks[0].rows();
        assert!(m > 0, "blocks must be non-empty");
        for (d, b) in blocks.iter().enumerate() {
            assert_eq!((b.rows(), b.cols()), (m, m), "block {d} must be {m}x{m}");
        }
        let t1 = &blocks[0];
        for i in 0..m {
            for j in 0..m {
                assert!(
                    (t1[(i, j)] - t1[(j, i)]).abs().to_f64()
                        <= 1e-12 * (1.0 + t1[(i, j)].abs().to_f64()),
                    "leading block must be symmetric"
                );
            }
        }
        let p = blocks.len();
        SymBlockToeplitz { m, p, blocks }
    }

    /// Overwrite this matrix's data with `other`'s, reusing the
    /// existing block storage — no allocation when the shapes match,
    /// which is what keeps a warm solver's `refactor` allocation-free.
    /// Panics on a shape mismatch.
    pub fn clone_data_from(&mut self, other: &SymBlockToeplitz<T>) {
        assert_eq!(
            (self.m, self.p),
            (other.m, other.p),
            "clone_data_from requires identical shapes"
        );
        for (dst, src) in self.blocks.iter_mut().zip(&other.blocks) {
            dst.mt().copy_from(src.rf());
        }
    }

    /// Scalar (m = 1) symmetric Toeplitz from its first row.
    pub fn from_scalar_row(row: &[T]) -> Self {
        let blocks = row
            .iter()
            .map(|&t| Matrix::from_col_major(1, 1, vec![t]))
            .collect();
        SymBlockToeplitz::new(blocks)
    }

    /// The same matrix with every block converted elementwise to
    /// scalar `U` — the demotion step of the mixed-precision factor
    /// path (and the promotion step of its verification tests).
    /// Demotion to f32 rounds each entry once; symmetry survives
    /// because rounding is deterministic per value.
    pub fn convert<U: Scalar>(&self) -> SymBlockToeplitz<U> {
        SymBlockToeplitz {
            m: self.m,
            p: self.p,
            blocks: self.blocks.iter().map(|b| b.convert::<U>()).collect(),
        }
    }

    /// Structural block size `m`.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.m
    }

    /// Number of block rows/columns `p`.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.p
    }

    /// Matrix order `n = m·p`.
    #[inline]
    pub fn order(&self) -> usize {
        self.m * self.p
    }

    /// The first block row `T̂₁ … T̂_p`.
    #[inline]
    pub fn first_block_row(&self) -> &[Matrix<T>] {
        &self.blocks
    }

    /// Element access into the implicit full matrix.
    pub fn get(&self, i: usize, j: usize) -> T {
        let (bi, ri) = (i / self.m, i % self.m);
        let (bj, rj) = (j / self.m, j % self.m);
        if bj >= bi {
            self.blocks[bj - bi][(ri, rj)]
        } else {
            self.blocks[bi - bj][(rj, ri)]
        }
    }

    /// Materialize the full dense matrix (test/verification use; O(n²)).
    pub fn to_dense(&self) -> Matrix<T> {
        let n = self.order();
        Matrix::from_fn(n, n, |i, j| self.get(i, j))
    }

    /// `y = T·x` without forming `T`: one `m×m · m×(p−d)` product per
    /// block diagonal, so `2n²` flops and `O(m²p)` memory traffic.
    ///
    /// This is the residual kernel of the iterative-refinement loop
    /// (§8.1) — the refinement claim "cheaper per iteration than PCG"
    /// relies on this product being fast.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        let n = self.order();
        assert_eq!(x.len(), n);
        let (m, p) = (self.m, self.p);
        // View x and y as m x p matrices (column j = block j).
        let xm = Matrix::from_col_major(m, p, x.to_vec());
        let mut ym = Matrix::zeros(m, p);
        // d = 0: Y += T̂₁ X.
        gemm(
            T::ONE,
            self.blocks[0].rf(),
            Trans::No,
            xm.rf(),
            Trans::No,
            T::ZERO,
            ym.mt(),
        );
        for d in 1..p {
            let w = p - d;
            // Upper diagonals: y_i += T̂_{d+1} x_{i+d}  (i = 0..w)
            gemm(
                T::ONE,
                self.blocks[d].rf(),
                Trans::No,
                xm.sub(0, d, m, w),
                Trans::No,
                T::ONE,
                ym.sub_mut(0, 0, m, w),
            );
            // Lower diagonals: y_{i+d} += T̂_{d+1}ᵀ x_i  (i = 0..w)
            gemm(
                T::ONE,
                self.blocks[d].rf(),
                Trans::Yes,
                xm.sub(0, 0, m, w),
                Trans::No,
                T::ONE,
                ym.sub_mut(0, d, m, w),
            );
        }
        ym.as_slice().to_vec()
    }

    /// Residual `r = b − T·x` (the refinement loop body, eq. 35).
    pub fn residual(&self, x: &[T], b: &[T]) -> Vec<T> {
        let mut r = self.matvec(x);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        bs_matrix::flops::add(r.len() as u64);
        r
    }

    /// Retile to algorithmic block size `m_s` (§6.5): the same matrix
    /// viewed with a coarser block structure. Requires `m | m_s` and
    /// `m_s | n`; "foregoing some of the Toeplitz structure" is exactly
    /// this reinterpretation. For `m_s < m` see [`Self::retile_checked`].
    pub fn retile(&self, m_s: usize) -> SymBlockToeplitz<T> {
        let n = self.order();
        assert!(
            m_s > 0 && m_s.is_multiple_of(self.m),
            "m_s must be a multiple of m"
        );
        assert!(
            n.is_multiple_of(m_s),
            "m_s must divide the matrix order n = {n}"
        );
        if m_s == self.m {
            return self.clone();
        }
        let p_s = n / m_s;
        let blocks = (0..p_s)
            .map(|d| Matrix::from_fn(m_s, m_s, |i, j| self.get(i, d * m_s + j)))
            .collect();
        SymBlockToeplitz {
            m: m_s,
            p: p_s,
            blocks,
        }
    }

    /// Whether the matrix happens to be block Toeplitz at the *finer*
    /// granularity `m_s` as well. Coarsening (`m | m_s`) always holds;
    /// refining (`m_s < m`) holds only for special matrices (e.g. a
    /// scalar Toeplitz matrix previously retiled upward). O(n·m) check.
    pub fn is_block_toeplitz_at(&self, m_s: usize) -> bool {
        let n = self.order();
        if m_s == 0 || !n.is_multiple_of(m_s) {
            return false;
        }
        if m_s.is_multiple_of(self.m) {
            return true;
        }
        // Entries must be invariant under a diagonal shift by m_s.
        // Checking the first block-row's worth of rows suffices: every
        // entry (i, j) reduces to some (i mod lcm-ish, ·) by repeated
        // shifts; conservatively check rows 0..m+m_s against shifted.
        let rows_to_check = (self.m + m_s).min(n.saturating_sub(m_s));
        for i in 0..rows_to_check {
            for j in 0..n - m_s {
                let a = self.get(i, j);
                let b = self.get(i + m_s, j + m_s);
                if (a - b).abs().to_f64() > 1e-13 * (1.0 + a.abs().to_f64()) {
                    return false;
                }
            }
        }
        true
    }

    /// Retile to *any* valid block size, including downward
    /// (`m_s < m`, §6.5's "it may be necessary to take m_s < m"),
    /// verifying that the matrix really is block Toeplitz at that
    /// granularity. Returns `None` when it is not.
    pub fn retile_checked(&self, m_s: usize) -> Option<SymBlockToeplitz<T>> {
        let n = self.order();
        if m_s == 0 || !n.is_multiple_of(m_s) {
            return None;
        }
        if m_s.is_multiple_of(self.m) {
            return Some(self.retile(m_s));
        }
        if !self.is_block_toeplitz_at(m_s) {
            return None;
        }
        let p_s = n / m_s;
        let blocks = (0..p_s)
            .map(|d| Matrix::from_fn(m_s, m_s, |i, j| self.get(i, d * m_s + j)))
            .collect();
        Some(SymBlockToeplitz {
            m: m_s,
            p: p_s,
            blocks,
        })
    }

    /// ∞-norm of the full matrix, computed from the block row in
    /// O(m²·p) without forming `T`.
    ///
    /// Row `r` of block row `i` holds row `r` of `Γ(d)` for the lags
    /// `d = 0..p−i` on and right of the diagonal, and column `r` of
    /// `Γ(d)` (a row of `Γ(d)ᵀ`) for `d = 1..=i` left of it. So its
    /// absolute sum is a prefix sum of per-lag row sums plus a prefix
    /// sum of per-lag column sums.
    pub fn norm_inf(&self) -> f64 {
        let (m, p) = (self.m, self.p);
        // right[k·m + r] = Σ_{d<k} Σ_c |Γ(d)[r, c]|.
        let mut right = vec![0.0f64; (p + 1) * m];
        for (d, g) in self.blocks.iter().enumerate() {
            let (done, next) = right.split_at_mut((d + 1) * m);
            let next = &mut next[..m];
            next.copy_from_slice(&done[d * m..]);
            for c in 0..m {
                for (acc, v) in next.iter_mut().zip(g.col(c)) {
                    *acc += v.abs().to_f64();
                }
            }
        }
        // left[r] = Σ_{1≤d≤i} Σ_c |Γ(d)[c, r]|, grown with the block row.
        let mut left = vec![0.0f64; m];
        let mut best: f64 = 0.0;
        for i in 0..p {
            if i > 0 {
                for (r, acc) in left.iter_mut().enumerate() {
                    *acc += self.blocks[i]
                        .col(r)
                        .iter()
                        .map(|v| v.abs().to_f64())
                        .sum::<f64>();
                }
            }
            let right = &right[(p - i) * m..(p - i + 1) * m];
            for (a, b) in right.iter().zip(&left) {
                best = best.max(a + b);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(seed: u64, m: usize, sym: bool) -> Matrix {
        let mut state = seed | 1;
        let mut b = Matrix::from_fn(m, m, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 1000) as f64 - 500.0) / 500.0
        });
        if sym {
            b.symmetrize();
        }
        b
    }

    fn sample(m: usize, p: usize) -> SymBlockToeplitz {
        let mut blocks = vec![sample_block(1, m, true)];
        for d in 1..p {
            blocks.push(sample_block(d as u64 + 10, m, false));
        }
        SymBlockToeplitz::new(blocks)
    }

    #[test]
    fn dense_is_symmetric_and_block_toeplitz() {
        let t = sample(3, 4);
        let d = t.to_dense();
        let n = t.order();
        assert_eq!(n, 12);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(d[(i, j)], d[(j, i)], "symmetry at ({i},{j})");
            }
        }
        // Block Toeplitz: block (i,j) equals block (i+1,j+1).
        for bi in 0..3 {
            for bj in 0..3 {
                for r in 0..3 {
                    for c in 0..3 {
                        assert_eq!(
                            d[(bi * 3 + r, bj * 3 + c)],
                            d[((bi + 1) * 3 + r, (bj + 1) * 3 + c)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matvec_matches_dense() {
        for (m, p) in [(1, 7), (2, 5), (3, 4), (4, 4)] {
            let t = sample(m, p);
            let n = t.order();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let dense = t.to_dense();
            let mut want = vec![0.0; n];
            bs_matrix::blas2::gemv(1.0, dense.rf(), &x, 0.0, &mut want);
            let got = t.matvec(&x);
            for i in 0..n {
                assert!(
                    (got[i] - want[i]).abs() < 1e-12,
                    "m={m} p={p} i={i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn residual_is_b_minus_tx() {
        let t = sample(2, 3);
        let n = t.order();
        let x = vec![1.0; n];
        let b = vec![2.0; n];
        let r = t.residual(&x, &b);
        let tx = t.matvec(&x);
        for i in 0..n {
            assert_eq!(r[i], b[i] - tx[i]);
        }
    }

    #[test]
    fn retile_preserves_dense_matrix() {
        let t = sample(2, 6); // n = 12
        let d0 = t.to_dense();
        for m_s in [2, 4, 6, 12] {
            let r = t.retile(m_s);
            assert_eq!(r.block_size(), m_s);
            assert_eq!(r.order(), 12);
            assert!(r.to_dense().max_abs_diff(&d0) < 1e-15, "m_s={m_s}");
        }
    }

    #[test]
    #[should_panic]
    fn retile_requires_divisibility() {
        let t = sample(2, 6);
        let _ = t.retile(5);
    }

    #[test]
    fn downward_retile_only_for_genuinely_finer_structure() {
        // A scalar Toeplitz retiled up to m=4 can go back down to 2 or 1.
        let row: Vec<f64> = (0..16).map(|k| 1.0 / (1.0 + k as f64)).collect();
        let scalar = SymBlockToeplitz::from_scalar_row(&row);
        let coarse = scalar.retile(4);
        assert!(coarse.is_block_toeplitz_at(2));
        let fine = coarse.retile_checked(2).expect("valid refinement");
        assert_eq!(fine.block_size(), 2);
        assert!(fine.to_dense().max_abs_diff(&scalar.to_dense()) < 1e-15);
        let finest = coarse.retile_checked(1).expect("valid refinement");
        assert!(finest.to_dense().max_abs_diff(&scalar.to_dense()) < 1e-15);

        // A generic m=2 block Toeplitz matrix is NOT scalar Toeplitz.
        let generic = sample(2, 6);
        assert!(!generic.is_block_toeplitz_at(1));
        assert!(generic.retile_checked(1).is_none());
        // But coarsening through the checked API still works.
        assert!(generic.retile_checked(4).is_some());
        // Non-dividing sizes are rejected.
        assert!(generic.retile_checked(5).is_none());
        assert!(generic.retile_checked(0).is_none());
    }

    #[test]
    fn scalar_constructor() {
        let t = SymBlockToeplitz::from_scalar_row(&[2.0, 1.0, 0.5]);
        let d = t.to_dense();
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(0, 2)], 0.5);
        assert_eq!(d[(2, 1)], 1.0);
    }

    #[test]
    fn norm_inf_matches_dense() {
        // `sample` draws non-symmetric off-diagonal blocks, so row and
        // column sums of every lag differ.
        for m in [1usize, 3, 8] {
            for p in [1usize, 2, 5, 7] {
                let t = sample(m, p);
                let want = bs_matrix::norms::mat_inf(&t.to_dense());
                let got = t.norm_inf();
                assert!(
                    (got - want).abs() <= 1e-13 * want,
                    "m={m} p={p}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn asymmetric_leading_block_rejected() {
        let t1 = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]);
        let _ = SymBlockToeplitz::new(vec![t1]);
    }
}
