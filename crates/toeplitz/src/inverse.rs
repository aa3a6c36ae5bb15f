//! Gohberg–Semencul representation of the inverse of a symmetric
//! Toeplitz matrix.
//!
//! The displacement theory underlying the Schur algorithm (the paper's
//! ref \[8\], Kailath–Kung–Morf) also states that `T⁻¹` has displacement
//! rank ≤ 2: for a symmetric nonsingular Toeplitz `T` with
//! `u = T⁻¹ e₀` and `u₀ ≠ 0`,
//!
//! ```text
//! T⁻¹ = (1/u₀) · ( L(u) L(u)ᵀ − L(z) L(z)ᵀ ),
//! z = (0, u_{n−1}, u_{n−2}, …, u₁)ᵀ,
//! ```
//!
//! where `L(v)` is the lower triangular Toeplitz matrix with first
//! column `v`. All four factors are triangular Toeplitz, so `T⁻¹ b`
//! costs four FFT convolutions — `O(n log n)` per solve after one
//! `O(n²)`-ish factorization to obtain `u`.
//!
//! `u` itself comes from any solver (`bs-core`'s Schur factorization,
//! Levinson, …); this module only needs the vector, keeping the crate
//! graph acyclic.

use crate::fft::{next_pow2, Fft};

/// Fast `T⁻¹·x` operator built from the first column of the inverse.
#[derive(Clone, Debug)]
#[must_use]
pub struct ToeplitzInverse {
    n: usize,
    /// Transforms of the embedding length.
    fft: Fft,
    inv_u0: f64,
    /// FFT of the circulant embedding of `L(u)` (first column u, padded).
    lu_re: Vec<f64>,
    lu_im: Vec<f64>,
    /// FFT of the embedding of `L(u)ᵀ` (c[0] = u0, c[L−k] = u_k).
    lut_re: Vec<f64>,
    lut_im: Vec<f64>,
    /// Same pair for `z`.
    lz_re: Vec<f64>,
    lz_im: Vec<f64>,
    lzt_re: Vec<f64>,
    lzt_im: Vec<f64>,
}

fn embed_lower(v: &[f64], fft: &Fft) -> (Vec<f64>, Vec<f64>) {
    let mut re = vec![0.0; fft.len()];
    re[..v.len()].copy_from_slice(v);
    let mut im = vec![0.0; fft.len()];
    fft.forward(&mut re, &mut im);
    (re, im)
}

fn embed_lower_transpose(v: &[f64], fft: &Fft) -> (Vec<f64>, Vec<f64>) {
    let len = fft.len();
    let mut re = vec![0.0; len];
    re[0] = v[0];
    for (k, &vk) in v.iter().enumerate().skip(1) {
        re[len - k] = vk;
    }
    let mut im = vec![0.0; len];
    fft.forward(&mut re, &mut im);
    (re, im)
}

impl ToeplitzInverse {
    /// Build from the first column `u = T⁻¹ e₀` of the inverse.
    /// Returns `None` when `u₀ = 0` (the representation does not exist;
    /// equivalent to the (n−1)-st leading minor being singular).
    pub fn from_first_column(u: &[f64]) -> Option<Self> {
        let n = u.len();
        assert!(n > 0);
        if u[0] == 0.0 || !u[0].is_finite() {
            return None;
        }
        let fft = Fft::new(next_pow2(2 * n.max(1)));
        // z = (0, u_{n−1}, …, u₁).
        let mut z = vec![0.0; n];
        for k in 1..n {
            z[k] = u[n - k];
        }
        let (lu_re, lu_im) = embed_lower(u, &fft);
        let (lut_re, lut_im) = embed_lower_transpose(u, &fft);
        let (lz_re, lz_im) = embed_lower(&z, &fft);
        let (lzt_re, lzt_im) = embed_lower_transpose(&z, &fft);
        Some(ToeplitzInverse {
            n,
            fft,
            inv_u0: 1.0 / u[0],
            lu_re,
            lu_im,
            lut_re,
            lut_im,
            lz_re,
            lz_im,
            lzt_re,
            lzt_im,
        })
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// One circulant product: `y = C x` with `C` given in the frequency
    /// domain; input/output truncated to `n`.
    fn circ_apply(&self, sym_re: &[f64], sym_im: &[f64], x: &[f64]) -> Vec<f64> {
        let len = self.fft.len();
        let mut re = vec![0.0; len];
        re[..x.len()].copy_from_slice(x);
        let mut im = vec![0.0; len];
        self.fft.forward(&mut re, &mut im);
        for i in 0..len {
            let (a, b) = (re[i], im[i]);
            re[i] = sym_re[i] * a - sym_im[i] * b;
            im[i] = sym_re[i] * b + sym_im[i] * a;
        }
        bs_matrix::flops::add(6 * len as u64);
        self.fft.inverse(&mut re, &mut im);
        re.truncate(self.n);
        re
    }

    /// `y = T⁻¹ x` in `O(n log n)`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        // a = L(u)ᵀ x ; y1 = L(u) a.
        let a = self.circ_apply(&self.lut_re, &self.lut_im, x);
        let y1 = self.circ_apply(&self.lu_re, &self.lu_im, &a);
        // b = L(z)ᵀ x ; y2 = L(z) b.
        let b = self.circ_apply(&self.lzt_re, &self.lzt_im, x);
        let y2 = self.circ_apply(&self.lz_re, &self.lz_im, &b);
        let mut y = Vec::with_capacity(self.n);
        for i in 0..self.n {
            y.push(self.inv_u0 * (y1[i] - y2[i]));
        }
        bs_matrix::flops::add(2 * self.n as u64);
        y
    }

    /// Materialize the dense inverse (test utility, O(n² log n)).
    pub fn to_dense(&self) -> bs_matrix::Matrix {
        let n = self.n;
        let mut out = bs_matrix::Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e.fill(0.0);
            e[j] = 1.0;
            let col = self.apply(&e);
            out.col_mut(j).copy_from_slice(&col);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// Reference u = T⁻¹e₀ via dense LU.
    fn first_inverse_column(t: &crate::SymBlockToeplitz) -> Vec<f64> {
        let n = t.order();
        let mut e0 = vec![0.0; n];
        e0[0] = 1.0;
        bs_matrix::lu::lu_factor(&t.to_dense())
            .unwrap()
            .solve(&e0)
            .unwrap()
    }

    #[test]
    fn two_by_two_hand_check() {
        // T = [[2,1],[1,2]]: u = (2/3, −1/3).
        let inv = ToeplitzInverse::from_first_column(&[2.0 / 3.0, -1.0 / 3.0]).unwrap();
        let d = inv.to_dense();
        assert!((d[(0, 0)] - 2.0 / 3.0).abs() < 1e-12);
        assert!((d[(0, 1)] + 1.0 / 3.0).abs() < 1e-12);
        assert!((d[(1, 1)] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_t_is_identity_spd() {
        for n in [1usize, 2, 5, 16, 33] {
            let t = workloads::random_spd_scalar(n, n as u64 + 7);
            let u = first_inverse_column(&t);
            let inv = ToeplitzInverse::from_first_column(&u).unwrap();
            // T⁻¹ (T x) must recover x.
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
            let tx = t.matvec(&x);
            let back = inv.apply(&tx);
            for i in 0..n {
                assert!((back[i] - x[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn works_on_indefinite_nonsingular_matrices() {
        let t = workloads::random_indefinite_scalar(24, 5);
        let u = first_inverse_column(&t);
        let inv = ToeplitzInverse::from_first_column(&u).unwrap();
        let (b, x_true) = workloads::rhs_for_ones(&t);
        let x = inv.apply(&b);
        for i in 0..24 {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "i={i}");
        }
    }

    #[test]
    fn degenerate_u0_is_rejected() {
        assert!(ToeplitzInverse::from_first_column(&[0.0, 1.0]).is_none());
        assert!(ToeplitzInverse::from_first_column(&[f64::NAN, 1.0]).is_none());
    }

    #[test]
    fn apply_cost_is_subquadratic() {
        // The flop count of `apply` depends only on n, not on the
        // matrix, so measure with a synthetic first column.
        let n = 4096;
        let u: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let inv = ToeplitzInverse::from_first_column(&u).unwrap();
        let x = vec![1.0; n];
        bs_matrix::flops::reset();
        let _ = inv.apply(&x);
        let fast = bs_matrix::flops::get();
        // A dense T⁻¹x matvec would be 2n² = 33.5M flops; the GS apply
        // must be far below.
        assert!(
            (fast as f64) < 0.25 * 2.0 * (n * n) as f64,
            "GS apply took {fast} flops"
        );
    }
}
