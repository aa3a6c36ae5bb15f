//! O(n log n) block Toeplitz matrix-vector products by circulant
//! embedding.
//!
//! The direct [`SymBlockToeplitz::matvec`](crate::SymBlockToeplitz::matvec)
//! costs `2n²` flops. For repeated products (iterative refinement on
//! large systems, CG) the block Toeplitz operator decomposes into `m²`
//! scalar Toeplitz operators over the block index — component `(a, b)`
//! of the product is the scalar Toeplitz matvec with symbol
//! `s_ab(d) = Γ(d)[a,b]` (`d ≥ 0`), `s_ab(−d) = Γ(d)[b,a]` — each of
//! which embeds in a circulant of length `L = 2^⌈log₂(2p−1)⌉` and
//! applies via three FFTs. [`FastToeplitzMatVec`] precomputes the `m²`
//! symbol FFTs once, so one product costs `2m` FFTs plus `m²`
//! pointwise multiplies: `O(m² p log p + m² p)` versus `O(m² p²)`.

use crate::block_toeplitz::SymBlockToeplitz;
use crate::fft::{next_pow2, Circulant, Fft};

/// Precomputed fast multiplier for a symmetric block Toeplitz matrix.
///
/// ```
/// use bs_toeplitz::{workloads, FastToeplitzMatVec};
///
/// let t = workloads::kms(100, 0.9);
/// let fast = FastToeplitzMatVec::new(&t);
/// let x = vec![1.0; 100];
/// let y_fft = fast.apply(&x);
/// let y_direct = t.matvec(&x);
/// assert!((y_fft[50] - y_direct[50]).abs() < 1e-11);
/// ```
#[derive(Clone, Debug)]
pub struct FastToeplitzMatVec {
    m: usize,
    p: usize,
    /// Transforms of the embedding length `L`.
    fft: Fft,
    /// `symbols[a * m + b]`: circulant symbol of component `(a, b)`.
    symbols: Vec<Circulant>,
}

impl FastToeplitzMatVec {
    /// Precompute the symbol FFTs (O(m² p log p)).
    pub fn new(t: &SymBlockToeplitz) -> Self {
        let m = t.block_size();
        let p = t.num_blocks();
        let len = next_pow2((2 * p).saturating_sub(1)).max(1);
        let fft = Fft::new(len);
        let blocks = t.first_block_row();
        let mut symbols = Vec::with_capacity(m * m);
        let mut col = vec![0.0f64; len];
        for a in 0..m {
            for b in 0..m {
                // y_i = Σ_j s(j−i) x_j  ⇔  circulant first column
                // c[d] = s(−d):  c[0] = s(0), c[k] = s(−k) = Γ(k)[b,a],
                // c[L−k] = s(k) = Γ(k)[a,b]  (k = 1..p−1).
                col.fill(0.0);
                col[0] = blocks[0][(a, b)];
                for k in 1..p {
                    col[k] = blocks[k][(b, a)];
                    col[len - k] = blocks[k][(a, b)];
                }
                symbols.push(Circulant::new(&col, &fft));
            }
        }
        FastToeplitzMatVec { m, p, fft, symbols }
    }

    /// Whether the circulant-embedding product beats the direct
    /// [`SymBlockToeplitz::matvec`] on an operator with `p` block rows,
    /// with the symbols already built: from `p = 10` on.
    ///
    /// This is the measured crossover (EXPERIMENTS.md, "Residual
    /// crossover"), the same for every block size from 1 to 32: both
    /// products do `O(m²)` work per block pair, the direct one in
    /// `2p − 1` small GEMMs over `p²` block pairs, the FFT one in
    /// pointwise products over the embedding length `L ≈ 2p`. The FFT
    /// product is faster at every `p ≥ 10` for every `m`. Below that it
    /// is slower for `m ≥ 4` at `p ≤ 6` and, up to `m = 16`, at `p = 9`
    /// (where `L` doubles to 32); at `p = 7` and `8` it wins by
    /// 1.05–1.6× on residuals of at most ~60 µs, which the one
    /// threshold leaves to the direct product. Counting flops instead
    /// would keep the direct product for scalar operators up to
    /// `p = 64`, where it is measured ~10× slower.
    pub fn pays_off(p: usize) -> bool {
        p >= 10
    }

    /// Matrix order `n = m·p`.
    pub fn order(&self) -> usize {
        self.m * self.p
    }

    /// `y = T·x` in O(m² p log p).
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let (m, p, len) = (self.m, self.p, self.fft.len());
        assert_eq!(x.len(), m * p);
        // Forward-transform the m component vectors of x, stored one
        // after another.
        let mut xr = vec![0.0f64; m * len];
        let mut xi = vec![0.0f64; m * len];
        for (b, (xr, xi)) in xr
            .chunks_exact_mut(len)
            .zip(xi.chunks_exact_mut(len))
            .enumerate()
        {
            for j in 0..p {
                xr[j] = x[j * m + b];
            }
            self.fft.forward(xr, xi);
        }
        // Accumulate each output component in the frequency domain.
        let mut y = vec![0.0f64; m * p];
        let mut ar = vec![0.0f64; len];
        let mut ai = vec![0.0f64; len];
        for a in 0..m {
            ar.fill(0.0);
            ai.fill(0.0);
            for (b, (xr, xi)) in xr.chunks_exact(len).zip(xi.chunks_exact(len)).enumerate() {
                self.symbols[a * m + b].mul_accumulate(xr, xi, &mut ar, &mut ai);
            }
            self.fft.inverse(&mut ar, &mut ai);
            for i in 0..p {
                y[i * m + a] = ar[i];
            }
        }
        y
    }

    /// Residual `r = b − T·x` through the fast product.
    pub fn residual(&self, x: &[f64], b: &[f64]) -> Vec<f64> {
        let mut r = self.apply(x);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        bs_matrix::flops::add(r.len() as u64);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn check(t: &SymBlockToeplitz, tol: f64) {
        let n = t.order();
        let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) / 5.0 - 1.5).collect();
        let fast = FastToeplitzMatVec::new(t);
        let got = fast.apply(&x);
        let want = t.matvec(&x);
        for i in 0..n {
            assert!(
                (got[i] - want[i]).abs() < tol,
                "i={i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn matches_direct_matvec_scalar() {
        for p in [1usize, 2, 3, 5, 17, 64, 100] {
            check(&workloads::random_spd_scalar(p, p as u64), 1e-11);
        }
    }

    #[test]
    fn matches_direct_matvec_block() {
        for (m, p) in [(2usize, 9usize), (3, 8), (4, 16), (5, 3)] {
            check(&workloads::random_spd_block(m, p, (m + p) as u64), 1e-11);
        }
    }

    #[test]
    fn matches_on_indefinite_matrices() {
        check(&workloads::random_indefinite_scalar(33, 3), 1e-11);
        check(&workloads::random_indefinite_block(2, 11, 4), 1e-11);
    }

    #[test]
    fn residual_agrees_with_direct() {
        let t = workloads::random_spd_block(3, 20, 9);
        let n = t.order();
        let x = vec![0.7; n];
        let b = vec![1.3; n];
        let fast = FastToeplitzMatVec::new(&t);
        let r_fast = fast.residual(&x, &b);
        let r_dir = t.residual(&x, &b);
        for i in 0..n {
            assert!((r_fast[i] - r_dir[i]).abs() < 1e-11);
        }
    }

    #[test]
    fn pays_off_matches_the_measured_crossover() {
        for p in [1usize, 6, 8, 9] {
            assert!(!FastToeplitzMatVec::pays_off(p), "p={p}");
        }
        for p in [10usize, 12, 16, 64, 128, 256, 512, 1024] {
            assert!(FastToeplitzMatVec::pays_off(p), "p={p}");
        }
    }

    /// Largest error of the FFT product of a scalar operator of order
    /// `n` over 64 sampled rows, against compensated direct sums and
    /// relative to the largest `Σ_j |t_ij x_j|` among them.
    fn sampled_fft_error(n: usize) -> f64 {
        let mut rng = crate::rng::Rng::seed_from_u64(n as u64);
        let row: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
        let x: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
        let t = SymBlockToeplitz::from_scalar_row(&row);
        let y = FastToeplitzMatVec::new(&t).apply(&x);
        let (mut err, mut scale) = (0.0f64, 0.0f64);
        for s in 0..64 {
            let i = s * (n - 1) / 63;
            // Neumaier summation of Σ_j t_|i−j| x_j.
            let (mut sum, mut comp, mut abs) = (0.0f64, 0.0f64, 0.0f64);
            for (j, &xj) in x.iter().enumerate() {
                let v = row[i.abs_diff(j)] * xj;
                let next = sum + v;
                comp += if sum.abs() >= v.abs() {
                    (sum - next) + v
                } else {
                    (v - next) + sum
                };
                sum = next;
                abs += v.abs();
            }
            err = err.max((y[i] - (sum + comp)).abs());
            scale = scale.max(abs);
        }
        err / scale
    }

    #[test]
    fn fft_product_error_stays_at_roundoff() {
        for log2 in [10u32, 14, 17, 20] {
            let e = sampled_fft_error(1 << log2);
            assert!(e <= 1e-15, "n = 2^{log2}: relative error {e:e}");
        }
    }

    #[test]
    fn flop_savings_are_real_for_large_p() {
        let t = workloads::random_spd_scalar(2048, 1);
        let x = vec![1.0; 2048];
        bs_matrix::flops::reset();
        let _ = t.matvec(&x);
        let direct = bs_matrix::flops::get();
        let fast = FastToeplitzMatVec::new(&t);
        bs_matrix::flops::reset();
        let _ = fast.apply(&x);
        let fft_flops = bs_matrix::flops::get();
        assert!(
            fft_flops * 4 < direct,
            "fft {fft_flops} should be well below direct {direct}"
        );
    }
}
