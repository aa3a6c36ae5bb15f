//! Minimal radix-2 FFT and circulant convolution.
//!
//! Self-contained (no external FFT crate) support for the
//! O(n log n) Toeplitz matrix-vector product in [`crate::fast`].
//! Split-complex layout: separate `re`/`im` slices, iterative
//! Cooley–Tukey with bit-reversal, inverse via conjugation.
//!
//! An [`Fft`] holds the twiddle factors of one transform length, each
//! computed directly from its angle. Advancing a twiddle by a running
//! complex product instead lets its rounding error grow with the stage
//! length: the circulant-embedding product of a scalar Toeplitz matrix
//! of order 2²⁰ then carries ~2e-13 relative error, against ~4e-17
//! with the table. Owners of repeated transforms ([`crate::fast`],
//! [`crate::inverse`]) build the table once.

use bs_matrix::flops;

/// Smallest power of two `≥ n`.
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// A radix-2 transform of one power-of-two length with its twiddle
/// table.
///
/// ```
/// use bs_toeplitz::fft::Fft;
///
/// let f = Fft::new(4);
/// let (mut re, mut im) = (vec![1.0, 2.0, 3.0, 4.0], vec![0.0; 4]);
/// f.forward(&mut re, &mut im);
/// assert_eq!((re[0], im[0]), (10.0, 0.0));
/// f.inverse(&mut re, &mut im);
/// assert!((re[3] - 4.0).abs() < 1e-15);
/// ```
#[derive(Clone, Debug)]
pub struct Fft {
    len: usize,
    /// Forward twiddles `e^{−2πik/s}` of every butterfly stage of span
    /// `s = 2h`, stored per stage at offsets `h − 1 .. 2h − 1`
    /// (`k = 0..h`), so each stage reads one contiguous run.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl Fft {
    /// Twiddle table for transforms of length `len` (a power of two).
    pub fn new(len: usize) -> Self {
        assert!(len.is_power_of_two(), "FFT length must be a power of two");
        let size = len - 1;
        let mut tw_re = Vec::with_capacity(size);
        let mut tw_im = Vec::with_capacity(size);
        let mut half = 1;
        while half < len {
            let step = std::f64::consts::PI / half as f64;
            for k in 0..half {
                let (s, c) = (step * k as f64).sin_cos();
                tw_re.push(c);
                tw_im.push(-s);
            }
            half <<= 1;
        }
        Fft { len, tw_re, tw_im }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the transform is of length 0 (never: the length is a
    /// power of two).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// In-place forward transform of `re + i·im`, both of length
    /// [`len`](Self::len).
    pub fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        self.transform(re, im, false);
    }

    /// In-place inverse transform (includes the 1/N scaling).
    pub fn inverse(&self, re: &mut [f64], im: &mut [f64]) {
        self.transform(re, im, true);
        let scale = 1.0 / self.len as f64;
        for v in re.iter_mut().chain(im.iter_mut()) {
            *v *= scale;
        }
        flops::add(2 * self.len as u64);
    }

    fn transform(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        let n = self.len;
        assert!(
            re.len() == n && im.len() == n,
            "FFT input must match the table length"
        );
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        // Butterflies; the inverse uses the conjugate twiddles.
        let sign = if inverse { -1.0 } else { 1.0 };
        let mut half = 1;
        while half < n {
            let wr = &self.tw_re[half - 1..2 * half - 1];
            let wi = &self.tw_im[half - 1..2 * half - 1];
            for (re, im) in re
                .chunks_exact_mut(2 * half)
                .zip(im.chunks_exact_mut(2 * half))
            {
                let (ur, vr) = re.split_at_mut(half);
                let (ui, vi) = im.split_at_mut(half);
                for k in 0..half {
                    let (cr, ci) = (wr[k], sign * wi[k]);
                    let tr = vr[k] * cr - vi[k] * ci;
                    let ti = vr[k] * ci + vi[k] * cr;
                    vr[k] = ur[k] - tr;
                    vi[k] = ui[k] - ti;
                    ur[k] += tr;
                    ui[k] += ti;
                }
            }
            half <<= 1;
        }
        // n/2 butterflies per stage, 10 flops each.
        flops::add(5 * (n as u64) * (n.trailing_zeros() as u64).max(1));
    }
}

/// A circulant operator `C x` where `C`'s first column is `col`,
/// applied through the FFT: `C x = ifft(fft(col) ∘ fft(x))`.
/// The symbol FFT is precomputed at construction.
#[derive(Clone, Debug)]
pub struct Circulant {
    /// FFT of the first column.
    sym_re: Vec<f64>,
    sym_im: Vec<f64>,
}

impl Circulant {
    /// Build from the first column, whose length must be `fft.len()`.
    pub fn new(col: &[f64], fft: &Fft) -> Self {
        let mut sym_re = col.to_vec();
        let mut sym_im = vec![0.0; col.len()];
        fft.forward(&mut sym_re, &mut sym_im);
        Circulant { sym_re, sym_im }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.sym_re.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sym_re.is_empty()
    }

    /// Pointwise multiply an already-transformed vector by the symbol,
    /// accumulating into `(acc_re, acc_im)`.
    pub fn mul_accumulate(
        &self,
        x_re: &[f64],
        x_im: &[f64],
        acc_re: &mut [f64],
        acc_im: &mut [f64],
    ) {
        let n = self.len();
        let (x_re, x_im) = (&x_re[..n], &x_im[..n]);
        let (acc_re, acc_im) = (&mut acc_re[..n], &mut acc_im[..n]);
        for i in 0..n {
            let (sr, si) = (self.sym_re[i], self.sym_im[i]);
            acc_re[i] += sr * x_re[i] - si * x_im[i];
            acc_im[i] += sr * x_im[i] + si * x_re[i];
        }
        flops::add(8 * n as u64);
    }

    /// Full product `C x` for a real input (test convenience).
    pub fn apply(&self, x: &[f64], fft: &Fft) -> Vec<f64> {
        let n = self.len();
        assert_eq!(x.len(), n);
        let mut xr = x.to_vec();
        let mut xi = vec![0.0; n];
        fft.forward(&mut xr, &mut xi);
        let mut ar = vec![0.0; n];
        let mut ai = vec![0.0; n];
        self.mul_accumulate(&xr, &xi, &mut ar, &mut ai);
        fft.inverse(&mut ar, &mut ai);
        ar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut re = vec![1.0, 0.0, 0.0, 0.0];
        let mut im = vec![0.0; 4];
        Fft::new(4).forward(&mut re, &mut im);
        for i in 0..4 {
            assert!((re[i] - 1.0).abs() < 1e-14);
            assert!(im[i].abs() < 1e-14);
        }
    }

    #[test]
    fn fft_round_trips() {
        let n = 64;
        let f = Fft::new(n);
        let orig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut re = orig.clone();
        let mut im = vec![0.0; n];
        f.forward(&mut re, &mut im);
        f.inverse(&mut re, &mut im);
        for i in 0..n {
            assert!((re[i] - orig[i]).abs() < 1e-12, "i={i}");
            assert!(im[i].abs() < 1e-12);
        }
    }

    #[test]
    fn fft_matches_dft_definition() {
        for n in [1usize, 2, 8, 32] {
            let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            let mut re = x.clone();
            let mut im = vec![0.0; n];
            Fft::new(n).forward(&mut re, &mut im);
            for k in 0..n {
                let mut sr = 0.0;
                let mut si = 0.0;
                for (j, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    sr += v * ang.cos();
                    si += v * ang.sin();
                }
                assert!((re[k] - sr).abs() < 1e-10, "n={n} k={k}");
                assert!((im[k] - si).abs() < 1e-10, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn twiddles_are_exact_at_the_octants() {
        let f = Fft::new(16);
        // Stage of span 8 (half = 4): e^{−2πik/8}, k = 0..4.
        let (wr, wi) = (&f.tw_re[3..7], &f.tw_im[3..7]);
        assert_eq!((wr[0], wi[0]), (1.0, 0.0));
        assert!(wr[2].abs() < 2e-16 && (wi[2] + 1.0).abs() < 2e-16);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((wr[1] - h).abs() < 2e-16 && (wi[1] + h).abs() < 2e-16);
        assert_eq!(f.tw_re.len(), 15);
    }

    #[test]
    fn circulant_matches_explicit_matrix() {
        let col = [1.0, 2.0, 0.0, -1.0];
        let f = Fft::new(4);
        let c = Circulant::new(&col, &f);
        let x = [1.0, 0.5, -0.25, 2.0];
        let y = c.apply(&x, &f);
        // Explicit circulant: C[i][j] = col[(i - j) mod 4].
        for i in 0..4 {
            let mut want = 0.0;
            for j in 0..4 {
                want += col[(i + 4 - j) % 4] * x[j];
            }
            assert!((y[i] - want).abs() < 1e-12, "i={i}: {} vs {want}", y[i]);
        }
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(64), 64);
        assert_eq!(next_pow2(65), 128);
    }
}
