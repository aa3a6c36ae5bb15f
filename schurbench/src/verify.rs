//! Answer checks, independent of the program's own kernels.
//!
//! Every solve must meet one tolerance on the normwise backward error
//! `‖b − T x‖₂ / (‖T‖∞ ‖x‖₂ + ‖b‖₂)`, computed here with a plain
//! block Toeplitz product read from the operator's first block row.
//! Answers the program promises to reproduce bit for bit (serve
//! responses, sharded factors) are also compared bitwise.

use bs_toeplitz::SymBlockToeplitz;

/// The one tolerance every solve must meet on its normwise backward
/// error. Backward-stable answers land near 1e-16; the refined solves
/// the program returns unconverged land at 1e-10 and above.
pub const BACKWARD_TOL: f64 = 1e-12;

/// Largest entrywise difference allowed between a sharded factor and
/// the sequential one, relative to the sequential factor's largest
/// entry.
pub const FACTOR_TOL: f64 = 1e-12;

/// Outcome of checking one op's answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Check {
    /// The answer meets every check.
    Pass,
    /// The answer misses a check on a path the program certifies: a
    /// wrong answer. Any of these makes the run's `correct` false.
    Wrong(String),
    /// The program returned an error or shed the request.
    Error(String),
}

/// `y = T x` from the first block row: block `(I, J)` of `T` is
/// `Γ(J − I)` above the diagonal and `Γ(I − J)ᵀ` below it.
pub fn matvec(t: &SymBlockToeplitz, x: &[f64]) -> Vec<f64> {
    let m = t.block_size();
    let p = t.num_blocks();
    assert_eq!(
        x.len(),
        m * p,
        "vector length must match the operator order"
    );
    let blocks = t.first_block_row();
    let mut y = vec![0.0; m * p];
    for bi in 0..p {
        let ys = &mut y[bi * m..(bi + 1) * m];
        for bj in 0..p {
            let xs = &x[bj * m..(bj + 1) * m];
            if bj >= bi {
                let g = &blocks[bj - bi];
                for (c, &xc) in xs.iter().enumerate() {
                    for (yr, &grc) in ys.iter_mut().zip(g.col(c)) {
                        *yr += grc * xc;
                    }
                }
            } else {
                let g = &blocks[bi - bj];
                for (yr, r) in ys.iter_mut().zip(0..m) {
                    *yr += g.col(r).iter().zip(xs).map(|(a, b)| a * b).sum::<f64>();
                }
            }
        }
    }
    y
}

/// `‖T‖∞`: the largest absolute row sum.
pub fn norm_inf(t: &SymBlockToeplitz) -> f64 {
    let m = t.block_size();
    let p = t.num_blocks();
    let blocks = t.first_block_row();
    // Row sums of Γ(d) serve block rows above the diagonal, column sums
    // (the rows of Γ(d)ᵀ) below it.
    let row_sums: Vec<Vec<f64>> = blocks
        .iter()
        .map(|g| {
            (0..m)
                .map(|r| (0..m).map(|c| g.col(c)[r].abs()).sum())
                .collect()
        })
        .collect();
    let col_sums: Vec<Vec<f64>> = blocks
        .iter()
        .map(|g| {
            (0..m)
                .map(|c| g.col(c).iter().map(|v| v.abs()).sum())
                .collect()
        })
        .collect();
    let mut best: f64 = 0.0;
    for bi in 0..p {
        for r in 0..m {
            let above: f64 = (bi..p).map(|bj| row_sums[bj - bi][r]).sum();
            let below: f64 = (0..bi).map(|bj| col_sums[bi - bj][r]).sum();
            best = best.max(above + below);
        }
    }
    best
}

/// Euclidean norm.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Normwise backward error of `x` as a solution of `T x = b`, with
/// `tnorm = ‖T‖∞` precomputed.
pub fn backward_error(t: &SymBlockToeplitz, tnorm: f64, x: &[f64], b: &[f64]) -> f64 {
    let tx = matvec(t, x);
    let r: Vec<f64> = b.iter().zip(&tx).map(|(bi, ti)| bi - ti).collect();
    let denom = tnorm * norm2(x) + norm2(b);
    let be = norm2(&r) / denom;
    if be.is_finite() {
        be
    } else {
        f64::INFINITY
    }
}

/// Whether two float slices hold identical bit patterns.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A verified first answer: later answers with the same bits inherit
/// its verdict without recomputing the backward error.
#[derive(Clone, Debug)]
pub struct Reference {
    /// The answer's values.
    pub x: Vec<f64>,
    /// Its backward error.
    pub backward_error: f64,
}

impl Reference {
    /// Verify `x` against `T x = b` and keep it.
    pub fn new(t: &SymBlockToeplitz, tnorm: f64, x: &[f64], b: &[f64]) -> Reference {
        Reference {
            x: x.to_vec(),
            backward_error: backward_error(t, tnorm, x, b),
        }
    }

    /// Backward error of `x`: the reference's when the bits agree,
    /// recomputed otherwise.
    pub fn backward_error_of(&self, t: &SymBlockToeplitz, tnorm: f64, x: &[f64], b: &[f64]) -> f64 {
        if same_bits(&self.x, x) {
            self.backward_error
        } else {
            backward_error(t, tnorm, x, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_toeplitz::workloads;

    #[test]
    fn matvec_and_norm_match_the_dense_matrix() {
        for t in [
            workloads::random_spd_block(3, 5, 4),
            workloads::singular_minor_scalar(12, 2),
            workloads::singular_minor_scalar(16, 3).retile(8),
        ] {
            let n = t.order();
            let dense = t.to_dense();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let y = matvec(&t, &x);
            let mut inf: f64 = 0.0;
            for i in 0..n {
                let yi: f64 = (0..n).map(|j| dense[(i, j)] * x[j]).sum();
                assert!((yi - y[i]).abs() < 1e-12, "row {i}");
                inf = inf.max((0..n).map(|j| dense[(i, j)].abs()).sum());
            }
            assert!((norm_inf(&t) - inf).abs() < 1e-12);
        }
    }

    #[test]
    fn backward_error_separates_solutions_from_noise() {
        let t = workloads::random_spd_block(2, 8, 1);
        let x: Vec<f64> = (0..16).map(|i| i as f64 - 7.5).collect();
        let b = matvec(&t, &x);
        let tn = norm_inf(&t);
        assert!(backward_error(&t, tn, &x, &b) < 1e-15);
        let mut bad = x.clone();
        bad[3] += 1e-6;
        assert!(backward_error(&t, tn, &bad, &b) > BACKWARD_TOL);
        let nan = vec![f64::NAN; 16];
        assert_eq!(backward_error(&t, tn, &nan, &b), f64::INFINITY);
        let r = Reference::new(&t, tn, &x, &b);
        assert_eq!(r.backward_error_of(&t, tn, &x, &b), r.backward_error);
        assert!(r.backward_error_of(&t, tn, &bad, &b) > BACKWARD_TOL);
    }
}
