//! Deterministic inputs from the run's seed.
//!
//! Operators come from `bs_toeplitz::workloads` with seeds derived
//! here; right-hand sides come from the same derivation, so a seed
//! fixes every input of a run and nothing else does.

use bs_matrix::Matrix;
use std::hash::{DefaultHasher, Hasher};

/// SplitMix64 step: a well-mixed 64-bit value from `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of input `index` of kind `tag` under the run seed `seed`.
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    mix(mix(mix(seed) ^ tag) ^ index)
}

/// `n` values uniform in `[-1, 1)` from `seed`.
pub fn uniform_vec(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = mix(state);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// An `n × cols` matrix of uniform values from `seed`.
pub fn uniform_matrix(seed: u64, n: usize, cols: usize) -> Matrix {
    Matrix::from_col_major(n, cols, uniform_vec(seed, n * cols))
}

/// Digest of a run's inputs: operators and right-hand sides by their
/// bit patterns.
#[derive(Debug, Default)]
pub struct Digest(DefaultHasher);

impl Digest {
    /// Fold the bit patterns of `xs` in.
    pub fn floats(&mut self, xs: &[f64]) {
        self.0.write_usize(xs.len());
        for x in xs {
            self.0.write_u64(x.to_bits());
        }
    }

    /// Fold a symmetric block Toeplitz operator in (block size and
    /// first block row).
    pub fn operator(&mut self, t: &bs_toeplitz::SymBlockToeplitz) {
        self.0.write_usize(t.block_size());
        for blk in t.first_block_row() {
            self.floats(blk.as_slice());
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_separates_inputs() {
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(2, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
        let v = uniform_vec(9, 1000);
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        assert_eq!(v, uniform_vec(9, 1000));
    }
}
