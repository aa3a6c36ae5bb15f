//! Stable 64-bit fingerprints of Toeplitz generators.
//!
//! The operator cache in `bs-serve` keys factorizations by the *value*
//! of the generator: two requests carrying the same first block row
//! (same `m`, `p`, scalar width, and bit-identical entries) must map to
//! the same key on every run, process, and platform, while distinct
//! generators should essentially never collide. FNV-1a over the
//! canonical byte encoding gives exactly that: deterministic (no
//! per-process seed, unlike `std`'s `RandomState`), cheap (one pass
//! over `2m²p` entries — noise next to the O(mn²) factorization a miss
//! triggers), and 64 bits wide, so a cache holding even thousands of
//! hot operators has a collision probability around 10⁻¹².
//!
//! Entries are hashed by their `f64` bit pattern (`to_bits`), so `0.0`
//! and `-0.0` fingerprint differently — as they must: they are
//! different generators even though they compare equal.

use crate::block_toeplitz::SymBlockToeplitz;
use bs_matrix::Scalar;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Domain-separation tag so a generator fingerprint can never collide
/// with a hash of the same bytes produced by some other subsystem.
const GENERATOR_TAG: &[u8] = b"bs-toeplitz/generator/v1";

/// Incremental FNV-1a 64 hasher over byte chunks.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorb a byte chunk.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorb a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> SymBlockToeplitz<T> {
    /// Stable 64-bit fingerprint of this operator: a deterministic hash
    /// of `(m, p, scalar width, every block entry's bit pattern)`.
    /// Equal fingerprints identify bit-identical generators of the same
    /// shape and precision — the operator-cache key in `bs-serve`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(GENERATOR_TAG);
        h.write_u64(self.block_size() as u64);
        h.write_u64(self.num_blocks() as u64);
        h.write_u64(std::mem::size_of::<T>() as u64);
        for blk in self.first_block_row() {
            for j in 0..blk.cols() {
                for &v in blk.col(j) {
                    h.write_u64(v.to_f64().to_bits());
                }
            }
        }
        h.finish()
    }

    /// `true` when `other` has this operator's shape and bit-identical
    /// entries — exactly the equivalence [`fingerprint`](Self::fingerprint)
    /// hashes, so equal fingerprints can be confirmed before trusting
    /// them.
    pub fn bit_identical(&self, other: &Self) -> bool {
        self.block_size() == other.block_size()
            && self.num_blocks() == other.num_blocks()
            && self
                .first_block_row()
                .iter()
                .zip(other.first_block_row())
                .all(|(a, b)| {
                    a.as_slice()
                        .iter()
                        .zip(b.as_slice())
                        .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn fingerprint_is_stable_across_clones_and_calls() {
        let t = workloads::random_spd_block(2, 8, 5);
        let fp = t.fingerprint();
        assert_eq!(fp, t.fingerprint());
        assert_eq!(fp, t.clone().fingerprint());
    }

    #[test]
    fn distinct_generators_get_distinct_keys() {
        // Collision-resistance smoke: a spread of shapes, seeds, and
        // single-entry tweaks must all produce unique fingerprints.
        let mut fps = std::collections::HashSet::new();
        for seed in 0..50 {
            assert!(fps.insert(workloads::random_spd_scalar(16, seed).fingerprint()));
            assert!(fps.insert(workloads::random_spd_block(2, 8, seed).fingerprint()));
            assert!(fps.insert(workloads::kms(32, 0.3 + 0.01 * seed as f64).fingerprint()));
        }
        // A one-ulp change in one entry changes the key.
        let base = workloads::kms(16, 0.5);
        let mut row = base.first_block_row().to_vec();
        row[3][(0, 0)] = f64::from_bits(row[3][(0, 0)].to_bits() ^ 1);
        let tweaked = SymBlockToeplitz::new(row);
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn shape_is_part_of_the_key() {
        // Same backing numbers, different (m, p) tiling must not
        // collide: m/p are hashed ahead of the entries.
        let t = workloads::random_spd_block(2, 8, 9);
        let retiled = t.retile(4);
        assert_ne!(t.fingerprint(), retiled.fingerprint());
    }

    #[test]
    fn signed_zero_and_precision_are_distinguished() {
        let a = SymBlockToeplitz::from_scalar_row(&[1.0, 0.0]);
        let b = SymBlockToeplitz::from_scalar_row(&[1.0, -0.0]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = workloads::kms(8, 0.5);
        let c32 = c.convert::<f32>();
        assert_ne!(c.fingerprint(), c32.fingerprint());
    }
}
