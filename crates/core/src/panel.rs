//! Phase 1 of a Schur step: factor the `2m × m` pivot panel.
//!
//! The panel stacks the pivot block (upper half, upper triangular by the
//! invariant of §5) on the block to eliminate (lower half, dense). Each
//! column `k` yields one elementary hyperbolic reflector built from the
//! sparse pivot vector of Fig. 1; the reflector is applied to the
//! remaining columns of its chunk immediately (BLAS2) while the chosen
//! block representation absorbs it for the later level-3 updates.
//!
//! [`factor_chunk`] is that per-column loop over one chunk of panel
//! columns, and the only code that builds SPD pivot reflectors. The
//! engine's two-level panel ([`factor_panel_into`], §6.2) runs it chunk
//! after chunk on one address space; the sharded executor runs it on
//! each broadcast raw pivot chunk, on every rank, whether the chunk is
//! the whole panel (V1/V2) or one rank's column slice of it (V3,
//! §7.1.3).

use crate::reflector::{PivotOutcome, PivotReflector};
use crate::rep::{BlockReflector, RepKind, RepScratch};
use crate::{Error, Result};
use bs_matrix::ldlt::Signature;
use bs_matrix::view::MatMut;
use bs_matrix::{Scalar, Workspace};
use bs_probe::metrics::{self, Counter};
use bs_probe::stability;

/// Reusable per-step state for [`factor_chunk`]: the pivot reflector
/// and the block-representation update buffers. Held across Schur
/// steps by the engine and by every shard rank, so the warm panel
/// factorization allocates nothing.
#[derive(Debug)]
pub struct PanelScratch<T: Scalar = f64> {
    refl: PivotReflector<T>,
    rep: RepScratch<T>,
}

impl<T: Scalar> Default for PanelScratch<T> {
    fn default() -> Self {
        PanelScratch {
            refl: PivotReflector::empty(),
            rep: RepScratch::default(),
        }
    }
}

/// Factor a `2m × m` pivot panel in place under the SPD working
/// signature `W = diag(I_m, −I_m)`.
///
/// On success the panel's upper half holds the transformed (still upper
/// triangular) pivot block — the diagonal block of the next `R` row —
/// its lower half is zeroed, and the returned [`BlockReflector`] is the
/// product of the `m` elementary reflectors in representation `kind`.
///
/// `step` is only used for error reporting. `scale` is the absolute
/// matrix scale (`‖T‖∞`) against which `zero_tol` classifies a pivot's
/// hyperbolic norm as numerically zero.
pub fn factor_panel<T: Scalar>(
    panel: MatMut<'_, T>,
    w: &Signature,
    kind: RepKind,
    step: usize,
    zero_tol: f64,
    scale: f64,
) -> Result<BlockReflector<T>> {
    assert_eq!(panel.rows(), 2 * panel.cols(), "panel must be 2m x m");
    let mut rep = BlockReflector::new(kind, w.clone(), panel.cols());
    let mut scratch = PanelScratch::default();
    factor_chunk(panel, 0, w, step, zero_tol, scale, &mut rep, &mut scratch)?;
    Ok(rep)
}

/// Two-level blocked panel factorization (§6.2) with every working
/// buffer caller-owned: the panel's columns are factored in chunks of
/// `k_block` by [`factor_chunk`], and each chunk's block transformation
/// is applied to the remaining pivot-block columns with level-3 kernels
/// (drawing from `ws`) before the next chunk starts. `k_block = m` is
/// [`factor_panel`]; smaller chunks trade a little extra blocking work
/// for level-3 intra-panel updates — the scheme the paper recommends
/// "if the block size m is very large … on machines with hierarchical
/// memory".
///
/// The chunk [`BlockReflector`]s in `reps` are reused via
/// [`BlockReflector::reset`] when their shape fits (re-created on a
/// cold or mismatched call), so calls after the first step of a
/// factorization perform zero heap allocations. On success `reps`
/// holds exactly the chunk transformations; apply them to the trailing
/// generator *in order*.
#[allow(clippy::too_many_arguments)]
pub fn factor_panel_into<T: Scalar>(
    mut panel: MatMut<'_, T>,
    w: &Signature,
    kind: RepKind,
    step: usize,
    zero_tol: f64,
    scale: f64,
    k_block: usize,
    reps: &mut Vec<BlockReflector<T>>,
    scratch: &mut PanelScratch<T>,
    ws: &mut Workspace<T>,
) -> Result<()> {
    let m = panel.cols();
    assert_eq!(panel.rows(), 2 * m, "panel must be 2m x m");
    assert!(k_block >= 1, "chunk size must be positive");
    let mut chunk_start = 0;
    let mut chunk_idx = 0;
    while chunk_start < m {
        let chunk_end = (chunk_start + k_block).min(m);
        let k_len = chunk_end - chunk_start;
        if chunk_idx == reps.len() {
            // bs-lint: allow(no-alloc-hot) -- cold first-call path; warm steps hit the `fits`/`reset` branch
            reps.push(BlockReflector::new(kind, w.clone(), k_len));
        } else if reps[chunk_idx].fits(kind, w, k_len) {
            reps[chunk_idx].reset();
        } else {
            // bs-lint: allow(no-alloc-hot) -- cold reshape path (problem shape changed under the plan)
            reps[chunk_idx] = BlockReflector::new(kind, w.clone(), k_len);
        }
        let rep = &mut reps[chunk_idx];
        factor_chunk(
            panel.sub_mut(0, chunk_start, 2 * m, k_len),
            chunk_start,
            w,
            step,
            zero_tol,
            scale,
            rep,
            scratch,
        )?;
        // Level-3 update of the remaining pivot-block columns with the
        // whole chunk's transformation.
        if chunk_end < m {
            // Pivot panels are narrow (≤ m columns); fan-out belongs to
            // the trailing update, not here.
            rep.apply(
                panel.sub_mut(0, chunk_end, 2 * m, m - chunk_end),
                &bs_matrix::ExecPolicy::sequential(),
                ws,
            );
        }
        chunk_start = chunk_end;
        chunk_idx += 1;
    }
    reps.truncate(chunk_idx);
    Ok(())
}

/// Factor one chunk of pivot-panel columns in place under the SPD
/// working signature `w` (length `2m`): column `i` of the `2m × kc`
/// `chunk` pivots on upper-half row `k0 + i`. Each column maps to
/// `−σ e_{k0+i}` (lower half zeroed), its reflector is applied to the
/// chunk's later columns, and `rep` — empty or [`reset`] by the
/// caller, sized for at least `kc` reflectors — absorbs the `kc`
/// reflectors in order.
///
/// Earlier chunks' transformations must already be applied to `chunk`.
/// `step`, `zero_tol` and `scale` are as in [`factor_panel`].
///
/// [`reset`]: BlockReflector::reset
#[allow(clippy::too_many_arguments)]
pub fn factor_chunk<T: Scalar>(
    mut chunk: MatMut<'_, T>,
    k0: usize,
    w: &Signature,
    step: usize,
    zero_tol: f64,
    scale: f64,
    rep: &mut BlockReflector<T>,
    scratch: &mut PanelScratch<T>,
) -> Result<()> {
    let m = chunk.rows() / 2;
    let kc = chunk.cols();
    assert_eq!(w.len(), 2 * m, "signature must span the 2m chunk rows");
    assert!(k0 + kc <= m, "chunk pivots must lie in the upper half");
    debug_assert!(
        (0..m).all(|i| w.sign(i) > 0),
        "SPD panel factorization expects an all-plus upper signature"
    );
    for i in 0..kc {
        let k = k0 + i;
        let col = chunk.col(i);
        let u_top = col[k];
        let outcome = PivotReflector::compute_into(
            u_top,
            &col[m..],
            w,
            m,
            k,
            zero_tol,
            scale,
            &mut scratch.refl,
        );
        match outcome {
            PivotOutcome::Ok => {}
            PivotOutcome::ZeroNorm { hnorm } => {
                return Err(Error::SingularMinor {
                    step,
                    column: k,
                    hnorm,
                })
            }
            PivotOutcome::WrongSign { hnorm } => {
                return Err(Error::NotPositiveDefinite {
                    step,
                    column: k,
                    hnorm,
                })
            }
        }
        let r = &scratch.refl;
        crate::contracts::hyperbolic_existence(step, k, r.sigma.to_f64(), r.beta.to_f64());
        metrics::incr(Counter::Reflectors);
        if stability::is_enabled() {
            // σ² = |uᵀWu|: the hyperbolic norm the reflector
            // eliminated; norm_est bounds ‖U‖₂ (the §8.2 growth).
            let h2 = u_top * u_top + col[m..].iter().fold(T::ZERO, |acc, &v| acc + v * v);
            let col_norm = h2.to_f64().sqrt();
            stability::record_step(
                step,
                k,
                col_norm,
                (r.sigma * r.sigma).to_f64(),
                r.norm_est(),
            );
        }
        // Column i maps to −σ e_k (lower half annihilated).
        let col = chunk.col_mut(i);
        col[k] = -r.sigma;
        col[m..].fill(T::ZERO);
        // Elementary update of the rest of this chunk only.
        for j in i + 1..kc {
            let (top_half, low_half) = chunk.col_mut(j).split_at_mut(m);
            r.apply_split(w, m, &mut top_half[k], low_half);
        }
        rep.push_pivot(&scratch.refl, m, &mut scratch.rep);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_matrix::Matrix;

    /// Build a panel whose pivot block is upper triangular with a
    /// dominant diagonal, and a small dense lower block.
    fn make_panel(m: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 1000) as f64 - 500.0) / 500.0
        };
        let mut p = Matrix::zeros(2 * m, m);
        for j in 0..m {
            for i in 0..=j {
                p[(i, j)] = rnd() * 0.5;
            }
            p[(j, j)] = 2.0 + rnd().abs();
            for i in 0..m {
                p[(m + i, j)] = rnd() * 0.5;
            }
        }
        p
    }

    #[test]
    fn panel_triangularizes_and_matches_block_transform() {
        for m in [1usize, 2, 3, 6] {
            for kind in RepKind::ALL {
                let w = Signature::hyperbolic(m);
                let p0 = make_panel(m, 5 * m as u64 + 1);
                let mut p = p0.clone();
                let rep = factor_panel(p.mt(), &w, kind, 0, 1e-13, 1.0).unwrap();
                // Lower half must be zero.
                for j in 0..m {
                    for i in 0..m {
                        assert!(
                            p[(m + i, j)].abs() < 1e-11,
                            "kind={kind} m={m}: lower ({i},{j}) = {}",
                            p[(m + i, j)]
                        );
                    }
                }
                // Upper half must stay upper triangular.
                for j in 0..m {
                    for i in j + 1..m {
                        assert!(p[(i, j)].abs() < 1e-11, "kind={kind} m={m}");
                    }
                }
                // The dense block transform must reproduce the same panel.
                let u = rep.to_dense();
                let mut up = Matrix::zeros(2 * m, m);
                bs_matrix::gemm(
                    1.0,
                    u.rf(),
                    bs_matrix::Trans::No,
                    p0.rf(),
                    bs_matrix::Trans::No,
                    0.0,
                    up.mt(),
                );
                assert!(
                    up.max_abs_diff(&p) < 1e-9,
                    "kind={kind} m={m}: diff {}",
                    up.max_abs_diff(&p)
                );
            }
        }
    }

    #[test]
    fn panel_preserves_gram_difference() {
        // The hyperbolic invariant: PᵀWP is unchanged by the step.
        let m = 4;
        let w = Signature::hyperbolic(m);
        let p0 = make_panel(m, 99);
        let mut p = p0.clone();
        factor_panel(p.mt(), &w, RepKind::VY2, 0, 1e-13, 1.0).unwrap();
        let gram = |x: &Matrix| {
            let mut wx = x.clone();
            for j in 0..m {
                for i in m..2 * m {
                    wx[(i, j)] = -wx[(i, j)];
                }
            }
            let mut g = Matrix::zeros(m, m);
            bs_matrix::gemm(
                1.0,
                x.rf(),
                bs_matrix::Trans::Yes,
                wx.rf(),
                bs_matrix::Trans::No,
                0.0,
                g.mt(),
            );
            g
        };
        assert!(gram(&p0).max_abs_diff(&gram(&p)) < 1e-10);
    }

    #[test]
    fn zero_hyperbolic_norm_is_singular_minor() {
        let m = 1;
        let w = Signature::hyperbolic(m);
        let mut p = Matrix::zeros(2, 1);
        p[(0, 0)] = 1.0;
        p[(1, 0)] = 1.0;
        match factor_panel(p.mt(), &w, RepKind::VY2, 3, 1e-12, 1.0) {
            Err(Error::SingularMinor {
                step: 3, column: 0, ..
            }) => {}
            other => panic!("expected SingularMinor, got {other:?}"),
        }
    }

    #[test]
    fn negative_norm_is_not_positive_definite() {
        let m = 1;
        let w = Signature::hyperbolic(m);
        let mut p = Matrix::zeros(2, 1);
        p[(0, 0)] = 1.0;
        p[(1, 0)] = 2.0;
        assert!(matches!(
            factor_panel(p.mt(), &w, RepKind::VY2, 0, 1e-12, 1.0),
            Err(Error::NotPositiveDefinite { .. })
        ));
    }
}
