//! AVX2+FMA and (behind the `avx512` cargo feature) AVX-512F
//! microkernels for `x86_64`, and the AVX2 compile of the two upper
//! triangular solves.
//!
//! Both microkernels compute each `C(i, j)` entry through the same
//! per-entry accumulation chain as the portable kernel — one partial
//! sum per entry, `p` in packed order — so for a fixed kernel choice
//! results stay bitwise identical across any strip decomposition. They
//! differ from the portable kernel only in using fused multiply-add
//! (one rounding per term instead of two), which is why switching
//! kernels may change the last bits while switching thread counts
//! never does.
//!
//! The triangular-solve wrappers enable `avx2` only and call the same
//! source as the baseline compile. Rust never contracts `a*b + c` into
//! an FMA, so they return the baseline's bits at twice its vector width.

use super::{MR, NR};
use crate::blas2;
use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};
use crate::Result;
use std::arch::x86_64::*;

/// [`blas2::trsv_upper_t`]'s body compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
// SAFETY: [isa avx2 — reached only from `trsv_upper_t`, which calls it
// when `active_isa` resolves an AVX2-capable ISA]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn trsv_upper_t_avx2<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    blas2::upper_t_body(a, b)
}

/// [`blas2::trsv_upper`]'s body compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
// SAFETY: [isa avx2 — reached only from `trsv_upper`, which calls it
// when `active_isa` resolves an AVX2-capable ISA]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn trsv_upper_avx2<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    blas2::upper_body(a, b)
}

/// `MR x NR` microkernel on AVX2+FMA: each of the `NR` accumulator
/// columns is a pair of 4-lane `__m256d` registers covering the 8 rows.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. `apanel`/`bpanel` must hold at
/// least `kc * MR` / `kc * NR` elements (slice indexing enforces this;
/// an out-of-contract call panics rather than reads out of bounds).
// SAFETY: [isa avx2,fma — reached only through `kernel_for`, which
// checks `is_x86_feature_detected!` for both features at runtime]
// [bounds every load and store goes through bounds-checked slice
// indexing of `apanel`, `bpanel`, and the output column]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)] // BLIS-style kernels take the full tile geometry
pub(crate) unsafe fn micro_8x4_avx2(
    apanel: &[f64],
    bpanel: &[f64],
    kc: usize,
    mut c: MatMut<'_>,
    ci: usize,
    cj: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[_mm256_setzero_pd(); 2]; NR];
    for p in 0..kc {
        let av: &[f64] = &apanel[p * MR..p * MR + MR];
        let bv: &[f64] = &bpanel[p * NR..p * NR + NR];
        let alo = _mm256_loadu_pd(av.as_ptr());
        let ahi = _mm256_loadu_pd(av.as_ptr().add(4));
        for j in 0..NR {
            let bj = _mm256_set1_pd(bv[j]);
            acc[j][0] = _mm256_fmadd_pd(alo, bj, acc[j][0]);
            acc[j][1] = _mm256_fmadd_pd(ahi, bj, acc[j][1]);
        }
    }
    for j in 0..nr {
        let col = c.col_mut(cj + j);
        let dst: &mut [f64] = &mut col[ci..ci + mr];
        if mr == MR {
            let p = dst.as_mut_ptr();
            _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), acc[j][0]));
            let ph = p.add(4);
            _mm256_storeu_pd(ph, _mm256_add_pd(_mm256_loadu_pd(ph), acc[j][1]));
        } else {
            let mut tmp = [0.0f64; MR];
            _mm256_storeu_pd(tmp.as_mut_ptr(), acc[j][0]);
            _mm256_storeu_pd(tmp.as_mut_ptr().add(4), acc[j][1]);
            for (d, t) in dst.iter_mut().zip(tmp.iter()) {
                *d += *t;
            }
        }
    }
}

/// f32 microkernel on AVX2+FMA covering a double-height `2*MR x NR`
/// (16 x 4) register tile. With 8-lane f32 registers one `__m256` holds
/// a full MR-row column, so an MR-high tile would leave only `NR` = 4
/// independent FMA chains — too few to hide FMA latency, capping the
/// kernel near the f64 rate. Spanning two *adjacent* packed A panels
/// (the pack layout is unchanged; the second panel starts at `kc * MR`)
/// doubles that to 2·`NR` chains — the same accumulator structure as
/// the f64 kernel at twice the rows per register, which is where the
/// f32 path's ≥1.5x Gflop/s comes from. The macrokernel strides `ir` by
/// [`Kernel::micro_rows`] and passes `mr <= MR` only for the tail tile,
/// which takes the single-panel branch and never touches the second
/// panel. Either branch accumulates every `C` entry through one partial
/// sum in packed `p` order, so results stay bitwise identical across
/// strip decompositions, thread counts, and `mr` groupings. Also
/// dispatched for AVX-512F requests (one 512-bit register would span
/// two column tiles; a double-height 256-bit tile gets the chain count
/// without a separate code path).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. `apanel` must hold at least
/// `kc * MR` elements — `2 * kc * MR` when `mr > MR` — and `bpanel` at
/// least `kc * NR` (slice indexing enforces this; an out-of-contract
/// call panics rather than reads out of bounds).
// SAFETY: [isa avx2,fma — reached only through `kernel_for`, which
// checks `is_x86_feature_detected!` for both features at runtime]
// [bounds slice indexing of `apanel` (two adjacent packed panels when
// `mr` exceeds `MR`), `bpanel`, and the output column bounds-checks
// every load and store]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)] // BLIS-style kernels take the full tile geometry
pub(crate) unsafe fn micro_16x4_avx2_f32(
    apanel: &[f32],
    bpanel: &[f32],
    kc: usize,
    mut c: MatMut<'_, f32>,
    ci: usize,
    cj: usize,
    mr: usize,
    nr: usize,
) {
    if mr > MR {
        let hi: &[f32] = &apanel[kc * MR..];
        let mut acc = [[_mm256_setzero_ps(); 2]; NR];
        for p in 0..kc {
            let av0: &[f32] = &apanel[p * MR..p * MR + MR];
            let av1: &[f32] = &hi[p * MR..p * MR + MR];
            let bv: &[f32] = &bpanel[p * NR..p * NR + NR];
            let alo = _mm256_loadu_ps(av0.as_ptr());
            let ahi = _mm256_loadu_ps(av1.as_ptr());
            for j in 0..NR {
                let bj = _mm256_set1_ps(bv[j]);
                acc[j][0] = _mm256_fmadd_ps(alo, bj, acc[j][0]);
                acc[j][1] = _mm256_fmadd_ps(ahi, bj, acc[j][1]);
            }
        }
        for j in 0..nr {
            let col = c.col_mut(cj + j);
            let dst: &mut [f32] = &mut col[ci..ci + mr];
            // mr > MR: the low panel's 8 rows are all live.
            let p = dst.as_mut_ptr();
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), acc[j][0]));
            if mr == 2 * MR {
                let ph = p.add(MR);
                _mm256_storeu_ps(ph, _mm256_add_ps(_mm256_loadu_ps(ph), acc[j][1]));
            } else {
                let mut tmp = [0.0f32; MR];
                _mm256_storeu_ps(tmp.as_mut_ptr(), acc[j][1]);
                for (d, t) in dst[MR..].iter_mut().zip(tmp.iter()) {
                    *d += *t;
                }
            }
        }
        return;
    }
    let mut acc = [_mm256_setzero_ps(); NR];
    for p in 0..kc {
        let av: &[f32] = &apanel[p * MR..p * MR + MR];
        let bv: &[f32] = &bpanel[p * NR..p * NR + NR];
        let a8 = _mm256_loadu_ps(av.as_ptr());
        for j in 0..NR {
            let bj = _mm256_set1_ps(bv[j]);
            acc[j] = _mm256_fmadd_ps(a8, bj, acc[j]);
        }
    }
    for j in 0..nr {
        let col = c.col_mut(cj + j);
        let dst: &mut [f32] = &mut col[ci..ci + mr];
        if mr == MR {
            let p = dst.as_mut_ptr();
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), acc[j]));
        } else {
            let mut tmp = [0.0f32; MR];
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc[j]);
            for (d, t) in dst.iter_mut().zip(tmp.iter()) {
                *d += *t;
            }
        }
    }
}

/// `MR x NR` microkernel on AVX-512F: one 8-lane `__m512d` accumulator
/// per column covers the whole register tile.
///
/// # Safety
///
/// The CPU must support AVX-512F. `apanel`/`bpanel` must hold at least
/// `kc * MR` / `kc * NR` elements (slice indexing enforces this).
#[cfg(feature = "avx512")]
// SAFETY: [isa avx512f — reached only through `kernel_for`, which
// checks `is_x86_feature_detected!` for the feature at runtime]
// [bounds every load and store goes through bounds-checked slice
// indexing of `apanel`, `bpanel`, and the output column]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)] // BLIS-style kernels take the full tile geometry
pub(crate) unsafe fn micro_8x4_avx512(
    apanel: &[f64],
    bpanel: &[f64],
    kc: usize,
    mut c: MatMut<'_>,
    ci: usize,
    cj: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [_mm512_setzero_pd(); NR];
    for p in 0..kc {
        let av: &[f64] = &apanel[p * MR..p * MR + MR];
        let bv: &[f64] = &bpanel[p * NR..p * NR + NR];
        let a8 = _mm512_loadu_pd(av.as_ptr());
        for j in 0..NR {
            let bj = _mm512_set1_pd(bv[j]);
            acc[j] = _mm512_fmadd_pd(a8, bj, acc[j]);
        }
    }
    for j in 0..nr {
        let col = c.col_mut(cj + j);
        let dst: &mut [f64] = &mut col[ci..ci + mr];
        if mr == MR {
            let p = dst.as_mut_ptr();
            _mm512_storeu_pd(p, _mm512_add_pd(_mm512_loadu_pd(p), acc[j]));
        } else {
            let mut tmp = [0.0f64; MR];
            _mm512_storeu_pd(tmp.as_mut_ptr(), acc[j]);
            for (d, t) in dst.iter_mut().zip(tmp.iter()) {
                *d += *t;
            }
        }
    }
}
