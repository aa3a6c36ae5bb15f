//! Level-3 kernels: general matrix multiply (packed, cache-blocked),
//! symmetric rank-k update, and triangular solves with multiple
//! right-hand sides. Parallel callers split their own work into column
//! strips on [`crate::par`] and run these kernels per strip.
//!
//! The paper's whole premise is that block algorithms are "rich in
//! level-3 BLAS operations" (§1) and that BLAS3 on larger operands runs
//! at a higher rate than BLAS1/2 on small ones. The blocked `gemm` here
//! reproduces that behaviour on a modern cache hierarchy: a packed
//! BLIS-style loop nest whose `MR x NR` register microkernel is
//! runtime-dispatched to the best SIMD the machine supports (see
//! [`crate::kernel`]), with cache-block extents autotuned from the
//! detected hierarchy (see [`crate::kernel::tuning`]). `syrk` and
//! `trsm` route their bulk work through the same packed engine: `syrk`
//! builds its triangle from packed sub-products, and `trsm` solves in
//! diagonal blocks whose trailing updates are packed GEMMs.

use crate::blas1;
use crate::blas2;
use crate::flops;
use crate::kernel::{self, pack, tuning, Kernel, MR, NR};
use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};
use crate::workspace::Workspace;
use crate::{Error, Result};
use bs_probe::metrics::{self, Counter};
use std::time::Instant;

/// Transposition flag for `gemm` operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    No,
    Yes,
}

/// Which triangle of a symmetric/triangular matrix is referenced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uplo {
    Lower,
    Upper,
}

/// Which side a triangular factor multiplies from in `trsm`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

#[inline]
fn op_rows<T: Scalar>(a: MatRef<'_, T>, t: Trans) -> usize {
    match t {
        Trans::No => a.rows(),
        Trans::Yes => a.cols(),
    }
}

#[inline]
fn op_cols<T: Scalar>(a: MatRef<'_, T>, t: Trans) -> usize {
    match t {
        Trans::No => a.cols(),
        Trans::Yes => a.rows(),
    }
}

#[inline]
fn op_get<T: Scalar>(a: MatRef<'_, T>, t: Trans, i: usize, j: usize) -> T {
    match t {
        Trans::No => a.get(i, j),
        Trans::Yes => a.get(j, i),
    }
}

/// Whether a `gemm` of these full-problem dimensions takes the packed
/// path. The packed path only pays when every dimension offers reuse;
/// with any extent below a register-tile's worth, packing traffic
/// dominates and the direct column-axpy loop is faster.
///
/// Shared by the dispatch and the calibration harness so both agree on
/// which kernel a shape runs.
#[inline]
pub(crate) fn uses_packed(m: usize, n: usize, k: usize) -> bool {
    !(m < 16 || n < 16 || k < 16 || m * n * k <= 16 * 16 * 16)
}

/// General matrix multiply: `C <- alpha * op(A) op(B) + beta * C`.
///
/// Shapes: `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`.
pub fn gemm<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    ta: Trans,
    b: MatRef<'_, T>,
    tb: Trans,
    beta: T,
    c: MatMut<'_, T>,
) {
    gemm_dispatch(alpha, a, ta, b, tb, beta, c, None);
}

/// [`gemm`] with packing buffers checked out of `ws` instead of heap
/// allocated — the form the warm factorization path uses so repeated
/// multiplies of the same shape allocate nothing.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS gemm signature plus the arena
pub fn gemm_ws<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    ta: Trans,
    b: MatRef<'_, T>,
    tb: Trans,
    beta: T,
    c: MatMut<'_, T>,
    ws: &mut Workspace<T>,
) {
    gemm_dispatch(alpha, a, ta, b, tb, beta, c, Some(ws));
}

#[allow(clippy::too_many_arguments)] // internal driver mirrors the BLAS signature
fn gemm_dispatch<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    ta: Trans,
    b: MatRef<'_, T>,
    tb: Trans,
    beta: T,
    mut c: MatMut<'_, T>,
    ws: Option<&mut Workspace<T>>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = op_cols(a, ta);
    assert_eq!(op_rows(a, ta), m, "gemm: op(A) rows vs C rows");
    assert_eq!(op_rows(b, tb), k, "gemm: op(B) rows vs op(A) cols");
    assert_eq!(op_cols(b, tb), n, "gemm: op(B) cols vs C cols");

    scale_c(beta, c.rb_mut());
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    flops::add_l3(2 * (m * n * k) as u64);
    metrics::add(
        Counter::BytesMoved,
        (T::BYTES * (m * k + k * n + 2 * m * n)) as u64,
    );

    if !uses_packed(m, n, k) {
        gemm_naive_acc(alpha, a, ta, b, tb, c);
        return;
    }
    gemm_blocked(alpha, a, ta, b, tb, c, ws, kernel::active::<T>());
}

#[inline]
fn scale_c<T: Scalar>(beta: T, mut c: MatMut<'_, T>) {
    // bs-lint: allow(float-eq) -- scale_c fast paths: beta exactly 1.0 (no-op) and 0.0 (fill) are BLAS sentinel values, never computed results
    if beta == T::ONE {
        return;
    }
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else {
        for j in 0..c.cols() {
            blas1::scal(beta, c.col_mut(j));
        }
    }
}

/// Reference triple loop, accumulating into C (C already scaled by beta).
pub(crate) fn gemm_naive_acc<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    ta: Trans,
    b: MatRef<'_, T>,
    tb: Trans,
    mut c: MatMut<'_, T>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = op_cols(a, ta);
    for j in 0..n {
        for p in 0..k {
            let bpj = alpha * op_get(b, tb, p, j);
            if bpj == T::ZERO {
                continue;
            }
            match ta {
                Trans::No => {
                    // column p of A is contiguous
                    let acol = a.col(p);
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] += bpj * acol[i];
                    }
                }
                Trans::Yes => {
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] += bpj * a.get(p, i);
                    }
                }
            }
        }
    }
}

/// Packed, cache-blocked gemm (C already scaled by beta; alpha folded in
/// during packing of A). The register microkernel is `kern` — resolved
/// once by the caller so one multiply never mixes ISAs — and the cache
/// blocking comes from the [`tuning`] autotuner.
#[allow(clippy::too_many_arguments)] // internal engine: BLAS signature plus arena and kernel
pub(crate) fn gemm_blocked<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    ta: Trans,
    b: MatRef<'_, T>,
    tb: Trans,
    mut c: MatMut<'_, T>,
    ws: Option<&mut Workspace<T>>,
    kern: Kernel<T>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = op_cols(a, ta);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    metrics::incr(Counter::KernelDispatches);
    let t0 = Instant::now();
    let bl = tuning::blocking();

    // The packing buffers are the only heap traffic in the kernel; a
    // caller-supplied workspace turns them into pool checkouts. Sized
    // for the problem at hand, not the worst-case cache block, so small
    // multiplies don't drag full-block buffers out of the pool.
    let apack_len = m.min(bl.mc).div_ceil(MR) * MR * k.min(bl.kc);
    let bpack_len = k.min(bl.kc) * n.min(bl.nc).div_ceil(NR) * NR;
    let (mut apack, mut bpack, ws) = match ws {
        Some(ws) => {
            let a = ws.take_vec(apack_len);
            let b = ws.take_vec(bpack_len);
            (a, b, Some(ws))
        }
        // bs-lint: allow(no-alloc-hot) -- fallback for callers without a Workspace; pooled callers take the branch above
        None => (vec![T::ZERO; apack_len], vec![T::ZERO; bpack_len], None),
    };

    let mut jc = 0;
    while jc < n {
        let nc = bl.nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = bl.kc.min(k - pc);
            pack::pack_b(&mut bpack, b, tb, pc, jc, kc, nc);
            let mut ic = 0;
            while ic < m {
                let mc = bl.mc.min(m - ic);
                pack::pack_a(&mut apack, a, ta, alpha, ic, pc, mc, kc);
                macro_kernel(&apack, &bpack, mc, nc, kc, c.rb_mut(), ic, jc, kern);
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
    if let Some(ws) = ws {
        ws.give_vec(apack);
        ws.give_vec(bpack);
    }
    let isa = kern.isa();
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    metrics::add(T::kernel_flops_counter(isa), 2 * (m * n * k) as u64);
    metrics::add(T::kernel_nanos_counter(isa), elapsed_ns);
    bs_probe::histogram::record(bs_probe::histogram::Hist::KernelCallNs, elapsed_ns);
}

#[allow(clippy::too_many_arguments)] // BLIS-style kernels take the full tile geometry
fn macro_kernel<T: Scalar>(
    apack: &[T],
    bpack: &[T],
    mc: usize,
    nc: usize,
    kc: usize,
    mut c: MatMut<'_, T>,
    ic: usize,
    jc: usize,
    kern: Kernel<T>,
) {
    // `ir` strides by the kernel's tile height — `MR`, or `2 * MR` for
    // the double-height f32 AVX2 kernel, whose calls with `mr > MR`
    // read the second adjacent packed panel.
    let step = kern.micro_rows();
    let mut jr = 0;
    while jr < nc {
        let nr = NR.min(nc - jr);
        let bpanel = &bpack[(jr / NR) * kc * NR..];
        let mut ir = 0;
        while ir < mc {
            let mr = step.min(mc - ir);
            let apanel = &apack[(ir / MR) * kc * MR..];
            // SAFETY: [isa `kernel_for` hands out a SIMD microkernel
            // only after runtime ISA detection] [bounds the panels
            // hold at least kc*MR / kc*NR elements — 2*kc*MR when
            // `mr` exceeds `MR`, which `pack_a` filled — and every
            // kernel indexes them through bounds-checked slices]
            unsafe { (kern.micro)(apanel, bpanel, kc, c.rb_mut(), ic + ir, jc + jr, mr, nr) };
            ir += step;
        }
        jr += NR;
    }
}

/// Whether a `syrk` of order `n`, depth `k` builds its triangle from
/// packed sub-products instead of the direct dot loop.
#[inline]
pub(crate) fn syrk_uses_packed(n: usize, k: usize) -> bool {
    n >= 16 && k >= 16
}

/// Column-block width of the packed `syrk` path: each block of the
/// triangle is one packed GEMM of `nb` columns against the rows at and
/// below (or above) it.
const SYRK_NB: usize = 64;

/// Symmetric rank-k update on the `uplo` triangle:
/// `C <- alpha * A Aᵀ + beta * C` (`trans = No`, `A` is `n x k`) or
/// `C <- alpha * Aᵀ A + beta * C` (`trans = Yes`, `A` is `k x n`).
///
/// Only the requested triangle of `C` is read or written. Large updates
/// route through the packed SIMD engine; small ones use the direct dot
/// loop.
pub fn syrk<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let n = c.rows();
    assert_eq!(c.cols(), n, "syrk: C must be square");
    assert_eq!(op_rows(a, trans), n, "syrk: op(A) rows vs C order");
    let k = op_cols(a, trans);
    flops::add_l3((n * n * k) as u64 + (n * n) as u64);
    metrics::add(Counter::BytesMoved, (T::BYTES * (n * k + n * n)) as u64);
    if syrk_uses_packed(n, k) {
        syrk_packed(uplo, trans, alpha, a, beta, c.rb_mut());
    } else {
        syrk_dots(uplo, trans, alpha, a, beta, c.rb_mut());
    }
}

/// The direct path of [`syrk`]: every `C(i, j)` entry of the triangle
/// is one fixed-order dot product.
fn syrk_dots<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let n = c.rows();
    let k = op_cols(a, trans);
    // Row i of op(A) dotted with row j of op(A).
    let dot_rows = |i: usize, j: usize| -> T {
        match trans {
            Trans::No => {
                let mut s = T::ZERO;
                for p in 0..k {
                    s += a.get(i, p) * a.get(j, p);
                }
                s
            }
            // opposite orientation: rows of Aᵀ are columns of A (contiguous)
            Trans::Yes => blas1::dot(a.col(i), a.col(j)),
        }
    };
    for j in 0..n {
        match uplo {
            Uplo::Lower => {
                for i in j..n {
                    let v = alpha * dot_rows(i, j) + beta * c.get(i, j);
                    c.set(i, j, v);
                }
            }
            Uplo::Upper => {
                for i in 0..=j {
                    let v = alpha * dot_rows(i, j) + beta * c.get(i, j);
                    c.set(i, j, v);
                }
            }
        }
    }
}

/// The *packed* path of [`syrk`]: the columns are processed in
/// [`SYRK_NB`]-wide blocks, each computed as a packed GEMM of the
/// triangle rows against the block's rows of `op(A)`, staged through a
/// scratch rectangle so only the triangle is written back.
fn syrk_packed<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let n = c.rows();
    let k = op_cols(a, trans);
    // Resolved once so a concurrent override flip cannot mix ISAs
    // across the blocks of one update.
    let kern = kernel::active::<T>();
    let mut jb = 0;
    while jb < n {
        let nb = SYRK_NB.min(n - jb);
        // Rows of the triangle this block touches.
        let (r0, r1) = match uplo {
            Uplo::Lower => (jb, n),
            Uplo::Upper => (0, jb + nb),
        };
        let rows = r1 - r0;
        // bs-lint: allow(no-alloc-hot) -- syrk packed path heap-allocates its nb-column staging per block; only the one-shot dense Cholesky calls syrk, never the warm elimination loop
        let mut tmp = vec![T::ZERO; rows * nb];
        {
            let tm = MatMut::from_parts(&mut tmp, rows, nb, rows);
            // tmp <- alpha * op(A)[r0..r1, :] * op(A)[jb..jb+nb, :]ᵀ
            match trans {
                Trans::No => gemm_blocked(
                    alpha,
                    a.sub(r0, 0, rows, k),
                    Trans::No,
                    a.sub(jb, 0, nb, k),
                    Trans::Yes,
                    tm,
                    None,
                    kern,
                ),
                Trans::Yes => gemm_blocked(
                    alpha,
                    a.sub(0, r0, k, rows),
                    Trans::Yes,
                    a.sub(0, jb, k, nb),
                    Trans::No,
                    tm,
                    None,
                    kern,
                ),
            }
        }
        for j in 0..nb {
            let jj = jb + j;
            let tcol = &tmp[j * rows..(j + 1) * rows];
            let ccol = c.col_mut(jj);
            let (i0, i1) = match uplo {
                Uplo::Lower => (jj, n),
                Uplo::Upper => (0, jj + 1),
            };
            for i in i0..i1 {
                ccol[i] = tcol[i - r0] + beta * ccol[i];
            }
        }
        jb += nb;
    }
}

/// Order above which `trsm` solves in diagonal blocks with packed-GEMM
/// trailing updates instead of whole-triangle vector solves.
const TRSM_NB: usize = 32;

/// Triangular solve with multiple right-hand sides.
///
/// - `Side::Left`:  solves `op(A) X = alpha * B`, overwriting `B` with `X`.
/// - `Side::Right`: solves `X op(A) = alpha * B`, overwriting `B` with `X`.
///
/// `A` must be square triangular per `uplo`; `unit_diag` treats its
/// diagonal as ones. Orders above `TRSM_NB` solve blockwise so the
/// bulk of the work runs in the packed SIMD engine.
pub fn trsm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    unit_diag: bool,
    alpha: T,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) -> Result<()> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "trsm: A must be square");
    match side {
        Side::Left => assert_eq!(b.rows(), n, "trsm left: A order vs B rows"),
        Side::Right => assert_eq!(b.cols(), n, "trsm right: A order vs B cols"),
    }
    // bs-lint: allow(float-eq) -- BLAS convention: alpha = 1.0 exactly means "skip the scale", not a computed value
    if alpha != T::ONE {
        for j in 0..b.cols() {
            blas1::scal(alpha, b.col_mut(j));
        }
    }
    match side {
        Side::Left => {
            if n > TRSM_NB {
                return trsm_left_blocked(uplo, trans, unit_diag, a, b, kernel::active::<T>());
            }
            for j in 0..b.cols() {
                trsm_left_col(uplo, trans, unit_diag, a, b.col_mut(j))?;
            }
            Ok(())
        }
        Side::Right => {
            if n > TRSM_NB {
                return trsm_right_blocked(uplo, trans, unit_diag, a, b, kernel::active::<T>());
            }
            // X op(A) = B  <=>  op(A)ᵀ Xᵀ = Bᵀ: solve row by row of B.
            let m = b.rows();
            // bs-lint: allow(no-alloc-hot) -- one order-n row-staging buffer per small right-side trsm; its callers (generator build, dense Cholesky) run once per factorization
            let mut row = vec![T::ZERO; n];
            (0..m).try_for_each(|i| {
                for j in 0..n {
                    row[j] = b.get(i, j);
                }
                match (uplo, trans) {
                    // op(A)=A lower => Aᵀ (upper) solves the transposed system
                    (Uplo::Lower, Trans::No) => blas2::trsv_lower_t(a, &mut row)?,
                    (Uplo::Lower, Trans::Yes) => blas2::trsv_lower(a, &mut row, unit_diag)?,
                    (Uplo::Upper, Trans::No) => blas2::trsv_upper_t(a, &mut row)?,
                    (Uplo::Upper, Trans::Yes) => blas2::trsv_upper(a, &mut row)?,
                }
                for j in 0..n {
                    b.set(i, j, row[j]);
                }
                Ok(())
            })
        }
    }
}

/// Map a block-local singular diagnosis to the global diagonal index.
fn offset_singular(e: Error, off: usize) -> Error {
    match e {
        Error::SingularTriangle { index } => Error::SingularTriangle { index: index + off },
        other => other,
    }
}

/// A trailing/leading update inside the blocked `trsm`: charges the
/// usual level-3 accounting and always runs the packed engine, so the
/// per-column accumulation chains are independent of how `B`'s columns
/// are stripped.
fn gemm_update<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    ta: Trans,
    b: MatRef<'_, T>,
    tb: Trans,
    c: MatMut<'_, T>,
    kern: Kernel<T>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = op_cols(a, ta);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    flops::add_l3(2 * (m * n * k) as u64);
    metrics::add(
        Counter::BytesMoved,
        (T::BYTES * (m * k + k * n + 2 * m * n)) as u64,
    );
    gemm_blocked(alpha, a, ta, b, tb, c, None, kern);
}

/// Blocked `Side::Left` solve: `op(A) X = B` in [`TRSM_NB`]-order
/// diagonal blocks. Each block's columns are solved by the level-2
/// kernels, then the solved block (staged contiguously in `xbuf`)
/// updates the remaining rows through one packed GEMM.
///
/// Flop accounting is conserved against the per-column solve: for each
/// column, `Σ nb²` (block solves) plus `2 Σ nb·rest` (updates) equals
/// the `n²` the whole-triangle solve charges.
fn trsm_left_blocked<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    unit_diag: bool,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
    kern: Kernel<T>,
) -> Result<()> {
    let ncols = b.cols();
    if ncols == 0 {
        return Ok(());
    }
    // bs-lint: allow(no-alloc-hot) -- trsm-left block buffer, one per blocked solve; trsm runs outside the warm elimination loop
    let mut xbuf = vec![T::ZERO; TRSM_NB * ncols];
    let n = a.rows();
    // Forward when op(A) is lower triangular (solve top block first).
    let forward = matches!(
        (uplo, trans),
        (Uplo::Lower, Trans::No) | (Uplo::Upper, Trans::Yes)
    );
    let nblocks = n.div_ceil(TRSM_NB);
    for step in 0..nblocks {
        let bi = if forward { step } else { nblocks - 1 - step };
        let kb = bi * TRSM_NB;
        let nb = TRSM_NB.min(n - kb);
        let adiag = a.sub(kb, kb, nb, nb);
        // Solve the diagonal block column by column, staging the solved
        // block contiguously (column-major, leading dimension nb) so the
        // update below can read it while the rest of B is written.
        for j in 0..ncols {
            let col = &mut b.col_mut(j)[kb..kb + nb];
            trsm_left_col(uplo, trans, unit_diag, adiag, col)
                .map_err(|e| offset_singular(e, kb))?;
            xbuf[j * nb..(j + 1) * nb].copy_from_slice(col);
        }
        let xk = MatRef::from_parts(&xbuf[..nb * ncols], nb, ncols, nb);
        let rest = n - kb - nb;
        match (uplo, trans) {
            (Uplo::Lower, Trans::No) if rest > 0 => gemm_update(
                -T::ONE,
                a.sub(kb + nb, kb, rest, nb),
                Trans::No,
                xk,
                Trans::No,
                b.sub_mut(kb + nb, 0, rest, ncols),
                kern,
            ),
            (Uplo::Upper, Trans::Yes) if rest > 0 => gemm_update(
                -T::ONE,
                a.sub(kb, kb + nb, nb, rest),
                Trans::Yes,
                xk,
                Trans::No,
                b.sub_mut(kb + nb, 0, rest, ncols),
                kern,
            ),
            (Uplo::Upper, Trans::No) if kb > 0 => gemm_update(
                -T::ONE,
                a.sub(0, kb, kb, nb),
                Trans::No,
                xk,
                Trans::No,
                b.sub_mut(0, 0, kb, ncols),
                kern,
            ),
            (Uplo::Lower, Trans::Yes) if kb > 0 => gemm_update(
                -T::ONE,
                a.sub(kb, 0, nb, kb),
                Trans::Yes,
                xk,
                Trans::No,
                b.sub_mut(0, 0, kb, ncols),
                kern,
            ),
            _ => {}
        }
    }
    Ok(())
}

/// Blocked `Side::Right` solve: `X op(A) = B` in [`TRSM_NB`]-order
/// diagonal blocks of `op(A)`. Each block of `B`'s columns is solved
/// row by row against the diagonal block (the transposed level-2
/// solves, exactly as the small path), then propagated to the remaining
/// column blocks through one packed GEMM.
fn trsm_right_blocked<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    unit_diag: bool,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
    kern: Kernel<T>,
) -> Result<()> {
    let mut row = [T::ZERO; TRSM_NB];
    let n = a.rows();
    let m = b.rows();
    // Forward (left-to-right over B's column blocks) when op(A) is
    // upper triangular.
    let forward = matches!(
        (uplo, trans),
        (Uplo::Upper, Trans::No) | (Uplo::Lower, Trans::Yes)
    );
    let nblocks = n.div_ceil(TRSM_NB);
    for step in 0..nblocks {
        let bi = if forward { step } else { nblocks - 1 - step };
        let kb = bi * TRSM_NB;
        let nb = TRSM_NB.min(n - kb);
        let adiag = a.sub(kb, kb, nb, nb);
        {
            // Solve X_k op(A_kk) = B_k row by row, as the small path does
            // for the whole triangle.
            let mut bk = b.sub_mut(0, kb, m, nb);
            for i in 0..m {
                let rr = &mut row[..nb];
                for (j, r) in rr.iter_mut().enumerate() {
                    *r = bk.get(i, j);
                }
                match (uplo, trans) {
                    (Uplo::Lower, Trans::No) => blas2::trsv_lower_t(adiag, rr),
                    (Uplo::Lower, Trans::Yes) => blas2::trsv_lower(adiag, rr, unit_diag),
                    (Uplo::Upper, Trans::No) => blas2::trsv_upper_t(adiag, rr),
                    (Uplo::Upper, Trans::Yes) => blas2::trsv_upper(adiag, rr),
                }
                .map_err(|e| offset_singular(e, kb))?;
                for (j, r) in rr.iter().enumerate() {
                    bk.set(i, j, *r);
                }
            }
        }
        // Propagate the solved block into the not-yet-solved columns:
        // B_j -= X_k op(A)_{kj}.
        if forward && kb + nb < n {
            let rest = n - kb - nb;
            let bv = b.rb_mut();
            let (xpart, mut target) = bv.split_at_col(kb + nb);
            let xk = xpart.rb().sub(0, kb, m, nb);
            let (ap, tb2) = match (uplo, trans) {
                (Uplo::Upper, Trans::No) => (a.sub(kb, kb + nb, nb, rest), Trans::No),
                _ => (a.sub(kb + nb, kb, rest, nb), Trans::Yes), // (Lower, Yes)
            };
            gemm_update(-T::ONE, xk, Trans::No, ap, tb2, target.rb_mut(), kern);
        } else if !forward && kb > 0 {
            let bv = b.rb_mut();
            let (mut target, xpart) = bv.split_at_col(kb);
            let xk = xpart.rb().sub(0, 0, m, nb);
            let (ap, tb2) = match (uplo, trans) {
                (Uplo::Lower, Trans::No) => (a.sub(kb, 0, nb, kb), Trans::No),
                _ => (a.sub(0, kb, kb, nb), Trans::Yes), // (Upper, Yes)
            };
            gemm_update(-T::ONE, xk, Trans::No, ap, tb2, target.rb_mut(), kern);
        }
    }
    Ok(())
}

/// One column of a `Side::Left` triangular solve (also the
/// diagonal-block solve of the blocked path).
fn trsm_left_col<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    unit_diag: bool,
    a: MatRef<'_, T>,
    col: &mut [T],
) -> Result<()> {
    match (uplo, trans) {
        (Uplo::Lower, Trans::No) => blas2::trsv_lower(a, col, unit_diag),
        (Uplo::Lower, Trans::Yes) => {
            if unit_diag {
                trsv_lower_t_unit(a, col)
            } else {
                blas2::trsv_lower_t(a, col)
            }
        }
        (Uplo::Upper, Trans::No) => {
            if unit_diag {
                trsv_upper_unit(a, col)
            } else {
                blas2::trsv_upper(a, col)
            }
        }
        (Uplo::Upper, Trans::Yes) => {
            if unit_diag {
                trsv_upper_t_unit(a, col)
            } else {
                blas2::trsv_upper_t(a, col)
            }
        }
    }
}

fn trsv_lower_t_unit<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    let n = a.rows();
    metrics::incr(Counter::TriangularSolves);
    flops::add_l2((n * n) as u64);
    for j in (0..n).rev() {
        let col = a.col(j);
        let mut s = b[j];
        for i in j + 1..n {
            s -= col[i] * b[i];
        }
        b[j] = s;
    }
    Ok(())
}

fn trsv_upper_unit<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    let n = a.rows();
    metrics::incr(Counter::TriangularSolves);
    flops::add_l2((n * n) as u64);
    for j in (0..n).rev() {
        let bj = b[j];
        if bj != T::ZERO {
            let col = a.col(j);
            for i in 0..j {
                b[i] -= bj * col[i];
            }
        }
    }
    Ok(())
}

fn trsv_upper_t_unit<T: Scalar>(a: MatRef<'_, T>, b: &mut [T]) -> Result<()> {
    let n = a.rows();
    metrics::incr(Counter::TriangularSolves);
    flops::add_l2((n * n) as u64);
    for j in 0..n {
        let col = a.col(j);
        let mut s = b[j];
        for i in 0..j {
            s -= col[i] * b[i];
        }
        b[j] = s;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random fill (keeps this module free
        // of the rand dependency).
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 1000) as f64 - 500.0) / 250.0
        })
    }

    fn gemm_ref(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn gemm_matches_reference_over_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (8, 8, 8),
            (17, 9, 23),
            (64, 32, 48),
            (70, 130, 41),
            (129, 257, 65),
        ] {
            let a = mat(m, k, 1);
            let b = mat(k, n, 2);
            let want = gemm_ref(&a, &b);
            let mut c = Matrix::zeros(m, n);
            gemm(1.0, a.rf(), Trans::No, b.rf(), Trans::No, 0.0, c.mt());
            assert!(
                c.max_abs_diff(&want) < 1e-10,
                "gemm mismatch at shape ({m},{k},{n}): {}",
                c.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn every_supported_microkernel_matches_reference() {
        use crate::kernel::Isa;
        let shapes = [(17, 9, 23), (40, 64, 33), (64, 32, 48), (129, 300, 65)];
        for isa in [Isa::Portable, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            if !kernel::isa_supported(isa) {
                continue;
            }
            let kern = kernel::kernel_for(isa);
            for &(m, k, n) in &shapes {
                let a = mat(m, k, 60);
                let b = mat(k, n, 61);
                let want = gemm_ref(&a, &b);
                let mut c = Matrix::zeros(m, n);
                gemm_blocked(
                    1.0,
                    a.rf(),
                    Trans::No,
                    b.rf(),
                    Trans::No,
                    c.mt(),
                    None,
                    kern,
                );
                for j in 0..n {
                    for i in 0..m {
                        let w = want[(i, j)];
                        let d = (c[(i, j)] - w).abs();
                        assert!(
                            d <= 1e-11 * (1.0 + w.abs()),
                            "isa={isa:?} shape=({m},{k},{n}) entry=({i},{j}) diff={d}"
                        );
                    }
                }
            }
            // Transpose coverage per kernel at one odd shape.
            let (m, k, n) = (33, 40, 29);
            let a = mat(m, k, 62);
            let b = mat(k, n, 63);
            let want = gemm_ref(&a, &b);
            let at = a.transpose();
            let bt = b.transpose();
            for (ta, tb, aa, bb) in [
                (Trans::Yes, Trans::No, &at, &b),
                (Trans::No, Trans::Yes, &a, &bt),
                (Trans::Yes, Trans::Yes, &at, &bt),
            ] {
                let mut c = Matrix::zeros(m, n);
                gemm_blocked(1.0, aa.rf(), ta, bb.rf(), tb, c.mt(), None, kern);
                assert!(
                    c.max_abs_diff(&want) < 1e-10,
                    "isa={isa:?} ta={ta:?} tb={tb:?}"
                );
            }
        }
    }

    #[test]
    fn f32_microkernels_match_reference_across_tile_edges() {
        use crate::kernel::Isa;
        // Shapes chosen to exercise every `mr` path of the double-height
        // f32 AVX2 kernel: sub-MR tails, a 9..=15 partial second panel,
        // full 16-row tiles, and multi-block strides.
        let shapes = [
            (7, 5, 3),
            (13, 9, 23),
            (25, 40, 33),
            (64, 32, 48),
            (129, 300, 65),
        ];
        for isa in [Isa::Portable, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            if !kernel::isa_supported(isa) {
                continue;
            }
            let kern: Kernel<f32> = kernel::kernel_for(isa);
            for &(m, k, n) in &shapes {
                let a = mat(m, k, 80);
                let b = mat(k, n, 81);
                let want = gemm_ref(&a, &b);
                let a32 = a.convert::<f32>();
                let b32 = b.convert::<f32>();
                let mut c = Matrix::<f32>::zeros(m, n);
                gemm_blocked(
                    1.0f32,
                    a32.rf(),
                    Trans::No,
                    b32.rf(),
                    Trans::No,
                    c.mt(),
                    None,
                    kern,
                );
                for j in 0..n {
                    for i in 0..m {
                        let w = want[(i, j)];
                        let d = (c[(i, j)] as f64 - w).abs();
                        // f32 working precision over a k-long sum, not a
                        // kernel bug, is the only tolerated error.
                        assert!(
                            d <= 1e-3 * (1.0 + w.abs()),
                            "isa={isa:?} shape=({m},{k},{n}) entry=({i},{j}) diff={d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_blocked_charges_kernel_counters() {
        let kern = kernel::active::<f64>();
        let isa = kern.isa();
        let m = 64;
        let a = mat(m, m, 90);
        let b = mat(m, m, 91);
        let mut c = Matrix::zeros(m, m);
        metrics::local_reset(&[Counter::KernelDispatches, isa.flops_counter()]);
        gemm(1.0, a.rf(), Trans::No, b.rf(), Trans::No, 0.0, c.mt());
        assert_eq!(metrics::local_get(Counter::KernelDispatches), 1);
        assert_eq!(
            metrics::local_get(isa.flops_counter()),
            (2 * m * m * m) as u64
        );
    }

    #[test]
    fn gemm_transpose_flags() {
        let m = 13;
        let k = 11;
        let n = 9;
        let a = mat(m, k, 3);
        let b = mat(k, n, 4);
        let want = gemm_ref(&a, &b);
        let at = a.transpose();
        let bt = b.transpose();

        for (ta, tb, aa, bb) in [
            (Trans::Yes, Trans::No, &at, &b),
            (Trans::No, Trans::Yes, &a, &bt),
            (Trans::Yes, Trans::Yes, &at, &bt),
        ] {
            let mut c = Matrix::zeros(m, n);
            gemm(1.0, aa.rf(), ta, bb.rf(), tb, 0.0, c.mt());
            assert!(c.max_abs_diff(&want) < 1e-10, "ta={ta:?} tb={tb:?}");
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = mat(6, 5, 5);
        let b = mat(5, 7, 6);
        let c0 = mat(6, 7, 7);
        let want = {
            let mut w = gemm_ref(&a, &b);
            w.scale(2.0);
            w.axpy(3.0, &c0);
            w
        };
        let mut c = c0.clone();
        gemm(2.0, a.rf(), Trans::No, b.rf(), Trans::No, 3.0, c.mt());
        assert!(c.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn gemm_on_strided_subviews() {
        let big_a = mat(20, 20, 11);
        let big_b = mat(20, 20, 12);
        let mut big_c = Matrix::zeros(20, 20);
        let a = big_a.sub(2, 3, 7, 5).to_matrix();
        let b = big_b.sub(1, 1, 5, 6).to_matrix();
        let want = gemm_ref(&a, &b);
        gemm(
            1.0,
            big_a.sub(2, 3, 7, 5),
            Trans::No,
            big_b.sub(1, 1, 5, 6),
            Trans::No,
            0.0,
            big_c.sub_mut(4, 4, 7, 6),
        );
        assert!(big_c.sub(4, 4, 7, 6).to_matrix().max_abs_diff(&want) < 1e-12);
        // Outside the written window C must remain zero.
        assert_eq!(big_c[(0, 0)], 0.0);
        assert_eq!(big_c[(3, 4)], 0.0);
    }

    #[test]
    fn syrk_lower_matches_gemm() {
        let a = mat(9, 6, 13);
        let at = a.transpose();
        let mut full = Matrix::zeros(9, 9);
        gemm(1.0, a.rf(), Trans::No, at.rf(), Trans::No, 0.0, full.mt());
        let mut c = Matrix::zeros(9, 9);
        syrk(Uplo::Lower, Trans::No, 1.0, a.rf(), 0.0, c.mt());
        for j in 0..9 {
            for i in j..9 {
                assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-10);
            }
            for i in 0..j {
                assert_eq!(c[(i, j)], 0.0, "upper triangle must be untouched");
            }
        }
    }

    #[test]
    fn syrk_trans_upper() {
        let a = mat(6, 9, 14); // k x n, op = Aᵀ A
        let at = a.transpose();
        let mut full = Matrix::zeros(9, 9);
        gemm(1.0, at.rf(), Trans::No, a.rf(), Trans::No, 0.0, full.mt());
        let mut c = Matrix::zeros(9, 9);
        syrk(Uplo::Upper, Trans::Yes, 1.0, a.rf(), 0.0, c.mt());
        for j in 0..9 {
            for i in 0..=j {
                assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn packed_syrk_matches_gemm_and_preserves_opposite_triangle() {
        // n, k both >= 16 so the packed path runs for every variant.
        let n = 45;
        let k = 37;
        let a = mat(n, k, 64);
        let at = a.transpose();
        let c0 = mat(n, n, 65);
        let mut full = Matrix::zeros(n, n);
        gemm(1.0, a.rf(), Trans::No, at.rf(), Trans::No, 0.0, full.mt());
        for (uplo, trans, aa) in [(Uplo::Lower, Trans::No, &a), (Uplo::Upper, Trans::Yes, &at)] {
            assert!(syrk_uses_packed(n, k));
            let mut c = c0.clone();
            syrk(uplo, trans, 1.5, aa.rf(), 0.25, c.mt());
            for j in 0..n {
                for i in 0..n {
                    let in_tri = match uplo {
                        Uplo::Lower => i >= j,
                        Uplo::Upper => i <= j,
                    };
                    if in_tri {
                        let want = 1.5 * full[(i, j)] + 0.25 * c0[(i, j)];
                        assert!((c[(i, j)] - want).abs() < 1e-10, "uplo={uplo:?} ({i},{j})");
                    } else {
                        assert_eq!(
                            c[(i, j)],
                            c0[(i, j)],
                            "uplo={uplo:?}: outside triangle must be untouched"
                        );
                    }
                }
            }
        }
    }

    fn lower_tri(n: usize, seed: u64) -> Matrix {
        let mut l = mat(n, n, seed);
        for j in 0..n {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
            l[(j, j)] = l[(j, j)].abs() + 1.0;
        }
        l
    }

    /// Lower triangle that is diagonally dominant by rows *and*
    /// columns, so every `(uplo, trans)` solve of it (and its
    /// transpose) is well conditioned even at blocked-path orders —
    /// plain random triangles have condition growing like 2ⁿ.
    fn dd_lower_tri(n: usize, seed: u64) -> Matrix {
        let mut l = mat(n, n, seed);
        for j in 0..n {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
        }
        for j in 0..n {
            let mut s = 1.0;
            for p in 0..j {
                s += l[(j, p)].abs();
            }
            for i in j + 1..n {
                s += l[(i, j)].abs();
            }
            l[(j, j)] = s;
        }
        l
    }

    #[test]
    fn trsm_left_lower_roundtrip() {
        let n = 7;
        let l = lower_tri(n, 20);
        let x = mat(n, 4, 21);
        let mut b = Matrix::zeros(n, 4);
        gemm(1.0, l.rf(), Trans::No, x.rf(), Trans::No, 0.0, b.mt());
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            false,
            1.0,
            l.rf(),
            b.mt(),
        )
        .unwrap();
        assert!(b.max_abs_diff(&x) < 1e-10);
    }

    #[test]
    fn trsm_left_transposed_roundtrip() {
        let n = 7;
        let l = lower_tri(n, 22);
        let lt = l.transpose();
        let x = mat(n, 3, 23);
        let mut b = Matrix::zeros(n, 3);
        gemm(1.0, lt.rf(), Trans::No, x.rf(), Trans::No, 0.0, b.mt());
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::Yes,
            false,
            1.0,
            l.rf(),
            b.mt(),
        )
        .unwrap();
        assert!(b.max_abs_diff(&x) < 1e-10);

        let u = lt.clone();
        let mut b2 = Matrix::zeros(n, 3);
        gemm(1.0, u.rf(), Trans::No, x.rf(), Trans::No, 0.0, b2.mt());
        trsm(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            false,
            1.0,
            u.rf(),
            b2.mt(),
        )
        .unwrap();
        assert!(b2.max_abs_diff(&x) < 1e-10);
    }

    #[test]
    fn trsm_right_roundtrip() {
        let n = 6;
        let l = lower_tri(n, 24);
        let x = mat(4, n, 25);
        // B = X * L
        let mut b = Matrix::zeros(4, n);
        gemm(1.0, x.rf(), Trans::No, l.rf(), Trans::No, 0.0, b.mt());
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            false,
            1.0,
            l.rf(),
            b.mt(),
        )
        .unwrap();
        assert!(b.max_abs_diff(&x) < 1e-10);

        // B = X * Lᵀ
        let mut b2 = Matrix::zeros(4, n);
        gemm(1.0, x.rf(), Trans::No, l.rf(), Trans::Yes, 0.0, b2.mt());
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::Yes,
            false,
            1.0,
            l.rf(),
            b2.mt(),
        )
        .unwrap();
        assert!(b2.max_abs_diff(&x) < 1e-10);
    }

    #[test]
    fn blocked_trsm_left_roundtrips_all_cases() {
        // n > TRSM_NB with a non-multiple tail block.
        let n = 97;
        let ncols = 13;
        let l = dd_lower_tri(n, 70);
        let u = l.transpose();
        let x = mat(n, ncols, 71);
        for (uplo, trans, aa) in [
            (Uplo::Lower, Trans::No, &l),
            (Uplo::Lower, Trans::Yes, &l),
            (Uplo::Upper, Trans::No, &u),
            (Uplo::Upper, Trans::Yes, &u),
        ] {
            // B = op(A) X, then solving must recover X.
            let mut b = Matrix::zeros(n, ncols);
            gemm(1.0, aa.rf(), trans, x.rf(), Trans::No, 0.0, b.mt());
            trsm(Side::Left, uplo, trans, false, 1.0, aa.rf(), b.mt()).unwrap();
            assert!(
                b.max_abs_diff(&x) < 1e-8,
                "uplo={uplo:?} trans={trans:?}: {}",
                b.max_abs_diff(&x)
            );
        }
    }

    #[test]
    fn blocked_trsm_right_roundtrips_all_cases() {
        let n = 97;
        let m = 9;
        let l = dd_lower_tri(n, 72);
        let u = l.transpose();
        let x = mat(m, n, 73);
        for (uplo, trans, aa) in [
            (Uplo::Lower, Trans::No, &l),
            (Uplo::Lower, Trans::Yes, &l),
            (Uplo::Upper, Trans::No, &u),
            (Uplo::Upper, Trans::Yes, &u),
        ] {
            // B = X op(A), then solving must recover X.
            let mut b = Matrix::zeros(m, n);
            gemm(1.0, x.rf(), Trans::No, aa.rf(), trans, 0.0, b.mt());
            trsm(Side::Right, uplo, trans, false, 1.0, aa.rf(), b.mt()).unwrap();
            assert!(
                b.max_abs_diff(&x) < 1e-8,
                "uplo={uplo:?} trans={trans:?}: {}",
                b.max_abs_diff(&x)
            );
        }
    }

    #[test]
    fn blocked_trsm_left_unit_diag_ignores_stored_diagonal() {
        let n = 70;
        let ncols = 5;
        // Unit-triangular with small off-diagonals (so the inverse stays
        // bounded) and garbage on the stored diagonal.
        let mut l = mat(n, n, 74);
        for j in 0..n {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
            for i in j + 1..n {
                let v = l[(i, j)] * 0.05;
                l[(i, j)] = v;
            }
            l[(j, j)] = 5.0;
        }
        let mut l1 = l.clone();
        for j in 0..n {
            l1[(j, j)] = 1.0;
        }
        let u = l.transpose();
        let u1 = l1.transpose();
        let x = mat(n, ncols, 75);
        for (uplo, trans, solve_a, mul_a) in [
            (Uplo::Lower, Trans::No, &l, &l1),
            (Uplo::Lower, Trans::Yes, &l, &l1),
            (Uplo::Upper, Trans::No, &u, &u1),
            (Uplo::Upper, Trans::Yes, &u, &u1),
        ] {
            let mut b = Matrix::zeros(n, ncols);
            gemm(1.0, mul_a.rf(), trans, x.rf(), Trans::No, 0.0, b.mt());
            trsm(Side::Left, uplo, trans, true, 1.0, solve_a.rf(), b.mt()).unwrap();
            assert!(
                b.max_abs_diff(&x) < 1e-8,
                "uplo={uplo:?} trans={trans:?}: {}",
                b.max_abs_diff(&x)
            );
        }
    }

    #[test]
    fn blocked_trsm_reports_global_singular_index() {
        // The zero lands in a later diagonal block; the surfaced index
        // must be global, not block-local.
        let n = 70;
        let mut l = dd_lower_tri(n, 76);
        l[(40, 40)] = 0.0;
        let mut b = mat(n, 3, 77);
        let r = trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            false,
            1.0,
            l.rf(),
            b.mt(),
        );
        assert!(matches!(
            r,
            Err(crate::Error::SingularTriangle { index: 40 })
        ));

        let mut l2 = dd_lower_tri(n, 78);
        l2[(55, 55)] = 0.0;
        let mut b2 = mat(3, n, 79);
        let r2 = trsm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            false,
            1.0,
            l2.rf(),
            b2.mt(),
        );
        assert!(matches!(
            r2,
            Err(crate::Error::SingularTriangle { index: 55 })
        ));
    }

    #[test]
    fn trsm_alpha_scales_rhs() {
        let n = 5;
        let l = lower_tri(n, 26);
        let x = mat(n, 2, 27);
        let mut b = Matrix::zeros(n, 2);
        gemm(1.0, l.rf(), Trans::No, x.rf(), Trans::No, 0.0, b.mt());
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            false,
            2.0,
            l.rf(),
            b.mt(),
        )
        .unwrap();
        let mut want = x.clone();
        want.scale(2.0);
        assert!(b.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn trsm_singular_reports_error() {
        let mut l = lower_tri(3, 28);
        l[(1, 1)] = 0.0;
        let mut b = Matrix::zeros(3, 1);
        b[(0, 0)] = 1.0;
        let r = trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            false,
            1.0,
            l.rf(),
            b.mt(),
        );
        assert!(matches!(
            r,
            Err(crate::Error::SingularTriangle { index: 1 })
        ));
    }

    #[test]
    fn gemm_zero_k_behaves_like_scale() {
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = mat(4, 3, 30);
        let want = {
            let mut w = c.clone();
            w.scale(0.5);
            w
        };
        gemm(1.0, a.rf(), Trans::No, b.rf(), Trans::No, 0.5, c.mt());
        assert!(c.max_abs_diff(&want) < 1e-15);
    }
}
