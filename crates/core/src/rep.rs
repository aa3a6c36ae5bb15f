//! Block representations of a product of hyperbolic Householder
//! reflectors (§4 of the paper, Lemmas 4.0.1–4.0.3).
//!
//! A product `U = U_k … U_1` of elementary reflectors under signature
//! `W` can be held as:
//!
//! - **Accumulated** — the dense `2m × 2m` matrix `U` itself (the
//!   "naive blocking scheme", eq. 25);
//! - **VY form 1** — `U = Wᵏ + V Yᵀ` updated with *two matvecs* per
//!   step: `V ← [W V, x]`, `Y ← [Y, zᵀ]`, `z = β xᵀU⁽ᵏ⁾` (Lemma 4.0.1);
//! - **VY form 2** — same factored form, updated with *one matvec plus
//!   one rank-1*: `V ← [U_{k+1} V, x]`, `z = β xᵀWᵏ` (Lemma 4.0.2);
//! - **YTYᵀ** — `U = Wᵏ + Y T Yᵀ W^{k-1}`, the compact storage-efficient
//!   form (Lemma 4.0.3).
//! - **Sequential** — no blocking at all: the reflectors are replayed
//!   one at a time (the BLAS2 alternative discussed at the end of §6.2).
//!
//! Application to the trailing generator (`phase 2`, §6.3) is level-3
//! for all blocked forms: one or two `gemm`s against the `2m × q`
//! trailing columns. There is one application kernel, and it takes the
//! generator stacked, upper half over lower half — the layout of the
//! sequential engine's working generator, of every shard rank's packed
//! columns, and of the pivot panel.
//!
//! Below the packed-GEMM threshold ([`bs_matrix::blas3::uses_packed`])
//! a VY product is not applied through `gemm` at all: the two products
//! would both run the unpacked triple loop, so `stream_col` does that
//! loop's arithmetic one column at a time, with `z = Yᵀg` held in
//! registers instead of a `k × q` buffer. The elimination's small-block
//! step sweeps its trailing columns through it directly.

use crate::reflector::{HypReflector, PivotReflector};
use bs_matrix::blas3::{gemm_ws, uses_packed, Trans};
use bs_matrix::ldlt::Signature;
use bs_matrix::par::{self, ExecPolicy};
use bs_matrix::view::MatMut;
use bs_matrix::{flops, Matrix, Scalar, Workspace};
use bs_perfmodel::Rep;
use bs_probe::metrics::{self, Counter};

/// Which representation of the block hyperbolic Householder product to
/// build and apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepKind {
    /// Dense accumulated `U` (eq. 25): most expensive to build.
    Accumulated,
    /// `U = Wᵏ + VYᵀ`, two-matvec update (Lemma 4.0.1 / eq. 26).
    VY1,
    /// `U = Wᵏ + VYᵀ`, matvec + rank-1 update (Lemma 4.0.2 / eq. 27).
    VY2,
    /// `U = Wᵏ + Y T Yᵀ W^{k-1}` (Lemma 4.0.3 / eq. 28): cheapest to
    /// build, half the broadcast volume on distributed machines.
    YTY,
    /// No blocking: elementary reflectors applied one by one (BLAS2).
    Sequential,
}

impl RepKind {
    /// All blocked + sequential kinds, for sweeps/ablations.
    pub const ALL: [RepKind; 5] = [
        RepKind::Accumulated,
        RepKind::VY1,
        RepKind::VY2,
        RepKind::YTY,
        RepKind::Sequential,
    ];

    /// The cost model's counterpart of this representation;
    /// `Sequential` has no blocked-cost formula.
    pub fn model(self) -> Option<Rep> {
        match self {
            RepKind::Accumulated => Some(Rep::Accumulated),
            RepKind::VY1 => Some(Rep::VY1),
            RepKind::VY2 => Some(Rep::VY2),
            RepKind::YTY => Some(Rep::YTY),
            RepKind::Sequential => None,
        }
    }
}

impl From<Rep> for RepKind {
    fn from(r: Rep) -> RepKind {
        match r {
            Rep::Accumulated => RepKind::Accumulated,
            Rep::VY1 => RepKind::VY1,
            Rep::VY2 => RepKind::VY2,
            Rep::YTY => RepKind::YTY,
        }
    }
}

impl std::fmt::Display for RepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RepKind::Accumulated => "U (accumulated)",
            RepKind::VY1 => "VY form 1",
            RepKind::VY2 => "VY form 2",
            RepKind::YTY => "YTY^T",
            RepKind::Sequential => "sequential",
        };
        f.write_str(s)
    }
}

/// Reusable scratch buffers for the [`BlockReflector::push`] update
/// kernels. One instance, held across the steps of one factorization,
/// turns the per-reflector temporaries (`z`, `xᵀV`, the `T`-row
/// accumulator, the densified pivot vector) into buffer reuses instead
/// of heap allocations.
#[derive(Debug, Default, Clone)]
pub struct RepScratch<T: Scalar = f64> {
    /// Length-`n` buffer (`z` / `xᵀU` intermediates).
    nbuf: Vec<T>,
    /// Length-`k` buffer (`xᵀV` / `xᵀY`).
    kbuf1: Vec<T>,
    /// Second length-`k` buffer (the YTYᵀ `T`-row accumulator).
    kbuf2: Vec<T>,
    /// Full-length expansion of a sparse pivot reflector.
    xfull: Vec<T>,
}

/// A product of `k` elementary hyperbolic reflectors over `n = 2m` rows
/// in one of the representations of [`RepKind`].
#[derive(Debug, Clone)]
pub struct BlockReflector<T: Scalar = f64> {
    kind: RepKind,
    n: usize,
    k: usize,
    k_max: usize,
    w: Signature,
    /// Accumulated: the dense U. VY1/VY2: V. YTY: Y.
    left: Matrix<T>,
    /// VY1/VY2: Y. YTY: T (k × k lower triangular). Unused otherwise.
    right: Matrix<T>,
    /// Sequential: the raw reflectors.
    elems: Vec<HypReflector<T>>,
}

impl<T: Scalar> BlockReflector<T> {
    /// Empty product (identity transformation in the `Wᵏ`-relative
    /// sense) over `n` rows under signature `w`. `k_max` bounds how many
    /// reflectors will be pushed (pre-allocates the factored panels).
    pub fn new(kind: RepKind, w: Signature, k_max: usize) -> Self {
        let n = w.len();
        let (left, right) = match kind {
            RepKind::Accumulated => (Matrix::zeros(n, n), Matrix::zeros(0, 0)),
            RepKind::VY1 | RepKind::VY2 => (Matrix::zeros(n, k_max), Matrix::zeros(n, k_max)),
            RepKind::YTY => (Matrix::zeros(n, k_max), Matrix::zeros(k_max, k_max)),
            RepKind::Sequential => (Matrix::zeros(0, 0), Matrix::zeros(0, 0)),
        };
        BlockReflector {
            kind,
            n,
            k: 0,
            k_max,
            w,
            left,
            right,
            elems: Vec::with_capacity(if kind == RepKind::Sequential {
                k_max
            } else {
                0
            }),
        }
    }

    /// Rewind to the empty product, keeping the allocated panels for
    /// reuse by the next Schur step. Sound because every `push` writes
    /// the entries a later `push`/`apply` reads before they are read —
    /// stale data from the previous step is never observed.
    pub fn reset(&mut self) {
        self.k = 0;
        self.elems.clear();
    }

    /// Whether this instance's allocation can be reused (via
    /// [`reset`](Self::reset)) for a product of shape
    /// `(kind, n, k_max)` under signature `w`.
    pub fn fits(&self, kind: RepKind, w: &Signature, k_max: usize) -> bool {
        self.kind == kind && self.n == w.len() && self.k_max == k_max && self.w.0 == w.0
    }

    #[inline]
    pub fn kind(&self) -> RepKind {
        self.kind
    }

    /// Number of reflectors absorbed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.k
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Signature this product is unitary with respect to.
    #[inline]
    pub fn signature(&self) -> &Signature {
        &self.w
    }

    /// Words needed to communicate this representation (the §6.5 /
    /// §7.1 broadcast-volume argument: YTYᵀ is about half of VY).
    pub fn comm_words(&self) -> usize {
        match self.kind {
            RepKind::Accumulated => self.n * self.n,
            RepKind::VY1 | RepKind::VY2 => 2 * self.n * self.k,
            RepKind::YTY => self.n * self.k + self.k * (self.k + 1) / 2,
            RepKind::Sequential => self.k * (self.n + 1),
        }
    }

    /// Absorb the next elementary reflector `U_{k+1}` (given by its
    /// full-length vector form) on the *left* of the product.
    pub fn push(&mut self, r: &HypReflector<T>) {
        let mut scratch = RepScratch::default();
        self.push_parts(&r.x, r.beta, r.sigma, r.pivot, &mut scratch);
    }

    /// [`push`](Self::push) for the Schur step's sparse
    /// [`PivotReflector`] with caller-provided scratch: the full-length
    /// vector is expanded into `scratch` instead of a fresh allocation,
    /// and all update temporaries reuse `scratch` buffers. This is the
    /// path the elimination runs; after a factorization's first step it
    /// allocates nothing.
    pub fn push_pivot(&mut self, r: &PivotReflector<T>, m: usize, scratch: &mut RepScratch<T>) {
        let mut xfull = std::mem::take(&mut scratch.xfull);
        xfull.clear();
        xfull.resize(m + r.x_low.len(), T::ZERO);
        xfull[r.pivot] = r.x_top;
        xfull[m..].copy_from_slice(&r.x_low);
        self.push_parts(&xfull, r.beta, r.sigma, r.pivot, scratch);
        scratch.xfull = xfull;
    }

    /// Shared update kernel behind [`push`](Self::push) /
    /// [`push_pivot`](Self::push_pivot). The arithmetic is byte-for-byte
    /// the same whichever entry point is used: every scratch buffer is
    /// fully overwritten before it is read.
    fn push_parts(&mut self, x: &[T], beta: T, sigma: T, pivot: usize, s: &mut RepScratch<T>) {
        assert_eq!(x.len(), self.n);
        let k = self.k;
        let n = self.n;
        match self.kind {
            RepKind::Sequential => self.elems.push(HypReflector {
                x: x.to_vec(),
                beta,
                sigma,
                pivot,
            }),
            RepKind::Accumulated => {
                if k == 0 {
                    // U = W + beta x xᵀ.
                    for j in 0..n {
                        for i in 0..n {
                            let wij = if i == j {
                                T::from_f64(self.w.sign(i) as f64)
                            } else {
                                T::ZERO
                            };
                            self.left[(i, j)] = wij + beta * x[i] * x[j];
                        }
                    }
                    flops::add(3 * (n * n) as u64);
                } else {
                    // U ← U_{k+1} U = W U + beta x (xᵀ U).
                    let xtu = resized(&mut s.nbuf, n);
                    bs_matrix::blas2::gemv_t(T::ONE, self.left.rf(), x, T::ZERO, xtu);
                    for j in 0..n {
                        let col = self.left.col_mut(j);
                        for (i, c) in col.iter_mut().enumerate() {
                            if self.w.sign(i) < 0 {
                                *c = -*c;
                            }
                        }
                        bs_matrix::blas1::axpy(beta * xtu[j], x, col);
                    }
                    flops::add((n * n) as u64);
                }
            }
            RepKind::VY1 => {
                // z = β xᵀ U⁽ᵏ⁾ = β xᵀWᵏ + β (xᵀV) Yᵀ  — two matvecs.
                wk_into(&self.w, k, x, &mut s.nbuf);
                let z = s.nbuf.as_mut_slice();
                bs_matrix::blas1::scal(beta, z);
                if k > 0 {
                    let v = self.left.sub(0, 0, n, k);
                    let y = self.right.sub(0, 0, n, k);
                    let xv = resized(&mut s.kbuf1, k);
                    bs_matrix::blas2::gemv_t(beta, v, x, T::ZERO, xv);
                    bs_matrix::blas2::gemv(T::ONE, y, xv, T::ONE, z);
                    // V ← W V.
                    for j in 0..k {
                        let col = self.left.col_mut(j);
                        for (i, c) in col.iter_mut().enumerate() {
                            if self.w.sign(i) < 0 {
                                *c = -*c;
                            }
                        }
                    }
                    flops::add((n * k) as u64);
                }
                self.left.col_mut(k).copy_from_slice(x);
                self.right.col_mut(k).copy_from_slice(z);
            }
            RepKind::VY2 => {
                // z = β xᵀWᵏ (cheap); V ← [U_{k+1} V, x] via matvec + rank-1.
                wk_into(&self.w, k, x, &mut s.nbuf);
                let z = s.nbuf.as_mut_slice();
                bs_matrix::blas1::scal(beta, z);
                if k > 0 {
                    let xv = resized(&mut s.kbuf1, k);
                    {
                        let v = self.left.sub(0, 0, n, k);
                        bs_matrix::blas2::gemv_t(T::ONE, v, x, T::ZERO, xv);
                    }
                    // V ← W V + (β x) (xᵀV).
                    for j in 0..k {
                        let col = self.left.col_mut(j);
                        for (i, c) in col.iter_mut().enumerate() {
                            if self.w.sign(i) < 0 {
                                *c = -*c;
                            }
                        }
                        bs_matrix::blas1::axpy(beta * xv[j], x, col);
                    }
                    flops::add((n * k) as u64);
                }
                self.left.col_mut(k).copy_from_slice(x);
                self.right.col_mut(k).copy_from_slice(z);
            }
            RepKind::YTY => {
                // Y ← [W Y, x]; T ← [[T, 0], [a, b]], a = β xᵀ Y T, b = β.
                if k > 0 {
                    let xy = resized(&mut s.kbuf1, k);
                    {
                        let y = self.left.sub(0, 0, n, k);
                        bs_matrix::blas2::gemv_t(T::ONE, y, x, T::ZERO, xy);
                    }
                    // a = β (xᵀY) T with T lower triangular k×k.
                    let a = resized(&mut s.kbuf2, k);
                    for j in 0..k {
                        let mut acc = T::ZERO;
                        for i in j..k {
                            acc += s.kbuf1[i] * self.right[(i, j)];
                        }
                        a[j] = beta * acc;
                    }
                    flops::add((k * k) as u64 + k as u64);
                    // Y ← W Y.
                    for j in 0..k {
                        let col = self.left.col_mut(j);
                        for (i, c) in col.iter_mut().enumerate() {
                            if self.w.sign(i) < 0 {
                                *c = -*c;
                            }
                        }
                    }
                    flops::add((n * k) as u64);
                    for j in 0..k {
                        self.right[(k, j)] = s.kbuf2[j];
                    }
                }
                self.left.col_mut(k).copy_from_slice(x);
                self.right[(k, k)] = beta;
            }
        }
        self.k += 1;
    }

    /// Work volume (multiply-add scale) of applying this product to `q`
    /// trailing columns — the quantity gated against
    /// [`ExecPolicy::min_work`]. Depends only on the representation's
    /// shape, so the strip/no-strip decision is identical at every
    /// thread count.
    fn apply_work(&self, q: usize) -> u128 {
        let n = self.n as u128;
        let k = self.k.max(1) as u128;
        let q = q as u128;
        match self.kind {
            RepKind::Accumulated => n * n * q,
            RepKind::VY1 | RepKind::VY2 | RepKind::YTY => 2 * n * k * q,
            RepKind::Sequential => n * k * q,
        }
    }

    /// Apply the product to the trailing generator columns:
    /// `G ← U⁽ᵏ⁾ G` (phase 2). Level-3 for the blocked kinds, with all
    /// temporaries (`Z`, `TZ`, generator copies, gemm pack buffers)
    /// checked out of `ws`. Under a parallel [`ExecPolicy`] the trailing
    /// columns are cut into deterministic strips executed on the worker
    /// pool — the shared-memory analogue of the paper's scheme-1 column
    /// distribution (§6–7), bitwise identical to sequential execution;
    /// those strips draw from per-worker workspaces instead of `ws`.
    pub fn apply(&self, g: MatMut<'_, T>, exec: &ExecPolicy, ws: &mut Workspace<T>) {
        assert_eq!(g.rows(), self.n);
        if self.k == 0 || g.cols() == 0 {
            return;
        }
        // The split decision and strip boundaries depend only on the
        // extent and the policy's partition/work gate — never on the
        // thread count — so every thread count performs identical
        // arithmetic (see DESIGN.md §9).
        let q = g.cols();
        let width = self.strip_width(q, exec);
        if width >= q {
            self.apply_cols(g, ws);
            return;
        }
        // bs-lint: allow(no-alloc-hot) -- O(strips) descriptors at dispatch; they borrow G and cannot live in a pool
        let mut strips: Vec<MatMut<'_, T>> = Vec::with_capacity(q.div_ceil(width));
        let mut rest = g;
        let mut start = 0;
        while start < q {
            let w = width.min(q - start);
            let (head, tail) = rest.split_at_col(w);
            strips.push(head);
            rest = tail;
            start += w;
        }
        if self.fans_out(q, exec) {
            par::for_each_policy(exec, strips, |s| {
                par::with_worker_ws(|wws| self.apply_cols(s, wws));
            });
        } else {
            // Same strips, executed inline with the caller's workspace.
            for s in strips {
                self.apply_cols(s, ws);
            }
        }
    }

    /// Whether [`apply`](Self::apply) to `q` columns under `exec` runs
    /// its strips on the worker pool rather than inline.
    pub(crate) fn fans_out(&self, q: usize, exec: &ExecPolicy) -> bool {
        exec.threads > 1 && !par::in_dispatch() && self.strip_width(q, exec) < q
    }

    /// Width of the strips [`apply`](Self::apply) cuts `q` columns into
    /// under `exec`; `q` itself when it runs them as one group.
    fn strip_width(&self, q: usize, exec: &ExecPolicy) -> usize {
        let width = exec.partition.strip_width(q);
        if self.apply_work(q) < exec.min_work as u128 || width >= q {
            q
        } else {
            width
        }
    }

    /// Whether applying this product to `q` columns streams them through
    /// [`stream_col`](Self::stream_col) instead of two `gemm`s: a VY
    /// product whose products `Yᵀ G` (`k × 2m · 2m × q`) and `V Z`
    /// would both fall below the packed threshold and so run the
    /// unpacked triple loop, which `stream_col` reproduces bit for bit.
    /// Narrower column groups never leave the streamed path, since the
    /// threshold is monotone in `q`. For a step's `2m × q` trailing
    /// columns (`q` a multiple of `m`) that is a VY product with
    /// `k < 16`, whatever `m`.
    pub(crate) fn streams(&self, q: usize) -> bool {
        matches!(self.kind, RepKind::VY1 | RepKind::VY2) && !uses_packed(self.k, q, self.n)
    }

    /// `g ← Wᵏ g + V (Yᵀ g)` on one stacked column, in the order of the
    /// two unpacked `gemm`s it replaces: `z_i` sums `g_p · Y[p, i]` over
    /// `p` from `+0`, skipping exact-zero `g_p`; then the `Wᵏ` sign
    /// flips; then `g += z_p · V[:, p]` over `p`, skipping exact-zero
    /// `z_p`. `g` is the whole `2m`-entry column and `z` is `len()`
    /// long, holding no state between calls; callers that pass
    /// fixed-size slices get, inlined, a fully unrolled kernel with `z`
    /// in registers. Counters are the caller's: see
    /// [`charge_streamed`](Self::charge_streamed).
    #[inline(always)]
    pub(crate) fn stream_col(&self, g: &mut [T], z: &mut [T]) {
        let n = g.len();
        let v = &self.left.as_slice()[..n * z.len()];
        let y = &self.right.as_slice()[..n * z.len()];
        let w = &self.w.0[..n];
        z.fill(T::ZERO);
        for (p, &gp) in g.iter().enumerate() {
            if gp == T::ZERO {
                continue;
            }
            for (i, zi) in z.iter_mut().enumerate() {
                *zi += gp * y[i * n + p];
            }
        }
        if z.len() % 2 == 1 {
            for (gi, &wi) in g.iter_mut().zip(w) {
                if wi < 0 {
                    *gi = -*gi;
                }
            }
        }
        for (p, &zp) in z.iter().enumerate() {
            if zp == T::ZERO {
                continue;
            }
            for (gi, &vi) in g.iter_mut().zip(&v[p * n..(p + 1) * n]) {
                *gi += zp * vi;
            }
        }
    }

    /// Charge the counters that [`apply`](Self::apply) to `q` columns
    /// under `exec` charges when it streams them: what the `gemm`
    /// formulation charged, one call per strip. A caller that streams the
    /// columns itself charges this once, so flop and byte totals do not
    /// depend on which path ran.
    pub(crate) fn charge_streamed(&self, q: usize, exec: &ExecPolicy) {
        self.charge_gemms(q, q.div_ceil(self.strip_width(q, exec)));
    }

    /// The counters of the `gemm` formulation over `q` columns in
    /// `groups` calls: two level-3 products of `2·k·2m·q` flops and
    /// their operand bytes per call, and one flop per `Wᵏ` sign flip.
    fn charge_gemms(&self, q: usize, groups: usize) {
        let (n, k) = (self.n, self.k);
        flops::add_l3(4 * (n * k * q) as u64);
        metrics::add(
            Counter::BytesMoved,
            (T::BYTES * (2 * n * k * groups + 3 * (n + k) * q)) as u64,
        );
        if k % 2 == 1 {
            flops::add((self.w.negatives() * q) as u64);
        }
    }

    /// Monolithic application to one group of columns — the unit the
    /// strip dispatcher distributes. Always sequential inside.
    fn apply_cols(&self, mut g: MatMut<'_, T>, ws: &mut Workspace<T>) {
        assert_eq!(g.rows(), self.n);
        if self.k == 0 || g.cols() == 0 {
            return;
        }
        let n = self.n;
        let k = self.k;
        let q = g.cols();
        if self.streams(q) {
            self.charge_gemms(q, 1);
            let mut z = ws.take_vec(k);
            for j in 0..q {
                self.stream_col(g.col_mut(j), &mut z);
            }
            ws.give_vec(z);
            return;
        }
        match self.kind {
            RepKind::Sequential => {
                for j in 0..q {
                    let col = g.col_mut(j);
                    for r in &self.elems {
                        r.apply_col(&self.w, col);
                    }
                }
            }
            RepKind::Accumulated => {
                // G ← U G.
                let mut gc = ws.take_matrix(n, q);
                for j in 0..q {
                    gc.col_mut(j).copy_from_slice(g.col(j));
                }
                gemm_ws(
                    T::ONE,
                    self.left.rf(),
                    Trans::No,
                    gc.rf(),
                    Trans::No,
                    T::ZERO,
                    g.rb_mut(),
                    ws,
                );
                ws.give_matrix(gc);
            }
            RepKind::VY1 | RepKind::VY2 => {
                // G ← Wᵏ G + V (Yᵀ G).
                let v = self.left.sub(0, 0, n, k);
                let y = self.right.sub(0, 0, n, k);
                let mut z = ws.take_matrix(k, q);
                gemm_ws(
                    T::ONE,
                    y,
                    Trans::Yes,
                    g.rb(),
                    Trans::No,
                    T::ZERO,
                    z.mt(),
                    ws,
                );
                apply_wk(&self.w, k, g.rb_mut());
                gemm_ws(
                    T::ONE,
                    v,
                    Trans::No,
                    z.rf(),
                    Trans::No,
                    T::ONE,
                    g.rb_mut(),
                    ws,
                );
                ws.give_matrix(z);
            }
            RepKind::YTY => {
                // G ← Wᵏ G + Y (T (Yᵀ (W^{k-1} G))).
                let y = self.left.sub(0, 0, n, k);
                let mut z = ws.take_matrix(k, q);
                // Z = Yᵀ W^{k-1} G: fold W^{k-1} into a row-sign-flipped
                // copy of Y instead of touching G.
                if k.is_multiple_of(2) {
                    // W^{k-1} = W (odd power): use sign-flipped Y.
                    let mut yw = ws.take_matrix(n, k);
                    for j in 0..k {
                        let col = yw.col_mut(j);
                        col.copy_from_slice(&self.left.col(j)[..n]);
                        for (i, c) in col.iter_mut().enumerate() {
                            if self.w.sign(i) < 0 {
                                *c = -*c;
                            }
                        }
                    }
                    flops::add((self.w.negatives() * k) as u64);
                    gemm_ws(
                        T::ONE,
                        yw.rf(),
                        Trans::Yes,
                        g.rb(),
                        Trans::No,
                        T::ZERO,
                        z.mt(),
                        ws,
                    );
                    ws.give_matrix(yw);
                } else {
                    gemm_ws(
                        T::ONE,
                        y,
                        Trans::Yes,
                        g.rb(),
                        Trans::No,
                        T::ZERO,
                        z.mt(),
                        ws,
                    );
                }
                // Z ← T Z with T lower triangular (k×k, small): direct.
                let mut tz = ws.take_matrix(k, q);
                for jj in 0..q {
                    for i in 0..k {
                        let mut s = T::ZERO;
                        for l in 0..=i {
                            s += self.right[(i, l)] * z[(l, jj)];
                        }
                        tz[(i, jj)] = s;
                    }
                }
                flops::add((k * k * q) as u64);
                apply_wk(&self.w, k, g.rb_mut());
                gemm_ws(
                    T::ONE,
                    y,
                    Trans::No,
                    tz.rf(),
                    Trans::No,
                    T::ONE,
                    g.rb_mut(),
                    ws,
                );
                ws.give_matrix(z);
                ws.give_matrix(tz);
            }
        }
    }

    /// Densify to the full `n × n` transformation (test / diagnostic).
    pub fn to_dense(&self) -> Matrix<T> {
        let n = self.n;
        let mut u = Matrix::identity(n);
        self.apply(u.mt(), &ExecPolicy::sequential(), &mut Workspace::new());
        u
    }
}

/// Resize `buf` to exactly `len` zeros and return it as a slice — the
/// reusable-buffer equivalent of `vec![0.0; len]`.
fn resized<T: Scalar>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    buf.clear();
    buf.resize(len, T::ZERO);
    buf
}

/// `Wᵏ x` into a reusable buffer.
fn wk_into<T: Scalar>(w: &Signature, k: usize, x: &[T], buf: &mut Vec<T>) {
    buf.clear();
    buf.extend_from_slice(x);
    if k % 2 == 1 {
        w.apply(buf);
    }
}

/// `G ← Wᵏ G` in place, counting one flop per negated entry.
fn apply_wk<T: Scalar>(w: &Signature, k: usize, mut g: MatMut<'_, T>) {
    if k.is_multiple_of(2) {
        return;
    }
    for j in 0..g.cols() {
        let col = g.col_mut(j);
        for (i, c) in col.iter_mut().enumerate() {
            if w.sign(i) < 0 {
                *c = -*c;
            }
        }
    }
    flops::add((w.negatives() * g.cols()) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reflector::HypReflector;
    use bs_matrix::blas3::gemm;

    fn make_reflectors(m: usize, count: usize, seed: u64) -> (Signature, Vec<HypReflector>) {
        let w = Signature::hyperbolic(m);
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 1000) as f64 - 500.0) / 500.0
        };
        let mut out = Vec::new();
        for c in 0..count {
            // Vectors with the Schur sparsity: pivot row c, dense lower,
            // dominant pivot so the hyperbolic norm is positive.
            let mut u = vec![0.0; 2 * m];
            u[c % m] = 3.0 + rnd().abs();
            for item in u.iter_mut().skip(m) {
                *item = rnd() * 0.8;
            }
            let (r, _) = HypReflector::compute(&u, &w, c % m);
            out.push(r.expect("positive hyperbolic norm by construction"));
        }
        (w, out)
    }

    fn dense_product(w: &Signature, rs: &[HypReflector]) -> Matrix {
        // U_k ... U_1 as a dense matrix.
        let n = w.len();
        let mut u = Matrix::identity(n);
        for r in rs {
            // u ← U_r * u: apply to each column.
            for j in 0..n {
                r.apply_col(w, u.col_mut(j));
            }
        }
        u
    }

    #[test]
    fn all_representations_match_dense_product() {
        for m in [1usize, 2, 3, 5] {
            let (w, rs) = make_reflectors(m, m, 11 + m as u64);
            let want = dense_product(&w, &rs);
            for kind in RepKind::ALL {
                let mut b = BlockReflector::new(kind, w.clone(), m);
                for r in &rs {
                    b.push(r);
                }
                let got = b.to_dense();
                assert!(
                    got.max_abs_diff(&want) < 1e-10,
                    "kind={kind} m={m}: diff {}",
                    got.max_abs_diff(&want)
                );
            }
        }
    }

    #[test]
    fn partial_products_match_too() {
        // Push fewer reflectors than k_max.
        let m = 4;
        let (w, rs) = make_reflectors(m, 2, 3);
        let want = dense_product(&w, &rs);
        for kind in RepKind::ALL {
            let mut b = BlockReflector::new(kind, w.clone(), m);
            for r in &rs {
                b.push(r);
            }
            assert_eq!(b.len(), 2);
            assert!(b.to_dense().max_abs_diff(&want) < 1e-10, "kind={kind}");
        }
    }

    #[test]
    fn apply_matches_explicit_multiply() {
        let m = 3;
        let (w, rs) = make_reflectors(m, m, 7);
        // Random trailing block; 13 columns leave a ragged last strip
        // under `Partition::Width(3)`.
        let g0 = Matrix::from_fn(2 * m, 13, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let mut ws = Workspace::new();
        for kind in RepKind::ALL {
            let mut b = BlockReflector::new(kind, w.clone(), m);
            for r in &rs {
                b.push(r);
            }
            let u = b.to_dense();
            let mut want = Matrix::zeros(2 * m, 13);
            gemm(1.0, u.rf(), Trans::No, g0.rf(), Trans::No, 0.0, want.mt());
            let mut g = g0.clone();
            b.apply(g.mt(), &ExecPolicy::sequential(), &mut ws);
            assert!(g.max_abs_diff(&want) < 1e-10, "kind={kind}");
            // Pooled path must be bitwise identical, not merely close: the
            // strip boundaries are thread-independent by construction.
            for partition in [bs_matrix::Partition::Auto, bs_matrix::Partition::Width(3)] {
                for threads in [2, 5, bs_matrix::par::current_num_threads().max(2) * 2] {
                    let par = ExecPolicy {
                        threads,
                        min_work: 1,
                        partition,
                    };
                    let mut g2 = g0.clone();
                    b.apply(g2.mt(), &par, &mut ws);
                    assert_eq!(
                        g2.max_abs_diff(&g),
                        0.0,
                        "kind={kind} {partition:?} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn apply_counts_one_flop_per_negated_entry() {
        // k = 1 is odd, so W¹ negates the m lower rows of G: the count
        // is the two gemms (4·m·q flops each) plus those m·q negations.
        let (m, q) = (4, 5);
        let (w, rs) = make_reflectors(m, 1, 3);
        let mut b = BlockReflector::new(RepKind::VY2, w, 1);
        b.push(&rs[0]);
        let mut g = Matrix::from_fn(2 * m, q, |i, j| (i + 2 * j) as f64);
        let mut ws = Workspace::new();
        let ((), counted) = flops::measure(|| b.apply(g.mt(), &ExecPolicy::sequential(), &mut ws));
        assert_eq!(counted, (8 * m * q + m * q) as u64);
    }

    /// `G ← Wᵏ G + V (Yᵀ G)` as the two `gemm`s a streamed apply
    /// replaces; for the shapes below both run the unpacked loop.
    fn two_gemm_reference(b: &BlockReflector, g: &mut Matrix) {
        let (n, k, q) = (b.n, b.k, g.cols());
        assert!(
            !uses_packed(k, q, n),
            "reference must run the unpacked gemm"
        );
        let mut z = Matrix::zeros(k, q);
        let (v, y) = (b.left.sub(0, 0, n, k), b.right.sub(0, 0, n, k));
        gemm(1.0, y, Trans::Yes, g.rf(), Trans::No, 0.0, z.mt());
        apply_wk(&b.w, k, g.mt());
        gemm(1.0, v, Trans::No, z.rf(), Trans::No, 1.0, g.mt());
    }

    #[test]
    fn streamed_vy_apply_matches_the_two_gemm_formulation_bitwise() {
        use bs_probe::metrics::{self, Counter};
        let bits = |g: &Matrix| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut ws = Workspace::new();
        for kind in [RepKind::VY1, RepKind::VY2] {
            for m in 1..=8usize {
                for k in 1..=m {
                    let (w, rs) = make_reflectors(m, k, 31 + (8 * m + k) as u64);
                    let mut b = BlockReflector::new(kind, w, k);
                    for r in &rs {
                        b.push(r);
                    }
                    for q in [0usize, 1, 3, 15, 16, 17, 64] {
                        // Exact +0.0 and −0.0 entries throughout, and every
                        // fifth column all signed zeros, so both zero skips
                        // and the signs they preserve are exercised.
                        let g0 = Matrix::from_fn(2 * m, q, |i, j| match (i * 7 + j * 3) % 11 {
                            0 => 0.0,
                            1 => -0.0,
                            _ if j % 5 == 2 && (i + j) % 2 == 0 => 0.0,
                            _ if j % 5 == 2 => -0.0,
                            v => (v as f64 - 5.0) / 3.0 + j as f64 * 0.01,
                        });
                        assert!(q == 0 || b.streams(q), "{kind} m={m} k={k} q={q}");
                        let mut want = g0.clone();
                        let bytes0 = metrics::local_get(Counter::BytesMoved);
                        let ((), want_flops) = flops::measure(|| two_gemm_reference(&b, &mut want));
                        let want_bytes = metrics::local_get(Counter::BytesMoved) - bytes0;
                        let mut got = g0.clone();
                        let bytes0 = metrics::local_get(Counter::BytesMoved);
                        let ((), got_flops) = flops::measure(|| {
                            b.apply(got.mt(), &ExecPolicy::sequential(), &mut ws)
                        });
                        let got_bytes = metrics::local_get(Counter::BytesMoved) - bytes0;
                        let case = format!("{kind} m={m} k={k} q={q}");
                        assert!(bits(&got) == bits(&want), "{case}: bits differ");
                        assert_eq!(got_flops, want_flops, "{case}: flops");
                        assert_eq!(got_bytes, want_bytes, "{case}: bytes");
                    }
                }
            }
        }
    }

    #[test]
    fn block_product_is_w_unitary() {
        let m = 3;
        let (w, rs) = make_reflectors(m, m, 19);
        let mut b = BlockReflector::new(RepKind::VY2, w.clone(), m);
        for r in &rs {
            b.push(r);
        }
        let u = b.to_dense();
        let wd = w.to_matrix();
        let mut wu = Matrix::zeros(2 * m, 2 * m);
        gemm(1.0, wd.rf(), Trans::No, u.rf(), Trans::No, 0.0, wu.mt());
        let mut utwu = Matrix::zeros(2 * m, 2 * m);
        gemm(1.0, u.rf(), Trans::Yes, wu.rf(), Trans::No, 0.0, utwu.mt());
        assert!(utwu.max_abs_diff(&wd) < 1e-10);
    }

    #[test]
    fn comm_words_ordering() {
        // The §6.5 claim: YTYᵀ about half the communication of VY.
        let m = 8;
        let (w, rs) = make_reflectors(m, m, 23);
        let mut sizes = std::collections::HashMap::new();
        for kind in RepKind::ALL {
            let mut b = BlockReflector::new(kind, w.clone(), m);
            for r in &rs {
                b.push(r);
            }
            sizes.insert(format!("{kind}"), b.comm_words());
        }
        let vy = sizes["VY form 1"];
        let yty = sizes["YTY^T"];
        // YTYᵀ stores n·k + k(k+1)/2 words against VY's 2·n·k: strictly
        // smaller, approaching half for n ≫ k.
        assert!(yty < vy, "yty={yty} vy={vy}");
        assert!((yty as f64) < 0.75 * vy as f64, "yty={yty} vy={vy}");
    }

    #[test]
    fn empty_product_is_identity() {
        let w = Signature::hyperbolic(2);
        let b: BlockReflector = BlockReflector::new(RepKind::VY1, w, 2);
        assert!(b.is_empty());
        assert!(b.to_dense().max_abs_diff(&Matrix::identity(4)) < 1e-15);
    }
}
