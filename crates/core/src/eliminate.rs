//! The unified generator-elimination engine behind both factorization
//! drivers.
//!
//! Historically `schur.rs` (SPD, §5–§6) and `indefinite.rs` (§8)
//! each carried their own copy of the `p − 1`-step elimination loop.
//! The loops differ only in *pivot policy*:
//!
//! - [`PivotPolicy::SpdStrict`] — a pivot column whose hyperbolic norm
//!   is non-positive aborts (`NotPositiveDefinite` / `SingularMinor`).
//!   Blocked level-3 trailing updates and the in-place §6.4 column
//!   pairing apply.
//! - [`PivotPolicy::Exchange`] — wrong-signed pivots trigger a row
//!   exchange with a matching-signature lower generator row, and
//!   numerically zero pivots are repaired by the §8.2 graded
//!   δ-perturbation. Exchanges do not commute past the blocked
//!   representations, so the trailing update is per-reflector.
//!
//! Both kernels live here now, share the panel / reflector / diagonal
//! normalization machinery, and thread every working buffer through a
//! caller-owned [`Workspace`] + [`EngineScratch`] pair so a warm engine
//! (one that has already factored a same-shaped system) performs **zero
//! heap allocations inside the elimination loop**. The public
//! `factor_spd` / `factor_indefinite` entry points are thin wrappers
//! that run the same kernels with fresh state — the plan/execute path
//! is bitwise-identical to them because pooled buffers are zero-filled
//! on checkout, exactly like the fresh allocations they replaced.

use crate::indefinite::{IndefFactor, IndefOptions, Perturbation};
use crate::panel::{factor_panel_into, PanelScratch};
use crate::reflector::{PivotOutcome, PivotReflector};
use crate::rep::BlockReflector;
use crate::schur::SchurOptions;
use crate::{Error, Result};
use bs_matrix::ldlt::Signature;
use bs_matrix::{MatRef, Matrix, Scalar, Workspace};
use bs_probe::metrics::{self, Counter};
use bs_probe::stability;
use bs_toeplitz::{build_generator, SymBlockToeplitz};
use std::borrow::Cow;

/// How the elimination treats a pivot column whose hyperbolic norm is
/// not strictly positive — the single axis along which the SPD and
/// indefinite Schur algorithms differ.
#[derive(Clone, Debug)]
pub enum PivotPolicy {
    /// Any non-positive pivot aborts the factorization (§5: the input
    /// must be symmetric positive definite).
    SpdStrict,
    /// Wrong-signed pivots are repaired by row exchanges and singular
    /// minors by the graded δ-perturbation of §8.2, per the carried
    /// [`IndefOptions`].
    Exchange(IndefOptions),
}

impl PivotPolicy {
    /// `true` for the strict SPD policy.
    pub fn is_spd(&self) -> bool {
        matches!(self, PivotPolicy::SpdStrict)
    }
}

/// Reusable engine state: the per-chunk block reflectors, the panel
/// scratch, and the per-column buffers of the indefinite kernel. One
/// instance per plan/solver; fresh instances reproduce the historical
/// allocate-per-call behavior exactly.
#[derive(Debug)]
pub struct EngineScratch<T: Scalar = f64> {
    /// Panel-factorization scratch (pivot reflector, source column,
    /// representation-update buffers).
    panel: PanelScratch<T>,
    /// Chunk block reflectors, reused across steps via `reset`.
    reps: Vec<BlockReflector<T>>,
    /// The indefinite kernel's elementary reflector.
    refl: PivotReflector<T>,
    /// Pivot-column lower half (indefinite kernel).
    u_low: Vec<T>,
    /// Trailing-update column buffer (indefinite kernel).
    low: Vec<T>,
    /// Pool for the indefinite factor's signature vector `d`: retired
    /// factors hand theirs back so warm refactors reuse the storage.
    sig_pool: Vec<i8>,
    /// Pool for the perturbation log, recycled the same way.
    pert_pool: Vec<Perturbation>,
}

impl<T: Scalar> Default for EngineScratch<T> {
    fn default() -> Self {
        EngineScratch {
            panel: PanelScratch::default(),
            reps: Vec::new(),
            refl: PivotReflector::empty(),
            u_low: Vec::new(),
            low: Vec::new(),
            sig_pool: Vec::new(),
            pert_pool: Vec::new(),
        }
    }
}

impl<T: Scalar> EngineScratch<T> {
    /// Take back a retired indefinite factor's owned vectors so the
    /// next `eliminate_indefinite` run reuses the storage instead of
    /// allocating.
    pub(crate) fn recycle_indefinite(&mut self, d: Vec<i8>, perturbations: Vec<Perturbation>) {
        if d.capacity() > self.sig_pool.capacity() {
            self.sig_pool = d;
        }
        if perturbations.capacity() > self.pert_pool.capacity() {
            self.pert_pool = perturbations;
        }
    }
}

/// Validate and apply an algorithmic-block-size override: `m_s` must be
/// a positive multiple of the structural block size and divide `n`.
pub(crate) fn retiled<'a, T: Scalar>(
    t: &'a SymBlockToeplitz<T>,
    block_size: Option<usize>,
) -> Result<Cow<'a, SymBlockToeplitz<T>>> {
    let Some(ms) = block_size else {
        return Ok(Cow::Borrowed(t));
    };
    if ms == 0 || ms % t.block_size() != 0 {
        return Err(Error::InvalidOptions(format!(
            "m_s = {ms} is not a positive multiple of m = {}",
            t.block_size()
        )));
    }
    if !t.order().is_multiple_of(ms) {
        return Err(Error::InvalidOptions(format!(
            "m_s = {ms} does not divide n = {}",
            t.order()
        )));
    }
    Ok(Cow::Owned(t.retile(ms)))
}

/// Receiver for emitted factor block rows: `sink(s, m, n, row)` gets
/// block-row `s` of the factor at algorithmic block size `m`.
pub(crate) type RowSink<'a, T> = dyn FnMut(usize, usize, usize, MatRef<'_, T>) + 'a;

/// SPD elimination kernel (phases 1–3 of §6). `t_ref` must already be
/// retiled to the algorithmic block size (see [`retiled`]). Emits each
/// factor block row through `sink(s, m, n, row)`; rows are *not*
/// sign-normalized. Returns `(m, p, comm_words_per_step)`.
///
/// All working storage (generator halves, panel buffer, trailing-update
/// temporaries) is checked out of `ws` and returned before this
/// function exits — even on error — so a warm workspace makes the whole
/// loop allocation-free.
pub(crate) fn eliminate_spd<T: Scalar>(
    t_ref: &SymBlockToeplitz<T>,
    opts: &SchurOptions,
    ws: &mut Workspace<T>,
    scratch: &mut EngineScratch<T>,
    sink: &mut RowSink<'_, T>,
) -> Result<(usize, usize, usize)> {
    let m = t_ref.block_size();
    let p = t_ref.num_blocks();
    let n = m * p;
    let _span = bs_probe::span!("factor_spd", n = n, m = m, p = p);
    let ws_entry = ws.outstanding();

    let gen = build_generator(t_ref)?;
    if !gen.is_spd_signature() {
        return Err(Error::NotPositiveDefinite {
            step: 0,
            column: 0,
            hnorm: -1.0,
        });
    }
    let w = Signature::hyperbolic(m);

    // Split the generator into its two halves.
    let mut gu = ws.take_matrix(m, n);
    let mut gl = ws.take_matrix(m, n);
    gu.mt().copy_from(gen.data.sub(0, 0, m, n));
    gl.mt().copy_from(gen.data.sub(m, 0, m, n));

    // R block row 0 is the untransformed upper generator half.
    sink(0, m, n, gu.rf());

    let mut comm_words = 0usize;
    let mut panel_buf = ws.take_matrix(2 * m, m);
    let scale = t_ref.norm_inf().max(1.0);
    stability::set_scale(scale);

    let mut failure: Option<Error> = None;
    'steps: for s in 1..p {
        let width = (p - s) * m; // active upper width this step
        let _step_span = bs_probe::span!("schur_step", step = s, width = width);
        let step_flops0 = if bs_probe::trace::is_enabled() {
            bs_matrix::flops::total()
        } else {
            0
        };
        let step_t0 = bs_probe::histogram::is_enabled().then(std::time::Instant::now);
        metrics::incr(Counter::SchurSteps);

        if opts.explicit_shift {
            // Phase 3 (explicit): move the upper row right by one block.
            let mut shift_buf = ws.take_matrix(m, m);
            for j in (s..p).rev() {
                shift_buf.mt().copy_from(gu.sub(0, (j - 1) * m, m, m));
                gu.sub_mut(0, j * m, m, m).copy_from(shift_buf.rf());
            }
            ws.give_matrix(shift_buf);
        }
        // Column index of the pivot (and trailing) data in each half.
        let (up_piv, up_trail) = if opts.explicit_shift {
            (s * m, (s + 1) * m)
        } else {
            (0, m)
        };
        let low_piv = s * m;

        // Phase 1: assemble and factor the pivot panel.
        let panel_flops0 = if bs_probe::trace::is_enabled() {
            bs_matrix::flops::total()
        } else {
            0
        };
        let panel_span = bs_probe::span!("factor_panel", step = s);
        panel_buf
            .sub_mut(0, 0, m, m)
            .copy_from(gu.sub(0, up_piv, m, m));
        panel_buf
            .sub_mut(m, 0, m, m)
            .copy_from(gl.sub(0, low_piv, m, m));
        let k_block = opts.two_level.unwrap_or(m).clamp(1, m);
        if let Err(e) = factor_panel_into(
            panel_buf.mt(),
            &w,
            opts.rep,
            s,
            opts.zero_tol,
            scale,
            k_block,
            &mut scratch.reps,
            &mut scratch.panel,
            ws,
        ) {
            failure = Some(e);
            break 'steps;
        }
        let step_words: usize = scratch.reps.iter().map(|r| r.comm_words()).sum();
        comm_words = comm_words.max(step_words);
        metrics::add(Counter::CommWords, step_words as u64);
        gu.sub_mut(0, up_piv, m, m)
            .copy_from(panel_buf.sub(0, 0, m, m));
        gl.sub_mut(0, low_piv, m, m).fill(T::ZERO);
        drop(panel_span);
        if bs_probe::trace::is_enabled() {
            bs_probe::event!(
                "panel_done",
                step = s,
                flops = (bs_matrix::flops::total() - panel_flops0),
            );
        }

        // Phase 2: trailing update on the paired column ranges, one
        // chunk transformation after the other.
        let trail = width - m;
        if trail > 0 {
            let apply_flops0 = if bs_probe::trace::is_enabled() {
                bs_matrix::flops::total()
            } else {
                0
            };
            let apply_span = bs_probe::span!("apply_rep", step = s, cols = trail);
            for rep in &scratch.reps {
                rep.apply_split_ws(
                    gu.sub_mut(0, up_trail, m, trail),
                    gl.sub_mut(0, low_piv + m, m, trail),
                    &opts.exec,
                    ws,
                );
            }
            drop(apply_span);
            if bs_probe::trace::is_enabled() {
                bs_probe::event!(
                    "apply_done",
                    step = s,
                    flops = (bs_matrix::flops::total() - apply_flops0),
                );
            }
        }

        // Emit R block row s.
        let src_col = if opts.explicit_shift { s * m } else { 0 };
        sink(s, m, n, gu.sub(0, src_col, m, width));

        if bs_probe::trace::is_enabled() {
            bs_probe::event!(
                "schur_step_done",
                step = s,
                flops = (bs_matrix::flops::total() - step_flops0),
                growth = bs_probe::stability::peak_growth(),
            );
        }
        if let Some(t0) = step_t0 {
            bs_probe::histogram::record(
                bs_probe::Hist::FactorStepNs,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }

    ws.give_matrix(panel_buf);
    ws.give_matrix(gu);
    ws.give_matrix(gl);
    // paranoid: every scratch checkout must be back in the pool here,
    // success or failure.
    ws.contract_region("eliminate_spd", ws_entry, 0);
    match failure {
        Some(e) => Err(e),
        None => Ok((m, p, comm_words)),
    }
}

/// Outcome of one indefinite elimination pass under a fixed δ-schedule.
pub(crate) enum Attempt<T: Scalar = f64> {
    Done(Box<IndefFactor<T>>),
    /// More singular minors were met than the schedule covers: restart
    /// with a longer schedule (§8.2's backtracking).
    NeedsLongerSchedule,
}

/// Indefinite elimination kernel (§8): the exchange + perturbation
/// pivot policy, per-reflector trailing updates, explicit-shift
/// generator layout. `schedule[i]` is the δ used for the i-th
/// perturbation. The factor matrix `R` is checked out of `ws` (and
/// returned to it on every non-`Done` exit), so a refactor loop that
/// recycles retired factors into the pool runs warm passes
/// allocation-free apart from the generator build.
pub(crate) fn eliminate_indefinite<T: Scalar>(
    t: &SymBlockToeplitz<T>,
    opts: &IndefOptions,
    schedule: &[f64],
    ws: &mut Workspace<T>,
    scratch: &mut EngineScratch<T>,
) -> Result<Attempt<T>> {
    let m = t.block_size();
    let p = t.num_blocks();
    let n = m * p;
    let _span = bs_probe::span!("factor_indefinite", n = n, m = m, p = p);
    let ws_entry = ws.outstanding();
    let mut perturbations: Vec<Perturbation> = std::mem::take(&mut scratch.pert_pool);
    perturbations.clear();
    let next_delta = |perts: &[Perturbation]| -> Option<f64> { schedule.get(perts.len()).copied() };

    // Generator; if the leading block itself has a singular minor,
    // perturb the whole diagonal of T (δT = δ·s·I keeps T symmetric
    // Toeplitz because T̂₁ sits on the entire block diagonal).
    let t_scale = t.norm_inf().max(1.0);
    stability::set_scale(t_scale);
    let gen = match build_generator(t) {
        Ok(g) => g,
        Err(bs_matrix::Error::SingularPivot { index, pivot }) => {
            if !opts.allow_perturbation {
                return Err(Error::SingularMinor {
                    step: 0,
                    column: index,
                    hnorm: pivot,
                });
            }
            let Some(delta) = next_delta(&perturbations) else {
                scratch.pert_pool = perturbations;
                return Ok(Attempt::NeedsLongerSchedule);
            };
            // bs-lint: allow(no-alloc-hot) -- singular-leading-minor repair, runs at most once per factorization
            let mut blocks = t.first_block_row().to_vec();
            for i in 0..m {
                blocks[0][(i, i)] += T::from_f64(delta * t_scale);
            }
            perturbations.push(Perturbation {
                step: 0,
                column: index,
                delta,
                hnorm_before: pivot,
            });
            metrics::incr(Counter::Perturbations);
            bs_probe::event!("perturbation", step = 0, column = index, delta = delta);
            let tp = SymBlockToeplitz::new(blocks);
            build_generator(&tp).map_err(Error::from)?
        }
        Err(e) => return Err(Error::from(e)),
    };

    let mut g = gen.data; // 2m × n working generator (explicit-shift layout)
    let mut w = gen.w; // evolving working signature (length 2m)
                       // paranoid: exchanges only permute W, so its entry sum is an
                       // invariant of the elimination (checked per step below).
    let w_sum: i64 = w.0.iter().map(|&x| i64::from(x)).sum();

    let mut r = ws.take_matrix(n, n);
    let mut d = std::mem::take(&mut scratch.sig_pool);
    d.clear();
    d.resize(n, 1i8);
    // Emit block row 0.
    for j in 0..n {
        for i in 0..m {
            r[(i, j)] = g[(i, j)];
        }
    }
    d[..m].copy_from_slice(&w.0[..m]);

    let mut exchanges = 0usize;
    let mut max_norm = 1.0f64;

    for s in 1..p {
        let _step_span = bs_probe::span!("indef_step", step = s);
        let step_flops0 = if bs_probe::trace::is_enabled() {
            bs_matrix::flops::total()
        } else {
            0
        };
        let step_t0 = bs_probe::histogram::is_enabled().then(std::time::Instant::now);
        metrics::incr(Counter::SchurSteps);
        // Phase 3 (explicit): shift the upper half right by one block.
        for j in (s * m..n).rev() {
            for i in 0..m {
                let v = g[(i, j - m)];
                g[(i, j)] = v;
            }
        }

        for k in 0..m {
            let c = s * m + k;
            // Build (or repair) the pivot reflector for column c. A
            // column can need at most one exchange plus a few escalating
            // perturbation retries.
            let mut attempts = 0;
            let mut local_delta_boost = 1.0f64;
            loop {
                attempts += 1;
                if attempts > 6 {
                    ws.give_matrix(r);
                    return Err(Error::SingularMinor {
                        step: s,
                        column: k,
                        hnorm: 0.0,
                    });
                }
                let u_top = g[(k, c)];
                scratch.u_low.clear();
                scratch.u_low.extend((0..m).map(|i| g[(m + i, c)]));
                let outcome = PivotReflector::compute_into(
                    u_top,
                    &scratch.u_low,
                    &w,
                    m,
                    k,
                    opts.zero_tol,
                    t_scale,
                    &mut scratch.refl,
                );
                match outcome {
                    PivotOutcome::Ok => break,
                    PivotOutcome::WrongSign { hnorm } => {
                        // Exchange with the largest-magnitude lower row of
                        // the signature sign(h) = −w_k.
                        let want: i8 = if hnorm > 0.0 { 1 } else { -1 };
                        let mut best: Option<(usize, T)> = None;
                        for (i, &v) in scratch.u_low.iter().enumerate() {
                            if w.sign(m + i) == want {
                                let mag = v.abs();
                                if best.map(|(_, b)| mag > b).unwrap_or(true) {
                                    best = Some((i, mag));
                                }
                            }
                        }
                        let Some((i, _)) = best else {
                            ws.give_matrix(r);
                            return Err(Error::NoExchangeCandidate { step: s, column: k });
                        };
                        let j_row = m + i;
                        // Swap rows k and j_row over the active columns.
                        for col in s * m..n {
                            let a = g[(k, col)];
                            let b = g[(j_row, col)];
                            g[(k, col)] = b;
                            g[(j_row, col)] = a;
                        }
                        w.0.swap(k, j_row);
                        exchanges += 1;
                        metrics::incr(Counter::Exchanges);
                    }
                    PivotOutcome::ZeroNorm { hnorm } => {
                        if !opts.allow_perturbation {
                            ws.give_matrix(r);
                            return Err(Error::SingularMinor {
                                step: s,
                                column: k,
                                hnorm,
                            });
                        }
                        // Retries at the same column escalate the same
                        // logical perturbation instead of consuming a new
                        // schedule slot.
                        let prev_delta = perturbations
                            .last()
                            .filter(|pt| pt.step == s && pt.column == k)
                            .map(|pt| pt.delta);
                        let delta = match prev_delta {
                            Some(prev) => {
                                local_delta_boost *= 100.0;
                                (prev * local_delta_boost).min(1e-2)
                            }
                            None => {
                                local_delta_boost = 1.0;
                                match next_delta(&perturbations) {
                                    Some(dv) => dv,
                                    None => {
                                        ws.give_matrix(r);
                                        scratch.sig_pool = d;
                                        scratch.pert_pool = perturbations;
                                        ws.contract_region("eliminate_indefinite", ws_entry, 0);
                                        return Ok(Attempt::NeedsLongerSchedule);
                                    }
                                }
                            }
                        };
                        // §8.2 recipe: scale the pivot entry by √(1+δ),
                        // making the hyperbolic norm ≈ w_k·δ·u_k².
                        let scale2 = (u_top * u_top
                            + scratch.u_low.iter().fold(T::ZERO, |acc, &v| acc + v * v))
                        .to_f64();
                        if (u_top * u_top).to_f64() > 1e-3 * scale2
                            && scale2 > opts.zero_tol * t_scale
                        {
                            g[(k, c)] = u_top * T::from_f64((1.0 + delta).sqrt());
                        } else {
                            // Degenerate pivot entry: inject an absolute
                            // perturbation at the matrix scale.
                            g[(k, c)] = u_top + T::from_f64(delta * t_scale.sqrt());
                        }
                        match perturbations.last_mut() {
                            Some(pt) if prev_delta.is_some() => pt.delta = delta,
                            _ => {
                                perturbations.push(Perturbation {
                                    step: s,
                                    column: k,
                                    delta,
                                    hnorm_before: hnorm,
                                });
                                metrics::incr(Counter::Perturbations);
                            }
                        }
                        bs_probe::event!("perturbation", step = s, column = k, delta = delta);
                    }
                }
            }
            let refl = &scratch.refl;
            crate::contracts::hyperbolic_existence(s, k, refl.sigma.to_f64(), refl.beta.to_f64());
            max_norm = max_norm.max(refl.norm_est());
            metrics::incr(Counter::Reflectors);
            if stability::is_enabled() {
                // The column still holds its pre-elimination entries
                // here (finalization overwrites them just below).
                let mut cn = g[(k, c)] * g[(k, c)];
                for i in 0..m {
                    cn += g[(m + i, c)] * g[(m + i, c)];
                }
                stability::record_step(
                    s,
                    k,
                    cn.to_f64().sqrt(),
                    (refl.sigma * refl.sigma).to_f64(),
                    refl.norm_est(),
                );
            }
            // Finalize column c and update the trailing columns.
            g[(k, c)] = -refl.sigma;
            for i in 0..m {
                g[(m + i, c)] = T::ZERO;
            }
            for col in c + 1..n {
                let mut top = g[(k, col)];
                scratch.low.clear();
                scratch.low.extend((0..m).map(|i| g[(m + i, col)]));
                refl.apply_split(&w, m, &mut top, &mut scratch.low);
                g[(k, col)] = top;
                for i in 0..m {
                    g[(m + i, col)] = scratch.low[i];
                }
            }
        }

        // Emit block row s with its signature.
        for j in s * m..n {
            for i in 0..m {
                r[(s * m + i, j)] = g[(i, j)];
            }
        }
        d[s * m..(s + 1) * m].copy_from_slice(&w.0[..m]);
        crate::contracts::signature_consistency(&w.0, w_sum, s);
        if bs_probe::trace::is_enabled() {
            bs_probe::event!(
                "indef_step_done",
                step = s,
                flops = (bs_matrix::flops::total() - step_flops0),
                growth = bs_probe::stability::peak_growth(),
            );
        }
        if let Some(t0) = step_t0 {
            bs_probe::histogram::record(
                bs_probe::Hist::FactorStepNs,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }

    // Positive diagonal normalization (row sign flips leave RᵀDR fixed)
    // and removal of O(ε) sub-diagonal roundoff.
    normalize_diagonal(&mut r);
    // paranoid: the factor keeps `r` checked out, so the balance delta
    // across a completed elimination is exactly +1.
    ws.contract_region("eliminate_indefinite", ws_entry, 1);
    // bs-lint: allow(no-alloc-hot) -- one Box per completed factorization (the return value), not per solve
    Ok(Attempt::Done(Box::new(IndefFactor {
        r,
        d,
        perturbations,
        exchanges,
        max_reflector_norm: max_norm,
        m,
        p,
    })))
}

/// Flip the sign of rows whose diagonal is negative so `R` has a
/// positive diagonal (`RᵀR` / `RᵀDR` are invariant under row sign
/// changes), and zero the strict lower triangle — within each emitted
/// diagonal block the sub-diagonal entries are exact zeros in exact
/// arithmetic but carry `O(ε)` roundoff from the level-3 updates.
pub(crate) fn normalize_diagonal<T: Scalar>(r: &mut Matrix<T>) {
    let n = r.rows();
    for i in 0..n {
        if r[(i, i)] < T::ZERO {
            for j in i..n {
                r[(i, j)] = -r[(i, j)];
            }
        }
    }
    for j in 0..n {
        for i in j + 1..n {
            r[(i, j)] = T::ZERO;
        }
    }
}
