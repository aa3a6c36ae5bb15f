//! The generator-elimination kernels behind both factorization drivers.
//!
//! `schur.rs` (SPD, §5–§6) and `indefinite.rs` (§8) run the same
//! `p − 1`-step elimination of the `2m × n` generator, but as two
//! kernels, because they treat a pivot column differently:
//!
//! - `eliminate_spd` aborts on a pivot column whose hyperbolic norm
//!   is not strictly positive (`NotPositiveDefinite` /
//!   `SingularMinor`). Each step factors the pivot panel into block
//!   reflectors and applies them to the trailing generator with
//!   level-3 kernels.
//! - `eliminate_indefinite` repairs wrong-signed pivots with a row
//!   exchange against a matching-signature lower generator row, and
//!   numerically zero pivots with the §8.2 graded δ-perturbation.
//!   Exchanges do not commute past the blocked representations, so the
//!   trailing update is per-reflector.
//!
//! Both keep the generator stacked, upper half over lower half. Phase 3
//! moves the upper half one block to the right inside that buffer. In
//! an SPD step whose reflector products all stream (VY chunks below the
//! packed GEMM threshold, i.e. every chunk's `k < 16`: all of
//! `m_s < 16`, and two-level chunks of `k < 16` at larger `m_s`) and
//! whose policy keeps the update inline, no move happens as a pass of
//! its own: one descending sweep reads each trailing column's shifted
//! upper rows by index offset from column `c − m`, applies the step's
//! reflectors and writes the column's `R` entries — the paper's §6.4
//! "no phase-3 copy", done inside the one stacked buffer. Other steps,
//! pooled ones included, and the indefinite kernel move the upper half
//! explicitly. (§6.4's own layout, the halves stored apart
//! so that upper block column `j − s` pairs with lower block column
//! `j`, needs a second reflector kernel with half-height products and
//! measured slower here; DESIGN.md §7.)
//!
//! Every `R` producer — both kernels here and the shard gather — writes
//! each factor row once through [`emit_rows`], with the row's sign
//! (that of its diagonal entry, known once its pivot panel is factored)
//! already applied and the strict lower part of its diagonal block
//! written as zero. There is no normalization pass afterwards.
//!
//! The kernels share the panel / reflector / `R` emission machinery.
//! Each factorization gets one fresh [`Workspace`] and one
//! `EngineScratch` (`eliminate_spd` makes its own; `factor_indefinite`
//! shares one pair across its backtracking passes): the first step
//! allocates the working buffers and the other `p − 2` steps reuse
//! them, since the trailing extent only shrinks. Nothing is carried
//! from one factorization to the next.

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

/// Engine state one factorization reuses across its steps: the
/// per-chunk block reflectors, the panel scratch, the indefinite
/// kernel's elementary reflector, and the step's `R` emission state.
#[derive(Debug)]
pub(crate) struct EngineScratch<T: Scalar = f64> {
    /// Panel-factorization scratch (pivot reflector and
    /// representation-update buffers).
    panel: PanelScratch<T>,
    /// Chunk block reflectors, reused across steps via `reset`.
    reps: Vec<BlockReflector<T>>,
    /// The indefinite kernel's elementary reflector.
    refl: PivotReflector<T>,
    /// The pivot block column's upper rows from before its shift
    /// (`m × m`, column-major): the source of the first trailing
    /// block's shifted upper rows.
    saved: Vec<T>,
    /// Per row of the current `R` row block: negate it on emission.
    neg: Vec<bool>,
}

impl<T: Scalar> Default for EngineScratch<T> {
    fn default() -> Self {
        EngineScratch {
            panel: PanelScratch::default(),
            reps: Vec::new(),
            refl: PivotReflector::empty(),
            saved: Vec::new(),
            neg: Vec::new(),
        }
    }
}

/// Check an algorithmic block size `m_s` for an order-`n` system with
/// structural block size `m`: it must be a positive multiple of `m`
/// and divide `n`.
pub(crate) fn check_block_size(n: usize, m: usize, ms: usize) -> Result<()> {
    if ms == 0 || !ms.is_multiple_of(m) {
        return Err(Error::InvalidOptions(format!(
            "m_s = {ms} is not a positive multiple of m = {m}"
        )));
    }
    if !n.is_multiple_of(ms) {
        return Err(Error::InvalidOptions(format!(
            "m_s = {ms} does not divide n = {n}"
        )));
    }
    Ok(())
}

/// Validate and apply an algorithmic-block-size override (see
/// [`check_block_size`]).
pub(crate) fn retiled<'a, T: Scalar>(
    t: &'a SymBlockToeplitz<T>,
    block_size: Option<usize>,
) -> Result<Cow<'a, SymBlockToeplitz<T>>> {
    let Some(ms) = block_size else {
        return Ok(Cow::Borrowed(t));
    };
    check_block_size(t.order(), t.block_size(), ms)?;
    Ok(Cow::Owned(t.retile(ms)))
}

/// SPD elimination kernel (phases 1–3 of §6). `t_ref` must already be
/// retiled to the algorithmic block size (see [`retiled`]). Writes each
/// factor block row, sign-normalized (see [`emit_rows`]), into the upper
/// triangle of the `n × n` matrix `r`, which must be zero below its
/// diagonal. Returns `(m, p, comm_words_per_step)`.
///
/// The working generator is one stacked `2m × n` buffer checked out of
/// this factorization's own [`Workspace`] — the layout every shard rank
/// packs — so the pivot panel is factored in place and each trailing
/// update runs over contiguous `2m`-row columns: one inline sweep
/// through [`BlockReflector::stream_col`] when the step's products all
/// stream and the policy keeps the update inline, one reflector
/// application per chunk over a `2m × q` view otherwise. Later
/// steps reuse what the first one checked out, and every buffer is back
/// in the arena before this function exits, even on error.
pub(crate) fn eliminate_spd<T: Scalar>(
    t_ref: &SymBlockToeplitz<T>,
    opts: &SchurOptions,
    r: &mut Matrix<T>,
) -> Result<(usize, usize, usize)> {
    let m = t_ref.block_size();
    let p = t_ref.num_blocks();
    let n = m * p;
    let _span = bs_probe::span!("factor_spd", n = n, m = m, p = p);
    let mut ws = Workspace::new();
    let mut scratch = EngineScratch::default();

    let gen = build_generator(t_ref)?;
    if !gen.is_spd_signature() {
        return Err(Error::NotPositiveDefinite {
            step: 0,
            column: 0,
            hnorm: -1.0,
        });
    }
    let w = Signature::hyperbolic(m);

    let mut g = ws.take_matrix(2 * m, n);
    g.mt().copy_from(gen.data.rf());

    // R block row 0 is the untransformed upper generator half.
    set_negations(&mut scratch.neg, m, |i| g[(i, i)]);
    emit_rows(r, 0, 0, g.sub(0, 0, m, n), &scratch.neg);

    let mut comm_words = 0usize;
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

        // Phase 3 for the pivot block column: keep its upper rows (the
        // first trailing block shifts in from them), then move block
        // column s − 1's upper rows into it.
        let data = g.as_mut_slice();
        scratch.saved.clear();
        for c in s * m..(s + 1) * m {
            scratch
                .saved
                .extend_from_slice(&data[c * 2 * m..c * 2 * m + m]);
            let src = (c - m) * 2 * m;
            data.copy_within(src..src + m, c * 2 * m);
        }

        // Phase 1: factor the pivot panel, block column s, in place.
        let panel_flops0 = if bs_probe::trace::is_enabled() {
            bs_matrix::flops::total()
        } else {
            0
        };
        let panel_span = bs_probe::span!("factor_panel", step = s);
        let k_block = opts.two_level.unwrap_or(m).clamp(1, m);
        if let Err(e) = factor_panel_into(
            g.sub_mut(0, s * m, 2 * m, m),
            &w,
            opts.rep,
            s,
            opts.zero_tol,
            scale,
            k_block,
            &mut scratch.reps,
            &mut scratch.panel,
            &mut ws,
        ) {
            failure = Some(e);
            break 'steps;
        }
        let step_words: usize = scratch.reps.iter().map(|r| r.comm_words()).sum();
        comm_words = comm_words.max(step_words);
        metrics::add(Counter::CommWords, step_words as u64);
        drop(panel_span);
        if bs_probe::trace::is_enabled() {
            bs_probe::event!(
                "panel_done",
                step = s,
                flops = (bs_matrix::flops::total() - panel_flops0),
            );
        }

        // The diagonal block of R row block s fixes the row signs.
        set_negations(&mut scratch.neg, m, |i| g[(i, s * m + i)]);
        emit_rows(r, s * m, s * m, g.sub(0, s * m, m, m), &scratch.neg);

        // Phases 3 and 2 on the trailing columns, one chunk
        // transformation after the other, and their R entries.
        let trail = width - m;
        if trail > 0 {
            let apply_flops0 = if bs_probe::trace::is_enabled() {
                bs_matrix::flops::total()
            } else {
                0
            };
            let apply_span = bs_probe::span!("apply_rep", step = s, cols = trail);
            // A step whose products stream is one inline sweep, unless
            // the policy fans the update out to the pool: then the
            // strips stream their columns in parallel after an explicit
            // shift. Both run `stream_col` per column, so the bits agree.
            let sweep_inline = scratch
                .reps
                .iter()
                .all(|rep| rep.streams(trail) && !rep.fans_out(trail, &opts.exec));
            if sweep_inline {
                for rep in &scratch.reps {
                    rep.charge_streamed(trail, &opts.exec);
                }
                let k_max = scratch.reps.iter().map(|rep| rep.len()).max().unwrap_or(0);
                let one_chunk = scratch.reps.len() == 1 && k_max == m;
                let mut z = ws.take_vec(k_max);
                let sweep = match (one_chunk, m) {
                    (true, 1) => stream_trailing::<T, 1>,
                    (true, 2) => stream_trailing::<T, 2>,
                    (true, 3) => stream_trailing::<T, 3>,
                    (true, 4) => stream_trailing::<T, 4>,
                    (true, 5) => stream_trailing::<T, 5>,
                    (true, 6) => stream_trailing::<T, 6>,
                    (true, 7) => stream_trailing::<T, 7>,
                    (true, 8) => stream_trailing::<T, 8>,
                    _ => stream_trailing::<T, 0>,
                };
                sweep(
                    g.as_mut_slice(),
                    r,
                    m,
                    s,
                    &scratch.saved,
                    &scratch.neg,
                    &scratch.reps,
                    &mut z,
                );
                ws.give_vec(z);
            } else {
                let data = g.as_mut_slice();
                for c in ((s + 2) * m..n).rev() {
                    let src = (c - m) * 2 * m;
                    data.copy_within(src..src + m, c * 2 * m);
                }
                for (b, c) in ((s + 1) * m..(s + 2) * m).enumerate() {
                    data[c * 2 * m..c * 2 * m + m]
                        .copy_from_slice(&scratch.saved[b * m..(b + 1) * m]);
                }
                for rep in &scratch.reps {
                    rep.apply(g.sub_mut(0, (s + 1) * m, 2 * m, trail), &opts.exec, &mut ws);
                }
                emit_rows(
                    r,
                    s * m,
                    (s + 1) * m,
                    g.sub(0, (s + 1) * m, m, trail),
                    &scratch.neg,
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

    ws.give_matrix(g);
    // paranoid: the arena is ours and received no donations, so every
    // checkout must be back in it here, success or failure.
    ws.contract_quiescent("eliminate_spd");
    match failure {
        Some(e) => Err(e),
        None => Ok((m, p, comm_words)),
    }
}

/// Phases 3 and 2 of a streamed step and the trailing part of `R` row
/// block `s`, in one descending sweep over the trailing columns of the
/// stacked generator `data` (`2m` entries per column). Each column
/// takes its shifted upper rows by index offset from column `c − m` —
/// from `saved` (the pivot block column's pre-shift upper rows) for the
/// first trailing block, whose source column already holds the
/// factored pivot panel — goes through each chunk of `reps` in order
/// ([`BlockReflector::stream_col`]), and writes its `R` entries
/// negated where `neg` says.
/// Descending order reads every upper half before it is overwritten,
/// like the explicit shift. Each column's arithmetic is the
/// column-wise [`BlockReflector::apply`]'s, so the factor does not
/// depend on strips or threads.
///
/// `M > 0` fixes `m = M` with one chunk of `M` reflectors at compile
/// time, so `z` and the column live in registers; `M = 0` handles any
/// shape with `z` (at least the largest chunk long) in memory, and at
/// `m_s = 1` took 2.4× as long on a 2-vCPU AVX2 host (EXPERIMENTS.md,
/// "Fused sweep vs explicit route").
#[allow(clippy::too_many_arguments)] // one step's state, read in the column loop
fn stream_trailing<T: Scalar, const M: usize>(
    data: &mut [T],
    r: &mut Matrix<T>,
    m: usize,
    s: usize,
    saved: &[T],
    neg: &[bool],
    reps: &[BlockReflector<T>],
    z: &mut [T],
) {
    let m = if M > 0 { M } else { m };
    let rows = 2 * m;
    let row0 = s * m;
    let c0 = row0 + m;
    let ncols = data.len() / rows;
    let neg = &neg[..m];
    for c in (c0..ncols).rev() {
        let (head, tail) = data.split_at_mut(c * rows);
        let col = &mut tail[..rows];
        let src = c - m;
        col[..m].copy_from_slice(if src >= c0 {
            &head[src * rows..src * rows + m]
        } else {
            &saved[(src - row0) * m..(src - row0 + 1) * m]
        });
        for rep in reps {
            if M > 0 {
                rep.stream_col(col, &mut [T::ZERO; M]);
            } else {
                rep.stream_col(col, &mut z[..rep.len()]);
            }
        }
        emit_col(&mut r.col_mut(c)[row0..row0 + m], &col[..m], neg, m);
    }
}

/// Set `neg[i]` for the `m` rows of an `R` row block from their
/// diagonal entries `diag(i)`: a row is negated on emission when its
/// diagonal is negative, so `R` has a positive diagonal (`RᵀR` and
/// `RᵀDR` are invariant under row sign changes).
fn set_negations<T: Scalar>(neg: &mut Vec<bool>, m: usize, diag: impl Fn(usize) -> T) {
    neg.clear();
    neg.extend((0..m).map(|i| diag(i) < T::ZERO));
}

/// Write `R` rows `row0..row0 + m` from `src` (`m × w`, whose columns
/// are `R` columns `col0..col0 + w`) under the one sign rule every `R`
/// producer follows: row `i` is negated when `neg[i]`, and entries left
/// of the diagonal — in exact arithmetic zero, in a factored diagonal
/// block `O(ε)` roundoff — are written as zero. No other entry of `r`
/// is touched, and each is written once, so no normalization pass
/// follows.
pub fn emit_rows<T: Scalar>(
    r: &mut Matrix<T>,
    row0: usize,
    col0: usize,
    src: MatRef<'_, T>,
    neg: &[bool],
) {
    let m = src.rows();
    for b in 0..src.cols() {
        let c = col0 + b;
        let live = (c + 1).saturating_sub(row0);
        emit_col(&mut r.col_mut(c)[row0..row0 + m], src.col(b), neg, live);
    }
}

/// One column of an `R` row block: `dst[i] = ±src[i]` (negated where
/// `neg[i]`) for `i < live`, zero from `live` on.
#[inline(always)]
fn emit_col<T: Scalar>(dst: &mut [T], src: &[T], neg: &[bool], live: usize) {
    for (i, ((d, &x), &ng)) in dst.iter_mut().zip(src).zip(neg).enumerate() {
        *d = if i >= live {
            T::ZERO
        } else if ng {
            -x
        } else {
            x
        };
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
/// returned to it on every non-`Done` exit), so a backtracking pass
/// under a longer schedule reuses the previous pass's `R`.
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
    // bs-lint: allow(no-alloc-hot) -- the factor's own signature D and perturbation log, returned inside it
    let (mut d, mut perturbations): (Vec<i8>, Vec<Perturbation>) = (vec![1; n], Vec::new());
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
    // Emit block row 0.
    set_negations(&mut scratch.neg, m, |i| g[(i, i)]);
    emit_rows(&mut r, 0, 0, g.sub(0, 0, m, n), &scratch.neg);
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
        // Columns go in descending order, so each source is read before
        // it is overwritten.
        let data = g.as_mut_slice();
        for c in (s * m..n).rev() {
            let src = (c - m) * 2 * m;
            data.copy_within(src..src + m, c * 2 * m);
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
                let u_low = &g.col(c)[m..];
                let outcome = PivotReflector::compute_into(
                    u_top,
                    u_low,
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
                        for (i, &v) in u_low.iter().enumerate() {
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
                                        ws.contract_region("eliminate_indefinite", ws_entry, 0);
                                        return Ok(Attempt::NeedsLongerSchedule);
                                    }
                                }
                            }
                        };
                        // §8.2 recipe: scale the pivot entry by √(1+δ),
                        // making the hyperbolic norm ≈ w_k·δ·u_k².
                        let scale2 = (u_top * u_top
                            + u_low.iter().fold(T::ZERO, |acc, &v| acc + v * v))
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
            g.col_mut(c)[m..].fill(T::ZERO);
            for col in c + 1..n {
                let (top, low) = g.col_mut(col).split_at_mut(m);
                refl.apply_split(&w, m, &mut top[k], low);
            }
        }

        // Emit block row s with its signature.
        set_negations(&mut scratch.neg, m, |i| g[(i, s * m + i)]);
        emit_rows(
            &mut r,
            s * m,
            s * m,
            g.sub(0, s * m, m, n - s * m),
            &scratch.neg,
        );
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_rows_applies_one_sign_rule_and_touches_nothing_else() {
        // R rows 2..5 from columns 2..6 of a 6 × 6 factor. The block's
        // diagonals are 1, −5 and −0.0: only the row whose diagonal is
        // negative flips (signed zeros with it), entries left of the
        // diagonal become +0.0 whatever they held, and every entry
        // outside the block keeps its sentinel.
        let src = Matrix::from_fn(3, 4, |i, j| match (i, j) {
            (1, 1) => -5.0,
            (2, 2) => -0.0,
            (0, 3) => -0.0,
            (1, 3) => 0.0,
            _ if i > j => 1e-17,
            _ => (10 * i + j) as f64 + 1.0,
        });
        let mut neg = Vec::new();
        set_negations(&mut neg, 3, |i| src[(i, i)]);
        assert_eq!(neg, [false, true, false]);
        let sentinel = 7.0;
        let mut r = Matrix::from_fn(6, 6, |_, _| sentinel);
        emit_rows(&mut r, 2, 2, src.rf(), &neg);
        for i in 0..6 {
            for j in 0..6 {
                let got = r[(i, j)].to_bits();
                let want = if !(2..5).contains(&i) || j < 2 {
                    sentinel
                } else if i > j {
                    0.0
                } else if neg[i - 2] {
                    -src[(i - 2, j - 2)]
                } else {
                    src[(i - 2, j - 2)]
                };
                assert_eq!(got, want.to_bits(), "r[({i}, {j})]");
            }
        }
    }
}
