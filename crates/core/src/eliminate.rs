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
//! Both keep the generator stacked, upper half over lower half, and
//! realize phase 3 as an explicit move of the upper half one block to
//! the right inside that buffer. The paper's §6.4 alternative, pairing
//! upper block column `j − s` with lower block column `j` so nothing
//! moves, needs the halves stored apart and therefore a second
//! reflector kernel with half-height products; on this engine that
//! layout is slower (DESIGN.md §7).
//!
//! The kernels share the panel / reflector / diagonal normalization
//! machinery. Each factorization gets one fresh [`Workspace`] and one
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
use bs_matrix::{Matrix, Scalar, Workspace};
use bs_probe::metrics::{self, Counter};
use bs_probe::stability;
use bs_toeplitz::{build_generator, SymBlockToeplitz};
use std::borrow::Cow;

/// Engine state one factorization reuses across its steps: the
/// per-chunk block reflectors, the panel scratch, and the indefinite
/// kernel's elementary reflector.
#[derive(Debug)]
pub(crate) struct EngineScratch<T: Scalar = f64> {
    /// Panel-factorization scratch (pivot reflector and
    /// representation-update buffers).
    panel: PanelScratch<T>,
    /// Chunk block reflectors, reused across steps via `reset`.
    reps: Vec<BlockReflector<T>>,
    /// The indefinite kernel's elementary reflector.
    refl: PivotReflector<T>,
}

impl<T: Scalar> Default for EngineScratch<T> {
    fn default() -> Self {
        EngineScratch {
            panel: PanelScratch::default(),
            reps: Vec::new(),
            refl: PivotReflector::empty(),
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
/// factor block row into the upper triangle of the `n × n` matrix `r`;
/// rows are *not* sign-normalized. Returns `(m, p, comm_words_per_step)`.
///
/// The working generator is one stacked `2m × n` buffer checked out of
/// this factorization's own [`Workspace`] — the layout every shard rank
/// packs — so the pivot panel is factored in place and each trailing
/// update is one reflector application over a contiguous `2m × q`
/// view. Later steps reuse what the first one checked out, and every
/// buffer is back in the arena before this function exits, even on
/// error.
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
    r.sub_mut(0, 0, m, n).copy_from(g.sub(0, 0, m, n));

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

        // Phase 3: move the upper half right by one block. Columns go
        // in descending order, so each source is read before it is
        // overwritten.
        let data = g.as_mut_slice();
        for c in (s * m..n).rev() {
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

        // Phase 2: trailing update, one chunk transformation after the
        // other.
        let trail = width - m;
        if trail > 0 {
            let apply_flops0 = if bs_probe::trace::is_enabled() {
                bs_matrix::flops::total()
            } else {
                0
            };
            let apply_span = bs_probe::span!("apply_rep", step = s, cols = trail);
            for rep in &scratch.reps {
                rep.apply(g.sub_mut(0, (s + 1) * m, 2 * m, trail), &opts.exec, &mut ws);
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
        r.sub_mut(s * m, s * m, m, width)
            .copy_from(g.sub(0, s * m, m, width));

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
    r.sub_mut(0, 0, m, n).copy_from(g.sub(0, 0, m, n));
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
        r.sub_mut(s * m, s * m, m, n - s * m)
            .copy_from(g.sub(0, s * m, m, n - s * m));
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
pub fn normalize_diagonal<T: Scalar>(r: &mut Matrix<T>) {
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
