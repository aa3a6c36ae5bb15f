//! Plan/execute engine: decide *how* to factor once, run it many times.
//!
//! A [`FactorPlan`] captures every algorithmic choice of the block
//! Schur factorization — representation of the block reflectors (§4),
//! algorithmic block size `m_s` (§6.5), two-level chunking, pivot
//! fallback policy — for one system shape `(n, m)`.
//! Fields a [`PlanRequest`] leaves unset are chosen from the
//! `bs-perfmodel` cost formulas (eqs. 25–32): the representation by
//! total blocking + application flops over all `p − 1` steps, the
//! block size by the §6.5 retiling tradeoff under the default
//! saturating rate model.
//!
//! [`FactorPlan::execute`] runs the plan against a concrete matrix: it
//! calls [`factor_spd`] and, when that meets a non-positive or singular
//! pivot, [`factor_indefinite`] (row exchanges + graded
//! δ-perturbation, §8). Each driver call gives its factorization one
//! fresh scratch arena that the `p − 1` steps reuse.

use crate::eliminate::check_block_size;
use crate::factor::Factorization;
use crate::indefinite::{factor_indefinite, IndefFactor, IndefOptions};
use crate::rep::RepKind;
use crate::schur::{factor_spd, SchurOptions};
use crate::{Error, Result};
use bs_matrix::{kernel, par, ExecPolicy, Scalar};
use bs_perfmodel::model;
use bs_perfmodel::tradeoff::{self, RateTable};
use bs_toeplitz::SymBlockToeplitz;
use std::sync::Mutex;

/// Arithmetic precision of the factorization stage.
///
/// The solve-side contract differs per variant (see
/// [`crate::Factor::solve`]): `F64` is the bitwise-pinned
/// reference path, `F32` trades accuracy for the doubled SIMD width of
/// the f32 microkernels, and `Mixed` recovers f64-grade residuals from
/// the f32 factor through the §8.1 refinement loop — the paper's
/// perturbation-recovery machinery reused as a precision-recovery loop
/// (the promoted factor plays the role of `Rᵀ D R` of `T + δT` with
/// `δT` the f32 rounding backward error).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// Factor and solve entirely in f64 (the default).
    #[default]
    F64,
    /// Factor in f32 and promote: roughly half the factor time on
    /// SIMD-bound shapes. An unperturbed factor answers directly, at
    /// f32 resolution; a δ-perturbed one (singular minor, δ graded
    /// from f32's ε) refines against the f64 operator like any
    /// perturbed factor.
    F32,
    /// Factor in f32, promote, and refine every solve against the f64
    /// operator until the residual bound is met; when refinement
    /// stalls the solver falls back to a cached full f64
    /// refactorization (surfaced via `Counter::MixedStallFallbacks`).
    Mixed,
}

impl Precision {
    /// Canonical lower-case name (`f64`, `f32`, `mixed`).
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Mixed => "mixed",
        }
    }

    /// Parse a case-insensitive precision name.
    pub fn parse(s: &str) -> Option<Precision> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f64" | "double" => Some(Precision::F64),
            "f32" | "single" => Some(Precision::F32),
            "mixed" => Some(Precision::Mixed),
            _ => None,
        }
    }

    /// Stable index for trace events.
    fn index(self) -> usize {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
            Precision::Mixed => 2,
        }
    }
}

/// A request for a [`FactorPlan`]: pin the choices you care about,
/// leave the rest `None` for the cost model to decide.
#[derive(Clone, Debug, Default)]
pub struct PlanRequest {
    /// Block reflector representation; `None` → minimize the total
    /// blocking + application flops (eqs. 25–32).
    pub rep: Option<RepKind>,
    /// Algorithmic block size `m_s`; `None` → the §6.5 retiling
    /// tradeoff under [`bs_perfmodel::tradeoff::default_rate`]. Must be
    /// a multiple of the structural block size and divide `n` when
    /// pinned.
    pub block_size: Option<usize>,
    /// Worker threads for the trailing update; `None` → `BS_THREADS`
    /// when set, otherwise cost-model selection
    /// ([`bs_perfmodel::tradeoff::auto_threads`] on the predicted
    /// elimination flops, clamped to the machine's cores).
    pub threads: Option<usize>,
    /// Two-level panel chunk size (§6.2); `None` blocks whole panels.
    pub two_level: Option<usize>,
    /// SPD zero-pivot tolerance; `None` → the [`SchurOptions`] default.
    pub zero_tol: Option<f64>,
    /// Options for the indefinite fallback kernel.
    pub indefinite: IndefOptions,
    /// Drive the auto-selection of `m_s` and threads from the one-shot
    /// kernel calibration ([`bs_matrix::kernel::calibrate`]) instead of
    /// the assumed saturating rate model. Also enabled process-wide by
    /// `BS_CALIBRATE=1`. Opt-in: the measurement is wall-clock and the
    /// resulting picks vary with the machine, so pinned-expectation
    /// callers (tests, reproducibility scripts) keep the analytic model
    /// by default.
    pub calibrate: bool,
    /// Arithmetic precision of the factorization stage; see
    /// [`Precision`].
    pub precision: Precision,
}

/// `BS_CALIBRATE=1` (or `true`) turns measured-rate planning on for
/// every request in the process.
fn env_calibrate() -> bool {
    std::env::var("BS_CALIBRATE").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// `BS_PRECISION=f64|f32|mixed` overrides the requested factorization
/// precision for every plan *request* in the process — the test tier
/// hook that pushes a targeted suite through the low-precision paths.
/// Explicit [`FactorPlan::from_options`] plans stay pinned at f64;
/// unparseable values are ignored.
fn env_precision() -> Option<Precision> {
    std::env::var("BS_PRECISION")
        .ok()
        .and_then(|v| Precision::parse(&v))
}

/// An executable factorization plan for one system shape. Build with
/// [`FactorPlan::new`] (cost-model auto-selection for unset fields) or
/// [`FactorPlan::from_options`] (everything pinned, the path
/// [`crate::Factor::new`] takes).
#[derive(Clone, Debug)]
#[must_use]
pub struct FactorPlan {
    n: usize,
    m: usize,
    m_s: usize,
    p: usize,
    rep_auto: bool,
    block_auto: bool,
    threads_auto: bool,
    calibrated: bool,
    precision: Precision,
    kernel_isa: &'static str,
    spd: SchurOptions,
    indefinite: IndefOptions,
    predicted_flops: f64,
    predicted_comm_words: usize,
}

/// Stable index for trace events (which carry only numeric values).
fn rep_index(k: RepKind) -> usize {
    match k {
        RepKind::Accumulated => 0,
        RepKind::VY1 => 1,
        RepKind::VY2 => 2,
        RepKind::YTY => 3,
        RepKind::Sequential => 4,
    }
}

/// Stable index of the dispatched kernel ISA for trace events.
fn isa_index(isa: kernel::Isa) -> usize {
    match isa {
        kernel::Isa::Portable => 0,
        kernel::Isa::Avx2 => 1,
        kernel::Isa::Avx512 => 2,
        kernel::Isa::Neon => 3,
    }
}

impl FactorPlan {
    /// Plan for the shape of `t`, auto-selecting what `req` leaves
    /// unset.
    pub fn new(t: &SymBlockToeplitz, req: &PlanRequest) -> Result<FactorPlan> {
        Self::for_shape(t.order(), t.block_size(), req)
    }

    /// Plan for an order-`n` system with structural block size `m`
    /// (no matrix needed — shapes are all the planner consumes).
    pub fn for_shape(n: usize, m: usize, req: &PlanRequest) -> Result<FactorPlan> {
        if m == 0 || n == 0 || !n.is_multiple_of(m) {
            return Err(Error::InvalidOptions(format!(
                "order n = {n} must be a positive multiple of the block size m = {m}"
            )));
        }
        let precision = env_precision().unwrap_or(req.precision);
        // Measured-rate planning (opt-in): swap the assumed saturating
        // rate curve for the one-shot kernel calibration of the running
        // machine. The first calibrated plan in a process pays the
        // measurement; later ones reuse it. Low-precision plans price
        // their factor stage from the f32 calibration — the f32 kernels
        // run at roughly double rate, which shifts both the block-size
        // and thread-count crossovers.
        let rates = (req.calibrate || env_calibrate()).then(|| match precision {
            Precision::F64 => RateTable::new(&kernel::calibrate::calibration().points),
            Precision::F32 | Precision::Mixed => {
                RateTable::new(&kernel::calibrate::calibration_f32().points)
            }
        });
        let (m_s, block_auto) = match req.block_size {
            Some(ms) => {
                check_block_size(n, m, ms)?;
                (ms, false)
            }
            None => match &rates {
                Some(t) => (tradeoff::auto_block_size_with_rate(n, m, t), true),
                None => (tradeoff::auto_block_size(n, m), true),
            },
        };
        let p = n / m_s;
        let (rep, rep_auto) = match req.rep {
            Some(r) => (r, false),
            None => (tradeoff::best_rep_total(m_s, p).into(), true),
        };
        // Thread resolution: explicit request > BS_THREADS environment >
        // cost model (resolved in `assemble` once the predicted flops
        // are known).
        let (exec, threads_auto) = match req.threads.or_else(par::env_threads) {
            Some(t) => (ExecPolicy::with_threads(t), false),
            None => (ExecPolicy::sequential(), true),
        };
        let spd = SchurOptions {
            rep,
            exec,
            block_size: (m_s != m).then_some(m_s),
            two_level: req.two_level,
            zero_tol: req.zero_tol.unwrap_or(SchurOptions::default().zero_tol),
        };
        Ok(Self::assemble(
            n,
            m,
            spd,
            req.indefinite.clone(),
            rep_auto,
            block_auto,
            threads_auto,
            rates.as_ref(),
            precision,
        ))
    }

    /// Plan with everything pinned by explicit driver options — the
    /// exact configuration `factor_spd` / `factor_indefinite` would
    /// run, no cost-model involvement.
    pub fn from_options(
        t: &SymBlockToeplitz,
        spd: &SchurOptions,
        indefinite: &IndefOptions,
    ) -> Result<FactorPlan> {
        let (n, m) = (t.order(), t.block_size());
        if let Some(ms) = spd.block_size {
            check_block_size(n, m, ms)?;
        }
        Ok(Self::assemble(
            n,
            m,
            spd.clone(),
            indefinite.clone(),
            false,
            false,
            false,
            None,
            Precision::F64,
        ))
    }

    #[allow(clippy::too_many_arguments)] // private assembly step; the public surface is PlanRequest
    fn assemble(
        n: usize,
        m: usize,
        mut spd: SchurOptions,
        indefinite: IndefOptions,
        rep_auto: bool,
        block_auto: bool,
        threads_auto: bool,
        rates: Option<&RateTable>,
        precision: Precision,
    ) -> FactorPlan {
        let m_s = spd.block_size.unwrap_or(m);
        let p = n / m_s;
        let (predicted_flops, predicted_comm_words) = match spd.rep.model() {
            Some(r) => (
                tradeoff::total_schur_flops(r, m_s, p),
                model::comm_words(r, m_s),
            ),
            // Sequential: the headline §6.5 estimate and a per-reflector
            // broadcast (2m + 2 words each, m of them).
            None => (model::total_factor_flops(n, m_s), m_s * (2 * m_s + 2)),
        };
        if threads_auto {
            let avail = par::current_num_threads();
            spd.exec.threads = match rates {
                Some(t) => tradeoff::auto_threads_with_rate(
                    predicted_flops,
                    t.rate(m_s),
                    par::dispatch_overhead_ns(),
                    avail,
                ),
                None => tradeoff::auto_threads(predicted_flops, avail),
            };
        }
        if let Some(t) = rates {
            // Calibrated plans also gate strip dispatch on the measured
            // crossover (kernel rate × dispatch overhead) instead of
            // the static default volume, so small trailing updates run
            // inline even when threads were pinned > 1.
            spd.exec.min_work =
                tradeoff::min_dispatch_work(t.rate(m_s), par::dispatch_overhead_ns());
        }
        let active = kernel::active_isa();
        // Events carry at most trace::MAX_FIELDS fields inline, so the
        // plan decision is traced as a structural + an execution event.
        bs_probe::event!(
            "plan_built",
            n = n,
            m = m,
            m_s = m_s,
            p = p,
            rep = rep_index(spd.rep),
            rep_auto = rep_auto as usize,
        );
        // (block_auto moved off this event to stay within MAX_FIELDS;
        // it remains queryable via `block_size_is_auto`.)
        bs_probe::event!(
            "plan_exec",
            threads = spd.exec.threads,
            threads_auto = threads_auto as usize,
            kernel = isa_index(active),
            calibrated = rates.is_some() as usize,
            precision = precision.index(),
            predicted_flops = predicted_flops,
        );
        FactorPlan {
            n,
            m,
            m_s,
            p,
            rep_auto,
            block_auto,
            threads_auto,
            calibrated: rates.is_some(),
            precision,
            kernel_isa: active.name(),
            spd,
            indefinite,
            predicted_flops,
            predicted_comm_words,
        }
    }

    /// Execute against a concrete matrix of the planned shape: SPD
    /// attempt first, automatic indefinite fallback on
    /// `NotPositiveDefinite` / `SingularMinor`. [`Precision::F32`] and
    /// [`Precision::Mixed`] plans run the same sequence at f32 and
    /// promote the factor to f64 storage; a `Mixed` plan whose f32
    /// stage fails outright (e.g. a minor that is singular at f32
    /// resolution) falls back to the full f64 factorization, counted in
    /// `Counter::MixedStallFallbacks`.
    pub fn execute(&self, t: &SymBlockToeplitz) -> Result<Factorization> {
        self.check_shape(t)?;
        match self.precision {
            Precision::F64 => self.execute_f64(t),
            Precision::F32 => self.execute_demoted(t),
            Precision::Mixed => match self.execute_demoted(t) {
                Ok(f) => Ok(f),
                Err(_) => {
                    bs_probe::metrics::incr(bs_probe::metrics::Counter::MixedStallFallbacks);
                    bs_probe::event!("mixed_factor_fallback", n = self.n, m = self.m);
                    self.execute_f64(t)
                }
            },
        }
    }

    fn check_shape(&self, t: &SymBlockToeplitz) -> Result<()> {
        if t.order() != self.n {
            return Err(Error::DimensionMismatch {
                context: "planned matrix order",
                expected: self.n,
                found: t.order(),
            });
        }
        if t.block_size() != self.m {
            return Err(Error::DimensionMismatch {
                context: "planned structural block size",
                expected: self.m,
                found: t.block_size(),
            });
        }
        Ok(())
    }

    /// The reference f64 execution path — shape checks already done.
    /// Also the target of the mixed-precision stall fallback, which
    /// must bypass the precision dispatch of [`execute`](Self::execute).
    pub(crate) fn execute_f64(&self, t: &SymBlockToeplitz) -> Result<Factorization> {
        match factor_spd(t, &self.spd) {
            Ok(f) => Ok(Factorization::Spd(f)),
            Err(e) => self
                .indefinite_fallback(t, e)
                .map(Factorization::Indefinite),
        }
    }

    /// Low-precision execution: demote the operator to f32, run the
    /// same SPD-then-indefinite sequence on it, and promote the factor
    /// to f64 storage. The result is always
    /// [`Factorization::Indefinite`] (an SPD success promotes with
    /// `d = +1` and no perturbations) because the solve side feeds it
    /// to [`crate::solve_refined`], which takes the `Rᵀ D R` form.
    fn execute_demoted(&self, t: &SymBlockToeplitz) -> Result<Factorization> {
        let _span = bs_probe::span!("factor_f32", n = self.n, m = self.m);
        // Geometrically decaying generators drop below the f32 normal
        // range mid-elimination; without flushing, hardware subnormal
        // assists make the demoted factor *slower* than f64 (measured
        // ~6x at n = 256). Anything flushed is far below the f32
        // rounding backward error the refinement loop already absorbs.
        let _ftz = par::FlushSubnormals::engage();
        let t32 = t.convert::<f32>();
        let f = match factor_spd(&t32, &self.spd) {
            Ok(f) => IndefFactor {
                r: f.r,
                d: vec![1; self.n],
                perturbations: Vec::new(),
                exchanges: 0,
                // No perturbation fired, so reflector norms are O(1).
                max_reflector_norm: 1.0,
                m: f.m,
                p: f.p,
            },
            Err(e) => self.indefinite_fallback(&t32, e)?,
        };
        Ok(Factorization::Indefinite(IndefFactor {
            r: f.r.convert::<f64>(),
            d: f.d,
            perturbations: f.perturbations,
            exchanges: f.exchanges,
            max_reflector_norm: f.max_reflector_norm,
            m: f.m,
            p: f.p,
        }))
    }

    /// Replan onto the indefinite kernel after the SPD attempt failed
    /// with `e`, when `e` is a non-positive or singular pivot; any other
    /// error is returned as is.
    fn indefinite_fallback<T: Scalar>(
        &self,
        t: &SymBlockToeplitz<T>,
        e: Error,
    ) -> Result<IndefFactor<T>> {
        match e {
            // A singular pivot inside the retiled SPD panel solve is the
            // m_s > m manifestation of a singular leading minor: the
            // zero lands on a triangular diagonal instead of a pivot
            // classification, so it surfaces as a kernel error.
            Error::NotPositiveDefinite { .. }
            | Error::SingularMinor { .. }
            | Error::Matrix(bs_matrix::Error::SingularPivot { .. }) => {
                bs_probe::event!("plan_fallback_indefinite", n = self.n, m = self.m);
                factor_indefinite(t, &self.indefinite)
            }
            e => Err(e),
        }
    }

    /// Factor a batch of same-shaped systems through one pool dispatch:
    /// the systems are chunked across the plan's worker threads, so
    /// dispatch latency is amortized across the batch instead of paid
    /// per system. Results align positionally with `systems`, and each
    /// factorization is bitwise identical to a standalone
    /// [`execute`](Self::execute). The lowest-indexed failing system
    /// aborts the batch with its error.
    pub fn execute_batch(&self, systems: &[SymBlockToeplitz]) -> Result<Vec<Factorization>> {
        for t in systems {
            self.check_shape(t)?;
        }
        let k = systems.len();
        if k == 0 {
            return Ok(Vec::new());
        }
        let _span = bs_probe::span!("factor_batch", systems = k, n = self.n);
        let threads = self.spd.exec.threads.clamp(1, k);
        let chunk = k.div_ceil(threads);
        let mut out: Vec<Option<Factorization>> = Vec::with_capacity(k);
        out.resize_with(k, || None);
        let failed: Mutex<Option<(usize, Error)>> = Mutex::new(None);
        // One batch job: (first system index, systems, result slots).
        type BatchJob<'a> = (
            usize,
            &'a [SymBlockToeplitz],
            &'a mut [Option<Factorization>],
        );
        let jobs: Vec<BatchJob<'_>> = systems
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .enumerate()
            .map(|(ci, (ts, slots))| (ci * chunk, ts, slots))
            .collect();
        par::for_each_policy(&self.spd.exec, jobs, |(i0, ts, slots)| {
            for (j, (t, slot)) in ts.iter().zip(slots.iter_mut()).enumerate() {
                match self.execute(t) {
                    Ok(f) => *slot = Some(f),
                    Err(e) => {
                        let mut g = failed.lock().unwrap_or_else(|p| p.into_inner());
                        if g.as_ref().is_none_or(|(fi, _)| i0 + j < *fi) {
                            *g = Some((i0 + j, e));
                        }
                        break;
                    }
                }
            }
        });
        if let Some((_, e)) = failed.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
        // Every slot is Some here: a None would have recorded an error
        // above. Flatten without a panic path regardless.
        let filled: Vec<Factorization> = out.into_iter().flatten().collect();
        if filled.len() != k {
            return Err(Error::InvalidOptions(
                "batched factorization left an unfactored slot".into(),
            ));
        }
        Ok(filled)
    }

    /// Matrix order the plan was built for.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Algorithmic block size `m_s` the elimination runs at.
    pub fn block_size(&self) -> usize {
        self.m_s
    }

    /// Number of block columns at the algorithmic block size.
    pub fn num_blocks(&self) -> usize {
        self.p
    }

    /// Chosen block reflector representation.
    pub fn rep(&self) -> RepKind {
        self.spd.rep
    }

    /// `true` when the representation was cost-model-chosen.
    pub fn rep_is_auto(&self) -> bool {
        self.rep_auto
    }

    /// Arithmetic precision the plan factors at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// `true` when the block size was cost-model-chosen.
    pub fn block_size_is_auto(&self) -> bool {
        self.block_auto
    }

    /// Worker threads the trailing update fans out to (1 = inline).
    pub fn threads(&self) -> usize {
        self.spd.exec.threads
    }

    /// `true` when the thread count was cost-model-chosen (neither
    /// pinned in the request nor forced through `BS_THREADS`).
    pub fn threads_is_auto(&self) -> bool {
        self.threads_auto
    }

    /// Name of the SIMD microkernel ISA the BLAS-3 drivers were
    /// dispatching to when the plan was built (`portable`, `avx2`,
    /// `avx512`, or `neon`).
    pub fn kernel_isa(&self) -> &'static str {
        self.kernel_isa
    }

    /// `true` when auto-selection ran on the measured kernel-rate table
    /// instead of the assumed saturating model.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// Predicted elimination flops (eqs. 25–32 summed over the `p − 1`
    /// steps; the §6.5 estimate `4·m_s·n²` for `Sequential`).
    pub fn predicted_flops(&self) -> f64 {
        self.predicted_flops
    }

    /// Predicted per-step broadcast volume (§7), in words.
    pub fn predicted_comm_words(&self) -> usize {
        self.predicted_comm_words
    }

    /// The resolved SPD driver options the plan executes with.
    pub fn schur_options(&self) -> &SchurOptions {
        &self.spd
    }

    /// The indefinite-fallback options the plan executes with.
    pub fn indefinite_options(&self) -> &IndefOptions {
        &self.indefinite
    }

    /// The `δ` a singular minor is perturbed by in the plan's first
    /// factorization: [`Precision::F32`] and [`Precision::Mixed`]
    /// factor at f32 first, so theirs is graded from f32's `ε`.
    pub fn effective_delta(&self) -> f64 {
        match self.precision {
            Precision::F64 => self.indefinite.effective_delta(),
            Precision::F32 | Precision::Mixed => self.indefinite.effective_delta_for::<f32>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indefinite::factor_indefinite;
    use crate::schur::factor_spd;
    use bs_toeplitz::workloads;

    #[test]
    fn auto_rep_is_yty_when_blocking_dominates() {
        // p = 2 blocks of size 8: one elimination step, application
        // over a single trailing block — blocking cost dominates.
        let plan = FactorPlan::for_shape(16, 8, &PlanRequest::default()).unwrap();
        assert!(plan.rep_is_auto());
        assert_eq!(plan.rep(), RepKind::YTY, "blocking-heavy regime");
        assert_eq!(plan.block_size(), 8, "m_s = 8 sits at the rate optimum");
    }

    #[test]
    fn auto_rep_is_vy2_when_application_dominates() {
        // Many trailing block columns at small m: the per-step trailing
        // update dominates and VY2 (eq. 31) wins.
        let plan = FactorPlan::for_shape(
            64,
            2,
            &PlanRequest {
                block_size: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(plan.rep_is_auto());
        assert!(!plan.block_size_is_auto());
        assert_eq!(plan.rep(), RepKind::VY2, "application-heavy regime");
        assert_eq!(plan.num_blocks(), 32);
    }

    #[test]
    fn pinned_fields_are_respected() {
        let plan = FactorPlan::for_shape(
            32,
            1,
            &PlanRequest {
                rep: Some(RepKind::Accumulated),
                block_size: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!plan.rep_is_auto());
        assert!(!plan.block_size_is_auto());
        assert_eq!(plan.rep(), RepKind::Accumulated);
        assert_eq!(plan.block_size(), 4);
        assert!(plan.predicted_flops() > 0.0);
        assert!(plan.predicted_comm_words() > 0);
    }

    #[test]
    fn invalid_block_sizes_rejected() {
        let bad = FactorPlan::for_shape(
            10,
            1,
            &PlanRequest {
                block_size: Some(3),
                ..Default::default()
            },
        );
        assert!(matches!(bad, Err(Error::InvalidOptions(_))));
        let bad2 = FactorPlan::for_shape(
            10,
            2,
            &PlanRequest {
                block_size: Some(5),
                ..Default::default()
            },
        );
        assert!(matches!(bad2, Err(Error::InvalidOptions(_))));
    }

    #[test]
    fn execute_matches_factor_spd_bitwise() {
        let t = workloads::random_spd_block(2, 8, 9);
        let opts = SchurOptions::default();
        let reference = factor_spd(&t, &opts).unwrap();
        let plan = FactorPlan::from_options(&t, &opts, &IndefOptions::default()).unwrap();
        match plan.execute(&t).unwrap() {
            Factorization::Spd(f) => {
                assert_eq!(
                    f.r.max_abs_diff(&reference.r),
                    0.0,
                    "plan/execute must be bitwise-identical"
                );
                assert_eq!(f.comm_words_per_step, reference.comm_words_per_step);
            }
            other => panic!("expected SPD, got {other:?}"),
        }
    }

    #[test]
    fn spd_plan_falls_back_to_indefinite_identically() {
        // A non-PD pivot inside the SPD attempt must replan onto the
        // indefinite kernel and produce exactly factor_indefinite's
        // output.
        for t in [
            workloads::random_indefinite_scalar(14, 7),
            workloads::paper_singular_minor_example(),
        ] {
            let reference = factor_indefinite(&t, &IndefOptions::default()).unwrap();
            let plan =
                FactorPlan::from_options(&t, &SchurOptions::default(), &IndefOptions::default())
                    .unwrap();
            match plan.execute(&t).unwrap() {
                Factorization::Indefinite(f) => {
                    assert_eq!(f.r.max_abs_diff(&reference.r), 0.0, "n={}", t.order());
                    assert_eq!(f.d, reference.d);
                    assert_eq!(f.exchanges, reference.exchanges);
                    assert_eq!(f.perturbations, reference.perturbations);
                }
                other => panic!("expected indefinite fallback, got {other:?}"),
            }
        }
    }

    #[test]
    fn plans_record_the_dispatched_kernel() {
        let plan = FactorPlan::for_shape(16, 8, &PlanRequest::default()).unwrap();
        assert!(["portable", "avx2", "avx512", "neon"].contains(&plan.kernel_isa()));
        assert!(!plan.is_calibrated(), "calibration is opt-in");
    }

    #[test]
    fn calibrated_plans_pick_a_valid_block_size() {
        // The measured picks vary by machine, so assert structure, not
        // the value: m_s must still be a multiple of m dividing n, and
        // the plan must execute correctly.
        let t = workloads::random_spd_block(3, 16, 7);
        let plan = FactorPlan::new(
            &t,
            &PlanRequest {
                calibrate: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(plan.is_calibrated());
        assert!(plan.block_size_is_auto());
        let ms = plan.block_size();
        assert!(ms.is_multiple_of(3) && 48 % ms == 0, "m_s = {ms}");
        assert!(plan.threads() >= 1);
        match plan.execute(&t).unwrap() {
            Factorization::Spd(f) => {
                let diff = f.reconstruct().max_abs_diff(&t.to_dense());
                assert!(diff < 1e-9, "||R^TR - T|| = {diff:e}");
            }
            other => panic!("expected SPD, got {other:?}"),
        }
    }

    #[test]
    fn execute_rejects_wrong_shape() {
        let t = workloads::random_spd_scalar(16, 1);
        let plan = FactorPlan::new(&t, &PlanRequest::default()).unwrap();
        let other = workloads::random_spd_scalar(20, 1);
        assert!(matches!(
            plan.execute(&other),
            Err(Error::DimensionMismatch {
                expected: 16,
                found: 20,
                ..
            })
        ));
    }

    #[test]
    fn auto_planned_execution_reconstructs() {
        // End to end with both choices auto: factor and verify RᵀR.
        let t = workloads::random_spd_scalar(24, 6);
        let plan = FactorPlan::new(&t, &PlanRequest::default()).unwrap();
        assert!(plan.rep_is_auto() && plan.block_size_is_auto());
        match plan.execute(&t).unwrap() {
            Factorization::Spd(f) => {
                let diff = f.reconstruct().max_abs_diff(&t.to_dense());
                assert!(diff < 1e-9, "||R^TR - T|| = {diff:e}");
            }
            other => panic!("expected SPD, got {other:?}"),
        }
    }
}
