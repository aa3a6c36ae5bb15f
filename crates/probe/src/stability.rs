//! Numerical-stability monitor for the Schur factorizations.
//!
//! Bojanczyk/Brent/de Hoog show the stability of Bareiss/Schur-type
//! Toeplitz factorizations is governed by per-step generator growth:
//! each hyperbolic reflector can amplify the generator by a factor of
//! roughly `1 + |β|·‖x‖²` (its norm estimate), and the product of these
//! factors bounds the backward error. The monitor records that quantity
//! per eliminated column together with the generator column norm and the
//! pivot's hyperbolic norm, and flags steps whose growth exceeds a
//! configurable threshold — near-singular leading minors announce
//! themselves here long before the residual blows up.
//!
//! Like tracing, the monitor is off by default and costs one relaxed
//! atomic load per site when disabled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Stability record for one eliminated generator column.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Block Schur step (block row of `R`) this column belongs to.
    pub step: usize,
    /// Column within the step's panel.
    pub column: usize,
    /// Euclidean norm of the generator column before elimination.
    pub gen_col_norm: f64,
    /// Hyperbolic norm `x₁² − ‖x₂‖²` of the pivot (signed).
    pub hnorm: f64,
    /// Reflector norm estimate `1 + |β|·‖x‖²` — the step's growth factor.
    pub gamma: f64,
    /// Growth relative to the problem scale:
    /// `max(gamma, gen_col_norm / scale)`.
    pub growth: f64,
    /// True when `growth` exceeded the configured threshold.
    pub flagged: bool,
}

/// One runtime invariant-contract violation (recorded by the
/// `paranoid`-feature checks in bs-core / bs-matrix).
#[derive(Clone, Debug)]
pub struct ContractViolation {
    /// Stable contract name, e.g. `hyperbolic_existence`.
    pub contract: &'static str,
    /// What was observed, with the offending values.
    pub detail: String,
}

/// Everything the monitor captured since it was enabled (or last
/// [`take_report`]).
#[derive(Clone, Debug, Default)]
pub struct StabilityReport {
    /// Per-column records in elimination order.
    pub steps: Vec<StepRecord>,
    /// Residual norms recorded by iterative refinement, in order
    /// (first entry is the pre-refinement residual).
    pub residual_norms: Vec<f64>,
    /// Contract violations, in the order they were observed. Unlike
    /// `steps`, these are recorded even while the monitor is disabled —
    /// a broken invariant is a correctness event, not a sample.
    pub violations: Vec<ContractViolation>,
    /// Largest growth factor seen.
    pub peak_growth: f64,
    /// Threshold used for flagging (0 = flagging disabled).
    pub threshold: f64,
}

impl StabilityReport {
    /// Indices into `steps` of the flagged records.
    pub fn flagged(&self) -> Vec<usize> {
        self.steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.flagged)
            .map(|(i, _)| i)
            .collect()
    }

    /// Human-readable warnings for flagged steps.
    pub fn warnings(&self) -> Vec<String> {
        self.steps
            .iter()
            .filter(|s| s.flagged)
            .map(|s| {
                format!(
                    "step {} column {}: growth factor {:.3e} exceeds threshold {:.3e} \
                     (hyperbolic norm {:.3e}) — leading minor may be near-singular",
                    s.step, s.column, s.growth, self.threshold, s.hnorm
                )
            })
            .collect()
    }
}

struct State {
    threshold: f64,
    scale: f64,
    report: StabilityReport,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State {
    threshold: 0.0,
    scale: 1.0,
    report: StabilityReport {
        steps: Vec::new(),
        residual_norms: Vec::new(),
        violations: Vec::new(),
        peak_growth: 0.0,
        threshold: 0.0,
    },
});

fn state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Enable the monitor, clearing previous records. Steps whose growth
/// exceeds `threshold` are flagged (pass 0.0 to record without
/// flagging).
pub fn enable(threshold: f64) {
    let mut s = state();
    s.threshold = threshold;
    s.scale = 1.0;
    s.report = StabilityReport {
        threshold,
        ..Default::default()
    };
    ENABLED.store(true, Ordering::Release);
}

/// Stop recording; captured records stay available.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Cheap check used by instrumentation sites.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear records without changing the enabled state.
pub fn reset() {
    let mut s = state();
    let threshold = s.threshold;
    s.report = StabilityReport {
        threshold,
        ..Default::default()
    };
}

/// Set the problem scale (e.g. `‖T‖∞`) that generator column norms are
/// measured against. No-op when disabled.
pub fn set_scale(scale: f64) {
    if !is_enabled() {
        return;
    }
    state().scale = if scale > 0.0 { scale } else { 1.0 };
}

/// Record the elimination of one generator column. No-op when disabled.
pub fn record_step(step: usize, column: usize, gen_col_norm: f64, hnorm: f64, gamma: f64) {
    if !is_enabled() {
        return;
    }
    let mut s = state();
    let growth = gamma.max(gen_col_norm / s.scale);
    let flagged = s.threshold > 0.0 && growth > s.threshold;
    if growth > s.report.peak_growth {
        s.report.peak_growth = growth;
    }
    s.report.steps.push(StepRecord {
        step,
        column,
        gen_col_norm,
        hnorm,
        gamma,
        growth,
        flagged,
    });
}

/// Append a residual norm from iterative refinement. No-op when
/// disabled.
pub fn record_residual(norm: f64) {
    if !is_enabled() {
        return;
    }
    state().report.residual_norms.push(norm);
}

/// Record an invariant-contract violation. Unlike the sampling
/// recorders above this is **not** gated on [`is_enabled`]: a violated
/// invariant is a correctness event that must not be droppable by
/// monitor configuration. Also bumps
/// [`Counter::ContractViolations`](crate::metrics::Counter) so fleet
/// dashboards see it without pulling a report.
pub fn record_violation(contract: &'static str, detail: String) {
    crate::metrics::incr(crate::metrics::Counter::ContractViolations);
    crate::event!("contract_violation");
    state()
        .report
        .violations
        .push(ContractViolation { contract, detail });
}

/// Record a memory/concurrency **audit** finding — an interleaving
/// divergence, an unbalanced worker workspace, or a sanitizer-tier
/// failure surfaced at runtime. Like [`record_violation`] this is not
/// gated on [`is_enabled`]: audit findings are correctness events.
/// Bumps [`Counter::AuditViolations`](crate::metrics::Counter) and
/// lands in the violation buffer under the `audit:` prefix so existing
/// report plumbing (JSONL export, `--metrics`) carries it unchanged.
pub fn record_audit_violation(check: &'static str, detail: String) {
    crate::metrics::incr(crate::metrics::Counter::AuditViolations);
    crate::event!("audit_violation");
    state().report.violations.push(ContractViolation {
        contract: check,
        detail,
    });
}

/// Number of contract violations recorded since the last report drain.
pub fn violation_count() -> usize {
    state().report.violations.len()
}

/// Largest growth factor recorded (0.0 when nothing was recorded).
pub fn peak_growth() -> f64 {
    state().report.peak_growth
}

/// Clone the report without clearing it.
pub fn report() -> StabilityReport {
    state().report.clone()
}

/// Take the report, leaving an empty one behind.
pub fn take_report() -> StabilityReport {
    let mut s = state();
    let threshold = s.threshold;
    std::mem::replace(
        &mut s.report,
        StabilityReport {
            threshold,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_flags_growth() {
        let _l = crate::test_lock();
        enable(10.0);
        set_scale(2.0);
        record_step(0, 0, 1.0, 0.5, 1.5);
        record_step(1, 0, 50.0, 1e-8, 40.0);
        record_residual(1e-3);
        record_residual(1e-7);
        disable();
        let r = take_report();
        assert_eq!(r.steps.len(), 2);
        assert!(!r.steps[0].flagged);
        assert!(r.steps[1].flagged);
        assert_eq!(r.flagged(), vec![1]);
        assert_eq!(r.steps[1].growth, 40.0);
        assert_eq!(r.peak_growth, 40.0);
        assert_eq!(r.residual_norms, vec![1e-3, 1e-7]);
        assert_eq!(r.warnings().len(), 1);
    }

    #[test]
    fn violations_recorded_even_while_disabled() {
        let _l = crate::test_lock();
        enable(0.0);
        disable();
        let before = crate::metrics::total(crate::metrics::Counter::ContractViolations);
        record_violation("test_contract", "h*w = -1 at step 3".to_string());
        assert_eq!(violation_count(), 1);
        let r = take_report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].contract, "test_contract");
        assert!(r.violations[0].detail.contains("step 3"));
        assert_eq!(
            crate::metrics::total(crate::metrics::Counter::ContractViolations),
            before + 1
        );
        assert_eq!(violation_count(), 0, "take_report drains violations");
    }

    #[test]
    fn disabled_monitor_records_nothing() {
        let _l = crate::test_lock();
        enable(0.0);
        disable();
        record_step(0, 0, 1.0, 1.0, 1.0);
        record_residual(1.0);
        assert!(take_report().steps.is_empty());
    }

    #[test]
    fn growth_uses_scale_relative_column_norm() {
        let _l = crate::test_lock();
        enable(0.0);
        set_scale(4.0);
        record_step(0, 0, 20.0, 1.0, 1.0);
        disable();
        let r = take_report();
        assert_eq!(r.steps[0].growth, 5.0);
        assert!(!r.steps[0].flagged, "threshold 0 disables flagging");
    }
}
