//! Refinement-convergence tier: the mixed-precision contract of §8.1.
//!
//! A [`Precision::Mixed`] plan factors at f32 and treats the promoted
//! factor as the perturbed factorization `Rᵀ D R` of `T + δT`, where
//! `δT` is the f32 rounding backward error. The §8.1 iteration then
//! runs against the *f64* operator, so as long as the contraction
//! factor `γ ≈ ‖δT·T⁻¹‖` stays below one, the refined answer lands at
//! working accuracy — the sweep below walks the conditioning up until
//! that assumption breaks and checks the stall fallback takes over.
//!
//! Contracts pinned here:
//! - residuals of mixed solves stay within 10× of the pure-f64 solve
//!   across a conditioning sweep (well-conditioned → near-singular,
//!   SPD and indefinite);
//! - on the ill-conditioned tail the refinement stalls, the solver
//!   falls back to a full f64 refactorization (observable via
//!   `Counter::MixedStallFallbacks`), and the answer *recovers*;
//! - refinement iteration counts surface in `Counter::RefineIterations`;
//! - `BS_PRECISION` forces plan requests onto the selected precision
//!   (the check.sh precision-tier hook).

use block_schur::prelude::*;
use bs_probe::metrics::{self, Counter};

/// ‖T x − b‖∞ — the convergence measure of eq. 41.
fn residual_inf(t: &SymBlockToeplitz, x: &[f64], b: &[f64]) -> f64 {
    t.matvec(x)
        .iter()
        .zip(b)
        .map(|(a, c)| (a - c).abs())
        .fold(0.0, f64::max)
}

/// check.sh's precision tier reruns this file under `BS_PRECISION=f32`,
/// which overrides *every* plan request; tests that pin mixed- or
/// f64-specific semantics skip themselves there (the override itself is
/// pinned by [`bs_precision_env_overrides_plan_requests`]).
fn precision_forced() -> bool {
    std::env::var_os("BS_PRECISION").is_some()
}

fn solver_with(t: &SymBlockToeplitz, precision: Precision) -> Factor {
    let req = PlanRequest {
        precision,
        ..Default::default()
    };
    let plan = FactorPlan::new(t, &req).unwrap();
    Factor::from_plan(t, plan, RefineOptions::default()).unwrap()
}

/// The conditioning sweep: Kac–Murdock–Szegő matrices harden as
/// `ρ → 1` (κ ≈ ((1+ρ)/(1−ρ))²), plus SPD block and indefinite /
/// singular-minor systems so both factorization paths are covered.
fn sweep() -> Vec<SymBlockToeplitz> {
    vec![
        workloads::kms(48, 0.3),
        workloads::kms(48, 0.9),
        workloads::kms(48, 0.99),
        workloads::random_spd_block(2, 16, 7),
        workloads::spd_ar1_block(4, 12, 0.6, 5),
        workloads::random_indefinite_scalar(32, 3),
        workloads::random_indefinite_block(2, 12, 21),
        workloads::paper_singular_minor_example(),
        workloads::singular_minor_scalar(40, 503),
    ]
}

#[test]
fn mixed_residuals_within_10x_of_pure_f64_across_conditioning_sweep() {
    if precision_forced() {
        return;
    }
    for t in sweep() {
        let (b, _) = workloads::rhs_for_ones(&t);
        let s64 = solver_with(&t, Precision::F64);
        let smx = solver_with(&t, Precision::Mixed);
        assert_eq!(smx.plan().precision(), Precision::Mixed);
        let x64 = s64.solve(&b).unwrap();
        let xmx = smx.solve(&b).unwrap();
        let r64 = residual_inf(&t, &x64, &b);
        let rmx = residual_inf(&t, &xmx, &b);
        // 10× the pure-f64 residual, floored at the backward-stable
        // scale 64ε(‖b‖) so an exactly-zero f64 residual doesn't turn
        // the bound degenerate.
        let bnorm = b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        let bound = (10.0 * r64).max(64.0 * f64::EPSILON * bnorm.max(1.0));
        assert!(
            rmx <= bound,
            "n={} spd={}: mixed residual {rmx:e} exceeds 10x f64 residual {r64:e}",
            t.order(),
            s64.is_positive_definite(),
        );
    }
}

#[test]
fn f32_factor_alone_is_single_precision_accurate() {
    if precision_forced() {
        return;
    }
    // Pure F32 plans trade accuracy for throughput: no refinement on
    // the unperturbed path, so the answer carries the f32 factor's
    // error — far above f64 roundoff, far below nonsense. This pins
    // the plateau the Mixed mode's refinement climbs down from.
    let t = workloads::kms(48, 0.6);
    let (b, x_true) = workloads::rhs_for_ones(&t);
    let s32 = solver_with(&t, Precision::F32);
    assert_eq!(s32.plan().precision(), Precision::F32);
    let x = s32.solve(&b).unwrap();
    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, c)| (a - c).abs())
        .fold(0.0f64, f64::max);
    assert!(err < 1e-2, "f32 factor error unreasonably large: {err:e}");
    assert!(
        err > 1e-13,
        "f32 factor error {err:e} at f64 roundoff — demotion did not happen"
    );
    // The mixed solve on the same system refines back to f64 accuracy.
    let smx = solver_with(&t, Precision::Mixed);
    let xmx = smx.solve(&b).unwrap();
    let errmx = xmx
        .iter()
        .zip(&x_true)
        .map(|(a, c)| (a - c).abs())
        .fold(0.0f64, f64::max);
    assert!(errmx < 1e-8, "mixed solve error {errmx:e}");
}

#[test]
fn stall_fallback_triggers_and_recovers_on_ill_conditioned_tail() {
    if precision_forced() {
        return;
    }
    // κ(KMS(ρ=0.999999)) ≈ 4·10¹²: the f32 backward error δT has
    // ‖δT·T⁻¹‖ ≈ ε₃₂·κ ≫ 1, so the §8.1 iteration cannot contract on
    // the promoted factor. The solver must detect the stall (or the
    // f32 factor stage must fail outright), fall back to a full f64
    // factorization, and still return an accurate answer.
    let t = workloads::kms(64, 0.999999);
    let (b, _) = workloads::rhs_for_ones(&t);
    let before = metrics::total(Counter::MixedStallFallbacks);
    let smx = solver_with(&t, Precision::Mixed);
    let xmx = smx.solve(&b).unwrap();
    assert!(
        metrics::total(Counter::MixedStallFallbacks) > before,
        "ill-conditioned mixed solve must route through the stall fallback"
    );
    // Recovery: the fallback answer matches the pure-f64 solver's
    // residual scale (same 10x contract as the sweep).
    let s64 = solver_with(&t, Precision::F64);
    let x64 = s64.solve(&b).unwrap();
    let r64 = residual_inf(&t, &x64, &b);
    let rmx = residual_inf(&t, &xmx, &b);
    let bnorm = b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let bound = (10.0 * r64).max(64.0 * f64::EPSILON * bnorm.max(1.0));
    assert!(
        rmx <= bound,
        "fallback did not recover: mixed residual {rmx:e} vs f64 {r64:e}"
    );
}

#[test]
fn refine_iteration_counts_surface_in_metrics() {
    if precision_forced() {
        return;
    }
    let t = workloads::kms(48, 0.9);
    let (b, _) = workloads::rhs_for_ones(&t);
    let smx = solver_with(&t, Precision::Mixed);
    let before = metrics::total(Counter::RefineIterations);
    smx.solve(&b).unwrap();
    assert!(
        metrics::total(Counter::RefineIterations) > before,
        "a mixed solve must run (and count) refinement iterations"
    );
}

#[test]
fn mixed_solve_batch_matches_looped_solves() {
    // The batched path must dispatch precision identically per column.
    let t = workloads::kms(32, 0.8);
    let n = t.order();
    let b = Matrix::from_fn(n, 5, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
    let smx = solver_with(&t, Precision::Mixed);
    let mut looped = Matrix::zeros(n, 5);
    for j in 0..5 {
        looped
            .col_mut(j)
            .copy_from_slice(&smx.solve(b.col(j)).unwrap());
    }
    let batched = smx.solve_batch(&b).unwrap();
    assert_eq!(
        batched.max_abs_diff(&looped),
        0.0,
        "mixed batched solve differs from looped"
    );
}

#[test]
fn bs_precision_env_overrides_plan_requests() {
    // The test honors whatever tier it runs under: with BS_PRECISION
    // set (check.sh's precision tier), a default request lands on the
    // forced precision; unset, it stays f64.
    let expected = std::env::var("BS_PRECISION")
        .ok()
        .and_then(|v| Precision::parse(&v))
        .unwrap_or(Precision::F64);
    let plan = FactorPlan::for_shape(32, 2, &PlanRequest::default()).unwrap();
    assert_eq!(plan.precision(), expected);
    // Round-trip of the names the env var and CLI accept.
    for p in [Precision::F64, Precision::F32, Precision::Mixed] {
        assert_eq!(Precision::parse(p.as_str()), Some(p));
    }
}
