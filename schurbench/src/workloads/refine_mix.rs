//! `refine_mix`: factor once, solve many; every solve enters the §8.1
//! refinement loop.
//!
//! The timed pool is SPD AR(1) with m = 8 under `Precision::Mixed`:
//! factored at f32, every solve refined against the f64 operator, at
//! orders 512 and 1024 (on both sides of the `n >= 1024` FFT-residual
//! switch), several right-hand sides each. Elimination runs only in
//! set-up, so op time is refinement, triangular solves and residuals.
//! Most ops are n = 512 solves, which take the same number of rounds
//! for every seed, so the median op does not move with the seed.
//!
//! The other reason the program refines, δ-perturbed singular minors
//! (§8), runs the same refinement loop but comes back unconverged as
//! `Ok` for some matrices, so those solves would fail verification at a
//! rate that depends on the seed. They are not timed ops: the traced
//! run solves a seeded family of them once ([`singular_probe`]) and
//! reports its pass ratio per form.

use super::System;
use super::{bytes_metrics, factor_metrics, kernel_metrics, pinned, solve_bytes, span_metric};
use crate::report::Values;
use crate::runner::Workload;
use crate::seed::{self, Digest};
use crate::trace::Tracer;
use crate::verify::{self, Check, Reference, BACKWARD_TOL};
use crate::Result;
use bs_core::{Factor, FactorPlan, Precision, RefineOptions};
use bs_probe::metrics::{self, Counter};
use bs_toeplitz::{workloads, FastToeplitzMatVec};

/// Orders of the pool.
pub const ORDERS: [usize; 2] = [512, 1024];
/// Mixed-precision operators per order.
pub const MIXED_PER_ORDER: usize = 8;
/// Right-hand sides per mixed-precision operator and pass, by order.
pub const MIXED_RHS: [usize; 2] = [9, 3];
/// Block size of the mixed and the retiled singular-minor operators.
pub const BLOCK: usize = 8;
/// Spectral radius of the mixed-precision AR(1) operators.
pub const MIXED_RHO: f64 = 0.9;
/// Singular-minor matrices per order in the traced run's probe; each is
/// solved as a scalar and as an 8×8-block operator.
pub const SINGULAR_PER_ORDER: usize = 6;
/// The refinement loop computes residuals by FFT from this order on.
pub const FFT_FROM: usize = 1024;
const TAG: u64 = 0x4ef;

#[derive(Debug)]
struct Operator {
    system: System,
    factor: Factor,
}

#[derive(Debug)]
struct Op {
    operator: usize,
    b: Vec<f64>,
}

/// The `refine_mix` workload.
#[derive(Debug)]
pub struct RefineMix {
    seed: u64,
    operators: Vec<Operator>,
    ops: Vec<Op>,
    refs: Vec<Option<Reference>>,
    x: Vec<f64>,
}

fn build(
    tr: &mut Tracer,
    system: System,
    block_size: usize,
    precision: Precision,
) -> Result<Operator> {
    let plan = tr
        .span("plan.build", || {
            FactorPlan::new(&system.t, &pinned(block_size, precision))
        })
        .map_err(|e| format!("plan: {e}"))?;
    let factor = tr
        .span_flops("core.factor", || {
            Factor::from_plan(&system.t, plan, RefineOptions::default())
        })
        .map_err(|e| format!("factor: {e}"))?;
    Ok(Operator { system, factor })
}

/// Per form of the singular-minor probe: name of its pass-ratio metric.
const SINGULAR_FORMS: [(&str, usize); 2] = [
    ("core.refine_pass_ratio.singular_scalar", 1),
    ("core.refine_pass_ratio.singular_block8", BLOCK),
];

/// The §8 singular-minor probe of the traced run. At each order,
/// [`SINGULAR_PER_ORDER`] `singular_minor_scalar` matrices from `seed`
/// are factored on the δ-perturbed path, as scalar operators and
/// retiled to 8×8 blocks, and solved once each. Sets the pass ratio
/// (backward error within [`BACKWARD_TOL`]; an error counts as a miss)
/// per form and `core.refine_singular_ms`, the median solve time.
pub fn singular_probe(seed: u64, tr: &mut Tracer, out: &mut Values) -> Result<()> {
    let mut passed = [0usize; 2];
    let mut attempted = 0;
    for (oi, &n) in ORDERS.iter().enumerate() {
        for k in 0..SINGULAR_PER_ORDER {
            let id = (oi * 100 + k) as u64;
            let s = workloads::singular_minor_scalar(n, seed::derive(seed, TAG, id));
            let rhs = seed::derive(seed, TAG + 1, id);
            attempted += 1;
            for (form, &(_, block_size)) in SINGULAR_FORMS.iter().enumerate() {
                let t = if block_size == 1 {
                    s.clone()
                } else {
                    s.retile(block_size)
                };
                // Factored outside the spans: the probe's factorizations
                // are not the workload's.
                let o = build(
                    &mut Tracer::new(false),
                    System::new(t, rhs),
                    block_size,
                    Precision::F64,
                )?;
                let b = &o.system.b;
                if let Ok(x) = tr.span("core.refine_singular", || o.factor.solve(b)) {
                    if verify::backward_error(&o.system.t, o.system.tnorm, &x, b) <= BACKWARD_TOL {
                        passed[form] += 1;
                    }
                }
            }
        }
    }
    for (form, &(metric, _)) in SINGULAR_FORMS.iter().enumerate() {
        out.set(metric, passed[form] as f64 / attempted as f64, attempted);
    }
    span_metric(
        out,
        tr,
        "core.refine_singular_ms",
        "core.refine_singular",
        1e3,
    );
    Ok(())
}

impl Workload for RefineMix {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self> {
        let mut operators = Vec::new();
        let mut rhs_per_operator = Vec::new();
        for (oi, &n) in ORDERS.iter().enumerate() {
            for k in 0..MIXED_PER_ORDER {
                let id = (oi * 100 + k) as u64;
                let t = workloads::spd_ar1_block(
                    BLOCK,
                    n / BLOCK,
                    MIXED_RHO,
                    seed::derive(seed, TAG + 2, id),
                );
                let system = System::new(t, seed::derive(seed, TAG + 3, id));
                operators.push(build(tr, system, BLOCK, Precision::Mixed)?);
                rhs_per_operator.push(MIXED_RHS[oi]);
            }
        }
        let mut ops = Vec::new();
        for (j, &count) in rhs_per_operator.iter().enumerate() {
            for r in 0..count {
                // The first right-hand side is the operator's own.
                let b = if r == 0 {
                    operators[j].system.b.clone()
                } else {
                    let id = (j * 1000 + r) as u64;
                    seed::uniform_vec(
                        seed::derive(seed, TAG + 4, id),
                        operators[j].system.t.order(),
                    )
                };
                ops.push(Op { operator: j, b });
            }
        }
        Ok(RefineMix {
            seed,
            refs: vec![None; ops.len()],
            operators,
            ops,
            x: Vec::new(),
        })
    }

    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn family(&self, _: usize) -> &'static str {
        "mixed_ar1"
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<()> {
        let op = &self.ops[i];
        let factor = &self.operators[op.operator].factor;
        self.x = tr
            .span("core.refine", || factor.solve(&op.b))
            .map_err(|e| format!("solve: {e}"))?;
        Ok(())
    }

    fn check(&mut self, i: usize) -> Check {
        let op = &self.ops[i];
        let o = &self.operators[op.operator];
        let be = o.system.backward_error(&mut self.refs[i], &self.x, &op.b);
        if be <= BACKWARD_TOL {
            Check::Pass
        } else {
            Check::Wrong(format!(
                "mixed-precision solve: backward error {be:.3e} above {BACKWARD_TOL:e}"
            ))
        }
    }

    fn answer_mut(&mut self) -> &mut [f64] {
        &mut self.x
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for op in &self.ops {
            d.operator(&self.operators[op.operator].system.t);
            d.floats(&op.b);
        }
        d.finish()
    }

    fn pool_outstanding(&self) -> i64 {
        self.operators
            .iter()
            .map(|o| o.factor.scratch_pool().outstanding())
            .sum()
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Values) -> Result<()> {
        span_metric(out, tr, "core.refine_ms", "core.refine", 1e3);
        span_metric(out, tr, "plan.build_us", "plan.build", 1e6);
        let gflops = factor_metrics(out, tr);
        kernel_metrics(out, gflops);
        // Residual kernels on each operator with its reference answer,
        // and the FFT set-up the refinement loop repeats per solve at
        // n >= 1024.
        for (i, op) in self.ops.iter().enumerate() {
            let Some(x) = self.refs[i].as_ref().map(|r| &r.x) else {
                continue;
            };
            let t = &self.operators[op.operator].system.t;
            if t.order() >= FFT_FROM {
                let fast = tr.span("toeplitz.fft_setup", || FastToeplitzMatVec::new(t));
                std::hint::black_box(tr.span("toeplitz.fft_residual", || fast.residual(x, &op.b)));
            } else {
                std::hint::black_box(tr.span("toeplitz.direct_residual", || t.residual(x, &op.b)));
            }
        }
        span_metric(out, tr, "toeplitz.fft_setup_ms", "toeplitz.fft_setup", 1e3);
        span_metric(
            out,
            tr,
            "toeplitz.fft_residual_ms",
            "toeplitz.fft_residual",
            1e3,
        );
        span_metric(
            out,
            tr,
            "toeplitz.direct_residual_ms",
            "toeplitz.direct_residual",
            1e3,
        );
        // Bytes per op from shapes: each refinement round repeats the
        // two triangular solves and reads the operator's first block
        // row for the residual; rounds per op come from the iteration
        // counter around one more solve of each op.
        let mut bytes = 0.0;
        for op in &self.ops {
            let o = &self.operators[op.operator];
            let n = o.system.t.order();
            let before = metrics::total(Counter::RefineIterations);
            std::hint::black_box(o.factor.solve(&op.b).map_err(|e| e.to_string())?);
            let rounds = 1 + metrics::total(Counter::RefineIterations) - before;
            bytes += rounds as f64 * (solve_bytes(n) + 8.0 * (n * o.system.t.block_size()) as f64);
        }
        bytes_metrics(out, bytes / self.ops.len() as f64);
        singular_probe(self.seed, tr, out)
    }
}
