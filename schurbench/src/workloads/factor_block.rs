//! `factor_block`: plan + factor + solve of a stream of distinct SPD
//! AR(1) block Toeplitz systems (`spd_ar1_block`, m = 16, n = 1024) in
//! f64 on one thread with VY2 and m_s = m.
//!
//! Nearly all op time is bs-core elimination on bs-matrix kernels, the
//! paper's §5–6 path; it is also the single-threaded baseline of
//! `shard_np2`, which factors the same shape.

use super::{bytes_metrics, factor_bytes, factor_metrics, generator_metric, kernel_metrics};
use super::{pinned, solve_bytes, span_metric, System};
use crate::report::Values;
use crate::runner::Workload;
use crate::seed::{self, Digest};
use crate::trace::Tracer;
use crate::verify::{Check, Reference, BACKWARD_TOL};
use crate::Result;
use bs_core::{Factor, FactorPlan, PlanRequest, Precision, RefineOptions};
use bs_toeplitz::workloads;

/// Structural block size.
pub const M: usize = 16;
/// Order.
pub const N: usize = 1024;
/// Distinct systems per pass.
pub const POOL: usize = 16;
/// Spectral radius of the AR(1) model.
pub const RHO: f64 = 0.55;
const TAG: u64 = 0xfb;

/// The `factor_block` workload.
#[derive(Debug)]
pub struct FactorBlock {
    systems: Vec<System>,
    refs: Vec<Option<Reference>>,
    req: PlanRequest,
    x: Vec<f64>,
    outstanding: i64,
}

impl Workload for FactorBlock {
    fn setup(seed: u64, _tr: &mut Tracer) -> Result<Self> {
        let systems = (0..POOL as u64)
            .map(|i| {
                let t = workloads::spd_ar1_block(M, N / M, RHO, seed::derive(seed, TAG, i));
                System::new(t, seed::derive(seed, TAG + 1, i))
            })
            .collect();
        Ok(FactorBlock {
            systems,
            refs: vec![None; POOL],
            req: pinned(M, Precision::F64),
            x: Vec::new(),
            outstanding: 0,
        })
    }

    fn ops_per_pass(&self) -> usize {
        POOL
    }

    fn family(&self, _i: usize) -> &'static str {
        "spd_ar1_block"
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<()> {
        let s = &self.systems[i];
        let plan = tr
            .span("plan.build", || FactorPlan::new(&s.t, &self.req))
            .map_err(|e| format!("plan: {e}"))?;
        let f = tr
            .span_flops("core.factor", || {
                Factor::from_plan(&s.t, plan, RefineOptions::default())
            })
            .map_err(|e| format!("factor: {e}"))?;
        self.x = tr
            .span("core.solve", || f.solve(&s.b))
            .map_err(|e| format!("solve: {e}"))?;
        self.outstanding = f.scratch_pool().outstanding();
        Ok(())
    }

    fn check(&mut self, i: usize) -> Check {
        let s = &self.systems[i];
        let be = s.backward_error(&mut self.refs[i], &self.x, &s.b);
        if be <= BACKWARD_TOL {
            Check::Pass
        } else {
            Check::Wrong(format!("backward error {be:.3e} above {BACKWARD_TOL:e}"))
        }
    }

    fn answer_mut(&mut self) -> &mut [f64] {
        &mut self.x
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for s in &self.systems {
            d.operator(&s.t);
            d.floats(&s.b);
        }
        d.finish()
    }

    fn pool_outstanding(&self) -> i64 {
        self.outstanding
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Values) -> Result<()> {
        span_metric(out, tr, "plan.build_us", "plan.build", 1e6);
        span_metric(out, tr, "core.solve_ms", "core.solve", 1e3);
        let gflops = factor_metrics(out, tr);
        let (flops, _) = tr.flops_and_seconds("core.factor");
        let factors = tr.durations_s("core.factor").len();
        let plan = FactorPlan::new(&self.systems[0].t, &self.req).map_err(|e| e.to_string())?;
        out.set(
            "perfmodel.flops_ratio",
            flops as f64 / factors.max(1) as f64 / plan.predicted_flops(),
            factors,
        );
        generator_metric(out, tr, self.systems.iter().map(|s| &s.t))?;
        bytes_metrics(out, factor_bytes(N, M) + solve_bytes(N));
        kernel_metrics(out, gflops);
        // The shard executor on this workload's own operators (the same
        // shape): `shard_np2` is not among the gated workloads, so the
        // shard and distmem layers are measured here.
        let ts: Vec<_> = self.systems.iter().take(4).map(|s| &s.t).collect();
        super::shard_np2::shard_layers(&ts, tr, out)?;
        Ok(())
    }
}
