//! `shard_np2`: `factor_sharded` with V1 at NP = 2 on the
//! `factor_block` shape, timed from the caller.
//!
//! The only workload that loads bs-distmem and `bs_simulator::shard`.
//! The rank clock (`ShardRun::wall_s`) leaves out rank start-up,
//! generator build and factor assembly, so op time is what the caller
//! waits for. Every factor must be bitwise equal to the set-up's
//! sharded factor of the same operator, which itself must lie within
//! tolerance of the sequential factor.

use super::{bytes_metrics, factor_bytes, factor_metrics, generator_metric, kernel_metrics};
use super::{pinned, span_metric};
use crate::report::Values;
use crate::runner::{Tallies, Workload};
use crate::seed::{self, Digest};
use crate::stats;
use crate::trace::Tracer;
use crate::verify::{self, Check, FACTOR_TOL};
use crate::Result;
use bs_core::{Factor, FactorPlan, Factorization, Precision, RefineOptions};
use bs_matrix::Matrix;
use bs_perfmodel::Rep;
use bs_simulator::{
    choose_distribution, factor_sharded, CalibratedCost, Scheme, ShardOptions, ShardRun,
};
use bs_toeplitz::{workloads, SymBlockToeplitz};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Structural block size (as `factor_block`).
pub const M: usize = 16;
/// Order (as `factor_block`).
pub const N: usize = 1024;
/// Ranks.
pub const NP: usize = 2;
/// Operators per pass.
pub const POOL: usize = 8;
/// Spectral radius of the AR(1) model (as `factor_block`).
pub const RHO: f64 = 0.55;
/// Rounds of the interleaved sequential / NP = 1 / NP = 2 comparison
/// in the traced run.
const ROUNDS: usize = 3;
const TAG: u64 = 0x5a4d;

#[derive(Debug)]
struct Operator {
    t: SymBlockToeplitz,
    /// The set-up's sharded factor: later factors must match its bits.
    r_ref: Matrix,
    /// Why the reference missed the sequential factor, if it did.
    ref_failure: Option<String>,
}

/// What the caller and the rank clocks saw of one NP = 2 factor.
#[derive(Debug)]
struct RankTimes {
    caller_s: f64,
    inside_s: f64,
    compute_s: f64,
    imbalance: f64,
    wait_s: f64,
}

impl RankTimes {
    fn new(caller_s: f64, run: &ShardRun) -> RankTimes {
        let max_wall = run.rank_wall_s.iter().copied().fold(0.0, f64::max);
        RankTimes {
            caller_s,
            inside_s: run.wall_s,
            compute_s: run
                .rank_wall_s
                .iter()
                .zip(&run.comm_wait_s)
                .map(|(w, c)| w - c)
                .fold(0.0, f64::max),
            imbalance: stats::ratio(max_wall, stats::mean(&run.rank_wall_s)),
            wait_s: stats::mean(&run.comm_wait_s),
        }
    }
}

/// The shard, distmem and shard-model per-layer metrics: sequential
/// `Factor`, NP = 1 and NP = 2 factors interleaved on the same
/// operators (so their ratios cancel host drift), each timed from the
/// caller, next to the rank clocks and the calibrated model's
/// prediction. `ts` are SPD operators of order `N` with `m = M`.
/// Returns the median caller time of the NP = 2 factors.
pub fn shard_layers(ts: &[&SymBlockToeplitz], tr: &mut Tracer, out: &mut Values) -> Result<f64> {
    let np1_opts = ShardOptions::new(Scheme::V1, 1);
    let np2_opts = ShardOptions::new(Scheme::V1, NP);
    let (mut seq, mut np1, mut np2) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..ROUNDS {
        for &t in ts {
            let t0 = Instant::now();
            drop(std::hint::black_box(sequential(t, tr)?));
            seq.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            std::hint::black_box(tr.span("shard.np1", || sharded(t, &np1_opts))?);
            np1.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let run = tr.span("shard.np2", || sharded(t, &np2_opts))?;
            np2.push(RankTimes::new(t0.elapsed().as_secs_f64(), &run));
            bytes = run.comm_volume();
        }
    }
    let n = np2.len();
    let med = |f: &dyn Fn(&RankTimes) -> f64| stats::median(&np2.iter().map(f).collect::<Vec<_>>());
    let caller = med(&|r| r.caller_s);
    out.set("shard.inside_ms", med(&|r| r.inside_s) * 1e3, n);
    out.set(
        "shard.caller_overhead_ms",
        med(&|r| r.caller_s - r.inside_s) * 1e3,
        n,
    );
    out.set("shard.compute_ms", med(&|r| r.compute_s) * 1e3, n);
    out.set("shard.imbalance", med(&|r| r.imbalance), n);
    out.set("distmem.wait_ms", med(&|r| r.wait_s) * 1e3, n);
    out.set("distmem.bytes_per_op", bytes as f64, n);
    let np1 = stats::median(&np1);
    out.set("shard.np1_ms", np1 * 1e3, n);
    out.set("shard.speedup_np2", np1 / caller, n);
    out.set("shard.vs_sequential", stats::median(&seq) / caller, n);
    // The calibrated model's prediction for the same (scheme, NP).
    let cost = CalibratedCost::for_host();
    let choice = choose_distribution(N, M, &[NP], Rep::VY2, &cost);
    let predicted = choice
        .table
        .iter()
        .find(|p| p.scheme == Scheme::V1 && p.np == NP)
        .map(|p| p.predicted_s)
        .ok_or("the model has no V1 prediction at NP = 2")?;
    out.set("perfmodel.shard_time_ratio", caller / predicted, n);
    Ok(caller)
}

/// The `shard_np2` workload.
#[derive(Debug)]
pub struct ShardNp2 {
    ops: Vec<Operator>,
    opts: ShardOptions,
    last: Option<ShardRun>,
    comm_bytes: u64,
}

fn sharded(t: &SymBlockToeplitz, opts: &ShardOptions) -> Result<ShardRun> {
    catch_unwind(AssertUnwindSafe(|| factor_sharded(t, opts)))
        .map_err(|_| "factor_sharded panicked".to_string())
}

fn sequential(t: &SymBlockToeplitz, tr: &mut Tracer) -> Result<Factor> {
    let plan = tr
        .span("plan.build", || {
            FactorPlan::new(t, &pinned(M, Precision::F64))
        })
        .map_err(|e| format!("plan: {e}"))?;
    tr.span_flops("core.factor", || {
        Factor::from_plan(t, plan, RefineOptions::default())
    })
    .map_err(|e| format!("factor: {e}"))
}

fn max_abs(m: &Matrix) -> f64 {
    m.as_slice().iter().fold(0.0, |a, v| a.max(v.abs()))
}

impl Workload for ShardNp2 {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self> {
        let opts = ShardOptions::new(Scheme::V1, NP);
        let mut ops = Vec::with_capacity(POOL);
        for k in 0..POOL as u64 {
            let t = workloads::spd_ar1_block(M, N / M, RHO, seed::derive(seed, TAG, k));
            let f = sequential(&t, tr)?;
            let Factorization::Spd(seq) = f.factorization() else {
                return Err("sequential factor of an SPD operator is not SPD".into());
            };
            let run = tr.span("shard.np2", || sharded(&t, &opts))?;
            let diff = run.r.max_abs_diff(&seq.r);
            let scale = max_abs(&seq.r);
            let ref_failure = (diff > FACTOR_TOL * scale).then(|| {
                format!("sharded factor differs from the sequential one by {diff:.3e} (scale {scale:.3e})")
            });
            ops.push(Operator {
                t,
                r_ref: run.r,
                ref_failure,
            });
        }
        Ok(ShardNp2 {
            ops,
            opts,
            last: None,
            comm_bytes: 0,
        })
    }

    fn ops_per_pass(&self) -> usize {
        POOL
    }

    fn family(&self, _i: usize) -> &'static str {
        "spd_ar1_block"
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<()> {
        let run = tr.span("shard.np2", || sharded(&self.ops[i].t, &self.opts))?;
        self.comm_bytes += run.comm_volume() as u64;
        self.last = Some(run);
        Ok(())
    }

    fn check(&mut self, i: usize) -> Check {
        // Taking the factor here frees it outside the timed interval.
        let Some(run) = self.last.take() else {
            return Check::Error("no factor to check".into());
        };
        let o = &self.ops[i];
        if !verify::same_bits(run.r.as_slice(), o.r_ref.as_slice()) {
            Check::Wrong(
                "sharded factor differs from the set-up's factor of the same operator".into(),
            )
        } else if let Some(why) = &o.ref_failure {
            Check::Wrong(why.clone())
        } else {
            Check::Pass
        }
    }

    fn answer_mut(&mut self) -> &mut [f64] {
        match &mut self.last {
            Some(run) => run.r.as_mut_slice(),
            None => &mut [],
        }
    }

    fn tallies(&mut self) -> Result<Tallies> {
        Ok(Tallies {
            comm_bytes: self.comm_bytes,
            ..Tallies::default()
        })
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for o in &self.ops {
            d.operator(&o.t);
        }
        d.finish()
    }

    fn pool_outstanding(&self) -> i64 {
        0
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Values) -> Result<()> {
        let ts: Vec<&SymBlockToeplitz> = self.ops.iter().map(|o| &o.t).collect();
        let caller_np2 = shard_layers(&ts, tr, out)?;
        span_metric(out, tr, "plan.build_us", "plan.build", 1e6);
        factor_metrics(out, tr);
        generator_metric(out, tr, ts.into_iter())?;
        bytes_metrics(out, factor_bytes(N, M));
        let flops = out.get("matrix.flops_per_op").unwrap_or(0.0);
        kernel_metrics(out, flops / caller_np2 / 1e9);
        Ok(())
    }
}
