//! The four workloads and what they share.
//!
//! Every workload calls the program only through the surface the
//! roadmap keeps: `PlanRequest` → `FactorPlan::new` →
//! `Factor::from_plan` / `Factor::new`, `solve`, `solve_batch`;
//! `bs_serve::{Server, Client, proto}`;
//! `bs_simulator::{factor_sharded, choose_distribution, CalibratedCost}`;
//! `bs_toeplitz::{workloads, build_generator, FastToeplitzMatVec}`.

pub mod factor_block;
pub mod refine_mix;
pub mod serve_mix;
pub mod shard_np2;

use crate::cli::Args;
use crate::report::{Report, Values};
use crate::runner;
use crate::stats;
use crate::trace::Tracer;
use crate::verify::{self, Reference};
use crate::Result;
use bs_core::{PlanRequest, Precision, RepKind};
use bs_toeplitz::SymBlockToeplitz;
use std::path::Path;

/// Workload names. `BENCHMARK.json` gates the first three; `shard_np2`
/// runs on request (see `README.md`).
pub const NAMES: [&str; 4] = ["factor_block", "refine_mix", "serve_mix", "shard_np2"];

/// Run the workload `args` names.
pub fn run(args: &Args, out_dir: &Path) -> Result<Report> {
    match args.workload.as_str() {
        "factor_block" => runner::run::<factor_block::FactorBlock>(args, out_dir),
        "refine_mix" => runner::run::<refine_mix::RefineMix>(args, out_dir),
        "serve_mix" => runner::run::<serve_mix::ServeMix>(args, out_dir),
        "shard_np2" => runner::run::<shard_np2::ShardNp2>(args, out_dir),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            NAMES.join(", ")
        )),
    }
}

/// The plan request every op uses: representation, block size, thread
/// count and precision pinned, measured-rate planning off.
pub fn pinned(block_size: usize, precision: Precision) -> PlanRequest {
    PlanRequest {
        rep: Some(RepKind::VY2),
        block_size: Some(block_size),
        threads: Some(1),
        precision,
        calibrate: false,
        ..PlanRequest::default()
    }
}

/// An operator with one right-hand side and its precomputed `‖T‖∞`.
#[derive(Debug)]
pub struct System {
    /// The operator.
    pub t: SymBlockToeplitz,
    /// `‖T‖∞`.
    pub tnorm: f64,
    /// Right-hand side, uniform in `[-1, 1)`.
    pub b: Vec<f64>,
}

impl System {
    /// `t` with a right-hand side drawn from `rhs_seed`.
    pub fn new(t: SymBlockToeplitz, rhs_seed: u64) -> System {
        let b = crate::seed::uniform_vec(rhs_seed, t.order());
        System {
            tnorm: verify::norm_inf(&t),
            t,
            b,
        }
    }

    /// Backward error of `x` as a solution of `T x = b`, pinning `x` as
    /// the reference answer on first sight.
    pub fn backward_error(&self, reference: &mut Option<Reference>, x: &[f64], b: &[f64]) -> f64 {
        match reference {
            Some(r) => r.backward_error_of(&self.t, self.tnorm, x, b),
            None => {
                reference
                    .insert(Reference::new(&self.t, self.tnorm, x, b))
                    .backward_error
            }
        }
    }
}

/// Bytes a factorization of order `n` at block size `m_s` moves,
/// computed from operand shapes: each of the `p = n/m_s` steps reads
/// and writes the active part of the `2m_s`-row generator, and the
/// upper triangle of `R` is written once.
pub fn factor_bytes(n: usize, m_s: usize) -> f64 {
    let p = n / m_s;
    let generator: usize = (0..p).map(|s| 2 * 2 * m_s * (n - s * m_s)).sum();
    8.0 * (generator + n * (n + 1) / 2) as f64
}

/// Bytes the two triangular solves of one right-hand side read from
/// `R`, computed from its shape.
pub fn solve_bytes(n: usize) -> f64 {
    8.0 * (n * (n + 1)) as f64
}

/// Record the median duration of spans `span`, scaled, as `metric`.
pub fn span_metric(
    out: &mut Values,
    tr: &Tracer,
    metric: &'static str,
    span: &str,
    scale: f64,
) -> f64 {
    let d = tr.durations_s(span);
    let v = if d.is_empty() {
        0.0
    } else {
        stats::median(&d) * scale
    };
    out.set(metric, v, d.len());
    v
}

/// `core.factor_ms` and `core.factor_gflops` from the `core.factor`
/// spans; returns the achieved Gflop/s.
pub fn factor_metrics(out: &mut Values, tr: &Tracer) -> f64 {
    span_metric(out, tr, "core.factor_ms", "core.factor", 1e3);
    let (flops, secs) = tr.flops_and_seconds("core.factor");
    let gflops = stats::ratio(flops as f64, secs) / 1e9;
    out.set(
        "core.factor_gflops",
        gflops,
        tr.durations_s("core.factor").len(),
    );
    gflops
}

/// `toeplitz.generator_ms`: `build_generator` on each operator, three
/// times.
pub fn generator_metric<'a>(
    out: &mut Values,
    tr: &mut Tracer,
    ops: impl Iterator<Item = &'a SymBlockToeplitz>,
) -> Result<()> {
    for t in ops {
        for _ in 0..3 {
            tr.span("toeplitz.generator", || bs_toeplitz::build_generator(t))
                .map_err(|e| format!("build_generator: {e}"))?;
        }
    }
    span_metric(out, tr, "toeplitz.generator_ms", "toeplitz.generator", 1e3);
    Ok(())
}

/// `matrix.peak_gflops` from the kernel calibration (traced runs only)
/// and `matrix.rate_ratio` of `achieved_gflops` to it.
pub fn kernel_metrics(out: &mut Values, achieved_gflops: f64) {
    let cal = bs_matrix::kernel::calibrate::calibration();
    let peak = cal.points.iter().map(|&(_, r)| r).fold(0.0, f64::max) / 1e9;
    out.set("matrix.peak_gflops", peak, cal.points.len());
    out.set("matrix.rate_ratio", stats::ratio(achieved_gflops, peak), 1);
}

/// `matrix.bytes_per_op` and `matrix.ops_per_byte` from the computed
/// byte count of one op and the measured flops per op.
pub fn bytes_metrics(out: &mut Values, bytes_per_op: f64) {
    out.set("matrix.bytes_per_op", bytes_per_op, 1);
    let flops = out.get("matrix.flops_per_op").unwrap_or(0.0);
    out.set("matrix.ops_per_byte", stats::ratio(flops, bytes_per_op), 1);
}
