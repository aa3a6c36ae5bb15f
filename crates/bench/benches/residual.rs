//! Residual products of the §8.1 refinement loop: the direct block
//! Toeplitz product against the circulant-embedding (FFT) one with its
//! symbols already built, over a grid of block sizes `m` and block
//! counts `p`. The `crossover` group is the measurement behind
//! `FastToeplitzMatVec::pays_off`; the `refine_shapes` group times both
//! halves of a refinement round at the shapes the benchmark's
//! refinement workload solves (the FFT residual, and one `Rᵀ D R`
//! solve of a `Precision::Mixed` factor), plus the 4-column solve of a
//! scalar n = 256 factor that a cached serve request runs; the
//! `norm_inf` group times the other operator-side quantity refinement
//! and elimination read, `‖T‖∞`.
//!
//! Run: `cargo bench -p bs-bench --bench residual`

use bs_bench::harness::{criterion_group, criterion_main, Criterion};
use bs_core::{Factor, FactorPlan, Factorization, PlanRequest, Precision, RefineOptions, RepKind};
use bs_matrix::Matrix;
use bs_toeplitz::{workloads, FastToeplitzMatVec, SymBlockToeplitz};

/// An AR(1) operator of the given shape with a fixed input vector and
/// right-hand side.
fn operator(m: usize, p: usize) -> (SymBlockToeplitz, Vec<f64>, Vec<f64>) {
    let t = workloads::spd_ar1_block(m, p, 0.9, (m * 1000 + p) as u64);
    let n = t.order();
    let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) / 5.0 - 1.5).collect();
    let b = vec![1.0; n];
    (t, x, b)
}

/// Enough samples for a stable median on the fast shapes, without
/// spending seconds on the slow ones.
fn samples(m: usize, p: usize) -> usize {
    (4e6 / (2 * m * m * p * p) as f64).clamp(51.0, 2001.0) as usize
}

fn bench_crossover(c: &mut Criterion) {
    let mut g = c.benchmark_group("crossover");
    for m in [1usize, 4, 8, 16, 32] {
        for p in [6usize, 8, 9, 10, 12, 16, 64, 128, 256] {
            let (t, x, b) = operator(m, p);
            let fast = FastToeplitzMatVec::new(&t);
            g.sample_size(samples(m, p));
            g.bench_function(format!("direct/m{m}_p{p}"), |bch| {
                bch.iter(|| t.residual(&x, &b));
            });
            g.bench_function(format!("fft/m{m}_p{p}"), |bch| {
                bch.iter(|| fast.residual(&x, &b));
            });
        }
    }
    g.finish();
}

fn bench_refine_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("refine_shapes");
    for (m, p) in [(8usize, 64usize), (8, 128), (1, 512), (1, 1024)] {
        let (t, x, b) = operator(m, p);
        let fast = FastToeplitzMatVec::new(&t);
        g.sample_size(2001);
        g.bench_function(format!("fft/m{m}_p{p}"), |bch| {
            bch.iter(|| fast.residual(&x, &b));
        });
    }
    // The other half of a round: one `Rᵀ D R` solve of the `Mixed`
    // factor, planned as the benchmark plans it (VY2, m_s = m, one
    // thread).
    for (m, p) in [(8usize, 64usize), (8, 128)] {
        let (t, _, b) = operator(m, p);
        let req = PlanRequest {
            rep: Some(RepKind::VY2),
            block_size: Some(m),
            threads: Some(1),
            precision: Precision::Mixed,
            ..PlanRequest::default()
        };
        let plan = FactorPlan::new(&t, &req).expect("plan");
        let factor = Factor::from_plan(&t, plan, RefineOptions::default()).expect("factor");
        let (r, d) = match factor.factorization() {
            Factorization::Spd(f) => (&f.r, None),
            Factorization::Indefinite(f) => (&f.r, Some(f.d.as_slice())),
        };
        let mut x = b.clone();
        g.sample_size(2001);
        g.bench_function(format!("rtdr_solve/m{m}_p{p}"), |bch| {
            bch.iter(|| {
                x.copy_from_slice(&b);
                bs_core::solve::solve_rtdr_in_place(r, d, &mut x).expect("solve");
            });
        });
    }
    // A cached serve request's solve: 4 columns on a scalar n = 256
    // factor.
    let factor = Factor::new(&workloads::random_spd_scalar(256, 41)).expect("factor");
    let b = Matrix::from_fn(256, 4, |i, j| ((i * 7 + j * 3) % 17) as f64 - 8.0);
    let mut x = Matrix::zeros(256, 4);
    g.sample_size(2001);
    g.bench_function("solve_cols/m1_p256_cols4", |bch| {
        bch.iter(|| factor.solve_cols_into(&b, &mut x).expect("solve"));
    });
    g.finish();
}

fn bench_norm_inf(c: &mut Criterion) {
    let mut g = c.benchmark_group("norm_inf");
    g.sample_size(201);
    for (m, p) in [(8usize, 32usize), (8, 64), (16, 32), (16, 64), (8, 128)] {
        let (t, _, _) = operator(m, p);
        g.bench_function(format!("m{m}_p{p}"), |bch| {
            bch.iter(|| t.norm_inf());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_crossover,
    bench_refine_shapes,
    bench_norm_inf
);
criterion_main!(benches);
