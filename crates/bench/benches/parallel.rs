//! Criterion bench: sequential vs pooled trailing update (the
//! shared-memory Y-MP-style parallelism), plus the sequential gemm
//! kernel the pooled update runs per strip.

use bs_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use bs_core::{factor_spd, SchurOptions};
use bs_matrix::{gemm, ExecPolicy, Matrix, Trans};
use bs_toeplitz::workloads;

fn bench_parallel_factor(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_factor");
    g.sample_size(10);
    let t = workloads::random_spd_block(32, 64, 13); // n = 2048
    for (label, exec) in [
        ("sequential", ExecPolicy::sequential()),
        ("pooled", ExecPolicy::max_threads()),
    ] {
        g.bench_function(label, |b| {
            let opts = SchurOptions {
                exec,
                ..Default::default()
            };
            b.iter(|| factor_spd(&t, &opts).unwrap());
        });
    }
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    g.sample_size(10);
    for &n in &[256usize, 512] {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j) % 13) as f64);
        let b_ = Matrix::from_fn(n, n, |i, j| ((i + 3 * j) % 11) as f64);
        g.bench_with_input(BenchmarkId::new("seq", n), &n, |bch, _| {
            let mut cm = Matrix::zeros(n, n);
            bch.iter(|| gemm(1.0, a.rf(), Trans::No, b_.rf(), Trans::No, 0.0, cm.mt()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parallel_factor, bench_gemm);
criterion_main!(benches);
