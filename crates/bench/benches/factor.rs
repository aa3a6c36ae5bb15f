//! Criterion bench: SPD block Schur factorization across block
//! reflector representations and problem sizes, plus the dense
//! Cholesky ceiling — the headline "O(m n²) vs O(n³)" contrast.

use bs_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use bs_core::{factor_spd, RepKind, SchurOptions};
use bs_toeplitz::workloads;

fn bench_representations(c: &mut Criterion) {
    let mut g = c.benchmark_group("factor_reps");
    g.sample_size(10);
    let t = workloads::random_spd_block(8, 64, 42); // n = 512
    for rep in RepKind::ALL {
        g.bench_with_input(
            BenchmarkId::new("rep", format!("{rep}")),
            &rep,
            |b, &rep| {
                let opts = SchurOptions {
                    rep,
                    ..Default::default()
                };
                b.iter(|| factor_spd(&t, &opts).unwrap());
            },
        );
    }
    g.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("factor_scaling");
    g.sample_size(10);
    for &n in &[128usize, 256, 512, 1024] {
        let t = workloads::random_spd_block(8, n / 8, 7);
        g.bench_with_input(BenchmarkId::new("schur_m8", n), &t, |b, t| {
            b.iter(|| factor_spd(t, &SchurOptions::default()).unwrap());
        });
        if n <= 512 {
            let dense = t.to_dense();
            g.bench_with_input(BenchmarkId::new("dense_cholesky", n), &dense, |b, d| {
                b.iter(|| bs_matrix::chol::cholesky(d).unwrap());
            });
        }
    }
    g.finish();
}

/// The bs-probe acceptance check: with tracing disabled (the default)
/// the span/event hooks in the factorization hot path must cost nothing
/// measurable — each disabled hook is one relaxed atomic load.
fn bench_tracing_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracing_overhead");
    g.sample_size(10);
    let t = workloads::random_spd_block(8, 64, 42); // n = 512
    let opts = SchurOptions::default();
    bs_probe::trace::disable();
    g.bench_function("tracing_disabled", |b| {
        b.iter(|| factor_spd(&t, &opts).unwrap());
    });
    bs_probe::trace::enable();
    g.bench_function("tracing_enabled", |b| {
        b.iter(|| {
            let f = factor_spd(&t, &opts).unwrap();
            // Drain the ring buffers so repeated samples don't just
            // overwrite a full buffer (that would under-state the cost).
            bs_probe::trace::take_events();
            f
        });
    });
    bs_probe::trace::disable();
    g.finish();
}

criterion_group!(
    benches,
    bench_representations,
    bench_scaling,
    bench_tracing_overhead
);
criterion_main!(benches);
