//! Criterion bench: phase 1 (panel → block reflector production) and
//! phase 2 (application to the trailing generator) per representation —
//! the microcosm of eqs. 25-32.

use bs_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use bs_core::panel::factor_panel;
use bs_core::RepKind;
use bs_matrix::ldlt::Signature;
use bs_matrix::Matrix;

fn make_panel(m: usize) -> Matrix {
    let mut state = 0x12345u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state % 1000) as f64 - 500.0) / 500.0
    };
    let mut p = Matrix::zeros(2 * m, m);
    for j in 0..m {
        for i in 0..=j {
            p[(i, j)] = rnd() * 0.5;
        }
        p[(j, j)] = 2.0 + rnd().abs();
        // Damp the lower column so its hyperbolic norm stays positive
        // at every block size.
        let damp = 0.5 / (m as f64).sqrt();
        for i in 0..m {
            p[(m + i, j)] = rnd() * damp;
        }
    }
    p
}

fn bench_blocking(c: &mut Criterion) {
    let mut g = c.benchmark_group("panel_production");
    for m in [8usize, 32] {
        let w = Signature::hyperbolic(m);
        let p0 = make_panel(m);
        for rep in RepKind::ALL {
            g.bench_with_input(
                BenchmarkId::new(format!("m{m}"), format!("{rep}")),
                &rep,
                |b, &rep| {
                    b.iter_batched(
                        || p0.clone(),
                        |mut p| factor_panel(p.mt(), &w, rep, 0, 1e-13, 1.0).unwrap(),
                        bs_bench::harness::BatchSize::SmallInput,
                    );
                },
            );
        }
    }
    g.finish();
}

fn bench_application(c: &mut Criterion) {
    let mut g = c.benchmark_group("reflector_apply");
    let m = 16;
    let q = 2048;
    let w = Signature::hyperbolic(m);
    let p0 = make_panel(m);
    let trail = Matrix::from_fn(2 * m, q, |i, j| ((i * 31 + j * 7) % 17) as f64 - 8.0);
    let mut ws = bs_matrix::Workspace::new();
    for rep in RepKind::ALL {
        let mut panel = p0.clone();
        let refl = factor_panel(panel.mt(), &w, rep, 0, 1e-13, 1.0).unwrap();
        g.bench_with_input(
            BenchmarkId::new("apply", format!("{rep}")),
            &refl,
            |b, refl| {
                b.iter_batched(
                    || trail.clone(),
                    |mut t| refl.apply(t.mt(), &bs_matrix::ExecPolicy::sequential(), &mut ws),
                    bs_bench::harness::BatchSize::LargeInput,
                );
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_blocking, bench_application);
criterion_main!(benches);
