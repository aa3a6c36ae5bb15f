//! Ablations of the implementation choices DESIGN.md calls out:
//!
//! 1. block reflector representation (U / VY1 / VY2 / YTYᵀ / sequential)
//!    for the whole factorization;
//! 2. two-level panel blocking chunk size (§6.2);
//! 3. sequential vs pooled trailing update;
//! 4. direct O(n²) vs FFT O(n log n) Toeplitz product.
//!
//! Run: `cargo run -p bs-bench --release --bin ablations [--quick]`

use bs_bench::{print_table, quick_mode, time_it};
use bs_core::{factor_spd, RepKind, SchurOptions};
use bs_toeplitz::{workloads, FastToeplitzMatVec};

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (_, run) = time_it(&mut f);
        best = best.min(run.wall_s);
    }
    best
}

fn main() {
    let timer = bs_bench::RunTimer::start("ablations");
    let quick = quick_mode();
    let n = if quick { 512 } else { 2048 };
    let reps = if quick { 1 } else { 3 };
    let t = workloads::random_spd_scalar(n, 3);

    // 1. Representation ablation.
    let mut rows = Vec::new();
    for ms_ in [8usize, 32] {
        for rep in RepKind::ALL {
            let opts = SchurOptions {
                block_size: Some(ms_),
                rep,
                ..Default::default()
            };
            let secs = best_of(reps, || factor_spd(&t, &opts).unwrap());
            rows.push(vec![
                ms_.to_string(),
                format!("{rep}"),
                format!("{:.2}", secs * 1e3),
            ]);
        }
    }
    print_table(
        &format!("Ablation 1 — representation (n = {n})"),
        &["m_s", "representation", "time ms"],
        &rows,
    );

    // 2. Two-level blocking chunk size at large m.
    let mut rows = Vec::new();
    let ms_ = 32;
    for k in [1usize, 2, 4, 8, 16, 32] {
        let opts = SchurOptions {
            block_size: Some(ms_),
            two_level: Some(k),
            ..Default::default()
        };
        let secs = best_of(reps, || factor_spd(&t, &opts).unwrap());
        rows.push(vec![k.to_string(), format!("{:.2}", secs * 1e3)]);
    }
    print_table(
        &format!("Ablation 2 — two-level panel chunk k (n = {n}, m_s = {ms_}, §6.2)"),
        &["k", "time ms"],
        &rows,
    );

    // 3. Parallel trailing update.
    let mut rows = Vec::new();
    for (label, exec) in [
        ("sequential", bs_matrix::ExecPolicy::sequential()),
        ("pooled", bs_matrix::ExecPolicy::max_threads()),
    ] {
        let opts = SchurOptions {
            block_size: Some(32),
            exec,
            ..Default::default()
        };
        let secs = best_of(reps, || factor_spd(&t, &opts).unwrap());
        rows.push(vec![label.to_string(), format!("{:.2}", secs * 1e3)]);
    }
    print_table(
        &format!("Ablation 3 — trailing update parallelism (n = {n}, m_s = 32)"),
        &["mode", "time ms"],
        &rows,
    );

    // 4. Direct vs FFT Toeplitz product.
    let mut rows = Vec::new();
    for nn in [512usize, 2048, 8192] {
        if quick && nn > 2048 {
            continue;
        }
        let tt = workloads::random_spd_scalar(nn, 5);
        let x = vec![1.0; nn];
        let direct = best_of(reps, || tt.matvec(&x));
        let fast = FastToeplitzMatVec::new(&tt);
        let fft = best_of(reps, || fast.apply(&x));
        rows.push(vec![
            nn.to_string(),
            format!("{:.3}", direct * 1e3),
            format!("{:.3}", fft * 1e3),
            format!("{:.1}x", direct / fft),
        ]);
    }
    print_table(
        "Ablation 4 — Toeplitz product: direct O(n²) vs circulant FFT O(n log n)",
        &["n", "direct ms", "fft ms", "speedup"],
        &rows,
    );
    timer.finish();
}
