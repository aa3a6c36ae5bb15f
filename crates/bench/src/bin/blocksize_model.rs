//! The §6.5 / §9 block-size analysis, done the way the paper did it on
//! the Cray Y-MP: *empirically characterize* the performance of the
//! computational primitives at the shapes the algorithm uses, then
//! *predict* the factorization time for any (n, m_s) from the analytic
//! flop model — and check the prediction against measured runs.
//!
//! "The performance trends observed were predictable by a block size
//! analysis based on an empirical characterization of the performance
//! of the BLAS3 primitives on products with the shapes of interest."
//!
//! Run: `cargo run -p bs-bench --release --bin blocksize_model [--quick]`

use bs_bench::{print_table, quick_mode, time_it};
use bs_core::panel::factor_panel;
use bs_core::{factor_spd, RepKind, SchurOptions};
use bs_matrix::ldlt::Signature;
use bs_matrix::Matrix;
use bs_perfmodel::{apply_flops, blocking_flops, Rep};
use bs_toeplitz::workloads;

/// Measured rates (flops/sec) of the two phase kernels at block size m.
struct Rates {
    blocking: f64,
    apply: f64,
}

fn make_panel(m: usize) -> Matrix {
    let mut state = 0xABCDu64;
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
        // Keep the lower column's norm well below the pivot so the
        // hyperbolic norms stay positive at every block size.
        let damp = 0.5 / (m as f64).sqrt();
        for i in 0..m {
            p[(m + i, j)] = rnd() * damp;
        }
    }
    p
}

/// Characterize the panel-production and trailing-update kernels.
fn characterize(m: usize, reps: usize) -> Rates {
    let w = Signature::hyperbolic(m);
    let p0 = make_panel(m);

    // Blocking rate: repeat the panel factorization.
    let iters = (2048 / m).max(8);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (_, run) = time_it(|| {
            for _ in 0..iters {
                let mut p = p0.clone();
                let _ = factor_panel(p.mt(), &w, RepKind::VY2, 0, 1e-13, 1.0).unwrap();
            }
        });
        best = best.min(run.wall_s);
    }
    let blocking = blocking_flops(Rep::VY2, m, m) * iters as f64 / best;

    // Apply rate: one block reflector against a wide trailing strip.
    let q_blocks = (2048 / m).max(4);
    let mut panel = p0.clone();
    let refl = factor_panel(panel.mt(), &w, RepKind::VY2, 0, 1e-13, 1.0).unwrap();
    // The stacked 2m-row trailing generator the engine updates: both
    // halves hold the same pattern.
    let g0 = Matrix::from_fn(2 * m, q_blocks * m, |i, j| {
        (((i % m) * 13 + j * 7) % 19) as f64 - 9.0
    });
    let mut ws = bs_matrix::Workspace::new();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut g = g0.clone();
        let (_, run) =
            time_it(|| refl.apply(g.mt(), &bs_matrix::ExecPolicy::sequential(), &mut ws));
        best = best.min(run.wall_s);
    }
    let apply = apply_flops(Rep::VY2, m, m, q_blocks) / best;
    Rates { blocking, apply }
}

/// Predict the factorization time from the analytic flop model and the
/// measured rates.
fn predict(n: usize, m: usize, r: &Rates) -> f64 {
    let p = n / m;
    let mut total = 0.0;
    for s in 1..p {
        total += blocking_flops(Rep::VY2, m, m) / r.blocking;
        let trailing = p - s - 1;
        if trailing > 0 {
            total += apply_flops(Rep::VY2, m, m, trailing) / r.apply;
        }
    }
    total
}

fn main() {
    let timer = bs_bench::RunTimer::start("blocksize_model");
    let quick = quick_mode();
    let reps = if quick { 2 } else { 4 };
    let block_sizes = [1usize, 2, 4, 8, 16, 32];
    let sizes: &[usize] = if quick {
        &[512, 1024]
    } else {
        &[1024, 2048, 4096]
    };

    // Phase A: empirical characterization.
    let mut rows = Vec::new();
    let mut rates = Vec::new();
    for &m in &block_sizes {
        let r = characterize(m, reps);
        rows.push(vec![
            m.to_string(),
            format!("{:.3}", r.blocking / 1e9),
            format!("{:.3}", r.apply / 1e9),
        ]);
        rates.push((m, r));
    }
    print_table(
        "Empirical primitive characterization (VY2 kernels)",
        &["m_s", "blocking Gflop/s", "apply Gflop/s"],
        &rows,
    );

    // Phase B: predicted vs measured factor times.
    let mut rows = Vec::new();
    for &n in sizes {
        let t = workloads::random_spd_scalar(n, 17);
        let mut best_pred = (0usize, f64::INFINITY);
        let mut best_meas = (0usize, f64::INFINITY);
        for (m, r) in &rates {
            if *m > n / 4 {
                continue;
            }
            let pred = predict(n, *m, r);
            let opts = SchurOptions {
                block_size: Some(*m),
                ..Default::default()
            };
            let mut meas = f64::INFINITY;
            for _ in 0..reps.min(3) {
                let (_, run) = time_it(|| factor_spd(&t, &opts).unwrap());
                meas = meas.min(run.wall_s);
            }
            if pred < best_pred.1 {
                best_pred = (*m, pred);
            }
            if meas < best_meas.1 {
                best_meas = (*m, meas);
            }
            rows.push(vec![
                n.to_string(),
                m.to_string(),
                format!("{:.2}", pred * 1e3),
                format!("{:.2}", meas * 1e3),
                format!("{:.2}", meas / pred),
            ]);
        }
        rows.push(vec![
            n.to_string(),
            "--".into(),
            format!("best: m_s={}", best_pred.0),
            format!("best: m_s={}", best_meas.0),
            String::new(),
        ]);
    }
    print_table(
        "Block-size analysis: predicted vs measured factor time",
        &["n", "m_s", "predicted ms", "measured ms", "meas/pred"],
        &rows,
    );
    println!(
        "\npaper (§6.5/§9): the optimal m_s is predictable from the primitive characterization;\n\
         the model captures compute phases only (shifts/emission excluded), so ratios near 1\n\
         and matching best-m_s picks are the success criteria"
    );
    timer.finish();
}
