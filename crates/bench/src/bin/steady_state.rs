//! Steady-state solver benchmark: repeated factor/solve cycles against
//! a stream of same-shaped SPD block Toeplitz systems, comparing a warm
//! [`Factor`] (plan and operator copy reused via [`Factor::refactor`])
//! against a cold factor per system (a fresh plan every time).
//!
//! Scratch lives for one factorization: each cycle draws its buffers
//! from one fresh arena that its `p − 1` elimination steps reuse. An
//! arena carried across calls saved only a fixed per-call cost (warm ÷
//! per-call 1.00–1.10× at n = 16…128, EXPERIMENTS.md "Steady-state
//! reuse"), so it was removed; `allocs_per_cycle` counts the pool
//! misses of one factorization's arena.
//!
//! Run: `cargo run -p bs-bench --release --bin steady_state [--quick]`

use bs_bench::{emit_bench, ms, print_table, quick_mode};
use bs_core::{
    Factor, FactorPlan, IndefOptions, PlanRequest, Precision, RefineOptions, SchurOptions,
};
use bs_matrix::{ExecPolicy, Partition};
use bs_perfmodel::tradeoff;
use bs_probe::metrics::{self, Counter};
use bs_toeplitz::workloads;
use std::time::Instant;

/// Systems in the steady-state stream (refactor/solve cycles per round).
const SYSTEMS: usize = 8;

/// Factor `t` under a cost-model plan for `req`.
fn factor_with(t: &bs_toeplitz::SymBlockToeplitz, req: &PlanRequest) -> Factor {
    let plan = FactorPlan::new(t, req).expect("plan");
    Factor::from_plan(t, plan, RefineOptions::default()).expect("factorization")
}

struct SizeResult {
    n: usize,
    m: usize,
    iters: usize,
    warm_round: f64,
    cold_round: f64,
    allocs_per_cycle: u64,
    per_factor_flops: f64,
}

/// Time one (m, p) size through both paths: interleave the paths round
/// by round (one round = one pass over all systems), alternating which
/// path goes first, and keep each path's best round. The min kills
/// one-off scheduler noise; the alternation kills the systematic bias
/// against whichever path runs while the caches are cold and the clock
/// is still ramping — without it the first-measured path loses a fixed
/// penalty every round and the min cannot recover it.
fn bench_size(m: usize, p: usize, rounds: usize) -> SizeResult {
    let n = m * p;
    // A stream of same-shaped systems: the AR(1) workload at varying
    // seeds, so every refactor sees genuinely different data.
    let systems: Vec<_> = (0..SYSTEMS as u64)
        .map(|s| workloads::spd_ar1_block(m, p, 0.55, 700 + s))
        .collect();
    let rhs: Vec<_> = systems
        .iter()
        .map(|t| workloads::rhs_for_ones(t).0)
        .collect();
    let iters = rounds * systems.len();

    // Let the cost model pick representation and algorithmic block
    // size (the plan/execute engine's auto-selection path).
    let req = PlanRequest::default();
    let mut solver = factor_with(&systems[0], &req);
    solver.refactor(&systems[1]).expect("warm-up refactor");
    let per_factor_flops = solver.plan().predicted_flops();
    let allocs_per_cycle = {
        let before = metrics::local_get(Counter::WorkspaceAllocs);
        let _f = solver.plan().execute(&systems[0]).expect("factorization");
        metrics::local_get(Counter::WorkspaceAllocs) - before
    };

    let mut warm_round = f64::INFINITY;
    let mut cold_round = f64::INFINITY;
    let mut warm_check = 0.0f64;
    let mut cold_check = 0.0f64;
    // -1 is an untimed warm-up round for caches / branch predictors.
    for round in -1i64..rounds as i64 {
        for k in 0..2u64 {
            let start = Instant::now();
            let mut check = 0.0f64;
            if (round.max(0) as u64 + k).is_multiple_of(2) {
                for (t, b) in systems.iter().zip(&rhs) {
                    solver.refactor(t).expect("steady-state refactor");
                    let x = solver.solve(b).expect("steady-state solve");
                    check += x[0];
                }
                if round >= 0 {
                    warm_round = warm_round.min(start.elapsed().as_secs_f64());
                    warm_check = check;
                }
            } else {
                // Cold baseline: fresh factor (plan + pool) per system.
                for (t, b) in systems.iter().zip(&rhs) {
                    let cold = factor_with(t, &req);
                    let x = cold.solve(b).expect("cold solve");
                    check += x[0];
                }
                if round >= 0 {
                    cold_round = cold_round.min(start.elapsed().as_secs_f64());
                    cold_check = check;
                }
            }
        }
    }

    assert!(
        (warm_check - cold_check).abs() <= 1e-9 * warm_check.abs().max(1.0),
        "n={n}: warm and cold paths disagree: {warm_check} vs {cold_check}"
    );

    SizeResult {
        n,
        m,
        iters,
        warm_round,
        cold_round,
        allocs_per_cycle,
        per_factor_flops,
    }
}

/// Parallel-vs-sequential sweep over the warm steady-state loop: the
/// same stream of systems through identically-planned solvers whose
/// `ExecPolicy` differs only in thread count. `min_work` is derived
/// from the calibrated kernel rate and the measured pool dispatch
/// overhead ([`tradeoff::min_dispatch_work`]) — the crossover the plan
/// itself would pick — so regions too small to recoup a dispatch run
/// inline instead of being fanned out at a loss (the old pinned
/// `min_work: 1` lost ~40% at n = 64 / 2 threads to exactly that).
/// Asserts the pooled warm path produces bitwise-identical factors and
/// never drops below 0.95x sequential at the small-n point, then emits
/// one `@@BENCH` record per thread count with the `threads` /
/// `speedup_vs_seq` fields.
fn bench_exec_sweep(m: usize, p: usize, rounds: usize, assert_speedup_floor: bool) {
    let n = m * p;
    let systems: Vec<_> = (0..SYSTEMS as u64)
        .map(|s| workloads::spd_ar1_block(m, p, 0.55, 900 + s))
        .collect();
    let rhs: Vec<_> = systems
        .iter()
        .map(|t| workloads::rhs_for_ones(t).0)
        .collect();

    let max_t = bs_matrix::par::current_num_threads();
    let mut sweep = vec![1usize, 2, max_t];
    sweep.sort_unstable();
    sweep.dedup();

    // The overhead-derived dispatch gate: a parallel region below this
    // work volume (product-of-extents units) cannot pay for waking the
    // pool, so the strip dispatcher runs it inline.
    let rate = tradeoff::RateTable::new(&bs_matrix::kernel::calibrate::calibration().points);
    let overhead_ns = bs_matrix::par::dispatch_overhead_ns();
    let min_work = tradeoff::min_dispatch_work(rate.rate(m), overhead_ns);

    let mut seq_round = f64::INFINITY;
    let mut seq_x0: Vec<f64> = Vec::new();
    for &threads in &sweep {
        let spd = SchurOptions {
            exec: ExecPolicy {
                threads,
                min_work,
                partition: Partition::Auto,
            },
            ..Default::default()
        };
        let plan = FactorPlan::from_options(&systems[0], &spd, &IndefOptions::default())
            .expect("sweep plan");
        let mut solver = Factor::from_plan(&systems[0], plan, RefineOptions::default())
            .expect("sweep factorization");
        let round_flops = (solver.plan().predicted_flops() * SYSTEMS as f64) as u64;
        solver.refactor(&systems[1]).expect("sweep warm-up");
        let mut best = f64::INFINITY;
        let mut x0 = Vec::new();
        for round in -1i64..rounds as i64 {
            let start = Instant::now();
            for (t, b) in systems.iter().zip(&rhs) {
                solver.refactor(t).expect("sweep refactor");
                x0 = solver.solve(b).expect("sweep solve");
            }
            if round >= 0 {
                best = best.min(start.elapsed().as_secs_f64());
            }
        }
        if threads == 1 {
            seq_round = best;
            seq_x0 = x0.clone();
        } else {
            // Deterministic strips: every thread count is bitwise equal
            // to the sequential result, not merely close.
            assert_eq!(
                x0, seq_x0,
                "n={n} threads={threads}: pooled solve diverged from sequential"
            );
        }
        let speedup = seq_round / best;
        if assert_speedup_floor && threads > 1 {
            // With the derived gate, fanning out must never *cost*:
            // small regions stay inline, so the worst case is parity
            // (0.95 leaves room for timer noise on a shared host).
            assert!(
                speedup >= 0.95,
                "n={n} threads={threads}: speedup_vs_seq {speedup:.2} < 0.95 — \
                 the derived min_work ({min_work}) failed to keep sub-crossover \
                 regions inline"
            );
        }
        emit_bench(
            "steady_state_exec",
            best,
            round_flops,
            &[
                ("n", n as f64),
                ("m", m as f64),
                ("threads", threads as f64),
                ("min_work", min_work as f64),
                ("speedup_vs_seq", speedup),
            ],
        );
    }
    println!(
        "exec sweep: n = {n}, threads {sweep:?}, min_work {min_work} \
         (rate-derived) — pooled path bitwise equal to sequential"
    );
}

/// Stable numeric label for `@@BENCH` records (which carry only f64
/// fields).
fn precision_index(p: Precision) -> f64 {
    match p {
        Precision::F64 => 0.0,
        Precision::F32 => 1.0,
        Precision::Mixed => 2.0,
    }
}

/// Mixed-precision sweep: the same warm refactor/solve stream through
/// f64, f32, and mixed plans. Emits one `@@BENCH` record per precision
/// with per-cycle refinement-iteration and stall-fallback counts, and
/// asserts every precision still answers (accuracy is pinned by the
/// refinement test tier; this measures the throughput side of the
/// trade).
fn bench_precision_sweep(m: usize, p: usize, rounds: usize) {
    let n = m * p;
    let systems: Vec<_> = (0..SYSTEMS as u64)
        .map(|s| workloads::spd_ar1_block(m, p, 0.55, 1100 + s))
        .collect();
    let rhs: Vec<_> = systems
        .iter()
        .map(|t| workloads::rhs_for_ones(t).0)
        .collect();

    let mut f64_round = f64::INFINITY;
    for precision in [Precision::F64, Precision::F32, Precision::Mixed] {
        let req = PlanRequest {
            precision,
            ..Default::default()
        };
        let mut solver = factor_with(&systems[0], &req);
        let round_flops = (solver.plan().predicted_flops() * SYSTEMS as f64) as u64;
        solver.refactor(&systems[1]).expect("precision warm-up");
        let iters0 = metrics::total(Counter::RefineIterations);
        let stalls0 = metrics::total(Counter::MixedStallFallbacks);
        let mut best = f64::INFINITY;
        let mut cycles = 0u64;
        for round in -1i64..rounds as i64 {
            let start = Instant::now();
            for (t, b) in systems.iter().zip(&rhs) {
                solver.refactor(t).expect("precision refactor");
                let x = solver.solve(b).expect("precision solve");
                assert!(x[0].is_finite(), "precision {precision:?} produced NaN");
            }
            if round >= 0 {
                best = best.min(start.elapsed().as_secs_f64());
                cycles += SYSTEMS as u64;
            }
        }
        let refine_iters = metrics::total(Counter::RefineIterations) - iters0;
        let stalls = metrics::total(Counter::MixedStallFallbacks) - stalls0;
        if precision == Precision::F64 {
            f64_round = best;
        }
        emit_bench(
            "steady_state_precision",
            best,
            round_flops,
            &[
                ("n", n as f64),
                ("m", m as f64),
                ("precision", precision_index(precision)),
                (
                    "refine_iters_per_cycle",
                    refine_iters as f64 / cycles as f64,
                ),
                ("stall_fallbacks", stalls as f64),
                ("speedup_vs_f64", f64_round / best),
            ],
        );
        println!(
            "precision sweep: n = {n} {}: best round {:.3} ms, {:.2} refine \
             iters/cycle, {stalls} stall fallbacks",
            precision.as_str(),
            best * 1e3,
            refine_iters as f64 / cycles as f64,
        );
    }
}

/// Batched-dispatch throughput: `factor_batch` over the system stream
/// and `solve_batch` over a many-column RHS, against their looped
/// equivalents on the same plan. The batched paths amortize pool
/// dispatch per *batch* instead of per item.
fn bench_batch(m: usize, p: usize, rhs_cols: usize, rounds: usize) {
    let n = m * p;
    let systems: Vec<_> = (0..SYSTEMS as u64)
        .map(|s| workloads::spd_ar1_block(m, p, 0.55, 1300 + s))
        .collect();
    let threads = bs_matrix::par::current_num_threads();
    let req = PlanRequest {
        threads: Some(threads),
        ..Default::default()
    };
    let plan = FactorPlan::new(&systems[0], &req).expect("batch plan");

    // factor_batch vs a loop of single executes (the same arithmetic).
    let mut batch_best = f64::INFINITY;
    let mut loop_best = f64::INFINITY;
    for round in -1i64..rounds as i64 {
        let start = Instant::now();
        let fs = plan.execute_batch(&systems).expect("batched factor");
        if round >= 0 {
            batch_best = batch_best.min(start.elapsed().as_secs_f64());
        }
        drop(fs);
        let start = Instant::now();
        for t in &systems {
            let f = plan.execute(t).expect("looped factor");
            drop(f);
        }
        if round >= 0 {
            loop_best = loop_best.min(start.elapsed().as_secs_f64());
        }
    }
    let factor_flops = (plan.predicted_flops() * SYSTEMS as f64) as u64;
    emit_bench(
        "factor_batch",
        batch_best,
        factor_flops,
        &[
            ("n", n as f64),
            ("m", m as f64),
            ("systems", SYSTEMS as f64),
            ("threads", threads as f64),
            ("speedup_vs_looped", loop_best / batch_best),
        ],
    );

    // solve_batch vs a sequential column loop on one factored system.
    let solver = factor_with(&systems[0], &req);
    let b = bs_matrix::Matrix::from_fn(n, rhs_cols, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
    let mut sb_best = f64::INFINITY;
    let mut sm_best = f64::INFINITY;
    let mut x_batch = bs_matrix::Matrix::zeros(0, 0);
    let mut x_loop = bs_matrix::Matrix::zeros(0, 0);
    for round in -1i64..rounds as i64 {
        let start = Instant::now();
        x_batch = solver.solve_batch(&b).expect("batched solve");
        if round >= 0 {
            sb_best = sb_best.min(start.elapsed().as_secs_f64());
        }
        let start = Instant::now();
        x_loop = bs_matrix::Matrix::zeros(n, rhs_cols);
        for j in 0..rhs_cols {
            solver
                .solve_col_into(b.col(j), x_loop.col_mut(j))
                .expect("looped solve");
        }
        if round >= 0 {
            sm_best = sm_best.min(start.elapsed().as_secs_f64());
        }
    }
    assert_eq!(
        x_batch.max_abs_diff(&x_loop),
        0.0,
        "n={n}: solve_batch must be bitwise identical to looped solves"
    );
    // Two triangular solves per column.
    let solve_flops = (2 * n * n * rhs_cols) as u64;
    emit_bench(
        "solve_batch",
        sb_best,
        solve_flops,
        &[
            ("n", n as f64),
            ("rhs", rhs_cols as f64),
            ("threads", threads as f64),
            ("speedup_vs_looped", sm_best / sb_best),
        ],
    );
    println!(
        "batch: n = {n}, {SYSTEMS} systems, {rhs_cols} rhs — factor_batch \
         {:.2}x vs looped, solve_batch {:.2}x vs looped",
        loop_best / batch_best,
        sm_best / sb_best
    );
}

fn main() {
    let timer = bs_bench::RunTimer::start("steady_state");
    let quick = quick_mode();
    let m = 4usize;
    let ps: &[usize] = if quick { &[4, 16] } else { &[4, 8, 16, 32] };

    let results: Vec<SizeResult> = ps
        .iter()
        .map(|&p| {
            let n = m * p;
            // Small sizes have fast rounds, so buy extra samples where
            // the per-cycle fixed cost is the largest share.
            let rounds = if n <= 32 {
                200
            } else if n <= 64 {
                80
            } else {
                40
            };
            bench_size(m, p, rounds)
        })
        .collect();

    println!(
        "steady state: m = {m}, n in {:?}, {SYSTEMS} systems per round, best round kept",
        results.iter().map(|r| r.n).collect::<Vec<_>>()
    );
    let rows: Vec<Vec<String>> = results
        .iter()
        .flat_map(|r| {
            let cycles = SYSTEMS as f64;
            [
                vec![
                    format!("{}", r.n),
                    "warm (refactor under one plan)".into(),
                    ms(r.warm_round / cycles),
                    format!("{:.2}x", r.cold_round / r.warm_round),
                ],
                vec![
                    String::new(),
                    "cold (fresh factor per system)".into(),
                    ms(r.cold_round / cycles),
                    "1.00x".into(),
                ],
            ]
        })
        .collect();
    print_table(
        "steady-state factor/solve",
        &["n", "path", "per cycle (ms)", "vs cold"],
        &rows,
    );
    for r in &results {
        println!(
            "n = {}: {} scratch pool misses per factorization",
            r.n, r.allocs_per_cycle
        );
    }

    for r in &results {
        let total_flops = (r.per_factor_flops * r.iters as f64) as u64;
        let rounds = r.iters / SYSTEMS;
        emit_bench(
            "steady_state_warm",
            r.warm_round * rounds as f64,
            total_flops,
            &[
                ("n", r.n as f64),
                ("m", r.m as f64),
                ("iters", r.iters as f64),
                ("speedup_vs_cold", r.cold_round / r.warm_round),
            ],
        );
        emit_bench(
            "steady_state_cold",
            r.cold_round * rounds as f64,
            total_flops,
            &[
                ("n", r.n as f64),
                ("m", r.m as f64),
                ("iters", r.iters as f64),
                ("allocs_per_cycle", r.allocs_per_cycle as f64),
            ],
        );
    }

    // Exec sweep at two sizes: n = 64 is below the dispatch crossover
    // (the derived min_work must keep it at sequential parity — the
    // asserted floor), n = 256 carries enough work per strip for the
    // fan-out to engage and pay.
    bench_exec_sweep(m, 16, if quick { 20 } else { 60 }, true);
    bench_exec_sweep(m, 64, if quick { 8 } else { 20 }, false);

    // Mixed-precision throughput sweep + batched-dispatch throughput.
    // n = 64 is overhead-dominated (demotion + refinement cost shows);
    // n = 256 gives the f32 kernels enough work for the lane-width
    // payoff to surface in end-to-end factor time.
    bench_precision_sweep(m, 16, if quick { 20 } else { 60 });
    bench_precision_sweep(m, 64, if quick { 6 } else { 20 });
    bench_batch(m, 16, 32, if quick { 10 } else { 30 });

    timer.finish();
}
