//! Steady-state solver benchmark: repeated factor/solve cycles against
//! a stream of same-shaped SPD block Toeplitz systems, comparing a warm
//! [`Factor`] (plan and [`PlanWorkspace`] reused via
//! [`Factor::refactor`]) against a cold factor per system and against
//! the per-call-allocation baseline (same plan, pooling disabled).
//!
//! The warm path must perform **zero** workspace allocations inside the
//! measured loop — after one warm-up refactor the retired triangular
//! factor is recycled for direct reuse (skipping even the defensive
//! zero-fill) and everything else comes out of the recycled pool. That
//! invariant is asserted here via the bs-probe-backed workspace
//! counters, not just reported.
//!
//! The wall-clock win from reuse is a *fixed per-cycle* saving
//! (allocations plus scratch zero-fills), so it is largest where the
//! elimination is cheapest: the benchmark sweeps n and asserts the
//! warm path strictly beats the per-call baseline at the smallest
//! size, where the fixed cost is a measurable fraction of the cycle.
//! At larger n the O(m n²) flops dominate and the three paths
//! converge; there the warm path only has to stay within 10% (it is
//! never slower in practice, but a virtualized host's min-of-rounds
//! still carries percent-level noise).
//!
//! Run: `cargo run -p bs-bench --release --bin steady_state [--quick]`

use bs_bench::{emit_bench, ms, print_table, quick_mode};
use bs_core::{
    Factor, FactorPlan, Factorization, IndefOptions, PlanRequest, PlanWorkspace, Precision,
    RefineOptions, SchurOptions,
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

fn solve_factorization(f: &Factorization, b: &[f64]) -> Vec<f64> {
    match f {
        Factorization::Spd(f) => f.solve(b).expect("spd solve"),
        Factorization::Indefinite(f) => f.solve(b).expect("indefinite solve"),
    }
}

struct SizeResult {
    n: usize,
    m: usize,
    iters: usize,
    warm_round: f64,
    cold_round: f64,
    percall_round: f64,
    high_water: usize,
    cold_allocs_per_cycle: u64,
    percall_allocs_per_cycle: u64,
    per_factor_flops: f64,
}

/// Time one (m, p) size through all three paths: interleave the paths
/// round by round (one round = one pass over all systems), rotating
/// which path goes first each round, and keep each path's best round.
/// The min kills one-off scheduler noise; the rotation kills the
/// systematic bias against whichever path runs while the caches are
/// cold and the clock is still ramping — without it the first-measured
/// path loses a fixed penalty every round and the min cannot recover
/// it.
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
    let mut pw = PlanWorkspace::new();
    // One warm-up refactor recycles the retired factor storage for
    // reuse; from here on the elimination loop is allocation-free.
    solver
        .refactor(&systems[1], &mut pw)
        .expect("warm-up refactor");
    pw.reset_stats();
    let per_factor_flops = solver.plan().predicted_flops();

    // The per-call-allocation baseline runs the same plan through a
    // fresh bypass workspace per system (pooling disabled, engine
    // scratch cold every call): every temporary is allocated per call,
    // exactly the behaviour the plan/workspace machinery replaced.
    let plan = solver.plan().clone();
    let mut percall_total_allocs = 0u64;

    let mut warm_round = f64::INFINITY;
    let mut cold_round = f64::INFINITY;
    let mut percall_round = f64::INFINITY;
    let mut warm_check = 0.0f64;
    let mut cold_check = 0.0f64;
    let mut percall_check = 0.0f64;
    // -1 is an untimed warm-up round for caches / branch predictors.
    for round in -1i64..rounds as i64 {
        for k in 0..3u64 {
            let start = Instant::now();
            let mut check = 0.0f64;
            match (round.max(0) as u64 + k) % 3 {
                0 => {
                    for (t, b) in systems.iter().zip(&rhs) {
                        solver.refactor(t, &mut pw).expect("steady-state refactor");
                        let x = solver.solve(b).expect("steady-state solve");
                        check += x[0];
                    }
                    if round >= 0 {
                        warm_round = warm_round.min(start.elapsed().as_secs_f64());
                        warm_check = check;
                    }
                }
                1 => {
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
                _ => {
                    // Per-call-allocation baseline: same plan, no pooling.
                    for (t, b) in systems.iter().zip(&rhs) {
                        let mut pw = PlanWorkspace::bypass();
                        let f = plan.execute(t, &mut pw).expect("per-call factorization");
                        let x = solve_factorization(&f, b);
                        check += x[0];
                        if round >= 0 {
                            percall_total_allocs += pw.allocations();
                        }
                    }
                    if round >= 0 {
                        percall_round = percall_round.min(start.elapsed().as_secs_f64());
                        percall_check = check;
                    }
                }
            }
        }
    }

    let allocations = pw.allocations();
    let high_water = pw.high_water_elems();
    let percall_allocs_per_cycle = percall_total_allocs / iters as u64;
    let cold_allocs_per_cycle = {
        let mut cold = PlanWorkspace::new();
        let _f = plan
            .execute(&systems[0], &mut cold)
            .expect("cold factorization");
        cold.allocations()
    };
    assert_eq!(
        allocations, 0,
        "n={n}: warm steady-state loop must be allocation-free (saw {allocations} pool misses)"
    );
    assert!(
        (warm_check - cold_check).abs() <= 1e-9 * warm_check.abs().max(1.0),
        "n={n}: warm and cold paths disagree: {warm_check} vs {cold_check}"
    );
    assert!(
        (warm_check - percall_check).abs() <= 1e-9 * warm_check.abs().max(1.0),
        "n={n}: warm and per-call paths disagree: {warm_check} vs {percall_check}"
    );

    SizeResult {
        n,
        m,
        iters,
        warm_round,
        cold_round,
        percall_round,
        high_water,
        cold_allocs_per_cycle,
        percall_allocs_per_cycle,
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
/// Asserts the pooled warm path stays allocation-free, produces
/// bitwise-identical factors, and never drops below 0.95x sequential
/// at the small-n point, then emits one `@@BENCH` record per thread
/// count with the `threads` / `speedup_vs_seq` fields.
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
        let mut pw = PlanWorkspace::new();
        solver
            .refactor(&systems[1], &mut pw)
            .expect("sweep warm-up");
        pw.reset_stats();
        let mut best = f64::INFINITY;
        let mut x0 = Vec::new();
        for round in -1i64..rounds as i64 {
            let start = Instant::now();
            for (t, b) in systems.iter().zip(&rhs) {
                solver.refactor(t, &mut pw).expect("sweep refactor");
                x0 = solver.solve(b).expect("sweep solve");
            }
            if round >= 0 {
                best = best.min(start.elapsed().as_secs_f64());
            }
        }
        // The zero-allocation invariant must survive the pooled path:
        // parallel strips draw from per-worker thread-local scratch,
        // never from the plan workspace.
        let allocs = pw.allocations();
        assert_eq!(
            allocs, 0,
            "n={n} threads={threads}: pooled warm loop must stay \
             allocation-free (saw {allocs} pool misses)"
        );
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
         (rate-derived) — pooled path allocation-free, bitwise equal to sequential"
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
        let mut pw = PlanWorkspace::new();
        solver
            .refactor(&systems[1], &mut pw)
            .expect("precision warm-up");
        let iters0 = metrics::total(Counter::RefineIterations);
        let stalls0 = metrics::total(Counter::MixedStallFallbacks);
        let mut best = f64::INFINITY;
        let mut cycles = 0u64;
        for round in -1i64..rounds as i64 {
            let start = Instant::now();
            for (t, b) in systems.iter().zip(&rhs) {
                solver.refactor(t, &mut pw).expect("precision refactor");
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
/// dispatch and workspace warm-up per *batch* instead of per item.
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

    // factor_batch vs a loop of single executes (one warm workspace,
    // the same arithmetic).
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
        let mut pw = PlanWorkspace::new();
        for t in &systems {
            let f = plan.execute(t, &mut pw).expect("looped factor");
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
            // the assertion below needs the tightest min.
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

    // The headline assertion lives at the smallest size, where the
    // per-cycle fixed cost (allocations + zero-fills) is a measurable
    // fraction of the cycle. Larger sizes only need to stay sane.
    let head = &results[0];
    assert!(
        head.warm_round < head.percall_round,
        "n={}: warm path ({:.6}s/round) must beat the per-call-allocation \
         baseline ({:.6}s/round)",
        head.n,
        head.warm_round,
        head.percall_round
    );
    // At larger sizes the paths converge (flops dominate), so this is
    // only a catastrophic-regression tripwire: generous enough that a
    // noisy-neighbor burst on a shared host cannot fire it spuriously.
    for r in &results[1..] {
        assert!(
            r.warm_round < 1.25 * r.percall_round,
            "n={}: warm path ({:.6}s/round) regressed more than 25% against \
             the per-call-allocation baseline ({:.6}s/round)",
            r.n,
            r.warm_round,
            r.percall_round
        );
    }

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
                    "warm (plan + workspace reuse)".into(),
                    ms(r.warm_round / cycles),
                    "0".into(),
                    format!("{:.2}x", r.percall_round / r.warm_round),
                ],
                vec![
                    String::new(),
                    "cold (fresh factor per system)".into(),
                    ms(r.cold_round / cycles),
                    format!("{}", r.cold_allocs_per_cycle),
                    format!("{:.2}x", r.percall_round / r.cold_round),
                ],
                vec![
                    String::new(),
                    "per-call allocation (no pool)".into(),
                    ms(r.percall_round / cycles),
                    format!("{}", r.percall_allocs_per_cycle),
                    "1.00x".into(),
                ],
            ]
        })
        .collect();
    print_table(
        "steady-state factor/solve",
        &["n", "path", "per cycle (ms)", "allocs/cycle", "vs per-call"],
        &rows,
    );
    for r in &results {
        println!(
            "n = {}: workspace high-water {} elements; warm speedup {:.2}x \
             vs per-call, {:.2}x vs cold factor",
            r.n,
            r.high_water,
            r.percall_round / r.warm_round,
            r.cold_round / r.warm_round
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
                ("allocations", 0.0),
                ("high_water_elems", r.high_water as f64),
                ("speedup_vs_percall", r.percall_round / r.warm_round),
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
                ("allocs_per_cycle", r.cold_allocs_per_cycle as f64),
            ],
        );
        emit_bench(
            "steady_state_percall",
            r.percall_round * rounds as f64,
            total_flops,
            &[
                ("n", r.n as f64),
                ("m", r.m as f64),
                ("iters", r.iters as f64),
                ("allocs_per_cycle", r.percall_allocs_per_cycle as f64),
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
