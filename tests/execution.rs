//! Execution-layer contract tests: the persistent worker pool must be
//! an implementation detail of *speed*, never of *results*. Strip
//! boundaries depend only on the problem shape and the partition
//! policy — not on the thread count — so a pooled factorization is
//! bitwise identical to the sequential one at every thread count,
//! including absurd oversubscription.
//!
//! The tests share one mutex: pool-dispatch counters are process-wide,
//! so the inline-fallback assertions must not race the pooled runs.

use block_schur::prelude::*;
use bs_probe::metrics::{self, Counter};
use std::sync::Mutex;

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// An ExecPolicy that engages the strip dispatcher even at test sizes.
fn exec(threads: usize) -> ExecPolicy {
    ExecPolicy {
        threads,
        min_work: 1,
        partition: Partition::Auto,
    }
}

fn spd_opts(threads: usize) -> SchurOptions {
    SchurOptions {
        exec: exec(threads),
        ..Default::default()
    }
}

/// `Factor::new` with the trailing update and multi-RHS solves pinned
/// to `threads` workers.
fn factor_with(t: &SymBlockToeplitz, threads: usize) -> Factor {
    let plan = FactorPlan::from_options(t, &spd_opts(threads), &IndefOptions::default()).unwrap();
    Factor::from_plan(t, plan, RefineOptions::default()).unwrap()
}

#[test]
fn spd_factorization_is_bitwise_identical_across_thread_counts() {
    let _g = lock();
    let max = block_schur::matrix::par::current_num_threads();
    let systems = [
        workloads::kms(48, 0.85),
        workloads::random_spd_block(3, 16, 11),
        workloads::spd_ar1_block(4, 16, 0.6, 5),
    ];
    for t in &systems {
        let (b, _) = workloads::rhs_for_ones(t);
        let baseline = factor_spd(t, &spd_opts(1)).unwrap();
        let x0 = baseline.solve(&b).unwrap();
        for threads in [2usize, max, max * 2] {
            let f = factor_spd(t, &spd_opts(threads)).unwrap();
            // Elementwise *equality*, not closeness: deterministic
            // strips mean no reassociation anywhere in the update.
            assert_eq!(
                f.r.max_abs_diff(&baseline.r),
                0.0,
                "threads={threads}: pooled R differs from sequential"
            );
            let x = f.solve(&b).unwrap();
            assert_eq!(x, x0, "threads={threads}: pooled solve differs");
        }
    }
}

#[test]
fn indefinite_solver_is_bitwise_identical_across_thread_counts() {
    let _g = lock();
    let max = block_schur::matrix::par::current_num_threads();
    let systems = [
        workloads::random_indefinite_block(2, 12, 21),
        workloads::singular_minor_scalar(40, 503),
    ];
    for t in &systems {
        let (b, _) = workloads::rhs_for_ones(t);
        let base = factor_with(t, 1);
        let x0 = base.solve(&b).unwrap();
        assert!(!base.is_positive_definite(), "workload must be indefinite");
        for threads in [2usize, max, max * 2] {
            let s = factor_with(t, threads);
            let x = s.solve(&b).unwrap();
            assert_eq!(x, x0, "threads={threads}: indefinite solve differs");
        }
    }
}

#[test]
fn fixed_kernel_choice_is_bitwise_identical_across_thread_counts() {
    // The kernel-engine determinism contract: for any *fixed* microkernel
    // choice, every C entry's accumulation chain depends only on the
    // problem shape — never on strip boundaries — so a pooled run is
    // bitwise equal to the sequential one whichever ISA is dispatched.
    // (Different ISAs may differ in the last bits: FMA fuses what the
    // portable kernel rounds twice. That is why the choice is held
    // fixed inside the comparison, under the process-wide EXCLUSIVE
    // lock since the override is global.)
    use block_schur::matrix::kernel;
    let _g = lock();
    let max = block_schur::matrix::par::current_num_threads();
    let t = workloads::spd_ar1_block(4, 20, 0.65, 17);
    let (b, _) = workloads::rhs_for_ones(&t);
    for choice in [kernel::Choice::Portable, kernel::Choice::Native] {
        kernel::set_override(Some(choice));
        let baseline = factor_spd(&t, &spd_opts(1)).unwrap();
        let x0 = baseline.solve(&b).unwrap();
        for threads in [2usize, max, max * 2] {
            let f = factor_spd(&t, &spd_opts(threads)).unwrap();
            assert_eq!(
                f.r.max_abs_diff(&baseline.r),
                0.0,
                "{choice:?} threads={threads}: pooled R differs from sequential"
            );
            assert_eq!(
                f.solve(&b).unwrap(),
                x0,
                "{choice:?} threads={threads}: pooled solve differs"
            );
        }
    }
    kernel::set_override(None);
}

#[test]
fn threads_one_never_touches_the_pool() {
    let _g = lock();
    let t = workloads::random_spd_block(4, 12, 7);
    let before = metrics::total(Counter::PoolDispatches);
    let _ = factor_spd(&t, &spd_opts(1)).unwrap();
    assert_eq!(
        metrics::total(Counter::PoolDispatches),
        before,
        "threads=1 must run strips inline on the caller's thread"
    );
    // The same problem with threads=2 *does* route through the pool —
    // proving the counter would have caught an accidental dispatch.
    let _ = factor_spd(&t, &spd_opts(2)).unwrap();
    assert!(
        metrics::total(Counter::PoolDispatches) > before,
        "threads=2 at min_work=1 must dispatch to the pool"
    );
}

#[test]
fn batched_factor_matches_looped_execution_bitwise() {
    let _g = lock();
    let max = block_schur::matrix::par::current_num_threads();
    // Same shape (n = 16, m = 2), mixed SPD / indefinite content so the
    // batch exercises both execute paths.
    let systems: Vec<SymBlockToeplitz> = (0..5)
        .map(|s| workloads::random_spd_block(2, 8, 100 + s))
        .chain((0..2).map(|s| workloads::random_indefinite_block(2, 8, 200 + s)))
        .collect();
    for threads in [1usize, 2, max, max * 2] {
        let req = PlanRequest {
            threads: Some(threads),
            ..Default::default()
        };
        let plan = FactorPlan::new(&systems[0], &req).unwrap();
        let batch = plan.execute_batch(&systems).unwrap();
        assert_eq!(batch.len(), systems.len());
        for (i, (t, f)) in systems.iter().zip(&batch).enumerate() {
            let single = plan.execute(t).unwrap();
            match (f, &single) {
                (Factorization::Spd(a), Factorization::Spd(b)) => {
                    assert_eq!(
                        a.r.max_abs_diff(&b.r),
                        0.0,
                        "threads={threads} system={i}: batched SPD factor differs"
                    );
                }
                (Factorization::Indefinite(a), Factorization::Indefinite(b)) => {
                    assert_eq!(
                        a.r.max_abs_diff(&b.r),
                        0.0,
                        "threads={threads} system={i}: batched indefinite factor differs"
                    );
                    assert_eq!(a.d, b.d, "threads={threads} system={i}: signature differs");
                }
                other => panic!("threads={threads} system={i}: path mismatch {other:?}"),
            }
        }
    }
    // Empty batch is a no-op, not an error.
    let plan = FactorPlan::new(&systems[0], &PlanRequest::default()).unwrap();
    assert!(plan.execute_batch(&[]).unwrap().is_empty());
    // A mis-shaped system is rejected up front, naming the dimension
    // that differs: first the order, then the block size at equal order.
    let wrong = workloads::random_spd_block(2, 12, 3);
    assert!(matches!(
        plan.execute_batch(std::slice::from_ref(&wrong)),
        Err(block_schur::core::Error::DimensionMismatch {
            expected: 16,
            found: 24,
            ..
        })
    ));
    let wrong_m = workloads::random_spd_block(4, 4, 3);
    assert!(matches!(
        plan.execute_batch(std::slice::from_ref(&wrong_m)),
        Err(block_schur::core::Error::DimensionMismatch {
            expected: 2,
            found: 4,
            ..
        })
    ));
}

#[test]
fn solve_batch_matches_looped_solves_bitwise() {
    let _g = lock();
    let max = block_schur::matrix::par::current_num_threads();
    // SPD (direct path) and indefinite-with-perturbation (refined path)
    // systems; 9 right-hand sides so chunks are uneven at most counts.
    for t in [
        workloads::random_spd_block(3, 8, 5),
        workloads::singular_minor_scalar(40, 503),
    ] {
        let n = t.order();
        let b = Matrix::from_fn(n, 9, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        // The sequential reference: solve_batch on a threads = 1 plan.
        let reference = factor_with(&t, 1).solve_batch(&b).unwrap();
        for threads in [1usize, 2, max, max * 2] {
            let s = factor_with(&t, threads);
            let mut looped = Matrix::zeros(n, b.cols());
            for j in 0..b.cols() {
                looped
                    .col_mut(j)
                    .copy_from_slice(&s.solve(b.col(j)).unwrap());
            }
            let batched = s.solve_batch(&b).unwrap();
            assert_eq!(
                batched.max_abs_diff(&looped),
                0.0,
                "threads={threads} n={n}: solve_batch differs from looped solves"
            );
            assert_eq!(
                batched.max_abs_diff(&reference),
                0.0,
                "threads={threads} n={n}: solve_batch differs from sequential reference"
            );
        }
    }
    // Shape errors are typed, not panics.
    let t = workloads::random_spd_scalar(8, 1);
    let s = Factor::new(&t).unwrap();
    assert!(matches!(
        s.solve_batch(&Matrix::zeros(5, 2)),
        Err(block_schur::core::Error::DimensionMismatch {
            expected: 8,
            found: 5,
            ..
        })
    ));
    // Zero-column batch round-trips.
    assert_eq!(s.solve_batch(&Matrix::zeros(8, 0)).unwrap().cols(), 0);
}

#[test]
fn shared_factor_is_bitwise_deterministic_under_thread_hammering() {
    let _g = lock();
    // One immutable Factor behind an Arc, hammered by N threads whose
    // per-call scratch comes from the shared workspace pool: every
    // concurrent solve must be bitwise identical to the sequential
    // answer, and the pool must end balanced (all arenas returned, no
    // audit violations) — the Send + Sync contract of the split.
    const THREADS: usize = 8;
    const SOLVES: usize = 40;
    for t in [
        workloads::random_spd_block(3, 16, 77),
        workloads::singular_minor_scalar(40, 811),
    ] {
        let n = t.order();
        let factor = std::sync::Arc::new(Factor::new(&t).unwrap());
        let rhs: Vec<Vec<f64>> = (0..SOLVES)
            .map(|k| {
                (0..n)
                    .map(|i| ((i * 17 + k * 29) % 23) as f64 - 11.0)
                    .collect()
            })
            .collect();
        let rhs = std::sync::Arc::new(rhs);
        let reference: std::sync::Arc<Vec<Vec<f64>>> =
            std::sync::Arc::new(rhs.iter().map(|b| factor.solve(b).unwrap()).collect());

        let violations0 = metrics::total(Counter::AuditViolations);
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|id| {
                let (factor, rhs, reference, barrier) = (
                    std::sync::Arc::clone(&factor),
                    std::sync::Arc::clone(&rhs),
                    std::sync::Arc::clone(&reference),
                    std::sync::Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    // Each thread walks the solve stream from its own
                    // offset so checkouts interleave across threads.
                    for k in 0..SOLVES {
                        let idx = (id * 7 + k) % SOLVES;
                        let x = factor.solve(&rhs[idx]).unwrap();
                        assert_eq!(
                            x, reference[idx],
                            "thread {id} solve {idx}: concurrent result \
                             diverged from sequential"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        let pool = factor.scratch_pool();
        assert_eq!(
            pool.outstanding(),
            0,
            "n={n}: every pooled workspace must be returned"
        );
        assert!(
            pool.audit_balanced("execution_test"),
            "n={n}: workspace pool audit failed"
        );
        assert_eq!(
            metrics::total(Counter::AuditViolations) - violations0,
            0,
            "n={n}: concurrent solves recorded audit violations"
        );
    }
}

#[test]
fn oversubscription_smoke() {
    let _g = lock();
    // Far more workers than cores: the pool grows on demand, the claim
    // loop load-balances, and the result is still bitwise sequential.
    let threads = block_schur::matrix::par::current_num_threads() * 8;
    let t = workloads::spd_ar1_block(4, 24, 0.7, 13);
    let (b, x_true) = workloads::rhs_for_ones(&t);
    let baseline = factor_spd(&t, &spd_opts(1)).unwrap();
    let f = factor_spd(&t, &spd_opts(threads)).unwrap();
    assert_eq!(f.r.max_abs_diff(&baseline.r), 0.0);
    let x = f.solve(&b).unwrap();
    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, c)| (a - c).abs())
        .fold(0.0, f64::max);
    assert!(err < 1e-8, "oversubscribed solve error {err:e}");
}
