//! Stress test: `par::for_each` workers hammering the thread-local
//! bs-probe flop counters concurrently.
//!
//! Each worker thread bumps its own thread-local slot (a relaxed
//! `fetch_add`), and `bs_probe::metrics::total` must aggregate every
//! contribution — including those from scoped threads that have long
//! exited — with no lost updates across many spawn/join cycles.

use bs_matrix::{flops, par};
use bs_probe::metrics::{self, Counter};
use std::sync::Mutex;

/// The flop counters are process-global, so the delta assertions below
/// serialize on one lock (the harness otherwise runs tests on
/// concurrent threads and the FlopsBlas3 deltas would interleave).
static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn concurrent_flop_counting_loses_nothing() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const ROUNDS: u64 = 50;
    const ITEMS: u64 = 16;
    const ADDS_PER_ITEM: u64 = 1_000;
    let before = metrics::total(Counter::FlopsBlas3);
    for _ in 0..ROUNDS {
        par::for_each((0..ITEMS).collect::<Vec<u64>>(), |_| {
            for _ in 0..ADDS_PER_ITEM {
                flops::add_l3(3);
            }
        });
    }
    let after = metrics::total(Counter::FlopsBlas3);
    assert_eq!(
        after - before,
        ROUNDS * ITEMS * ADDS_PER_ITEM * 3,
        "every worker bump must survive thread exit and aggregation"
    );
}

#[test]
fn mixed_counter_categories_stay_separated_under_contention() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const ROUNDS: u64 = 20;
    const ITEMS: u64 = 8;
    let b1 = metrics::total(Counter::FlopsBlas1);
    let b2 = metrics::total(Counter::FlopsBlas2);
    for _ in 0..ROUNDS {
        par::for_each((0..ITEMS).collect::<Vec<u64>>(), |i| {
            // Odd workers count level-1 work, even workers level-2 —
            // the per-thread slots must never bleed across categories.
            if i % 2 == 0 {
                flops::add_l2(5);
            } else {
                flops::add_l1(7);
            }
        });
    }
    assert_eq!(
        metrics::total(Counter::FlopsBlas1) - b1,
        ROUNDS * (ITEMS / 2) * 7
    );
    assert_eq!(
        metrics::total(Counter::FlopsBlas2) - b2,
        ROUNDS * (ITEMS / 2) * 5
    );
}

#[test]
fn parallel_gemm_flops_aggregate_across_workers() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A real level-3 workload through the parallel path: the counted
    // flops must match the sequential count for the same problem.
    let n = 48;
    let a = bs_matrix::Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
    let b = bs_matrix::Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 29) % 11) as f64 - 5.0);

    let mut c_seq = bs_matrix::Matrix::zeros(n, n);
    let before_seq = metrics::total(Counter::FlopsBlas3);
    bs_matrix::gemm(
        1.0,
        a.rf(),
        bs_matrix::Trans::No,
        b.rf(),
        bs_matrix::Trans::No,
        0.0,
        c_seq.mt(),
    );
    let seq_flops = metrics::total(Counter::FlopsBlas3) - before_seq;

    // The same product as column strips of C on the worker pool, the
    // way callers parallelize level-3 work. Every strip is 16 columns
    // wide so each strip takes the packed kernel, like the full product.
    const STRIP: usize = 16;
    let mut c_par = bs_matrix::Matrix::zeros(n, n);
    let before_par = metrics::total(Counter::FlopsBlas3);
    {
        let mut strips = Vec::new();
        let mut rest = c_par.mt();
        for s in 0..n / STRIP {
            let (head, tail) = rest.split_at_col(STRIP);
            strips.push((s * STRIP, head));
            rest = tail;
        }
        par::for_each(strips, |(j0, cj)| {
            bs_matrix::gemm(
                1.0,
                a.rf(),
                bs_matrix::Trans::No,
                b.sub(0, j0, n, STRIP),
                bs_matrix::Trans::No,
                0.0,
                cj,
            );
        });
    }
    let par_flops = metrics::total(Counter::FlopsBlas3) - before_par;

    assert_eq!(c_seq.max_abs_diff(&c_par), 0.0);
    assert_eq!(
        seq_flops, par_flops,
        "parallel workers must count the same work"
    );
}
