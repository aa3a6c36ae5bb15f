//! Log-bucketed latency histograms with per-thread sharded slots.
//!
//! HDR-style log-linear buckets: values below [`SUB_COUNT`] land in
//! unit-width linear buckets; above that, every power-of-2 octave is
//! split into [`SUB_COUNT`] equal sub-buckets, bounding the relative
//! quantile error at `1 / (2 · SUB_COUNT)` (≈ 3%) while covering nine
//! decades of nanoseconds in a few hundred fixed slots.
//!
//! The record path mirrors [`crate::metrics`]: each thread owns an
//! atomic bucket array per histogram, a record is one index computation
//! plus one relaxed `fetch_add` on the local slot — no locks, no heap.
//! Recording is gated the same way as tracing: one relaxed atomic load
//! per site when disabled, so instrumented hot paths (per-solve,
//! per-factor-step, per-pool-dispatch, per-kernel-call) stay free until
//! someone asks for latency distributions. Reads merge every thread's
//! slot into a [`Histogram`] snapshot, so quantiles are deterministic
//! functions of the recorded multiset regardless of which thread
//! recorded which value.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution: each power-of-2 octave is split into
/// `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: u32 = 4;

/// Sub-buckets per octave (16): relative bucket width ≤ 1/16.
pub const SUB_COUNT: usize = 1 << SUB_BITS;

/// Octave groups tracked past the linear region. Group `g ≥ 1` covers
/// `[SUB_COUNT << (g-1), SUB_COUNT << g)`, so the last group tops out
/// at `SUB_COUNT << N_GROUPS` ns ≈ 18 minutes; larger values clamp
/// into the final bucket.
const N_GROUPS: usize = 36;

/// Total buckets per histogram.
pub const N_BUCKETS: usize = (N_GROUPS + 1) * SUB_COUNT;

/// One tracked latency distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// End-to-end per-column `Factor::solve_col_into` latency (ns); every
    /// solve surface (`solve`, `solve_batch`, served requests) records
    /// one sample per right-hand side.
    SolveNs,
    /// One block Schur elimination step (SPD or indefinite), ns.
    FactorStepNs,
    /// One worker-pool parallel region, dispatch through barrier, ns.
    PoolDispatchNs,
    /// One packed BLAS-3 kernel invocation (any ISA), ns.
    KernelCallNs,
    /// One bs-serve request, decode through response write (ns).
    ServeRequestNs,
    /// Time a rank spent blocked waiting for a message or barrier in
    /// the distributed transport (ns per wait).
    CommWaitNs,
}

/// Number of histogram categories.
pub const N_HISTS: usize = 6;

impl Hist {
    /// Every histogram, in declaration order.
    pub const ALL: [Hist; N_HISTS] = [
        Hist::SolveNs,
        Hist::FactorStepNs,
        Hist::PoolDispatchNs,
        Hist::KernelCallNs,
        Hist::ServeRequestNs,
        Hist::CommWaitNs,
    ];

    /// Stable snake_case name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SolveNs => "solve_ns",
            Hist::FactorStepNs => "factor_step_ns",
            Hist::PoolDispatchNs => "pool_dispatch_ns",
            Hist::KernelCallNs => "kernel_call_ns",
            Hist::ServeRequestNs => "serve_request_ns",
            Hist::CommWaitNs => "comm_wait_ns",
        }
    }

    /// Human label for report output.
    pub fn label(self) -> &'static str {
        match self {
            Hist::SolveNs => "solve latency",
            Hist::FactorStepNs => "factor step latency",
            Hist::PoolDispatchNs => "pool dispatch latency",
            Hist::KernelCallNs => "kernel call latency",
            Hist::ServeRequestNs => "serve request latency",
            Hist::CommWaitNs => "comm wait latency",
        }
    }
}

/// Bucket index for value `v` (log-linear, clamped at the top).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // 2^top <= v < 2^(top+1), top >= SUB_BITS
    let group = (top - SUB_BITS + 1) as usize;
    if group > N_GROUPS {
        return N_BUCKETS - 1;
    }
    let sub = ((v >> (top - SUB_BITS)) as usize) & (SUB_COUNT - 1);
    group * SUB_COUNT + sub
}

/// `[low, high)` value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let group = i / SUB_COUNT;
    let sub = (i % SUB_COUNT) as u64;
    if group == 0 {
        return (sub, sub + 1);
    }
    let shift = (group - 1) as u32;
    let low = (SUB_COUNT as u64 + sub) << shift;
    let width = 1u64 << shift;
    (low, low + width)
}

/// Representative value reported for bucket `i` (the bucket midpoint,
/// so quantiles carry at most half a bucket of relative error).
fn bucket_value(i: usize) -> u64 {
    let (low, high) = bucket_bounds(i);
    low + (high - low) / 2
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Arm histogram recording (sites start paying one index + fetch_add).
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Disarm recording; merged data stays until [`reset_all`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Cheap check used by every instrumentation site (one relaxed load).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Slot {
    counts: Vec<AtomicU64>, // N_HISTS * N_BUCKETS, flattened
}

impl Slot {
    fn new() -> Self {
        Slot {
            counts: (0..N_HISTS * N_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

static SLOTS: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Slot> = {
        let slot = Arc::new(Slot::new());
        SLOTS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(slot.clone());
        slot
    };
}

fn slots() -> std::sync::MutexGuard<'static, Vec<Arc<Slot>>> {
    SLOTS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Record one sample (no-op when disabled). Allocation- and lock-free
/// after the thread's first record.
#[inline]
pub fn record(h: Hist, value: u64) {
    if !is_enabled() {
        return;
    }
    let idx = h as usize * N_BUCKETS + bucket_index(value);
    LOCAL.with(|slot| {
        slot.counts[idx].fetch_add(1, Ordering::Relaxed);
    });
}

/// Zero every histogram on every slot and forget slots whose thread
/// has exited.
pub fn reset_all() {
    let mut slots = slots();
    slots.retain(|s| Arc::strong_count(s) > 1);
    for s in slots.iter() {
        for c in s.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Merge every thread's buckets for `h` into one snapshot.
pub fn merged(h: Hist) -> Histogram {
    let mut counts = vec![0u64; N_BUCKETS];
    for s in slots().iter() {
        let base = h as usize * N_BUCKETS;
        for (out, c) in counts.iter_mut().zip(&s.counts[base..base + N_BUCKETS]) {
            *out += c.load(Ordering::Relaxed);
        }
    }
    Histogram::from_counts(counts)
}

/// A merged, read-only latency distribution with quantile accessors.
///
/// Quantile values are bucket midpoints, so any reported quantile is
/// within one bucket's relative error (≤ `1/SUB_COUNT`) of the true
/// order statistic.
#[must_use = "a histogram snapshot carries the merged latency distribution"]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
}

impl Histogram {
    fn from_counts(counts: Vec<u64>) -> Histogram {
        debug_assert_eq!(counts.len(), N_BUCKETS);
        let count = counts.iter().sum();
        Histogram { counts, count }
    }

    /// Build a snapshot directly from sample values (tests, offline
    /// analysis) — identical bucketing to the recording path.
    pub fn from_values(values: &[u64]) -> Histogram {
        let mut counts = vec![0u64; N_BUCKETS];
        for &v in values {
            counts[bucket_index(v)] += 1;
        }
        Histogram::from_counts(counts)
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Value at quantile `q ∈ [0, 1]` (bucket midpoint; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(i);
            }
        }
        bucket_value(N_BUCKETS - 1)
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Midpoint of the lowest non-empty bucket (0 when empty).
    pub fn min(&self) -> u64 {
        self.counts
            .iter()
            .position(|&c| c > 0)
            .map(bucket_value)
            .unwrap_or(0)
    }

    /// Midpoint of the highest non-empty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_value)
            .unwrap_or(0)
    }

    /// Mean of the bucketed distribution (midpoint-weighted).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| bucket_value(i) as f64 * c as f64)
            .sum();
        sum / self.count as f64
    }

    /// Non-empty `(bucket_low, bucket_high, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// One-line human summary: `count N, p50 …, p90 …, p99 …, p999 …`.
    pub fn summary(&self) -> String {
        format!(
            "count {}, p50 {}, p90 {}, p99 {}, p999 {}, max {}",
            self.count,
            fmt_ns(self.p50()),
            fmt_ns(self.p90()),
            fmt_ns(self.p99()),
            fmt_ns(self.p999()),
            fmt_ns(self.max()),
        )
    }
}

/// Render a nanosecond value at human scale.
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.3} s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.3} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.3} µs", v / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Recording state is process-global; serialize the armed tests.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        for shift in 0..64 {
            let v = 1u64 << shift;
            for v in [v, v + v / 3, v + v / 2] {
                let i = bucket_index(v);
                assert!(i < N_BUCKETS, "v={v} i={i}");
                assert!(i >= last, "index not monotone at v={v}");
                last = i;
                let (lo, hi) = bucket_bounds(i);
                if i < N_BUCKETS - 1 {
                    assert!(lo <= v && v < hi, "v={v} not in [{lo},{hi}) (i={i})");
                }
            }
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for i in SUB_COUNT..N_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let rel = (hi - lo) as f64 / lo as f64;
            assert!(rel <= 1.0 / SUB_COUNT as f64 + 1e-12, "bucket {i}: {rel}");
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        disable();
        reset_all();
        record(Hist::SolveNs, 123);
        assert!(merged(Hist::SolveNs).is_empty());
    }

    #[test]
    fn quantiles_land_within_one_bucket() {
        // Uniform 1..=100_000 ns: p50 ≈ 50_000, p99 ≈ 99_000.
        let values: Vec<u64> = (1..=100_000).collect();
        let h = Histogram::from_values(&values);
        assert_eq!(h.count(), 100_000);
        let tol = 1.0 / SUB_COUNT as f64;
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - expect).abs() / expect <= tol,
                "q={q}: got {got}, expect {expect}"
            );
        }
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn bimodal_quantiles_straddle_the_modes() {
        // 90% fast mode at ~1 µs, 10% slow mode at ~1 ms: p50 must sit
        // in the fast mode's bucket, p999 in the slow mode's, and p90
        // within one bucket of either mode (the order statistic lands
        // exactly on the seam between them).
        let mut values = vec![1_000u64; 9_000];
        values.extend(std::iter::repeat_n(1_000_000u64, 1_000));
        let h = Histogram::from_values(&values);
        let tol = 1.0 / SUB_COUNT as f64;
        let near = |got: u64, mode: f64| (got as f64 - mode).abs() / mode <= tol;
        assert!(near(h.p50(), 1_000.0), "p50 {} not in fast mode", h.p50());
        assert!(
            near(h.p90(), 1_000.0) || near(h.p90(), 1_000_000.0),
            "p90 {} on neither mode",
            h.p90()
        );
        assert!(
            near(h.p999(), 1_000_000.0),
            "p999 {} not in slow mode",
            h.p999()
        );
        assert!(near(h.quantile(0.95), 1_000_000.0));
    }

    #[test]
    fn single_value_distribution_collapses() {
        let h = Histogram::from_values(&[777; 1000]);
        let (lo, hi) = bucket_bounds(bucket_index(777));
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let v = h.quantile(q);
            assert!(lo <= v && v <= hi, "q={q}: {v} outside [{lo},{hi}]");
        }
        assert_eq!(h.min(), h.max());
    }

    #[test]
    fn cross_thread_merge_is_deterministic() {
        let _g = lock();
        reset_all();
        enable();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..250u64 {
                        record(Hist::KernelCallNs, 1000 * t + i * 17);
                    }
                });
            }
        });
        disable();
        let merged_parallel = merged(Hist::KernelCallNs);
        // Same multiset recorded on one thread must merge identically.
        let mut values = Vec::new();
        for t in 0..4u64 {
            for i in 0..250u64 {
                values.push(1000 * t + i * 17);
            }
        }
        let reference = Histogram::from_values(&values);
        assert_eq!(merged_parallel, reference);
        assert_eq!(merged_parallel.count(), 1000);
        reset_all();
        assert!(merged(Hist::KernelCallNs).is_empty());
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let h = Histogram::from_values(&[u64::MAX, u64::MAX / 2]);
        assert_eq!(h.count(), 2);
        assert!(h.max() > 0);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(950), "950 ns");
        assert_eq!(fmt_ns(1_500), "1.500 µs");
        assert_eq!(fmt_ns(2_500_000), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
