//! `bs-probe` — observability for the block Schur factorization stack.
//!
//! Zero-dependency building blocks shared by every layer of the
//! workspace, from the BLAS kernels up to the CLI:
//!
//! * [`trace`] — a lightweight span/event tracer. Each thread records
//!   into its own ring buffer; when tracing is disabled the cost is a
//!   single relaxed atomic load per site. Use the [`span!`] macro:
//!   `let _s = bs_probe::span!("apply_rep", step = k);`
//! * [`metrics`] — categorized counters (flops by BLAS level, matvec
//!   and rank-1 counts, bytes moved, simulated communication volume)
//!   kept in per-thread atomic slots so the parallel paths aggregate
//!   across worker threads without contention. Always on; a counter
//!   bump is one relaxed `fetch_add` on a thread-local slot.
//! * [`stability`] — a numerical-stability monitor recording per-step
//!   generator column norms, hyperbolic reflector norm estimates
//!   (the growth factors of Bojanczyk/Brent/de Hoog), and residual
//!   history from iterative refinement, flagging steps whose growth
//!   exceeds a configurable threshold.
//! * [`histogram`] — HDR-style log-bucketed latency histograms
//!   (per-solve, per-factor-step, per-pool-dispatch, per-kernel-call)
//!   with per-thread sharded slots merged on read and
//!   p50/p90/p99/p999 quantile accessors.
//! * [`profile`] — span aggregation: folds drained trace events into a
//!   hierarchical call-tree [`Profile`] (folded-stack / flamegraph and
//!   top-N exports) and joins kernel counters with a calibrated rate
//!   into a [`Roofline`] efficiency report.
//! * [`json`] / [`export`] — a minimal JSON value type plus writers
//!   that serialize traces as JSON-lines, Chrome/Perfetto trace-event
//!   JSON, and metrics/stability/histogram reports as JSON documents.
//!
//! The overhead contract, everywhere: a *disabled* instrumentation
//! site costs one relaxed atomic load; an *enabled* one never touches
//! the global allocator (inline [`trace::FieldList`] payloads,
//! fixed-size histogram buckets, per-thread counter slots).
//!
//! The crate deliberately has no dependencies (not even on the rest of
//! the workspace) so any crate can instrument itself without cycles.

pub mod export;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod stability;
pub mod trace;

pub use histogram::{Hist, Histogram};
pub use json::Json;
pub use metrics::Counter;
pub use profile::{Profile, Roofline};
pub use stability::{StabilityReport, StepRecord};
pub use trace::{Event, EventKind, FieldList, SpanGuard};

/// Enable tracing, latency histograms, and stability monitoring
/// together.
///
/// `growth_threshold` is forwarded to [`stability::enable`]; steps whose
/// growth factor exceeds it are flagged in the report.
pub fn enable_all(growth_threshold: f64) {
    trace::enable();
    histogram::enable();
    stability::enable(growth_threshold);
}

/// Disable tracing, histograms, and stability monitoring (metrics
/// counters are always on) without clearing recorded data.
pub fn disable_all() {
    trace::disable();
    histogram::disable();
    stability::disable();
}

/// Clear every recorded event, histogram bucket, counter, and
/// stability record.
pub fn reset_all() {
    trace::clear();
    histogram::reset_all();
    metrics::reset_all();
    stability::reset();
}

/// The one lock every unit test that touches the crate's process-global
/// state (counters, trace ring, histograms, stability monitor) holds,
/// so a test comparing two reads never sees a sibling's write land in
/// between.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
