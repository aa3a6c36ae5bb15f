//! The operator cache: fingerprint-keyed factorizations with LRU
//! eviction and single-flight factorization.
//!
//! The serving workload is "millions of solves against a handful of
//! hot operators": the cache turns every repeat request into an
//! `Arc<Factor>` clone (two triangular solves per column, no O(mn²)
//! work), while misses factor exactly once no matter how many tenants
//! stampede the same key — a `Building` placeholder holds later
//! arrivals on a condvar until the first one publishes the factor.
//! Factorization itself runs *outside* the cache lock, so a slow
//! build never blocks hits on other keys.
//!
//! Eviction is least-recently-used over Ready entries only: a slot
//! mid-build is never evicted (its waiters hold its key), and capacity
//! is enforced after each publish.

use crate::{Result, ServeError};
use bs_core::Factor;
use bs_toeplitz::SymBlockToeplitz;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

enum Slot {
    /// Some tenant is factoring this key; wait on the condvar.
    Building,
    /// Published factor plus its LRU stamp.
    Ready { factor: Arc<Factor>, last_used: u64 },
}

struct CacheInner {
    map: HashMap<u64, Slot>,
    /// Monotonic use stamp for LRU ordering.
    tick: u64,
}

/// Monotonic cache statistics (relaxed atomics: each counter is an
/// independent tally, read for reporting only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered by an already-Ready factor.
    pub hits: u64,
    /// Factorizations actually performed (= misses that built).
    pub factorizations: u64,
    /// Ready entries evicted by the LRU policy.
    pub evictions: u64,
    /// Tenants that waited on another tenant's in-flight build.
    pub single_flight_waits: u64,
}

/// Concurrent factorization cache keyed by generator fingerprint.
///
/// ```
/// use bs_serve::OperatorCache;
/// use bs_toeplitz::workloads;
///
/// let cache = OperatorCache::new(8);
/// let t = workloads::kms(32, 0.6);
/// let f1 = cache.get_or_factor(&t).unwrap();
/// let f2 = cache.get_or_factor(&t).unwrap();   // hit: same Arc
/// assert!(std::sync::Arc::ptr_eq(&f1, &f2));
/// assert_eq!(cache.stats().factorizations, 1);
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct OperatorCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    ready: Condvar,
    hits: AtomicU64,
    factorizations: AtomicU64,
    evictions: AtomicU64,
    single_flight_waits: AtomicU64,
}

impl std::fmt::Debug for OperatorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl OperatorCache {
    /// A cache holding at most `capacity` Ready factors (minimum 1).
    pub fn new(capacity: usize) -> Self {
        OperatorCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            factorizations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            single_flight_waits: AtomicU64::new(0),
        }
    }

    /// Fetch the factor for `t`, factoring it on a miss. Concurrent
    /// misses on the same fingerprint perform exactly one
    /// factorization; the rest block until it is published (or retry
    /// the checkout if the build failed). A failed build leaves the
    /// cache without the key, so a later request retries cleanly.
    ///
    /// A cached factor answers only a request for its own operator
    /// (same shape, bit-identical entries). When another operator sits
    /// under the same fingerprint — a 64-bit hash collision — `t` is
    /// factored without caching, counted as a factorization and not as
    /// a hit, and a `cache_collision` event is emitted.
    pub fn get_or_factor(&self, t: &SymBlockToeplitz) -> Result<Arc<Factor>> {
        let fp = t.fingerprint();
        let n = t.order();
        let factor = self.get_or_build(fp, || {
            let factor = Factor::new(t).map_err(ServeError::Solver)?;
            bs_probe::event!("cache_factor", fingerprint = fp, n = n);
            Ok(Arc::new(factor))
        })?;
        if factor.operator().bit_identical(t) {
            return Ok(factor);
        }
        // `get_or_build` answered from the slot and counted a hit.
        self.hits.fetch_sub(1, Ordering::Relaxed);
        bs_probe::event!("cache_collision", fingerprint = fp, n = n);
        let factor = Factor::new(t).map_err(ServeError::Solver)?;
        self.factorizations.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(factor))
    }

    /// The single-flight core: resolve `fp` to a Ready factor, calling
    /// `build` (outside the lock) iff no other tenant is already
    /// building it. A failed build removes the key and wakes waiters so
    /// they retry or miss cleanly.
    fn get_or_build(
        &self,
        fp: u64,
        build: impl FnOnce() -> Result<Arc<Factor>>,
    ) -> Result<Arc<Factor>> {
        let mut waited = false;
        let mut g = self.lock();
        loop {
            let inner = &mut *g;
            match inner.map.get_mut(&fp) {
                Some(Slot::Ready { factor, last_used }) => {
                    inner.tick += 1;
                    *last_used = inner.tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(factor));
                }
                Some(Slot::Building) => {
                    if !waited {
                        waited = true;
                        self.single_flight_waits.fetch_add(1, Ordering::Relaxed);
                    }
                    g = self.ready.wait(g).unwrap_or_else(|p| p.into_inner());
                    // Loop: the slot is now Ready, gone (build failed),
                    // or Building again under another tenant.
                }
                None => {
                    inner.map.insert(fp, Slot::Building);
                    break;
                }
            }
        }
        drop(g);
        // The expensive part runs without the lock: hits on other keys
        // proceed while this key factors.
        let built = build();
        let mut g = self.lock();
        match built {
            Ok(factor) => {
                self.factorizations.fetch_add(1, Ordering::Relaxed);
                g.tick += 1;
                let stamp = g.tick;
                g.map.insert(
                    fp,
                    Slot::Ready {
                        factor: Arc::clone(&factor),
                        last_used: stamp,
                    },
                );
                self.evict_over_capacity(&mut g);
                self.ready.notify_all();
                Ok(factor)
            }
            Err(e) => {
                g.map.remove(&fp);
                self.ready.notify_all();
                Err(e)
            }
        }
    }

    /// Fetch an already-cached factor by fingerprint. Waits out an
    /// in-flight build of the same key; returns `None` when the cache
    /// holds nothing under `fp` (evicted, failed, or never factored).
    pub fn get(&self, fp: u64) -> Option<Arc<Factor>> {
        let mut waited = false;
        let mut g = self.lock();
        loop {
            let inner = &mut *g;
            match inner.map.get_mut(&fp) {
                Some(Slot::Ready { factor, last_used }) => {
                    inner.tick += 1;
                    *last_used = inner.tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(Arc::clone(factor));
                }
                Some(Slot::Building) => {
                    if !waited {
                        waited = true;
                        self.single_flight_waits.fetch_add(1, Ordering::Relaxed);
                    }
                    g = self.ready.wait(g).unwrap_or_else(|p| p.into_inner());
                }
                None => return None,
            }
        }
    }

    /// Ready + Building entries currently in the cache.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured Ready-entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `fp` currently maps to a Ready factor (no LRU touch —
    /// probing must not perturb eviction order).
    pub fn contains_ready(&self, fp: u64) -> bool {
        matches!(self.lock().map.get(&fp), Some(Slot::Ready { .. }))
    }

    /// Snapshot of the monotonic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            factorizations: self.factorizations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            single_flight_waits: self.single_flight_waits.load(Ordering::Relaxed),
        }
    }

    fn evict_over_capacity(&self, g: &mut MutexGuard<'_, CacheInner>) {
        loop {
            let ready = g
                .map
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
                .count();
            if ready <= self.capacity {
                return;
            }
            // Oldest Ready entry by use stamp; Building slots are
            // pinned by their waiters and never evicted.
            let victim = g
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*last_used, *k)),
                    Slot::Building => None,
                })
                .min();
            match victim {
                Some((_, key)) => {
                    g.map.remove(&key);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    bs_probe::event!("cache_evict", fingerprint = key);
                }
                None => return,
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        // A tenant that panicked mid-build poisons nothing the map
        // can't survive: Building slots it left behind are cleaned up
        // by its unwind only if it got that far; recovering the lock
        // keeps every other tenant serviceable.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_toeplitz::workloads;

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = OperatorCache::new(2);
        let a = workloads::random_spd_scalar(12, 1);
        let b = workloads::random_spd_scalar(12, 2);
        let c = workloads::random_spd_scalar(12, 3);
        cache.get_or_factor(&a).unwrap();
        cache.get_or_factor(&b).unwrap();
        // Touch `a` so `b` is the LRU entry when `c` arrives.
        cache.get_or_factor(&a).unwrap();
        cache.get_or_factor(&c).unwrap();
        assert!(cache.contains_ready(a.fingerprint()));
        assert!(!cache.contains_ready(b.fingerprint()), "b was evicted");
        assert!(cache.contains_ready(c.fingerprint()));
        assert_eq!(cache.stats().evictions, 1);
        // Re-requesting the evicted operator refactors it.
        cache.get_or_factor(&b).unwrap();
        assert_eq!(cache.stats().factorizations, 4);
    }

    #[test]
    fn get_by_fingerprint_misses_cleanly() {
        let cache = OperatorCache::new(2);
        assert!(cache.get(0xdead_beef).is_none());
        let t = workloads::random_spd_scalar(8, 5);
        cache.get_or_factor(&t).unwrap();
        assert!(cache.get(t.fingerprint()).is_some());
    }

    #[test]
    fn colliding_fingerprint_never_answers_with_another_operator() {
        // Plant another operator's factor under `t`'s key, as a
        // fingerprint collision would: `t` must still get its own answer.
        let cache = OperatorCache::new(2);
        let t = workloads::random_spd_scalar(16, 1);
        let other = workloads::random_spd_scalar(16, 2);
        let planted = cache
            .get_or_build(t.fingerprint(), || {
                Ok(Arc::new(bs_core::Factor::new(&other).unwrap()))
            })
            .unwrap();
        let f = cache.get_or_factor(&t).unwrap();
        assert!(!Arc::ptr_eq(&f, &planted));
        let (b, x_true) = workloads::rhs_for_ones(&t);
        let x = f.solve(&b).unwrap();
        let err = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-10, "answered with error {err:e}");
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.factorizations, 2);
    }

    #[test]
    fn failed_build_leaves_no_residue() {
        // Default options rescue nearly any operator (δ-perturbation),
        // so the failure path is exercised by injecting a failing build
        // through the single-flight core: the key must not stay stuck
        // in Building, and a retry under the same key must succeed.
        let cache = OperatorCache::new(2);
        let fp = 0x5eed_f00d;
        let err = cache.get_or_build(fp, || Err(ServeError::Protocol("injected")));
        assert!(matches!(err, Err(ServeError::Protocol("injected"))));
        assert_eq!(cache.len(), 0, "failed build must remove its slot");
        assert_eq!(cache.stats().factorizations, 0);
        // The same key can be retried, and this time it publishes.
        let t = workloads::random_spd_scalar(8, 9);
        let f = cache
            .get_or_build(fp, || Ok(Arc::new(bs_core::Factor::new(&t).unwrap())))
            .unwrap();
        assert!(cache.contains_ready(fp));
        assert_eq!(f.order(), 8);
        assert_eq!(cache.stats().factorizations, 1);
    }
}
