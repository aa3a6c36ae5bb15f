//! Scratch-buffer arena for one factorization.
//!
//! The block Schur elimination loop needs many short-lived buffers
//! (the stacked generator, reflector scratch, trailing-update
//! temporaries, gemm pack buffers). Their sizes only shrink from one
//! step to the next, so a [`Workspace`] that lives for one
//! factorization serves all `p − 1` steps from the buffers its first
//! step allocated: `take_vec(len)` hands out the smallest pooled buffer
//! that fits (zero-filled, so callers see exactly the semantics of
//! `vec![0.0; len]` / [`Matrix::zeros`]), and `give_vec` returns it for
//! the next step. Nothing is carried from one factorization to the
//! next: the arena saved only a fixed per-call cost against the
//! `≈ 4·m·n²` flops of each factorization.
//!
//! Pool misses are observable: each one bumps
//! `bs_probe::metrics::Counter::{WorkspaceAllocs, WorkspaceElems}` and
//! the arena's own [`Workspace::allocations`].

use crate::dense::Matrix;
use crate::scalar::Scalar;
use bs_probe::metrics::{self, Counter};

/// A reusable pool of scratch buffers over one [`Scalar`] type
/// (`f64` by default).
///
/// Not thread-safe by design: each factorization (or each worker)
/// owns its workspace. Buffers returned by [`take_vec`](Self::take_vec)
/// are zero-filled to the requested length so a pooled checkout is
/// indistinguishable from a fresh `vec![0.0; len]`: reuse never changes
/// the arithmetic.
#[derive(Debug)]
#[must_use]
pub struct Workspace<T: Scalar = f64> {
    /// Idle buffers, kept sorted by capacity (ascending) so checkout
    /// can best-fit with a linear scan over a short list.
    pool: Vec<Vec<T>>,
    /// Cold heap allocations performed (pool misses) since creation.
    allocations: u64,
    /// Checkouts minus returns since creation. Donated buffers (ones
    /// the workspace never handed out) drive this negative, so it is a
    /// *balance*, not a live-buffer count: region deltas are what the
    /// `paranoid` contracts compare (see [`contract_region`]).
    ///
    /// [`contract_region`]: Self::contract_region
    outstanding: i64,
}

impl<T: Scalar> Default for Workspace<T> {
    fn default() -> Self {
        Workspace {
            pool: Vec::new(),
            allocations: 0,
            outstanding: 0,
        }
    }
}

impl<T: Scalar> Workspace<T> {
    /// An empty workspace; the first step of a factorization warms it.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Check out a zero-filled buffer of exactly `len` elements.
    ///
    /// Pool hit: the smallest idle buffer whose capacity covers `len`.
    /// Pool miss: a fresh allocation, counted against
    /// [`allocations`](Self::allocations) and the probe counters.
    ///
    /// Dropping the returned buffer instead of `give_vec`-ing it back
    /// leaks it from the pool, so the checkout is `#[must_use]`.
    #[must_use]
    pub fn take_vec(&mut self, len: usize) -> Vec<T> {
        self.outstanding += 1;
        // Best fit: smallest capacity >= len. The pool stays small (a
        // handful of buffers per factorization), so a scan is fine.
        let mut best: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < self.pool[j].capacity()) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let mut v = self.pool.swap_remove(i);
                v.clear();
                v.resize(len, T::ZERO);
                v
            }
            None => {
                self.allocations += 1;
                metrics::incr(Counter::WorkspaceAllocs);
                metrics::add(Counter::WorkspaceElems, len as u64);
                vec![T::ZERO; len]
            }
        }
    }

    /// Return a buffer to the pool for reuse. Accepts any vector,
    /// including ones the workspace did not hand out.
    pub fn give_vec(&mut self, v: Vec<T>) {
        self.outstanding -= 1;
        if v.capacity() == 0 {
            return;
        }
        self.pool.push(v);
    }

    /// Check out a zeroed `rows x cols` matrix backed by pooled storage.
    #[must_use]
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        Matrix::from_col_major(rows, cols, self.take_vec(rows * cols))
    }

    /// Return a matrix's storage to the pool.
    pub fn give_matrix(&mut self, m: Matrix<T>) {
        self.give_vec(m.into_col_major());
    }

    /// Cold heap allocations (pool misses) since creation. Once a
    /// checkout pattern has run, repeating it adds nothing here.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Checkout balance: `take_*` calls minus `give_*` calls since
    /// creation. Donations (giving back a buffer the workspace never
    /// handed out) push this negative, so only *deltas* across a code
    /// region are meaningful — snapshot on entry and compare on exit.
    pub fn outstanding(&self) -> i64 {
        self.outstanding
    }

    /// `paranoid` contract: assert the checkout balance changed by
    /// exactly `expected_delta` across a code region. `entry` is the
    /// [`outstanding`](Self::outstanding) snapshot taken when the
    /// region was entered. A mismatch means a buffer was leaked from
    /// (or double-returned to) the pool; the violation is recorded in
    /// `bs_probe::stability` and counted in
    /// `Counter::ContractViolations`. Compiles to nothing without the
    /// `paranoid` feature.
    #[inline]
    pub fn contract_region(&self, site: &'static str, entry: i64, expected_delta: i64) {
        if cfg!(feature = "paranoid") {
            let delta = self.outstanding - entry;
            if delta != expected_delta {
                bs_probe::stability::record_violation(
                    "workspace_balance",
                    format!(
                        "{site}: checkout balance changed by {delta} across the region \
                         (expected {expected_delta}) — a scratch buffer was leaked from \
                         or double-returned to the pool"
                    ),
                );
            }
        }
    }

    /// `paranoid` contract: assert the workspace is quiescent — every
    /// checkout since creation has been returned (balance zero). Only
    /// valid for workspaces that never received donations; regions of a
    /// long-lived workspace should use
    /// [`contract_region`](Self::contract_region) instead.
    #[inline]
    pub fn contract_quiescent(&self, site: &'static str) {
        self.contract_region(site, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_zero_filled_and_reuses() {
        let mut ws: Workspace = Workspace::new();
        let mut a = ws.take_vec(8);
        assert_eq!(ws.allocations(), 1);
        a.iter_mut().for_each(|x| *x = 7.0);
        ws.give_vec(a);
        let b = ws.take_vec(6);
        // Same buffer reused (no new allocation), contents zeroed.
        assert_eq!(ws.allocations(), 1);
        assert!(b.iter().all(|&x| x == 0.0));
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws: Workspace = Workspace::new();
        let big = ws.take_vec(100);
        let small = ws.take_vec(10);
        ws.give_vec(big);
        ws.give_vec(small);
        let v = ws.take_vec(9);
        assert!(v.capacity() < 100, "should pick the 10-capacity buffer");
        // The 100-capacity buffer is still pooled.
        let _big = ws.take_vec(100);
        assert_eq!(ws.allocations(), 2);
    }

    #[test]
    fn warm_workspace_allocates_nothing() {
        let mut ws: Workspace = Workspace::new();
        for _ in 0..3 {
            let m = ws.take_matrix(16, 8);
            let v = ws.take_vec(64);
            ws.give_matrix(m);
            ws.give_vec(v);
        }
        assert_eq!(ws.allocations(), 2);
        for _ in 0..10 {
            let m = ws.take_matrix(16, 8);
            let v = ws.take_vec(64);
            ws.give_matrix(m);
            ws.give_vec(v);
        }
        assert_eq!(ws.allocations(), 2, "warm loop must not allocate");
    }

    #[test]
    fn outstanding_tracks_checkout_balance() {
        let mut ws: Workspace = Workspace::new();
        assert_eq!(ws.outstanding(), 0);
        let a = ws.take_vec(8);
        let m = ws.take_matrix(2, 2);
        assert_eq!(ws.outstanding(), 2);
        ws.give_vec(a);
        ws.give_matrix(m);
        assert_eq!(ws.outstanding(), 0);
        // A donation (a buffer the pool never handed out) drives the
        // balance negative — it is a balance, not a live count.
        ws.give_vec(vec![1.0; 4]);
        assert_eq!(ws.outstanding(), -1);
    }

    #[test]
    fn matrix_roundtrip_preserves_shape() {
        let mut ws: Workspace = Workspace::new();
        let m = ws.take_matrix(3, 5);
        assert_eq!((m.rows(), m.cols()), (3, 5));
        ws.give_matrix(m);
        let m2 = ws.take_matrix(5, 3);
        assert_eq!(ws.allocations(), 1, "15 elements fit the pooled buffer");
        assert_eq!((m2.rows(), m2.cols()), (5, 3));
    }
}
