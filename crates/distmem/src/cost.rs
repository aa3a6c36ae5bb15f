//! Cost models driving the virtual clocks.

/// The computational primitive a [`compute`](crate::Proc::compute) call
/// represents. Models may rate these differently — the whole point of
/// the paper's §6 is that BLAS3 on large operands runs faster per flop
/// than BLAS1/2 on small ones.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Primitive {
    /// Vector-vector work (`axpy`/`dot`) on vectors of this length.
    Blas1 { len: usize },
    /// Matrix-vector work with this minimum operand dimension.
    Blas2 { dim: usize },
    /// Matrix-matrix work; `dim` is the smallest of (m, n, k) — the
    /// dimension that limits register/cache blocking.
    Blas3 { dim: usize },
    /// Unclassified scalar work.
    Generic,
}

/// Machine model: maps work and messages to (virtual) seconds.
pub trait CostModel: Send + Sync + std::fmt::Debug {
    /// Seconds to execute `flops` floating point operations in the
    /// shape of `prim`.
    fn compute_time(&self, flops: f64, prim: Primitive) -> f64;
    /// Seconds for a point-to-point message of `bytes` to arrive.
    fn p2p_time(&self, bytes: usize) -> f64;
    /// Seconds for a broadcast of `bytes` to `np` ranks to complete.
    fn broadcast_time(&self, bytes: usize, np: usize) -> f64;
    /// Seconds for a barrier across `np` ranks.
    fn barrier_time(&self, np: usize) -> f64;
}

/// Zero-cost model: virtual time stays 0. For correctness-only tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct ZeroCost;

impl CostModel for ZeroCost {
    fn compute_time(&self, _flops: f64, _prim: Primitive) -> f64 {
        0.0
    }
    fn p2p_time(&self, _bytes: usize) -> f64 {
        0.0
    }
    fn broadcast_time(&self, _bytes: usize, _np: usize) -> f64 {
        0.0
    }
    fn barrier_time(&self, _np: usize) -> f64 {
        0.0
    }
}

/// Flat-rate model: every flop takes `1/flop_rate`, every byte
/// `1/bandwidth`, plus fixed latencies. Useful as a neutral baseline
/// and in unit tests with easily predictable numbers.
#[derive(Clone, Copy, Debug)]
pub struct UniformCost {
    /// Flops per second.
    pub flop_rate: f64,
    /// Bytes per second.
    pub bandwidth: f64,
    /// Seconds per message.
    pub latency: f64,
    /// Seconds per barrier participant (total = `per_rank * log2(np)`).
    pub barrier_per_stage: f64,
}

impl Default for UniformCost {
    fn default() -> Self {
        UniformCost {
            flop_rate: 100e6,
            bandwidth: 100e6,
            latency: 1e-6,
            barrier_per_stage: 2e-6,
        }
    }
}

impl CostModel for UniformCost {
    fn compute_time(&self, flops: f64, _prim: Primitive) -> f64 {
        flops / self.flop_rate
    }
    fn p2p_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
    fn broadcast_time(&self, bytes: usize, np: usize) -> f64 {
        // Binomial tree: ceil(log2 np) stages of p2p.
        let stages = (np.max(1) as f64).log2().ceil().max(1.0);
        stages * self.p2p_time(bytes)
    }
    fn barrier_time(&self, np: usize) -> f64 {
        let stages = (np.max(1) as f64).log2().ceil().max(1.0);
        stages * self.barrier_per_stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_is_zero() {
        let z = ZeroCost;
        assert_eq!(z.compute_time(1e9, Primitive::Generic), 0.0);
        assert_eq!(z.p2p_time(1 << 20), 0.0);
        assert_eq!(z.broadcast_time(8, 64), 0.0);
        assert_eq!(z.barrier_time(64), 0.0);
    }

    #[test]
    fn uniform_cost_scales_linearly() {
        let u = UniformCost::default();
        let t1 = u.compute_time(1e6, Primitive::Generic);
        let t2 = u.compute_time(2e6, Primitive::Blas3 { dim: 64 });
        assert!((t2 - 2.0 * t1).abs() < 1e-15);
        assert!(u.p2p_time(1000) > u.p2p_time(100));
        // Broadcast grows logarithmically with np.
        assert!(u.broadcast_time(8, 64) > u.broadcast_time(8, 2));
        assert!(u.broadcast_time(8, 64) < 10.0 * u.broadcast_time(8, 2));
    }
}
