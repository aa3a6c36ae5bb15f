//! The communicator: ranks as threads, channels as links, and two
//! interchangeable notions of time.
//!
//! * **Virtual transport** ([`World::run`]) — modeled runs: every rank
//!   carries a virtual clock advanced by a [`CostModel`], so `time()`
//!   reports what a modeled machine (e.g. the T3D) would have measured.
//! * **Wall transport** ([`World::run_wall`]) — measured runs: ranks
//!   are dedicated OS threads exchanging owned data through the same
//!   channels, `compute` is a no-op, and `time()` reports real elapsed
//!   wall-clock seconds since the group launched.
//!
//! Both transports share one `Proc` API (send/recv/broadcast/barrier/
//! allreduce_max), one poison protocol for rank failure, and one
//! observability surface: `CommBytes`/`CommMessages` on the send side,
//! `CommRecvBytes`/`CommRecvMessages` on the receive side, and a
//! `CommWaitNs` histogram sample per blocked receive or barrier.

use crate::cost::{CostModel, Primitive};
use bs_probe::histogram::{self, Hist};
use bs_probe::metrics::{self, Counter};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Lock recovering from poisoning: a rank's panic must not wedge the
/// whole group (ClockBarrier deliberately panics while holding its
/// lock when the group is poisoned).
fn lock_poison_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A message in flight: payload plus its virtual arrival time.
struct Msg {
    tag: u64,
    data: Vec<f64>,
    arrive: f64,
}

/// Reusable barrier that also reduces the participating clocks to
/// their maximum (and optionally max-reduces one payload value).
struct ClockBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    np: usize,
}

#[derive(Default)]
struct BarrierState {
    count: usize,
    generation: u64,
    max_clock: f64,
    max_payload: f64,
    result_clock: f64,
    result_payload: f64,
    /// Set when a rank panicked: wakes and fails every waiter instead
    /// of deadlocking the group.
    poisoned: bool,
}

impl ClockBarrier {
    fn new(np: usize) -> Self {
        ClockBarrier {
            state: Mutex::new(BarrierState {
                max_clock: f64::NEG_INFINITY,
                max_payload: f64::NEG_INFINITY,
                ..Default::default()
            }),
            cv: Condvar::new(),
            np,
        }
    }

    /// Returns `(max clock, max payload)` across all participants.
    /// Panics if the group was poisoned by another rank's panic.
    fn wait(&self, clock: f64, payload: f64) -> (f64, f64) {
        let mut st = lock_poison_ok(&self.state);
        if st.poisoned {
            // bs-lint: allow(no-panic-paths) -- another simulated rank already panicked; propagating is the only sane exit
            panic!("barrier poisoned: another rank panicked");
        }
        st.max_clock = st.max_clock.max(clock);
        st.max_payload = st.max_payload.max(payload);
        st.count += 1;
        if st.count == self.np {
            st.result_clock = st.max_clock;
            st.result_payload = st.max_payload;
            st.count = 0;
            st.max_clock = f64::NEG_INFINITY;
            st.max_payload = f64::NEG_INFINITY;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            (st.result_clock, st.result_payload)
        } else {
            let gen = st.generation;
            while st.generation == gen && !st.poisoned {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.poisoned {
                // bs-lint: allow(no-panic-paths) -- the group poisoned while this rank slept on the condvar; unwind exactly like the pre-wait check above
                panic!("barrier poisoned: another rank panicked");
            }
            (st.result_clock, st.result_payload)
        }
    }

    /// Mark the group as failed and wake every waiter.
    fn poison(&self) {
        let mut st = lock_poison_ok(&self.state);
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// How a rank keeps time: a modeled clock or the real one.
enum Timing {
    /// Virtual clock advanced by a [`CostModel`] (modeled runs).
    Virtual {
        clock: f64,
        cost: Arc<dyn CostModel>,
    },
    /// Real elapsed time since the group launched (measured runs).
    /// `compute` is a no-op: the work itself already took the time.
    Wall { start: Instant },
}

/// Options for the wall-clock transport ([`World::run_wall`]).
#[derive(Clone, Copy, Debug)]
pub struct WallOpts {
    /// Upper bound on one blocked `recv` before the rank panics with a
    /// diagnostic naming the stuck `(source rank, tag)`. Converts a
    /// schedule bug (a message that will never come) from a silent
    /// deadlock into an attributable failure. `None` waits forever
    /// (poison from a peer's panic still unblocks the wait).
    pub recv_deadline: Option<Duration>,
}

impl Default for WallOpts {
    fn default() -> Self {
        WallOpts {
            recv_deadline: Some(Duration::from_secs(60)),
        }
    }
}

/// One rank's endpoint: use inside the closure passed to
/// [`World::run`] or [`World::run_wall`].
pub struct Proc {
    rank: usize,
    np: usize,
    timing: Timing,
    /// Bytes sent (p2p + broadcast contributions), for diagnostics.
    bytes_sent: usize,
    /// Bytes received (p2p + broadcast deliveries), for diagnostics.
    bytes_recv: usize,
    /// Nanoseconds this rank spent blocked in `recv`/barriers.
    comm_wait_ns: u64,
    /// Deadline for one blocked receive (wall transport; see
    /// [`WallOpts::recv_deadline`]).
    recv_deadline: Option<Duration>,
    /// `senders[to]` delivers to rank `to`'s inbox from this rank.
    senders: Vec<Sender<Msg>>,
    /// `inboxes[from]` receives messages sent by rank `from`.
    inboxes: Vec<Receiver<Msg>>,
    /// Out-of-order stash per source (selective receive by tag).
    stash: Vec<VecDeque<Msg>>,
    barrier: Arc<ClockBarrier>,
    poisoned: Arc<AtomicBool>,
}

impl Proc {
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Current time at this rank: the virtual clock under
    /// [`World::run`], elapsed wall seconds under [`World::run_wall`].
    #[inline]
    pub fn time(&self) -> f64 {
        match &self.timing {
            Timing::Virtual { clock, .. } => *clock,
            Timing::Wall { start } => start.elapsed().as_secs_f64(),
        }
    }

    /// Total bytes this rank has pushed into the network.
    #[inline]
    pub fn bytes_sent(&self) -> usize {
        self.bytes_sent
    }

    /// Total bytes this rank has consumed from the network.
    #[inline]
    pub fn bytes_received(&self) -> usize {
        self.bytes_recv
    }

    /// Nanoseconds this rank has spent blocked on receives and
    /// barriers (real wall time in both transports).
    #[inline]
    pub fn comm_wait_ns(&self) -> u64 {
        self.comm_wait_ns
    }

    /// Advance the local clock by the cost of `flops` in shape `prim`.
    /// No-op on the wall transport (real compute takes real time).
    pub fn compute(&mut self, flops: f64, prim: Primitive) {
        if let Timing::Virtual { clock, cost } = &mut self.timing {
            *clock += cost.compute_time(flops, prim);
        }
    }

    /// Account one blocked interval: the `CommWaitNs` histogram plus
    /// the per-rank accumulator behind [`comm_wait_ns`](Self::comm_wait_ns).
    fn note_wait(&mut self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.comm_wait_ns += ns;
        histogram::record(Hist::CommWaitNs, ns);
    }

    /// Account one consumed message against the receive-side counters.
    fn note_recv(&mut self, words: usize) {
        let bytes = words * 8;
        self.bytes_recv += bytes;
        metrics::add(Counter::CommRecvBytes, bytes as u64);
        metrics::incr(Counter::CommRecvMessages);
    }

    /// Tagged send of a vector of doubles. Models a *blocking put*
    /// (shmem semantics: the call returns when the remote write has
    /// completed), so consecutive sends from one rank serialize on the
    /// sender's clock.
    pub fn send(&mut self, to: usize, tag: u64, data: &[f64]) {
        assert!(to < self.np && to != self.rank, "bad destination {to}");
        let bytes = data.len() * 8;
        self.bytes_sent += bytes;
        metrics::add(Counter::CommBytes, bytes as u64);
        metrics::incr(Counter::CommMessages);
        let arrive = match &mut self.timing {
            Timing::Virtual { clock, cost } => {
                *clock += cost.p2p_time(bytes);
                *clock
            }
            // Real channels deliver when they deliver; the arrival
            // stamp is unused on the wall transport.
            Timing::Wall { .. } => 0.0,
        };
        self.senders[to]
            .send(Msg {
                tag,
                data: data.to_vec(),
                arrive,
            })
            // bs-lint: allow(no-panic-paths) -- a hung-up receiver means its rank thread panicked; propagate
            .expect("receiver hung up");
    }

    /// Blocking selective receive: next message from `from` carrying
    /// `tag`. On the virtual transport the clock advances to at least
    /// the arrival time; on both transports the blocked interval lands
    /// in `CommWaitNs` and the payload in the receive-side counters.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        assert!(from < self.np && from != self.rank, "bad source {from}");
        // Check the stash first: already off the wire, zero wait.
        if let Some(pos) = self.stash[from].iter().position(|m| m.tag == tag) {
            // bs-lint: allow(no-panic-paths) -- `pos` comes from `position` on the same deque one line up
            let msg = self.stash[from].remove(pos).unwrap();
            if let Timing::Virtual { clock, .. } = &mut self.timing {
                *clock = clock.max(msg.arrive);
            }
            self.note_recv(msg.data.len());
            return msg.data;
        }
        let waiting_since = Instant::now();
        loop {
            // Bounded waits so a peer's panic (which poisons the group)
            // fails this rank instead of deadlocking it.
            match self.inboxes[from].recv_timeout(Duration::from_millis(50)) {
                Ok(msg) => {
                    if msg.tag == tag {
                        if let Timing::Virtual { clock, .. } = &mut self.timing {
                            *clock = clock.max(msg.arrive);
                        }
                        self.note_wait(waiting_since);
                        self.note_recv(msg.data.len());
                        return msg.data;
                    }
                    self.stash[from].push_back(msg);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.poisoned.load(Ordering::Relaxed) {
                        // bs-lint: allow(no-panic-paths) -- poison flag observed while polling recv: a peer rank panicked mid-exchange, so this rank unwinds too
                        panic!("recv aborted: another rank panicked");
                    }
                    if let Some(deadline) = self.recv_deadline {
                        if waiting_since.elapsed() >= deadline {
                            // bs-lint: allow(no-panic-paths) -- a receive past the deadline is a message-schedule bug; name the stuck edge instead of deadlocking
                            panic!(
                                "recv timed out: rank {} waited {:.1?} for a message from rank {from} with tag {tag} (message schedule mismatch or stuck peer)",
                                self.rank,
                                waiting_since.elapsed(),
                            );
                        }
                    }
                }
                // bs-lint: allow(no-panic-paths) -- a disconnected sender means its rank thread panicked; propagate
                Err(RecvTimeoutError::Disconnected) => panic!("sender hung up"),
            }
        }
    }

    /// Broadcast from `root`: returns the payload on every rank. Every
    /// participant's clock advances by the model's broadcast time on
    /// top of the root's departure time (shmem_broadcast semantics:
    /// all PEs participate).
    pub fn broadcast(&mut self, root: usize, tag: u64, data: &[f64]) -> Vec<f64> {
        let bytes = data.len() * 8;
        self.broadcast_charged(root, tag, data, bytes)
    }

    /// [`broadcast`](Self::broadcast) with an explicit *charged* byte
    /// count. Used when the physically shipped payload differs from the
    /// volume the machine model should account (e.g. the sharded
    /// executor ships a raw pivot panel for determinism but charges the
    /// wire size of the chosen block-reflector representation). The
    /// virtual transport times and counts `bytes`; the wall transport
    /// counts the physical payload, since that is what crossed.
    pub fn broadcast_charged(
        &mut self,
        root: usize,
        tag: u64,
        data: &[f64],
        bytes: usize,
    ) -> Vec<f64> {
        if self.rank == root {
            let (arrive, counted) = match &mut self.timing {
                Timing::Virtual { clock, cost } => {
                    *clock += cost.broadcast_time(bytes, self.np);
                    (*clock, bytes)
                }
                Timing::Wall { .. } => (0.0, data.len() * 8),
            };
            for to in 0..self.np {
                if to != root {
                    self.bytes_sent += counted;
                    metrics::add(Counter::CommBytes, counted as u64);
                    metrics::incr(Counter::CommMessages);
                    self.senders[to]
                        .send(Msg {
                            tag,
                            data: data.to_vec(),
                            arrive,
                        })
                        // bs-lint: allow(no-panic-paths) -- bcast fan-out: a receiver that dropped its channel end is a panicked rank; the root propagates
                        .expect("receiver hung up");
                }
            }
            data.to_vec()
        } else {
            self.recv(root, tag)
        }
    }

    /// Barrier: blocks until all ranks arrive. Virtual clocks
    /// synchronize to the maximum plus the model's barrier cost; the
    /// wall transport just records the blocked interval.
    pub fn barrier(&mut self) {
        self.allreduce_max(0.0);
    }

    /// Max-reduction of a scalar across all ranks (synchronizing).
    pub fn allreduce_max(&mut self, v: f64) -> f64 {
        let entered = Instant::now();
        let clock_in = match &self.timing {
            Timing::Virtual { clock, .. } => *clock,
            Timing::Wall { .. } => 0.0,
        };
        let (maxc, maxv) = self.barrier.wait(clock_in, v);
        self.note_wait(entered);
        if let Timing::Virtual { clock, cost } = &mut self.timing {
            *clock = maxc + cost.barrier_time(self.np);
        }
        maxv
    }
}

/// Factory for a group of communicating ranks.
pub struct World;

impl World {
    /// Run `f` on `np` ranks (one thread each) under the virtual-clock
    /// transport and collect the return values indexed by rank. Panics
    /// in any rank propagate.
    pub fn run<T, F>(np: usize, cost: Arc<dyn CostModel>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Send + Sync,
    {
        World::run_inner(
            np,
            |_| Timing::Virtual {
                clock: 0.0,
                cost: Arc::clone(&cost),
            },
            None,
            f,
        )
    }

    /// Run `f` on `np` ranks under the wall-clock transport: each rank
    /// is a dedicated OS thread, `time()` reports real elapsed seconds
    /// since the group launched (one shared epoch, taken just before
    /// the rank threads spawn), and `compute` is a no-op.
    /// Panics in any rank propagate; a blocked `recv` converts into a
    /// diagnostic panic after [`WallOpts::recv_deadline`].
    pub fn run_wall<T, F>(np: usize, opts: WallOpts, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Send + Sync,
    {
        let epoch = Instant::now();
        World::run_inner(np, |_| Timing::Wall { start: epoch }, opts.recv_deadline, f)
    }

    fn run_inner<T, F>(
        np: usize,
        timing_for: impl Fn(usize) -> Timing,
        recv_deadline: Option<Duration>,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Send + Sync,
    {
        assert!(np >= 1, "need at least one rank");
        // Channel matrix: link[from][to].
        let mut senders: Vec<Vec<Sender<Msg>>> = (0..np).map(|_| Vec::with_capacity(np)).collect();
        let mut inboxes: Vec<Vec<Receiver<Msg>>> =
            (0..np).map(|_| Vec::with_capacity(np)).collect();
        for from in 0..np {
            for to in 0..np {
                let (s, r) = channel();
                senders[from].push(s);
                inboxes[to].push(r);
            }
        }
        let barrier = Arc::new(ClockBarrier::new(np));
        let poisoned = Arc::new(AtomicBool::new(false));
        let mut procs: Vec<Proc> = senders
            .into_iter()
            .zip(inboxes)
            .enumerate()
            .map(|(rank, (s, r))| Proc {
                rank,
                np,
                timing: timing_for(rank),
                bytes_sent: 0,
                bytes_recv: 0,
                comm_wait_ns: 0,
                recv_deadline,
                senders: s,
                stash: (0..np).map(|_| VecDeque::new()).collect(),
                inboxes: r,
                barrier: Arc::clone(&barrier),
                poisoned: Arc::clone(&poisoned),
            })
            .collect();

        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = procs
                .iter_mut()
                .map(|p| {
                    let barrier = Arc::clone(&barrier);
                    let poisoned = Arc::clone(&poisoned);
                    scope.spawn(move || {
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(p)));
                        if out.is_err() {
                            // Fail the whole group instead of leaving
                            // peers blocked in barriers or receives.
                            poisoned.store(true, Ordering::Relaxed);
                            barrier.poison();
                        }
                        match out {
                            Ok(v) => v,
                            Err(e) => std::panic::resume_unwind(e),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{UniformCost, ZeroCost};

    #[test]
    fn ring_pass_accumulates() {
        let np = 5;
        let out = World::run(np, Arc::new(ZeroCost), |p| {
            // Pass a counter around the ring, each rank increments.
            if p.rank() == 0 {
                p.send(1, 0, &[1.0]);
                let v = p.recv(np - 1, 0);
                v[0]
            } else {
                let v = p.recv(p.rank() - 1, 0);
                let next = (p.rank() + 1) % np;
                p.send(next, 0, &[v[0] + 1.0]);
                v[0]
            }
        });
        assert_eq!(out[0], np as f64);
        assert_eq!(out[2], 2.0);
    }

    #[test]
    fn broadcast_delivers_payload_everywhere() {
        let out = World::run(4, Arc::new(ZeroCost), |p| {
            let data: Vec<f64> = if p.rank() == 2 {
                vec![3.5, 4.5]
            } else {
                vec![]
            };
            p.broadcast(2, 7, &data)
        });
        for v in out {
            assert_eq!(v, vec![3.5, 4.5]);
        }
    }

    #[test]
    fn selective_receive_by_tag() {
        let out = World::run(2, Arc::new(ZeroCost), |p| {
            if p.rank() == 0 {
                p.send(1, 10, &[10.0]);
                p.send(1, 20, &[20.0]);
                0.0
            } else {
                // Receive in reverse tag order.
                let b = p.recv(0, 20);
                let a = p.recv(0, 10);
                a[0] * 100.0 + b[0]
            }
        });
        assert_eq!(out[1], 1020.0);
    }

    #[test]
    fn clocks_advance_with_compute_and_sync_at_barrier() {
        let cost = Arc::new(UniformCost {
            flop_rate: 1e6,
            bandwidth: 1e9,
            latency: 0.0,
            barrier_per_stage: 0.0,
        });
        let out = World::run(3, cost, |p| {
            // Rank r does (r+1)e6 flops -> (r+1) seconds.
            p.compute(1e6 * (p.rank() + 1) as f64, Primitive::Generic);
            p.barrier();
            p.time()
        });
        // After the barrier every clock equals the slowest rank's 3s.
        for t in out {
            assert!((t - 3.0).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn message_time_includes_latency_and_bandwidth() {
        let cost = Arc::new(UniformCost {
            flop_rate: 1e9,
            bandwidth: 800.0, // 100 doubles per second
            latency: 0.5,
            barrier_per_stage: 0.0,
        });
        let out = World::run(2, cost, |p| {
            if p.rank() == 0 {
                p.send(1, 0, &vec![0.0; 100]); // 800 bytes -> 1 s + 0.5 s
                p.time()
            } else {
                p.recv(0, 0);
                p.time()
            }
        });
        // Blocking-put semantics: sender and receiver both reach the
        // completion time of the transfer.
        assert!((out[0] - 1.5).abs() < 1e-9, "sender blocks: {}", out[0]);
        assert!(
            (out[1] - 1.5).abs() < 1e-9,
            "receiver at arrival: {}",
            out[1]
        );
    }

    #[test]
    fn allreduce_max_returns_global_max() {
        let out = World::run(4, Arc::new(ZeroCost), |p| {
            p.allreduce_max(p.rank() as f64 * 2.0)
        });
        for v in out {
            assert_eq!(v, 6.0);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::run(1, Arc::new(ZeroCost), |p| {
            p.barrier();
            p.compute(100.0, Primitive::Generic);
            p.rank()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn bytes_sent_accounting() {
        let out = World::run(2, Arc::new(ZeroCost), |p| {
            if p.rank() == 0 {
                p.send(1, 0, &[1.0, 2.0, 3.0]);
                p.bytes_sent()
            } else {
                p.recv(0, 0);
                p.bytes_sent()
            }
        });
        assert_eq!(out[0], 24);
        assert_eq!(out[1], 0);
    }
}

#[cfg(test)]
mod wall_tests {
    use super::*;

    #[test]
    fn wall_time_is_real_and_compute_is_noop() {
        let out = World::run_wall(2, WallOpts::default(), |p| {
            let t0 = p.time();
            // A virtual-model charge must NOT advance wall time.
            p.compute(1e12, Primitive::Generic);
            std::thread::sleep(Duration::from_millis(20));
            p.barrier();
            (t0, p.time())
        });
        for (t0, t1) in out {
            assert!(t0 < 1.0, "epoch starts near zero, got {t0}");
            let waited = t1 - t0;
            assert!(
                (0.015..10.0).contains(&waited),
                "wall elapsed should track the real sleep, got {waited}"
            );
        }
    }

    #[test]
    fn wall_send_recv_round_trip_is_bit_exact() {
        // Exotic payloads: signed zero, subnormal, inf, and a NaN with
        // a distinctive bit pattern must cross ranks unchanged.
        let payload = [
            f64::from_bits(0x8000_0000_0000_0000), // -0.0
            f64::from_bits(0x0000_0000_0000_0001), // min subnormal
            f64::INFINITY,
            f64::from_bits(0x7ff8_dead_beef_cafe), // payload-carrying NaN
            -1.5e-308,
        ];
        let out = World::run_wall(3, WallOpts::default(), |p| {
            p.broadcast(1, 7, if p.rank() == 1 { &payload } else { &[] })
        });
        for got in out {
            assert_eq!(got.len(), payload.len());
            for (g, want) in got.iter().zip(payload.iter()) {
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "payload bits changed in flight"
                );
            }
        }
    }

    #[test]
    fn charged_broadcast_counts_charge_on_model_and_payload_on_wall() {
        let body = |p: &mut Proc| {
            let data: &[f64] = if p.rank() == 0 { &[1.0; 4] } else { &[] };
            p.broadcast_charged(0, 1, data, 1 << 20);
            p.bytes_sent()
        };
        let modeled = World::run(3, Arc::new(crate::cost::ZeroCost), body);
        assert_eq!(modeled, vec![2 << 20, 0, 0]);
        let wall = World::run_wall(3, WallOpts::default(), body);
        assert_eq!(wall, vec![2 * 32, 0, 0]);
    }

    #[test]
    fn recv_accounting_tracks_bytes_and_wait() {
        let out = World::run_wall(2, WallOpts::default(), |p| {
            if p.rank() == 0 {
                std::thread::sleep(Duration::from_millis(15));
                p.send(1, 3, &[1.0; 64]);
                (p.bytes_sent(), p.bytes_received(), p.comm_wait_ns())
            } else {
                let v = p.recv(0, 3);
                assert_eq!(v.len(), 64);
                (p.bytes_sent(), p.bytes_received(), p.comm_wait_ns())
            }
        });
        assert_eq!(out[0], (512, 0, 0));
        let (sent, recvd, wait_ns) = out[1];
        assert_eq!((sent, recvd), (0, 512));
        assert!(
            wait_ns >= 10_000_000,
            "receiver blocked ~15ms, recorded {wait_ns}ns"
        );
    }

    #[test]
    fn recv_deadline_names_the_stuck_edge() {
        let result = std::panic::catch_unwind(|| {
            World::run_wall(
                2,
                WallOpts {
                    recv_deadline: Some(Duration::from_millis(120)),
                },
                |p| {
                    if p.rank() == 1 {
                        // Rank 0 never sends tag 42; rank 1 must fail
                        // with a diagnostic instead of hanging.
                        p.recv(0, 42);
                    } else {
                        // Keep rank 0 alive (no poison) past the
                        // deadline so the timeout itself fires.
                        std::thread::sleep(Duration::from_millis(400));
                    }
                },
            )
        });
        let err = result.expect_err("deadline must fire");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("rank 1") && msg.contains("from rank 0") && msg.contains("tag 42"),
            "diagnostic must name the stuck (rank, source, tag): {msg}"
        );
    }

    #[test]
    fn wall_runs_are_bitwise_reproducible() {
        // Same exchange twice: the delivered data (not the timing) must
        // be identical run to run.
        let run = || {
            World::run_wall(4, WallOpts::default(), |p| {
                let mine = vec![1.0 / (p.rank() as f64 + 3.0); 8];
                (0..4)
                    .flat_map(|root| {
                        let data: &[f64] = if p.rank() == root { &mine } else { &[] };
                        p.broadcast(root, 11 + root as u64, data)
                    })
                    .map(f64::to_bits)
                    .collect::<Vec<u64>>()
            })
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod poison_tests {
    use super::*;
    use crate::cost::ZeroCost;

    #[test]
    fn rank_panic_fails_the_group_instead_of_deadlocking() {
        // Rank 1 panics before its barrier; ranks 0 and 2 must not hang.
        let result = std::panic::catch_unwind(|| {
            World::run(3, Arc::new(ZeroCost), |p| {
                if p.rank() == 1 {
                    panic!("injected failure");
                }
                p.barrier();
                p.rank()
            })
        });
        assert!(result.is_err(), "the group must report the failure");
    }

    #[test]
    fn rank_panic_unblocks_receivers() {
        // Rank 0 waits for a message rank 1 never sends (it panics).
        let result = std::panic::catch_unwind(|| {
            World::run(2, Arc::new(ZeroCost), |p| {
                if p.rank() == 1 {
                    panic!("injected failure");
                }
                p.recv(1, 0)
            })
        });
        assert!(result.is_err());
    }
}
