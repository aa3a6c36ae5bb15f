//! End-to-end serving tests: single-flight factorization under a
//! thread stampede, admission-control shedding, and loopback
//! client/server round-trips over TCP and Unix-domain sockets.
//!
//! Trace state is process-global, so the tests that arm it, and every
//! test that factors an operator (its `plan_built` events would land in
//! an armed trace), serialize on a shared lock (same discipline as
//! `tests/observability.rs`).

use bs_serve::{Client, OperatorCache, ServeError, Server, ServerConfig};
use bs_toeplitz::workloads;
use std::sync::{Arc, Barrier, Mutex};

static PROBE_LOCK: Mutex<()> = Mutex::new(());

fn probe_guard() -> std::sync::MutexGuard<'static, ()> {
    PROBE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Eight tenants stampede one cold key: exactly one factorization plan
/// is built, everyone gets the same `Arc`, and the other seven are
/// counted as hits.
#[test]
fn concurrent_misses_factor_exactly_once() {
    let _g = probe_guard();
    let cache = Arc::new(OperatorCache::new(4));
    let t = Arc::new(workloads::random_spd_block(2, 32, 11)); // n = 64
    const TENANTS: usize = 8;
    let barrier = Arc::new(Barrier::new(TENANTS));

    bs_probe::trace::clear();
    bs_probe::trace::enable();
    let handles: Vec<_> = (0..TENANTS)
        .map(|_| {
            let (cache, t, barrier) = (Arc::clone(&cache), Arc::clone(&t), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_factor(&t).unwrap()
            })
        })
        .collect();
    let factors: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    bs_probe::trace::disable();
    let events = bs_probe::trace::take_events();

    let plans_built = events.iter().filter(|e| e.name == "plan_built").count();
    assert_eq!(plans_built, 1, "single-flight must build exactly one plan");
    let stats = cache.stats();
    assert_eq!(stats.factorizations, 1);
    assert_eq!(stats.hits, (TENANTS - 1) as u64);
    for f in &factors[1..] {
        assert!(Arc::ptr_eq(&factors[0], f), "tenants must share one factor");
    }
}

/// With `max_inflight = 0` every expensive opcode sheds, while pings
/// and stats (exempt from admission) keep answering.
#[test]
fn admission_control_sheds_expensive_requests() {
    let server = Server::new(ServerConfig {
        cache_capacity: 4,
        max_inflight: 0,
    });
    let handle = server.serve_tcp("127.0.0.1:0").unwrap();
    let addr = handle.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();

    client.ping().unwrap();
    let t = workloads::random_spd_scalar(16, 3);
    let b = bs_matrix::Matrix::zeros(16, 1);
    assert!(matches!(client.factor(&t), Err(ServeError::Shed)));
    assert!(matches!(client.solve(&t, &b), Err(ServeError::Shed)));
    assert!(matches!(client.solve_cached(7, &b), Err(ServeError::Shed)));

    let snap = client.stats().unwrap();
    assert_eq!(snap.shed, 3);
    assert_eq!(snap.factorizations, 0);
    let (_requests, shed) = handle.request_stats();
    assert_eq!(shed, 3);
    handle.shutdown();
}

/// Full TCP loopback round-trip: factor (cold then cached), solve with
/// the generator, solve by fingerprint, and every path bitwise equal to
/// an in-process `Factor` solve of the same system.
#[test]
fn tcp_loopback_solves_match_local_bitwise() {
    let _g = probe_guard();
    let handle = Server::new(ServerConfig::default())
        .serve_tcp("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect_tcp(handle.tcp_addr().unwrap()).unwrap();

    let t = workloads::random_spd_block(2, 16, 21); // n = 32
    let n = t.order();
    let b = bs_matrix::Matrix::from_fn(n, 3, |i, j| ((i * 3 + j) as f64).sin());

    let (fp, cached) = client.factor(&t).unwrap();
    assert_eq!(fp, t.fingerprint());
    assert!(!cached, "first sight must be a cold miss");
    let (_, cached) = client.factor(&t).unwrap();
    assert!(cached, "second factor must be answered from cache");

    let local = bs_core::Factor::new(&t).unwrap();
    let want = local.solve_batch(&b).unwrap();
    let via_solve = client.solve(&t, &b).unwrap();
    let via_cached = client.solve_cached(fp, &b).unwrap();
    assert_eq!(via_solve.as_slice(), want.as_slice(), "OP_SOLVE bitwise");
    assert_eq!(
        via_cached.as_slice(),
        want.as_slice(),
        "OP_SOLVE_CACHED bitwise"
    );

    let snap = client.stats().unwrap();
    assert_eq!(snap.factorizations, 1, "one operator, one factorization");
    assert_eq!(snap.shed, 0);
    assert_eq!(snap.requests, 5, "2 factors + 2 solves + this stats frame");
    handle.shutdown();
}

/// Unknown fingerprints and malformed frames come back as typed remote
/// errors without killing the connection.
#[test]
fn bad_requests_leave_the_connection_usable() {
    let _g = probe_guard();
    let handle = Server::new(ServerConfig::default())
        .serve_tcp("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect_tcp(handle.tcp_addr().unwrap()).unwrap();

    let b = bs_matrix::Matrix::zeros(8, 1);
    match client.solve_cached(0xdead_beef, &b) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("no cached factor"), "{msg}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    // The same connection still serves real work afterwards.
    let t = workloads::random_spd_scalar(8, 4);
    let x = client.solve(&t, &b).unwrap();
    assert_eq!(x.rows(), 8);
    client.ping().unwrap();
    handle.shutdown();
}

/// The Unix-domain transport speaks the same protocol.
#[test]
fn uds_loopback_round_trips() {
    let _g = probe_guard();
    let path = std::env::temp_dir().join(format!("bs-serve-test-{}.sock", std::process::id()));
    let handle = Server::new(ServerConfig::default())
        .serve_uds(&path)
        .unwrap();
    let mut client = Client::connect_uds(&path).unwrap();

    client.ping().unwrap();
    let t = workloads::random_spd_scalar(12, 8);
    let b = bs_matrix::Matrix::from_fn(12, 2, |i, j| (i + j) as f64);
    let x = client.solve(&t, &b).unwrap();
    let want = bs_core::Factor::new(&t).unwrap().solve_batch(&b).unwrap();
    assert_eq!(x.as_slice(), want.as_slice());
    handle.shutdown();
    assert!(!path.exists(), "shutdown must remove the socket file");
}
