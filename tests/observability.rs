//! End-to-end checks of the bs-probe observability layer: stability
//! monitoring through iterative refinement, the span structure of a
//! full `Factor` factor-and-solve, and JSON-lines export validity.
//!
//! Trace/stability state is process-global, so each test arms and
//! disarms the probes around its own instrumented region; the suite
//! relies on the harness running `#[test]`s in this file on the shared
//! thread pool (spans from other threads carry their own thread ids).

use block_schur::prelude::*;
use std::sync::Mutex;

/// Probe state is process-global; serialize the tests that arm it.
static PROBE_LOCK: Mutex<()> = Mutex::new(());

fn probe_guard() -> std::sync::MutexGuard<'static, ()> {
    PROBE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// §8 worked example: refinement drives the residual monotonically
/// down, and the stability monitor records the same history.
#[test]
fn residual_history_is_monotone_on_paper_example() {
    let _g = probe_guard();
    let t = workloads::paper_singular_minor_example();
    let f = factor_indefinite(&t, &IndefOptions::default()).unwrap();
    let (b, _) = workloads::rhs_for_ones(&t);

    bs_probe::stability::enable(0.0);
    let res = solve_refined(
        &t,
        &RefineOperator::new(&t),
        &f,
        &b,
        &RefineOptions::default(),
    )
    .unwrap();
    bs_probe::stability::disable();
    let report = bs_probe::stability::take_report();

    assert!(
        res.residual_norms.len() >= 2,
        "refinement recorded {} residuals",
        res.residual_norms.len()
    );
    // Monotone non-increasing down to the rounding floor, where the
    // final iterations may jitter by a few ulps of ‖b‖.
    let floor = 64.0 * f64::EPSILON * block_schur::matrix::norms::vec_two(&b);
    for w in res.residual_norms.windows(2) {
        assert!(
            w[1] <= w[0] || w[1] < floor,
            "residual history not monotone non-increasing: {:?}",
            res.residual_norms
        );
    }
    // The monitor saw the same history the solver returned.
    assert_eq!(report.residual_norms, res.residual_norms);
}

/// A full `Factor` run enters its phases in order:
/// factor, then solve, with refine nested inside solve.
#[test]
fn solver_trace_has_factor_solve_refine_sequence() {
    let _g = probe_guard();
    let t = workloads::paper_singular_minor_example();
    let (b, _) = workloads::rhs_for_ones(&t);

    bs_probe::trace::clear();
    bs_probe::trace::enable();
    let solver = Factor::new(&t).unwrap();
    let x = solver.solve(&b).unwrap();
    bs_probe::trace::disable();
    let events = bs_probe::trace::take_events();

    assert!(x.iter().all(|v| v.is_finite()));
    let enters: Vec<&str> = events
        .iter()
        .filter(|e| matches!(e.kind, bs_probe::EventKind::Enter))
        .map(|e| e.name)
        .collect();
    let pos = |name: &str| {
        enters
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("span {name:?} missing from trace: {enters:?}"))
    };
    let (factor, solve, refine) = (pos("factor"), pos("solve"), pos("refine"));
    assert!(
        factor < solve && solve < refine,
        "span order factor={factor} solve={solve} refine={refine}: {enters:?}"
    );
}

/// The exported trace is valid JSON-lines carrying per-step flop deltas
/// and growth factors, ending in a metrics line.
#[test]
fn exported_trace_is_valid_jsonl() {
    let _g = probe_guard();
    let t = workloads::random_spd_block(4, 16, 5); // n = 64
    let (b, _) = workloads::rhs_for_ones(&t);

    bs_probe::reset_all();
    bs_probe::enable_all(1e8);
    let solver = Factor::new(&t).unwrap();
    solver.solve(&b).unwrap();
    bs_probe::disable_all();

    let path = std::env::temp_dir().join(format!("bs-obs-{}.jsonl", std::process::id()));
    bs_probe::export::write_trace_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let mut kinds = std::collections::BTreeSet::new();
    let mut saw_step_flops = false;
    let mut saw_growth = false;
    for line in text.lines() {
        let v = bs_probe::Json::parse(line)
            .unwrap_or_else(|e| panic!("invalid JSONL line ({e:?}): {line}"));
        let ty = v.get("type").and_then(|t| t.as_str()).expect("type tag");
        kinds.insert(ty.to_string());
        match ty {
            "span" if v.get("name").and_then(|n| n.as_str()) == Some("schur_step_done") => {
                let fields = v.get("fields").unwrap();
                saw_step_flops |= fields.get("flops").and_then(|f| f.as_f64()).unwrap_or(0.0) > 0.0;
            }
            "step" => {
                saw_growth |= v.get("growth").and_then(|g| g.as_f64()).unwrap_or(0.0) > 0.0;
            }
            _ => {}
        }
    }
    assert!(kinds.contains("span"), "kinds: {kinds:?}");
    assert!(kinds.contains("step"), "kinds: {kinds:?}");
    assert!(kinds.contains("metrics"), "kinds: {kinds:?}");
    assert!(saw_step_flops, "no positive per-step flop delta:\n{text}");
    assert!(saw_growth, "no positive growth factor:\n{text}");
    // The metrics line is last and carries the flop total.
    let last = bs_probe::Json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("type").unwrap().as_str(), Some("metrics"));
    assert!(last.get("flops_total").unwrap().as_f64().unwrap() > 0.0);
}

/// Acceptance: the aggregated profile of an instrumented solve accounts
/// for the wall clock of the traced region to within 5%, and both the
/// folded-stack and Perfetto trace-event exports are well-formed.
#[test]
fn profile_roots_cover_wall_and_exports_are_valid() {
    let _g = probe_guard();
    let t = workloads::random_spd_block(8, 48, 11); // n = 384
    let (b, _) = workloads::rhs_for_ones(&t);

    bs_probe::trace::clear();
    bs_probe::trace::enable();
    let wall = std::time::Instant::now();
    let solver = Factor::new(&t).unwrap();
    let x = solver.solve(&b).unwrap();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    bs_probe::trace::disable();
    let events = bs_probe::trace::take_events();
    assert!(x.iter().all(|v| v.is_finite()));

    let prof = bs_probe::Profile::from_events(&events);
    assert!(!prof.truncated(), "trace ring saturated during test solve");
    let roots = prof.root_total_ns();
    assert!(
        roots <= wall_ns,
        "root spans ({roots} ns) exceed the wall clock ({wall_ns} ns)"
    );
    assert!(
        roots as f64 >= 0.95 * wall_ns as f64,
        "root spans cover only {:.1}% of wall ({roots} of {wall_ns} ns)",
        100.0 * roots as f64 / wall_ns as f64,
    );

    // Folded-stack export: `root;child;... <self_ns>` lines.
    let folded = prof.folded();
    assert!(!folded.is_empty(), "folded export is empty");
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("stack + self_ns");
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        ns.parse::<u64>()
            .unwrap_or_else(|_| panic!("bad self_ns in {line:?}"));
    }
    assert!(folded.lines().any(|l| l.starts_with("factor")));
    assert!(folded.lines().any(|l| l.starts_with("solve")));

    // Perfetto export round-trips through the JSON parser with paired
    // B/E duration events.
    let perfetto = bs_probe::export::perfetto_json(&events);
    let v = bs_probe::Json::parse(&perfetto.to_string()).expect("perfetto JSON parses");
    let trace_events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!trace_events.is_empty());
    let count_ph = |ph: &str| {
        trace_events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
            .count()
    };
    assert_eq!(count_ph("B"), count_ph("E"), "unpaired B/E duration events");
    assert!(count_ph("B") > 0, "no duration events exported");
}

/// Acceptance: with histograms armed, a batch of solves yields non-empty
/// solve/factor-step latency distributions with ordered quantiles.
#[test]
fn solve_latency_histogram_has_quantiles() {
    let _g = probe_guard();
    let t = workloads::random_spd_block(4, 16, 5); // n = 64
    let (b, _) = workloads::rhs_for_ones(&t);

    bs_probe::reset_all();
    bs_probe::histogram::enable();
    let solver = Factor::new(&t).unwrap();
    for _ in 0..8 {
        solver.solve(&b).unwrap();
    }
    bs_probe::histogram::disable();

    let solve = bs_probe::histogram::merged(bs_probe::Hist::SolveNs);
    assert_eq!(solve.count(), 8, "one sample per solve");
    let (p50, p99) = (solve.p50(), solve.p99());
    assert!(p50 > 0, "zero p50 solve latency");
    assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    assert!(solve.min() <= p50 && p99 <= solve.max() * 2);

    let steps = bs_probe::histogram::merged(bs_probe::Hist::FactorStepNs);
    assert!(
        steps.count() > 0,
        "factoring recorded no per-step latencies"
    );
    bs_probe::histogram::reset_all();
}
