//! Tests of the benchmark itself: determinism per seed, fault
//! injection, and the metric catalogue against `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path schurbench/Cargo.toml`.

use schurbench::cli::Args;
use schurbench::report::{Values, END_TO_END, PER_LAYER};
use schurbench::runner::{self, PassCounts, Workload};
use schurbench::trace::Tracer;
use schurbench::workloads::{factor_block, refine_mix, serve_mix, shard_np2, NAMES};
use std::sync::Mutex;

/// The program's counters are process-wide; one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Set up from `seed`, warm up, run exactly one timed pass; return the
/// input digest and the pass's counts.
fn one_pass<W: Workload>(seed: u64) -> (u64, PassCounts) {
    let mut tr = Tracer::new(false);
    let mut w = W::setup(seed, &mut tr).unwrap();
    runner::warm_pass(&mut w, &mut tr);
    let ph = runner::run_phase(&mut w, &mut tr, 1e-9, None).unwrap();
    assert_eq!(ph.passes, 1);
    assert_eq!(ph.attempted, w.ops_per_pass() as u64);
    (w.input_digest(), ph.first_pass)
}

fn same_seed_repeats_exactly<W: Workload>() -> PassCounts {
    let _g = serial();
    let (d1, c1) = one_pass::<W>(11);
    let (d2, c2) = one_pass::<W>(11);
    assert_eq!(d1, d2, "same seed, same op sequence");
    assert_eq!(c1, c2, "same seed, same counts");
    let (d3, _) = one_pass::<W>(12);
    assert_ne!(d1, d3, "another seed gives other inputs");
    assert!(c1.flops > 0);
    c1
}

#[test]
fn factor_block_repeats_per_seed() {
    let c = same_seed_repeats_exactly::<factor_block::FactorBlock>();
    assert_eq!(c.ops, factor_block::POOL as u64);
    assert_eq!(c.failures, 0);
}

#[test]
fn refine_mix_repeats_per_seed() {
    let c = same_seed_repeats_exactly::<refine_mix::RefineMix>();
    assert!(c.refine_iters >= c.ops, "every solve refines");
    assert_eq!(c.failures, 0);
}

#[test]
fn singular_probe_repeats_per_seed() {
    let _g = serial();
    let probe = |seed| {
        let mut v = Values::default();
        refine_mix::singular_probe(seed, &mut Tracer::new(true), &mut v).unwrap();
        let ratios = [
            "core.refine_pass_ratio.singular_scalar",
            "core.refine_pass_ratio.singular_block8",
        ]
        .map(|m| v.get(m).unwrap());
        assert!(v.get("core.refine_singular_ms").unwrap() > 0.0);
        ratios
    };
    let first = probe(1);
    assert_eq!(first, probe(1), "same seed, same verdicts");
    assert!(first.iter().all(|r| (0.0..=1.0).contains(r)));
}

#[test]
fn serve_mix_repeats_per_seed_and_uses_the_cache_three_ways() {
    let c = same_seed_repeats_exactly::<serve_mix::ServeMix>();
    let t = c.tallies;
    let misses = serve_mix::COLD as u64;
    assert_eq!(t.cache_factorizations, misses, "one miss per cycle");
    assert_eq!(t.cache_evictions, misses, "every miss evicts");
    assert_eq!(t.cache_hits, c.ops - misses);
    assert_eq!(t.cache_shed, 0);
}

#[test]
fn shard_np2_repeats_per_seed() {
    let c = same_seed_repeats_exactly::<shard_np2::ShardNp2>();
    assert!(c.tallies.comm_bytes > 0);
    assert_eq!(c.failures, 0);
}

fn corrupted_answer_is_counted<W: Workload>() {
    let _g = serial();
    let mut tr = Tracer::new(false);
    let mut w = W::setup(5, &mut tr).unwrap();
    runner::warm_pass(&mut w, &mut tr);
    let clean = runner::run_phase(&mut w, &mut tr, 1e-9, None).unwrap();
    let hit = runner::run_phase(&mut w, &mut tr, 1e-9, Some(1)).unwrap();
    assert_eq!(hit.attempted, clean.attempted);
    assert_eq!(hit.failed, clean.failed + 1, "the corrupted answer fails");
    assert_eq!(hit.wrong, clean.wrong + 1, "and counts as a wrong answer");
}

#[test]
fn corrupted_answers_land_in_the_error_count() {
    corrupted_answer_is_counted::<factor_block::FactorBlock>();
    corrupted_answer_is_counted::<refine_mix::RefineMix>();
    corrupted_answer_is_counted::<serve_mix::ServeMix>();
    corrupted_answer_is_counted::<shard_np2::ShardNp2>();
}

#[test]
fn serve_cycle_has_the_stated_mix() {
    let pass: Vec<_> = (0..serve_mix::COLD * serve_mix::CYCLE)
        .map(serve_mix::request)
        .collect();
    let hits = pass
        .iter()
        .filter(|r| matches!(r, serve_mix::Request::Hit(..)))
        .count();
    let content = pass
        .iter()
        .filter(|r| matches!(r, serve_mix::Request::ContentHit(..)))
        .count();
    let mut cold: Vec<usize> = pass
        .iter()
        .filter_map(|r| match r {
            serve_mix::Request::Miss(k) => Some(*k),
            _ => None,
        })
        .collect();
    assert_eq!(hits, 14 * serve_mix::COLD);
    assert_eq!(content, serve_mix::COLD);
    cold.sort_unstable();
    assert_eq!(
        cold,
        (0..serve_mix::COLD).collect::<Vec<_>>(),
        "each cold operator once"
    );
}

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.into(),
        seed: 3,
        seconds: 0.2,
        trace,
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let _g = serial();
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
    for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let r = schurbench::workloads::run(&args("factor_block", trace), &out).unwrap();
        let emitted: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(emitted, catalogue);
        let json = r.json();
        for (name, unit) in catalogue {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(r.correct);
        assert!(r
            .render()
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": true"));
    }
    let _ = std::fs::remove_dir_all(out);
    assert!(schurbench::workloads::run(&args("nope", false), std::path::Path::new(".")).is_err());
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let entries = |key: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).unwrap();
        let body = &text[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|e| {
                let name = e[..e.find('"').unwrap()].to_string();
                let u = e.find("\"unit\": \"").map(|i| &e[i + 9..]);
                let unit = u.map_or(String::new(), |u| u[..u.find('"').unwrap()].to_string());
                (name, unit)
            })
            .collect()
    };
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(entries("end_to_end"), own(&END_TO_END));
    assert_eq!(entries("per_layer"), own(&PER_LAYER));
    let workloads: Vec<(String, String)> = entries("workloads");
    assert!(workloads.len() >= 2);
    assert!(workloads.iter().all(|(n, _)| NAMES.contains(&n.as_str())));
}
