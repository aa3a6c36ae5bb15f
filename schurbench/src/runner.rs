//! The measurement loop every workload shares.
//!
//! An end-to-end run sets the workload up [`SETUPS`] times (each a full
//! set-up from the seed plus one warm-up pass) and reports the median
//! as `setup_s`. It then runs whole passes over the operator pool until
//! the requested time is used up. Each op is timed by the caller; its
//! answer is checked after the clock stops. Throughput is the median
//! over cycles (runs of ops that carry the workload's whole mix) of each
//! cycle's verified ops per second, with the time spent checking left
//! out.
//!
//! The traced run sets up once with spans on, runs half its time with
//! spans off and half with spans on (the difference is the tracing
//! overhead), then asks the workload for its side measurements.

use crate::cli::Args;
use crate::report::{Report, Values, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::verify::Check;
use crate::{host, stats, Result};
use bs_probe::metrics::{self, Counter};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Full set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Program-side tallies a workload reads beyond the global counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tallies {
    /// Operator-cache hits.
    pub cache_hits: u64,
    /// Factorizations the cache performed.
    pub cache_factorizations: u64,
    /// LRU evictions.
    pub cache_evictions: u64,
    /// Requests shed by admission control.
    pub cache_shed: u64,
    /// Bytes sent between ranks.
    pub comm_bytes: u64,
}

impl Tallies {
    fn minus(self, before: Tallies) -> Tallies {
        Tallies {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_factorizations: self.cache_factorizations - before.cache_factorizations,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            cache_shed: self.cache_shed - before.cache_shed,
            comm_bytes: self.comm_bytes - before.comm_bytes,
        }
    }
}

/// Counts of one whole pass. For a given seed every field repeats
/// exactly, pass after pass and run after run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Ops in the pass.
    pub ops: u64,
    /// Ops that failed.
    pub failures: u64,
    /// Flops the program counted (all threads).
    pub flops: u64,
    /// Refinement iterations (`Counter::RefineIterations`).
    pub refine_iters: u64,
    /// Mixed-precision fall-backs (`Counter::MixedStallFallbacks`).
    pub mixed_fallbacks: u64,
    /// Cache and communication tallies.
    pub tallies: Tallies,
}

/// One workload: a pool of operators built from a seed and a fixed
/// sequence of ops over it.
pub trait Workload: Sized {
    /// Generate the inputs from `seed`, factor what the workload
    /// serves and compute reference answers.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self>;
    /// Ops in one whole pass over the pool.
    fn ops_per_pass(&self) -> usize;
    /// Ops in the smallest run of consecutive ops that carries the
    /// workload's whole mix; passes divide into such cycles, and the
    /// throughput is the median over them.
    fn ops_per_cycle(&self) -> usize {
        self.ops_per_pass()
    }
    /// Operator family of op `i`.
    fn family(&self, i: usize) -> &'static str;
    /// Run op `i` of a pass, keeping its answer; the caller times this
    /// call. `Err` means the program returned an error.
    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<()>;
    /// Check the answer op `i` just produced (outside the timed
    /// interval).
    fn check(&mut self, i: usize) -> Check;
    /// The answer of the op that ran last, for fault injection.
    fn answer_mut(&mut self) -> &mut [f64];
    /// Cache and communication tallies so far.
    fn tallies(&mut self) -> Result<Tallies> {
        Ok(Tallies::default())
    }
    /// Digest of every input of the op sequence.
    fn input_digest(&self) -> u64;
    /// Scratch arenas still checked out of the factors the workload
    /// holds.
    fn pool_outstanding(&self) -> i64;
    /// Side measurements of the traced run.
    fn layers(&mut self, tr: &mut Tracer, out: &mut Values) -> Result<()>;
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Caller-timed seconds of each op that passed verification.
    pub verified: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed verification, returned an error or were shed.
    pub failed: u64,
    /// Failed ops whose answer was wrong on a certified path.
    pub wrong: u64,
    /// Per cycle: verified ops per second of the cycle's wall time
    /// minus checking and counter reads.
    pub cycle_rates: Vec<f64>,
    /// Whole passes run.
    pub passes: u64,
    /// Counts of the first pass.
    pub first_pass: PassCounts,
    /// Per family: `(attempted, failed, first failure message)`.
    pub families: BTreeMap<&'static str, (u64, u64, String)>,
}

fn snapshot<W: Workload>(w: &mut W) -> Result<(u64, u64, u64, Tallies)> {
    Ok((
        metrics::flops_total(),
        metrics::total(Counter::RefineIterations),
        metrics::total(Counter::MixedStallFallbacks),
        w.tallies()?,
    ))
}

/// Run every op of the pool once and check it: the warm-up pass of a
/// set-up, which also pins the reference answers. Program errors are
/// left for the timed phase to count.
pub fn warm_pass<W: Workload>(w: &mut W, tr: &mut Tracer) {
    for i in 0..w.ops_per_pass() {
        if w.run_op(i, tr).is_ok() {
            let _ = w.check(i);
        }
    }
}

/// Run whole passes until `seconds` have elapsed (at least one pass).
/// `corrupt = Some(k)` flips the answer of the phase's `k`-th op before
/// it is checked (fault injection for the benchmark's own tests).
pub fn run_phase<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    seconds: f64,
    corrupt: Option<u64>,
) -> Result<Phase> {
    let mut ph = Phase::default();
    let start = Instant::now();
    let cycle = w.ops_per_cycle().max(1);
    loop {
        let first = ph.passes == 0;
        let mut pass_failures = 0;
        let mut cycle_start = Instant::now();
        let mut excluded = Duration::ZERO;
        let mut cycle_verified = 0;
        let before = if first {
            let s = snapshot(w)?;
            cycle_start = Instant::now();
            Some(s)
        } else {
            None
        };
        for i in 0..w.ops_per_pass() {
            let op = tr.begin("bench.op");
            let t0 = Instant::now();
            let res = w.run_op(i, tr);
            let dt = t0.elapsed().as_secs_f64();
            tr.end(op);
            let c0 = Instant::now();
            if corrupt == Some(ph.attempted) {
                if let Some(v) = w.answer_mut().first_mut() {
                    *v += 1.0;
                }
            }
            let check = match res {
                Ok(()) => w.check(i),
                Err(e) => Check::Error(e),
            };
            ph.attempted += 1;
            let fam = ph
                .families
                .entry(w.family(i))
                .or_insert((0, 0, String::new()));
            fam.0 += 1;
            if let Check::Wrong(_) = check {
                ph.wrong += 1;
            }
            match check {
                Check::Pass => {
                    ph.verified.push(dt);
                    cycle_verified += 1;
                }
                Check::Wrong(msg) | Check::Error(msg) => {
                    ph.failed += 1;
                    pass_failures += 1;
                    fam.1 += 1;
                    if fam.2.is_empty() {
                        fam.2 = msg;
                    }
                }
            }
            excluded += c0.elapsed();
            if (i + 1) % cycle == 0 || i + 1 == w.ops_per_pass() {
                let busy = (cycle_start.elapsed() - excluded).as_secs_f64();
                ph.cycle_rates.push(cycle_verified as f64 / busy);
                cycle_start = Instant::now();
                excluded = Duration::ZERO;
                cycle_verified = 0;
            }
        }
        if let Some((f0, r0, m0, t0)) = before {
            let (f1, r1, m1, t1) = snapshot(w)?;
            ph.first_pass = PassCounts {
                ops: w.ops_per_pass() as u64,
                failures: pass_failures,
                flops: f1 - f0,
                refine_iters: r1 - r0,
                mixed_fallbacks: m1 - m0,
                tallies: t1.minus(t0),
            };
        }
        ph.passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(ph)
}

fn family_lines(ph: &Phase) -> Vec<String> {
    ph.families
        .iter()
        .map(|(fam, (att, failed, msg))| {
            let mut l = format!("# family {fam}: attempted={att} failed={failed}");
            if *failed > 0 {
                l.push_str(&format!(" first_failure=\"{msg}\""));
            }
            l
        })
        .collect()
}

/// Run workload `W` as `args` asks; traced runs write their spans
/// under `out_dir`.
pub fn run<W: Workload>(args: &Args, out_dir: &Path) -> Result<Report> {
    // Tracing, including bs-probe's own, stays off unless this run
    // records its own spans; bs-probe's counters are always on.
    bs_probe::disable_all();
    let header = host::describe(&args.workload, args.seed, args.seconds, args.trace);
    if args.trace {
        run_traced::<W>(args, out_dir, header)
    } else {
        run_end_to_end::<W>(args, header)
    }
}

fn run_end_to_end<W: Workload>(args: &Args, header: String) -> Result<Report> {
    let mut off = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut current: Option<W> = None;
    for _ in 0..SETUPS {
        // Tear the previous set-up down before timing the next one.
        drop(current.take());
        let t0 = Instant::now();
        let mut w = W::setup(args.seed, &mut off)?;
        warm_pass(&mut w, &mut off);
        setups.push(t0.elapsed().as_secs_f64());
        current = Some(w);
    }
    let mut w = current.ok_or("no set-up ran")?;
    let steal0 = host::steal_and_total_ticks();
    let ph = run_phase(&mut w, &mut off, args.seconds, None)?;
    let steal1 = host::steal_and_total_ticks();
    if ph.verified.is_empty() {
        return Err(format!(
            "no op passed verification in {} attempts",
            ph.attempted
        ));
    }
    let mut v = Values::default();
    v.set("setup_s", stats::median(&setups), setups.len());
    v.set(
        "latency_p50_ms",
        stats::median(&ph.verified) * 1e3,
        ph.verified.len(),
    );
    v.set(
        "throughput_ops_s",
        stats::median(&ph.cycle_rates),
        ph.cycle_rates.len(),
    );
    drop(w);
    v.set("peak_rss_mb", host::peak_rss_mb()?, 1);
    let mut lines = vec![header];
    lines.push(format!(
        "# setups_s={:?} passes={} ops_per_pass={}",
        setups,
        ph.passes,
        ph.attempted / ph.passes.max(1)
    ));
    lines.push(format!(
        "# error_rate {} ratio failed={} attempted={}",
        ph.failed as f64 / ph.attempted as f64,
        ph.failed,
        ph.attempted
    ));
    lines.push(format!(
        "# latency_p99_ms {} ms samples={} beyond_p99={}",
        stats::quantile(&ph.verified, 0.99) * 1e3,
        ph.verified.len(),
        stats::beyond(&ph.verified, 0.99)
    ));
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, steal1) {
        // Time the hypervisor gave other guests while this run was
        // timing: the first thing to check when a run reads slow.
        lines.push(format!(
            "# host_steal_pct {} % of CPU time during the timed phase",
            stats::ratio((s1 - s0) as f64, (t1 - t0) as f64) * 100.0
        ));
    }
    lines.extend(family_lines(&ph));
    Ok(Report {
        lines,
        correct: ph.wrong == 0,
        attempted: ph.attempted,
        failed: ph.failed,
        metrics: v.finish(&END_TO_END)?,
    })
}

/// Name of the per-family refinement pass ratio, for the timed
/// families that enter the refinement loop.
fn pass_ratio_metric(family: &str) -> Option<&'static str> {
    match family {
        "mixed_ar1" => Some("core.refine_pass_ratio.mixed_ar1"),
        _ => None,
    }
}

fn run_traced<W: Workload>(args: &Args, out_dir: &Path, header: String) -> Result<Report> {
    let mut tr = Tracer::new(true);
    let mut w = W::setup(args.seed, &mut tr)?;
    warm_pass(&mut w, &mut tr);
    let half = args.seconds / 2.0;
    let plain = run_phase(&mut w, &mut Tracer::new(false), half, None)?;
    let traced = run_phase(&mut w, &mut tr, half, None)?;
    if plain.verified.is_empty() || traced.verified.is_empty() {
        return Err("no op passed verification".into());
    }
    let mut v = Values::default();
    let p50_plain = stats::median(&plain.verified);
    v.set(
        "probe.trace_overhead_pct",
        (stats::median(&traced.verified) / p50_plain - 1.0) * 100.0,
        traced.verified.len(),
    );
    let self_s = tr.self_times_s("bench.op");
    v.set("bench.self_us", stats::median(&self_s) * 1e6, self_s.len());
    v.set(
        "bench.latency_p99_ms",
        stats::quantile(&plain.verified, 0.99) * 1e3,
        plain.verified.len(),
    );
    v.set(
        "bench.latency_samples",
        plain.verified.len() as f64,
        plain.verified.len(),
    );
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    v.set(
        "bench.error_rate",
        failed as f64 / attempted as f64,
        attempted as usize,
    );
    let pass = plain.first_pass;
    v.set(
        "matrix.flops_per_op",
        pass.flops as f64 / pass.ops as f64,
        pass.ops as usize,
    );
    v.set("core.refine_iters", pass.refine_iters as f64, 1);
    v.set("core.mixed_fallbacks", pass.mixed_fallbacks as f64, 1);
    let t = pass.tallies;
    v.set("serve.hits", t.cache_hits as f64, 1);
    v.set("serve.factorizations", t.cache_factorizations as f64, 1);
    v.set("serve.evictions", t.cache_evictions as f64, 1);
    v.set("serve.shed", t.cache_shed as f64, 1);
    v.set(
        "serve.hit_ratio",
        stats::ratio(
            t.cache_hits as f64,
            (t.cache_hits + t.cache_factorizations) as f64,
        ),
        pass.ops as usize,
    );
    for (fam, (att, fail, _)) in plain.families.iter() {
        if let Some(name) = pass_ratio_metric(fam) {
            v.set(name, (att - fail) as f64 / *att as f64, *att as usize);
        }
    }
    w.layers(&mut tr, &mut v)?;
    v.set("matrix.pool_outstanding", w.pool_outstanding() as f64, 1);
    let spans_path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let mut lines = vec![header];
    lines.push(format!(
        "# pass counts (repeat exactly for a seed): {:?}",
        plain.first_pass
    ));
    lines.push(format!("# input_digest {:#018x}", w.input_digest()));
    lines.push(format!(
        "# spans {} written to {}",
        tr.spans().len(),
        spans_path.display()
    ));
    lines.extend(family_lines(&plain));
    Ok(Report {
        lines,
        correct: plain.wrong == 0 && traced.wrong == 0,
        attempted,
        failed,
        metrics: v.finish(&PER_LAYER)?,
    })
}
