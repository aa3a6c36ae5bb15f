//! Command-line interface logic for the `block-schur` binary.
//!
//! File format for matrices (plain text, whitespace separated):
//!
//! ```text
//! m p
//! <m*m values of block 0, row major>
//! <m*m values of block 1, row major>
//! ...
//! ```
//!
//! i.e. the first block row `T̂₁ … T̂_p` of the symmetric block Toeplitz
//! matrix. Right-hand sides are `n = m·p` whitespace-separated values.
//! All commands are exposed as functions so they can be unit-tested
//! without spawning the binary.

use crate::prelude::*;
use bs_matrix::Matrix;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Growth factors past this default are flagged in `--trace`/`--metrics`
/// output (≈ half the double-precision digits gone; §8.2 discussion).
pub const DEFAULT_GROWTH_THRESHOLD: f64 = 1e8;

/// Observability switches shared by `solve` and `factor`.
#[derive(Debug, Default, Clone)]
pub struct Observe {
    /// Write a JSON-lines trace (spans, per-step growth, metrics) here.
    pub trace: Option<PathBuf>,
    /// Write a folded-stack profile (flamegraph input) here.
    pub profile: Option<PathBuf>,
    /// Write a Chrome/Perfetto trace-event JSON timeline here.
    pub perfetto: Option<PathBuf>,
    /// Append counter totals and stability summary to the report.
    pub metrics: bool,
}

/// Run context `finish` needs for the roofline join: the plan's
/// algorithmic block size and thread count.
#[derive(Debug, Clone, Copy)]
struct ObserveCtx {
    block_size: usize,
    threads: usize,
}

impl Observe {
    fn active(&self) -> bool {
        self.trace.is_some() || self.profile.is_some() || self.perfetto.is_some() || self.metrics
    }

    /// Arm the probe layer before running the instrumented operation.
    fn begin(&self) {
        if self.active() {
            bs_probe::reset_all();
            bs_probe::enable_all(DEFAULT_GROWTH_THRESHOLD);
        }
    }

    /// Export whatever was recorded and append a human summary.
    ///
    /// Drains the trace ONCE and fans the events out to every consumer
    /// (JSONL trace, folded profile, Perfetto timeline, roofline).
    /// Counter-derived numbers are snapshotted before the calibrated
    /// rate is fetched, because calibration runs kernel work of its own.
    fn finish(&self, report: &mut String, ctx: Option<ObserveCtx>) -> Result<(), CliError> {
        if !self.active() {
            return Ok(());
        }
        let dropped = bs_probe::trace::dropped_events();
        let events = bs_probe::trace::take_events();
        let stab = bs_probe::stability::take_report();
        bs_probe::disable_all();
        if dropped > 0 {
            let _ = writeln!(
                report,
                "warning: trace ring buffer saturated — {dropped} event(s) overwritten; \
                 traces and profiles below are a partial window \
                 (raise bs_probe::trace::set_capacity)"
            );
        }
        let need_profile = self.profile.is_some() || self.metrics;
        let prof = need_profile.then(|| bs_probe::Profile::from_events(&events));
        if self.metrics {
            let _ = writeln!(report, "metrics: {}", bs_probe::export::metrics_json());
            let _ = writeln!(report, "peak growth factor: {:.6e}", stab.peak_growth);
            for w in stab.warnings() {
                let _ = writeln!(report, "warning: {w}");
            }
            for h in bs_probe::Hist::ALL {
                let snap = bs_probe::histogram::merged(h);
                if !snap.is_empty() {
                    let _ = writeln!(report, "latency {}: {}", h.label(), snap.summary());
                }
            }
            if let (Some(prof), Some(ctx)) = (prof.as_ref(), ctx) {
                // Achieved rates first (counter snapshot), calibrated
                // ceiling second (calibration pollutes the counters).
                let roofline = bs_probe::Roofline::compute(prof, 0.0, ctx.threads);
                let cal = bs_matrix::kernel::calibrate::calibration();
                let rate = bs_perfmodel::RateTable::new(&cal.points).rate(ctx.block_size) / 1e9;
                report.push_str(&roofline.with_calibrated(rate).render());
                let _ = write!(report, "top spans by self time:\n{}", prof.top_table(8));
            }
        }
        if let Some(path) = &self.profile {
            let prof = prof.as_ref().expect("profile built when requested");
            std::fs::write(path, prof.folded())?;
            let _ = writeln!(
                report,
                "profile written to {} (folded stacks{})",
                path.display(),
                if prof.truncated() { ", TRUNCATED" } else { "" }
            );
        }
        if let Some(path) = &self.perfetto {
            bs_probe::export::write_perfetto(path, &events)?;
            let _ = writeln!(
                report,
                "timeline written to {} (Perfetto / chrome://tracing JSON)",
                path.display()
            );
        }
        if let Some(path) = &self.trace {
            std::fs::write(path, bs_probe::export::trace_jsonl(&events, &stab))?;
            let _ = writeln!(report, "trace written to {} (JSON-lines)", path.display());
        }
        Ok(())
    }
}

/// CLI-level errors (I/O, parsing, numerical).
#[derive(Debug)]
pub enum CliError {
    Io(std::io::Error),
    Parse(String),
    Numerical(String),
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Parse(m) => write!(f, "parse error: {m}"),
            CliError::Numerical(m) => write!(f, "numerical error: {m}"),
            CliError::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parse a whitespace-separated stream of f64s.
fn parse_floats(text: &str) -> Result<Vec<f64>, CliError> {
    text.split_whitespace()
        .map(|tok| {
            tok.parse::<f64>()
                .map_err(|e| CliError::Parse(format!("bad number {tok:?}: {e}")))
        })
        .collect()
}

/// Read a symmetric block Toeplitz matrix from the text format above.
pub fn read_matrix(path: &Path) -> Result<SymBlockToeplitz, CliError> {
    let text = std::fs::read_to_string(path)?;
    let vals = parse_floats(&text)?;
    if vals.len() < 2 {
        return Err(CliError::Parse("expected header `m p`".into()));
    }
    let m = vals[0] as usize;
    let p = vals[1] as usize;
    if m == 0 || p == 0 || vals[0].fract() != 0.0 || vals[1].fract() != 0.0 {
        return Err(CliError::Parse(format!(
            "invalid header m = {}, p = {}",
            vals[0], vals[1]
        )));
    }
    let need = 2 + m * m * p;
    if vals.len() != need {
        return Err(CliError::Parse(format!(
            "expected {} values after the header, found {}",
            need - 2,
            vals.len() - 2
        )));
    }
    let blocks: Vec<Matrix> = (0..p)
        .map(|d| {
            let off = 2 + d * m * m;
            // Row-major in the file.
            Matrix::from_fn(m, m, |i, j| vals[off + i * m + j])
        })
        .collect();
    Ok(SymBlockToeplitz::new(blocks))
}

/// Write a matrix in the text format.
pub fn write_matrix(t: &SymBlockToeplitz, path: &Path) -> Result<(), CliError> {
    let m = t.block_size();
    let mut out = format!("{} {}\n", m, t.num_blocks());
    for blk in t.first_block_row() {
        for i in 0..m {
            for j in 0..m {
                let _ = write!(out, "{:.17e} ", blk[(i, j)]);
            }
            out.push('\n');
        }
    }
    std::fs::write(path, out)?;
    Ok(())
}

/// Read a right-hand-side vector.
pub fn read_vector(path: &Path, n: usize) -> Result<Vec<f64>, CliError> {
    let vals = parse_floats(&std::fs::read_to_string(path)?)?;
    if vals.len() != n {
        return Err(CliError::Parse(format!(
            "expected {n} values, found {}",
            vals.len()
        )));
    }
    Ok(vals)
}

/// Read a batched right-hand-side file: `k` columns of `n` values each,
/// column after column, into an `n x k` matrix.
pub fn read_rhs_columns(path: &Path, n: usize) -> Result<Matrix, CliError> {
    let vals = parse_floats(&std::fs::read_to_string(path)?)?;
    if vals.is_empty() || !vals.len().is_multiple_of(n) {
        return Err(CliError::Parse(format!(
            "batched rhs must hold a positive multiple of n = {n} values, found {}",
            vals.len()
        )));
    }
    let k = vals.len() / n;
    Ok(Matrix::from_fn(n, k, |i, j| vals[j * n + i]))
}

/// `info` command: structural and numerical summary.
pub fn cmd_info(matrix: &Path) -> Result<String, CliError> {
    let t = read_matrix(matrix)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "symmetric block Toeplitz: n = {}, block size m = {}, p = {} blocks",
        t.order(),
        t.block_size(),
        t.num_blocks()
    );
    let _ = writeln!(out, "‖T‖_inf = {:.6e}", t.norm_inf());
    if t.order() <= 512 {
        if let Ok(ev) = bs_matrix::eig::sym_eigenvalues(&t.to_dense()) {
            let lo = ev.first().copied().unwrap_or(0.0);
            let hi = ev.last().copied().unwrap_or(0.0);
            let _ = writeln!(out, "spectrum: [{lo:.6e}, {hi:.6e}]");
            if lo > 0.0 {
                let _ = writeln!(out, "cond_2 = {:.6e}", hi / lo);
            }
        }
    }
    match Factor::new(&t) {
        Ok(s) => {
            let (pos, neg) = s.inertia();
            let (sign, ln) = s.det_sign_ln();
            let _ = writeln!(out, "positive definite: {}", s.is_positive_definite());
            let _ = writeln!(out, "inertia: {pos}+ / {neg}-");
            let _ = writeln!(out, "det: sign {sign:+.0}, ln|det| = {ln:.6}");
            if let Factorization::Indefinite(f) = s.factorization() {
                let _ = writeln!(
                    out,
                    "perturbations: {}, exchanges: {}",
                    f.perturbations.len(),
                    f.exchanges
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "factorization failed: {e}");
        }
    }
    Ok(out)
}

/// Parse a `--threads` flag value: a positive count or `max`.
pub fn parse_threads_flag(s: &str) -> Result<usize, CliError> {
    bs_matrix::par::parse_threads(s)
        .ok_or_else(|| CliError::Usage(format!("bad --threads {s:?} (positive count or \"max\")")))
}

/// Parse a `--precision` flag value into a [`Precision`].
pub fn parse_precision_flag(s: &str) -> Result<Precision, CliError> {
    Precision::parse(s)
        .ok_or_else(|| CliError::Usage(format!("bad --precision {s:?} (f64 | f32 | mixed)")))
}

/// Parse and apply a `--kernel` flag: force the process-wide BLAS-3
/// microkernel choice (overrides `BS_KERNEL`). An explicit ISA the
/// machine cannot run degrades to the portable kernel at dispatch.
pub fn apply_kernel_flag(s: &str) -> Result<(), CliError> {
    let c = bs_matrix::kernel::parse_choice(s).ok_or_else(|| {
        CliError::Usage(format!(
            "bad --kernel {s:?} (portable | native | avx2 | avx512 | neon)"
        ))
    })?;
    bs_matrix::kernel::set_override(Some(c));
    Ok(())
}

/// Engine selection shared by `solve` / `factor` / `plan`: the pinned
/// algorithmic block size, the thread count, and the factor precision.
#[derive(Debug, Default, Clone)]
pub struct EngineArgs {
    pub block_size: Option<usize>,
    pub threads: Option<usize>,
    pub precision: Precision,
}

/// Build the factor `solve` / `factor` run. The default f64 engine
/// keeps the pinned-options plan (bitwise identical to prior
/// releases): the pinned block size plus the execution policy
/// (`--threads`, falling back to `BS_THREADS` / sequential via the
/// [`SchurOptions`] default). A `--precision` of f32 or mixed routes
/// through a [`PlanRequest`] so the plan carries the demoted factor
/// stage and its refinement policy.
fn build_solver(t: &SymBlockToeplitz, eng: &EngineArgs) -> Result<Factor, CliError> {
    let plan = if eng.precision == Precision::F64 {
        let mut spd = SchurOptions {
            block_size: eng.block_size,
            ..Default::default()
        };
        if let Some(threads) = eng.threads {
            spd.exec = ExecPolicy::with_threads(threads);
        }
        FactorPlan::from_options(t, &spd, &IndefOptions::default())
    } else {
        let req = PlanRequest {
            block_size: eng.block_size,
            threads: eng.threads,
            precision: eng.precision,
            ..Default::default()
        };
        FactorPlan::new(t, &req)
    };
    plan.and_then(|plan| Factor::from_plan(t, plan, RefineOptions::default()))
        .map_err(|e| CliError::Numerical(e.to_string()))
}

/// `solve` command: returns the solution (column-major when batched)
/// and a report.
pub fn cmd_solve(
    matrix: &Path,
    rhs: Option<&Path>,
    batch: bool,
    eng: &EngineArgs,
    obs: &Observe,
) -> Result<(Vec<f64>, String), CliError> {
    let t = read_matrix(matrix)?;
    let n = t.order();
    let b = if batch {
        let p = rhs.ok_or_else(|| {
            CliError::Usage("solve --batch needs --rhs <file> with k columns of n values".into())
        })?;
        read_rhs_columns(p, n)?
    } else {
        let col = match rhs {
            Some(p) => read_vector(p, n)?,
            None => t.matvec(&vec![1.0; n]), // reference RHS with x* = 1
        };
        Matrix::from_fn(n, 1, |i, _| col[i])
    };
    let k = b.cols();
    obs.begin();
    let start = std::time::Instant::now();
    let solver = build_solver(&t, eng)?;
    let x = if batch {
        solver.solve_batch(&b)
    } else {
        solver
            .solve(b.col(0))
            .map(|v| Matrix::from_fn(n, 1, |i, _| v[i]))
    }
    .map_err(|e| CliError::Numerical(e.to_string()))?;
    let secs = start.elapsed().as_secs_f64();
    // Worst relative residual over the batch (the single-RHS residual
    // when k = 1).
    let mut rel = 0.0f64;
    for j in 0..k {
        let r = t.residual(x.col(j), b.col(j));
        let c = bs_matrix::norms::vec_two(&r) / bs_matrix::norms::vec_two(b.col(j)).max(1e-300);
        rel = rel.max(c);
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "solved n = {n}{} in {:.3} ms ({} path, {} thread(s), {} kernel, {} precision), relative residual {rel:.3e}",
        if batch {
            format!(", {k} rhs (batched)")
        } else {
            String::new()
        },
        secs * 1e3,
        if solver.is_positive_definite() {
            "SPD"
        } else {
            "indefinite"
        },
        solver.plan().threads(),
        bs_matrix::kernel::active_isa_name(),
        eng.precision.as_str()
    );
    obs.finish(
        &mut report,
        Some(ObserveCtx {
            block_size: solver.plan().block_size(),
            threads: solver.plan().threads(),
        }),
    )?;
    let mut flat = Vec::with_capacity(n * k);
    for j in 0..k {
        flat.extend_from_slice(x.col(j));
    }
    Ok((flat, report))
}

/// `factor` command: factor only (no solve), reporting structure,
/// growth, and — with [`Observe`] switches — trace/metrics output.
pub fn cmd_factor(matrix: &Path, eng: &EngineArgs, obs: &Observe) -> Result<String, CliError> {
    let t = read_matrix(matrix)?;
    obs.begin();
    let start = std::time::Instant::now();
    let solver = build_solver(&t, eng)?;
    let secs = start.elapsed().as_secs_f64();
    let mut report = String::new();
    let (pos, neg) = solver.inertia();
    let _ = writeln!(
        report,
        "factored n = {} (m = {}) in {:.3} ms: {} path, {} thread(s), {} kernel, {} precision, inertia {pos}+ / {neg}-",
        t.order(),
        t.block_size(),
        secs * 1e3,
        if solver.is_positive_definite() {
            "SPD"
        } else {
            "indefinite"
        },
        solver.plan().threads(),
        bs_matrix::kernel::active_isa_name(),
        eng.precision.as_str()
    );
    if let Factorization::Indefinite(f) = solver.factorization() {
        let _ = writeln!(
            report,
            "perturbations: {}, exchanges: {}, max reflector norm {:.3e}",
            f.perturbations.len(),
            f.exchanges,
            f.max_reflector_norm
        );
    }
    obs.finish(
        &mut report,
        Some(ObserveCtx {
            block_size: solver.plan().block_size(),
            threads: solver.plan().threads(),
        }),
    )?;
    Ok(report)
}

/// `factor --dist` command: factor on the measured sharded backend —
/// `np` real rank threads under a T3D distribution scheme — and report
/// wall time, per-rank traffic, and the deviation from the sequential
/// factor. `--metrics` additionally surfaces the process-wide comm
/// counters (`comm_bytes`, `comm_messages`, `comm_recv_*`) and the
/// `comm_wait_ns` latency histogram through the usual probe export.
pub fn cmd_factor_dist(
    matrix: &Path,
    scheme: &str,
    np: usize,
    obs: &Observe,
) -> Result<String, CliError> {
    let t = read_matrix(matrix)?;
    let scheme = parse_scheme(scheme)?;
    scheme.validate(np).map_err(CliError::Usage)?;
    if let bs_simulator::Scheme::V3 { spread } = scheme {
        if !t.block_size().is_multiple_of(spread) {
            return Err(CliError::Usage(format!(
                "v3 spread {spread} must divide the block size m = {}",
                t.block_size()
            )));
        }
    }
    obs.begin();
    let opts = bs_simulator::ShardOptions::new(scheme, np);
    let run = bs_simulator::factor_sharded(&t, &opts);
    // Cross-check against the sequential engine: the sharded factor
    // must be the same matrix (§8 tolerance), whatever the scheme.
    let seq = bs_core::factor_spd(&t, &SchurOptions::default())
        .map_err(|e| CliError::Numerical(e.to_string()))?;
    let diff = run.r.max_abs_diff(&seq.r);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "factored n = {} (m = {}) on {np} rank(s), {}, VY2 representation: wall {:.3} ms",
        t.order(),
        t.block_size(),
        scheme.label(),
        run.wall_s * 1e3
    );
    let _ = writeln!(
        report,
        "max deviation from the sequential factor: {diff:.3e}"
    );
    let _ = writeln!(
        report,
        "comm volume: {} bytes across rank boundaries",
        run.comm_volume()
    );
    let _ = writeln!(report, "rank    wall ms   sent KiB   recv KiB    wait ms");
    for r in 0..np {
        let _ = writeln!(
            report,
            "{r:>4} {:>10.3} {:>10.1} {:>10.1} {:>10.3}",
            run.rank_wall_s[r] * 1e3,
            run.bytes_sent[r] as f64 / 1024.0,
            run.bytes_received[r] as f64 / 1024.0,
            run.comm_wait_s[r] * 1e3
        );
    }
    obs.finish(&mut report, None)?;
    Ok(report)
}

/// Parse a `--rep` flag value into a [`RepKind`].
fn parse_rep(s: &str) -> Result<RepKind, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "u" | "accumulated" => Ok(RepKind::Accumulated),
        "vy1" => Ok(RepKind::VY1),
        "vy2" => Ok(RepKind::VY2),
        "yty" => Ok(RepKind::YTY),
        "seq" | "sequential" => Ok(RepKind::Sequential),
        other => Err(CliError::Usage(format!(
            "unknown representation {other:?} (u | vy1 | vy2 | yty | seq)"
        ))),
    }
}

/// `plan` command: show the execution plan the solver would run for a
/// matrix (or a bare shape) — chosen representation, algorithmic block
/// size, and the cost-model predictions behind the choices — without
/// factoring anything.
pub fn cmd_plan(
    shape: (usize, usize),
    rep: Option<&str>,
    eng: &EngineArgs,
    calibrate: bool,
) -> Result<String, CliError> {
    let (n, m) = shape;
    let req = PlanRequest {
        rep: rep.map(parse_rep).transpose()?,
        block_size: eng.block_size,
        threads: eng.threads,
        precision: eng.precision,
        calibrate,
        ..Default::default()
    };
    let plan = FactorPlan::for_shape(n, m, &req).map_err(|e| CliError::Numerical(e.to_string()))?;
    let auto = |is_auto: bool| if is_auto { " (auto)" } else { " (pinned)" };
    let mut out = String::new();
    let _ = writeln!(out, "plan for n = {n}, structural block size m = {m}:");
    let _ = writeln!(
        out,
        "  representation: {}{}",
        plan.rep(),
        auto(plan.rep_is_auto())
    );
    let _ = writeln!(
        out,
        "  block size m_s = {}{}, p = {} block columns",
        plan.block_size(),
        auto(plan.block_size_is_auto()),
        plan.num_blocks()
    );
    let _ = writeln!(
        out,
        "  execution: {} thread(s){} for the trailing update",
        plan.threads(),
        auto(plan.threads_is_auto())
    );
    let _ = writeln!(
        out,
        "  precision: {}{}",
        plan.precision().as_str(),
        match plan.precision() {
            Precision::F64 => "",
            Precision::F32 => " (demoted factor, no refinement)",
            Precision::Mixed => " (f32 factor + f64 iterative refinement)",
        }
    );
    let _ = writeln!(
        out,
        "  kernel: {} microkernels, {} rate model",
        plan.kernel_isa(),
        if plan.is_calibrated() {
            "measured (calibrated)"
        } else {
            "analytic"
        }
    );
    let _ = writeln!(
        out,
        "  predicted elimination flops: {:.4e} (eqs. 25-32 over {} steps)",
        plan.predicted_flops(),
        plan.num_blocks().saturating_sub(1)
    );
    let _ = writeln!(
        out,
        "  predicted broadcast volume: {} words/step (§7)",
        plan.predicted_comm_words()
    );
    let _ = writeln!(
        out,
        "  fallback: indefinite kernel, delta = {:.6e}",
        plan.indefinite_options().effective_delta()
    );
    Ok(out)
}

/// `gen` command: write a synthetic workload matrix.
pub fn cmd_gen(
    kind: &str,
    n: usize,
    m: usize,
    rho: f64,
    seed: u64,
    out: &Path,
) -> Result<String, CliError> {
    if m == 0 || n == 0 || !n.is_multiple_of(m) {
        return Err(CliError::Usage(format!("m = {m} must divide n = {n}")));
    }
    let p = n / m;
    let t = match kind {
        "kms" => {
            if m != 1 {
                return Err(CliError::Usage("kms is a scalar workload (m = 1)".into()));
            }
            workloads::kms(n, rho)
        }
        "spd" => workloads::spd_ar1_block(m, p, rho.clamp(0.0, 0.99), seed),
        "spd-scalar" => {
            if m != 1 {
                return Err(CliError::Usage("spd-scalar needs m = 1".into()));
            }
            workloads::random_spd_scalar(n, seed)
        }
        "indefinite" => {
            if m != 1 {
                return Err(CliError::Usage("indefinite needs m = 1".into()));
            }
            workloads::random_indefinite_scalar(n, seed)
        }
        "singular-minor" => {
            if m != 1 {
                return Err(CliError::Usage("singular-minor needs m = 1".into()));
            }
            workloads::singular_minor_scalar(n, seed)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown kind {other:?} (kms | spd | spd-scalar | indefinite | singular-minor)"
            )))
        }
    };
    write_matrix(&t, out)?;
    Ok(format!(
        "wrote {kind} workload (n = {n}, m = {m}) to {}",
        out.display()
    ))
}

/// `simulate` command: one T3D data-distribution row.
pub fn cmd_simulate(n: usize, m: usize, np: usize, scheme: &str) -> Result<String, CliError> {
    use bs_simulator::analytic::{simulate, SimConfig};
    let scheme = parse_scheme(scheme)?;
    scheme.validate(np).map_err(CliError::Usage)?;
    if m == 0 || !n.is_multiple_of(m) {
        return Err(CliError::Usage(format!("m = {m} must divide n = {n}")));
    }
    let r = simulate(
        &SimConfig {
            n,
            m,
            np,
            scheme,
            rep: bs_perfmodel::Rep::VY2,
        },
        &bs_simulator::T3DModel::default(),
    );
    Ok(format!(
        "{} on {np} PEs (n = {n}, m = {m}): total {:.3} ms  [shift {:.3}, panel {:.3}, bcast {:.3}, apply {:.3}, barrier {:.3}]",
        scheme.label(),
        r.total * 1e3,
        r.shift * 1e3,
        r.panel * 1e3,
        r.broadcast * 1e3,
        r.apply * 1e3,
        r.barrier * 1e3,
    ))
}

fn parse_scheme(s: &str) -> Result<bs_simulator::Scheme, CliError> {
    if s == "v1" {
        return Ok(bs_simulator::Scheme::V1);
    }
    if let Some(b) = s.strip_prefix("v2:") {
        let b: usize = b
            .parse()
            .map_err(|_| CliError::Usage(format!("bad v2 group size in {s:?}")))?;
        return Ok(bs_simulator::Scheme::V2 { b });
    }
    if let Some(sp) = s.strip_prefix("v3:") {
        let sp: usize = sp
            .parse()
            .map_err(|_| CliError::Usage(format!("bad v3 spread in {s:?}")))?;
        return Ok(bs_simulator::Scheme::V3 { spread: sp });
    }
    Err(CliError::Usage(format!(
        "unknown scheme {s:?} (v1 | v2:<b> | v3:<spread>)"
    )))
}

/// `serve` command: run the multi-tenant front-end in the foreground
/// until a client sends the shutdown opcode (or the process is
/// signalled). Progress goes to stderr; the returned report is what
/// prints after shutdown.
pub fn cmd_serve(
    addr: Option<&str>,
    uds: Option<&Path>,
    cache: usize,
    inflight: usize,
) -> Result<String, CliError> {
    let server = bs_serve::Server::new(bs_serve::ServerConfig {
        cache_capacity: cache,
        max_inflight: inflight,
    });
    let handle = match (addr, uds) {
        (Some(_), Some(_)) => return Err(CliError::Usage("pass --addr or --uds, not both".into())),
        (None, None) => {
            return Err(CliError::Usage(
                "serve needs --addr <host:port> or --uds <path>".into(),
            ))
        }
        (Some(a), None) => server.serve_tcp(a).map_err(serve_to_cli)?,
        (None, Some(p)) => server.serve_uds(p).map_err(serve_to_cli)?,
    };
    let endpoint = handle.endpoint().clone();
    eprintln!(
        "block-schur serving on {endpoint} (cache capacity {cache}, max in-flight {inflight})"
    );
    handle.wait();
    Ok(format!("server on {endpoint} shut down\n"))
}

fn serve_to_cli(e: bs_serve::ServeError) -> CliError {
    match e {
        bs_serve::ServeError::Io(io) => CliError::Io(io),
        other => CliError::Usage(other.to_string()),
    }
}

/// Usage text for the binary.
pub const USAGE: &str = "block-schur — block Schur Toeplitz solver (ICPP'94 reproduction)

USAGE:
    block-schur info <matrix>
    block-schur solve <matrix> [--rhs <file>] [--batch] [--block-size <m_s>]
                     [--threads <t|max>] [--kernel <k>] [--precision <p>]
                     [--output <file>] [--trace <file>]
                     [--profile <file>] [--perfetto <file>] [--metrics]
    block-schur factor <matrix> [--block-size <m_s>] [--threads <t|max>]
                     [--kernel <k>] [--precision <p>] [--trace <file>]
                     [--profile <file>] [--perfetto <file>] [--metrics]
                     [--dist <v1|v2:b|v3:s> --np <ranks>]
    block-schur plan (<matrix> | --n <n> [--m <m>]) [--rep <kind>] [--block-size <m_s>]
                     [--threads <t|max>] [--kernel <k>] [--precision <p>] [--calibrate]
    block-schur gen <kind> --n <n> [--m <m>] [--rho <r>] [--seed <s>] --output <file>
    block-schur simulate --n <n> --m <m> --np <p> --scheme <v1|v2:b|v3:s>
    block-schur serve (--addr <host:port> | --uds <path>) [--cache <n>] [--inflight <n>]

EXECUTION:
    --threads <t|max>  worker threads for the trailing-update strips
                       (\"max\" = all cores). Default: BS_THREADS when
                       set, else the cost model picks per plan. Any
                       thread count produces bitwise-identical factors.
    --kernel <k>       BLAS-3 microkernel ISA: portable | native | avx2
                       | avx512 | neon. Default: BS_KERNEL when set,
                       else native runtime detection; an ISA the machine
                       cannot run falls back to portable. A fixed choice
                       is bitwise-deterministic across thread counts.
    --precision <p>    factor precision: f64 | f32 | mixed. \"mixed\"
                       factors in f32 (twice the SIMD lanes) and runs
                       §8.1 iterative refinement against the f64
                       operator back to working accuracy, falling back
                       to a full f64 refactorization when refinement
                       stalls on ill-conditioned systems. \"f32\" skips
                       refinement and keeps single-precision accuracy.
                       Default: f64.
    --batch            (solve) treat --rhs as k columns of n values and
                       solve them in one pooled dispatch (bitwise equal
                       to k sequential solves at any thread count).
    --calibrate        (plan) score block-size / thread auto-selection
                       on a one-shot measured kernel-rate table instead
                       of the analytic saturating model. BS_CALIBRATE=1
                       enables the same process-wide.

OBSERVABILITY:
    --trace <file>    write a JSON-lines trace: spans with ns timestamps,
                      per-step flop deltas and growth factors, residual
                      history, latency histograms, and counter totals
    --profile <file>  write a folded-stack profile (self time per call
                      path) — feed to flamegraph.pl / inferno / speedscope
    --perfetto <file> write a Chrome trace-event JSON timeline — open in
                      ui.perfetto.dev or chrome://tracing
    --metrics         append counter totals, the stability summary,
                      latency quantiles (p50/p90/p99/p999 per solve,
                      factor step, pool dispatch, kernel call), and the
                      roofline report (achieved vs calibrated Gflop/s
                      per phase, strip_efficiency, dispatch_overhead_ns)
                      to the report. A saturated trace ring is warned
                      about, never silently truncated.

PLAN: prints the configuration the plan/execute engine would run —
      representation and algorithmic block size (cost-model-chosen
      unless pinned with --rep / --block-size) with predicted flops.
      REPS: u | vy1 | vy2 | yty | seq

SERVE: long-lived multi-tenant front-end over a length-prefixed binary
       protocol (TCP or Unix socket). Factors are cached per operator
       fingerprint with LRU eviction and single-flight factorization;
       --cache <n> Ready factors held (default 16), --inflight <n>
       concurrent solves before load-shedding (default 64). Runs until
       a client sends the shutdown opcode.

DIST:  factor --dist runs the factorization on the measured sharded
       backend: --np real rank threads exchanging generator shards
       through channels under a T3D data distribution (v1 cyclic,
       v2:<b> block-cyclic, v3:<spread> column-split). The report has
       measured wall time, per-rank sent/received bytes and blocked
       time, and the max deviation from the sequential factor;
       --metrics adds the comm counters (comm_bytes, comm_messages,
       comm_recv_bytes, comm_recv_messages) and the comm_wait_ns
       latency histogram.

KINDS: kms | spd | spd-scalar | indefinite | singular-minor
MATRIX FILE: `m p` header then the m*m*p values of the first block row.";

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bschur-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn matrix_round_trip() {
        let t = workloads::random_spd_block(2, 5, 42);
        let path = tmp("roundtrip.txt");
        write_matrix(&t, &path).unwrap();
        let t2 = read_matrix(&path).unwrap();
        assert_eq!(t2.block_size(), 2);
        assert_eq!(t2.num_blocks(), 5);
        assert!(t2.to_dense().max_abs_diff(&t.to_dense()) < 1e-15);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gen_info_solve_pipeline() {
        let mat = tmp("pipeline.txt");
        let msg = cmd_gen("singular-minor", 24, 1, 0.0, 7, &mat).unwrap();
        assert!(msg.contains("singular-minor"));

        let info = cmd_info(&mat).unwrap();
        assert!(info.contains("n = 24"), "{info}");
        assert!(info.contains("spectrum:"), "{info}");
        assert!(info.contains("positive definite: false"), "{info}");
        assert!(info.contains("perturbations: 1"), "{info}");

        let (x, report) = cmd_solve(
            &mat,
            None,
            false,
            &EngineArgs::default(),
            &Observe::default(),
        )
        .unwrap();
        assert!(report.contains("indefinite"), "{report}");
        assert!(report.contains("f64 precision"), "{report}");
        // Default RHS has x* = 1.
        for v in &x {
            assert!((v - 1.0).abs() < 1e-8);
        }
        std::fs::remove_file(&mat).ok();
    }

    #[test]
    fn serve_round_trips_and_shuts_down() {
        let sock = tmp("serve.sock");
        let sock2 = sock.clone();
        let server = std::thread::spawn(move || cmd_serve(None, Some(&sock2), 4, 8).unwrap());
        for _ in 0..400 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut client = bs_serve::Client::connect_uds(&sock).unwrap();
        let t = workloads::random_spd_scalar(16, 6);
        let b = bs_matrix::Matrix::from_fn(16, 2, |i, j| (i + 2 * j) as f64);
        let x = client.solve(&t, &b).unwrap();
        let want = bs_core::Factor::new(&t).unwrap().solve_batch(&b).unwrap();
        assert_eq!(x.as_slice(), want.as_slice());
        client.shutdown_server().unwrap();
        let report = server.join().unwrap();
        assert!(report.contains("shut down"), "{report}");
        assert!(!sock.exists(), "socket file removed after shutdown");
    }

    #[test]
    fn serve_rejects_conflicting_transports() {
        assert!(matches!(
            cmd_serve(Some("127.0.0.1:0"), Some(Path::new("/tmp/x")), 1, 1),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve(None, None, 1, 1),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn solve_with_explicit_rhs_and_block_size() {
        let mat = tmp("spd.txt");
        cmd_gen("spd-scalar", 32, 1, 0.0, 3, &mat).unwrap();
        let t = read_matrix(&mat).unwrap();
        let x_true: Vec<f64> = (0..32).map(|i| i as f64 - 16.0).collect();
        let b = t.matvec(&x_true);
        let rhs = tmp("rhs.txt");
        let text: String = b.iter().map(|v| format!("{v:.17e}\n")).collect();
        std::fs::write(&rhs, text).unwrap();
        let eng = EngineArgs {
            block_size: Some(4),
            ..Default::default()
        };
        let (x, report) =
            cmd_solve(&mat, Some(rhs.as_path()), false, &eng, &Observe::default()).unwrap();
        assert!(report.contains("SPD"), "{report}");
        for i in 0..32 {
            assert!((x[i] - x_true[i]).abs() < 1e-8);
        }
        std::fs::remove_file(&mat).ok();
        std::fs::remove_file(&rhs).ok();
    }

    #[test]
    fn solve_with_mixed_precision_refines_to_working_accuracy() {
        let mat = tmp("mixed.txt");
        cmd_gen("kms", 48, 1, 0.9, 0, &mat).unwrap();
        let eng = EngineArgs {
            precision: Precision::Mixed,
            ..Default::default()
        };
        let (x, report) = cmd_solve(&mat, None, false, &eng, &Observe::default()).unwrap();
        assert!(report.contains("mixed precision"), "{report}");
        // Default RHS has x* = 1; refinement lands at working accuracy.
        for v in &x {
            assert!((v - 1.0).abs() < 1e-8, "{report}");
        }
        std::fs::remove_file(&mat).ok();
    }

    #[test]
    fn solve_batch_handles_multi_column_rhs() {
        let mat = tmp("batch.txt");
        cmd_gen("spd", 32, 2, 0.6, 9, &mat).unwrap();
        let t = read_matrix(&mat).unwrap();
        let n = t.order();
        // Three RHS columns with known solutions 1, 2, 3.
        let mut text = String::new();
        for s in 1..=3 {
            for v in t.matvec(&vec![s as f64; n]) {
                text.push_str(&format!("{v:.17e}\n"));
            }
        }
        let rhs = tmp("batch-rhs.txt");
        std::fs::write(&rhs, text).unwrap();
        let (x, report) = cmd_solve(
            &mat,
            Some(rhs.as_path()),
            true,
            &EngineArgs::default(),
            &Observe::default(),
        )
        .unwrap();
        assert!(report.contains("3 rhs (batched)"), "{report}");
        assert_eq!(x.len(), 3 * n);
        for (j, chunk) in x.chunks(n).enumerate() {
            for v in chunk {
                assert!((v - (j + 1) as f64).abs() < 1e-8, "{report}");
            }
        }
        // --batch without --rhs is a usage error; a ragged file is a
        // parse error.
        assert!(matches!(
            cmd_solve(
                &mat,
                None,
                true,
                &EngineArgs::default(),
                &Observe::default()
            ),
            Err(CliError::Usage(_))
        ));
        std::fs::write(&rhs, "1.0 2.0 3.0\n").unwrap();
        assert!(matches!(
            cmd_solve(
                &mat,
                Some(rhs.as_path()),
                true,
                &EngineArgs::default(),
                &Observe::default()
            ),
            Err(CliError::Parse(_))
        ));
        std::fs::remove_file(&mat).ok();
        std::fs::remove_file(&rhs).ok();
    }

    #[test]
    fn solve_with_trace_emits_valid_jsonl() {
        let mat = tmp("traced.txt");
        cmd_gen("spd-scalar", 48, 1, 0.0, 11, &mat).unwrap();
        let trace = tmp("trace.jsonl");
        let obs = Observe {
            trace: Some(trace.clone()),
            metrics: true,
            ..Default::default()
        };
        let eng = EngineArgs {
            block_size: Some(4),
            ..Default::default()
        };
        let (_, report) = cmd_solve(&mat, None, false, &eng, &obs).unwrap();
        assert!(report.contains("metrics:"), "{report}");
        assert!(report.contains("peak growth factor:"), "{report}");
        assert!(report.contains("trace written to"), "{report}");

        let text = std::fs::read_to_string(&trace).unwrap();
        let mut saw_step_flops = false;
        let mut saw_growth = false;
        for line in text.lines() {
            let v = bs_probe::Json::parse(line).expect("every trace line is valid JSON");
            match v.get("type").and_then(|t| t.as_str()) {
                Some("span")
                    if v.get("name").and_then(|n| n.as_str()) == Some("schur_step_done") =>
                {
                    let fields = v.get("fields").unwrap();
                    saw_step_flops |= fields.get("flops").is_some();
                }
                Some("step") => {
                    saw_growth |= v.get("growth").and_then(|g| g.as_f64()).is_some();
                }
                _ => {}
            }
        }
        assert!(saw_step_flops, "trace lacks per-step flop counts:\n{text}");
        assert!(saw_growth, "trace lacks per-step growth factors:\n{text}");
        std::fs::remove_file(&mat).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn factor_command_reports_structure() {
        let mat = tmp("factor.txt");
        cmd_gen("singular-minor", 24, 1, 0.0, 7, &mat).unwrap();
        let report = cmd_factor(&mat, &EngineArgs::default(), &Observe::default()).unwrap();
        assert!(report.contains("indefinite"), "{report}");
        assert!(report.contains("perturbations: 1"), "{report}");
        std::fs::remove_file(&mat).ok();
    }

    #[test]
    fn plan_command_reports_choices() {
        // Fully automatic: n = 256, m = 4 retiles to m_s = 8 (p = 32),
        // where the trailing applications dominate and VY2 wins.
        let out = cmd_plan((256, 4), None, &EngineArgs::default(), false).unwrap();
        assert!(out.contains("plan for n = 256"), "{out}");
        assert!(out.contains("VY form 2 (auto)"), "{out}");
        assert!(out.contains("m_s = 8 (auto), p = 32"), "{out}");
        // Thread count may come from BS_THREADS (pinned) or the cost
        // model (auto); either way the line is reported.
        assert!(out.contains("thread(s)"), "{out}");
        assert!(out.contains("precision: f64"), "{out}");
        assert!(out.contains("microkernels, analytic rate model"), "{out}");
        assert!(out.contains("predicted elimination flops:"), "{out}");
        assert!(out.contains("words/step"), "{out}");
        assert!(out.contains("fallback: indefinite kernel"), "{out}");

        // Pinned representation and block size are echoed as such.
        let eng = EngineArgs {
            block_size: Some(4),
            threads: Some(3),
            ..Default::default()
        };
        let out = cmd_plan((32, 1), Some("yty"), &eng, false).unwrap();
        assert!(out.contains("(pinned)"), "{out}");
        assert!(out.contains("m_s = 4 (pinned), p = 8"), "{out}");
        assert!(out.contains("3 thread(s) (pinned)"), "{out}");

        // A mixed-precision request is carried through and described.
        let eng = EngineArgs {
            precision: Precision::Mixed,
            ..Default::default()
        };
        let out = cmd_plan((64, 2), None, &eng, false).unwrap();
        assert!(
            out.contains("precision: mixed (f32 factor + f64 iterative refinement)"),
            "{out}"
        );

        // Calibrated planning reports the measured-rate model and still
        // produces a structurally valid plan.
        let out = cmd_plan((64, 4), None, &EngineArgs::default(), true).unwrap();
        assert!(out.contains("measured (calibrated) rate model"), "{out}");

        // --threads parsing: counts and "max", junk rejected.
        assert_eq!(parse_threads_flag("2").unwrap(), 2);
        assert!(parse_threads_flag("max").unwrap() >= 1);
        assert!(parse_threads_flag("0").is_err());
        assert!(parse_threads_flag("lots").is_err());

        // --precision parsing mirrors Precision::parse.
        assert_eq!(parse_precision_flag("f32").unwrap(), Precision::F32);
        assert_eq!(parse_precision_flag("mixed").unwrap(), Precision::Mixed);
        assert!(parse_precision_flag("f16").is_err());

        // Bad inputs surface as CLI errors, not panics.
        assert!(matches!(
            cmd_plan((32, 1), Some("bogus"), &EngineArgs::default(), false),
            Err(CliError::Usage(_))
        ));
        let eng = EngineArgs {
            block_size: Some(5),
            ..Default::default()
        };
        assert!(matches!(
            cmd_plan((32, 1), None, &eng, false),
            Err(CliError::Numerical(_))
        ));
        assert!(matches!(
            apply_kernel_flag("bogus"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn factor_dist_runs_and_reports() {
        let mat = tmp("dist.txt");
        cmd_gen("spd", 32, 2, 0.5, 5, &mat).unwrap();
        let obs = Observe {
            metrics: true,
            ..Default::default()
        };
        let report = cmd_factor_dist(&mat, "v2:2", 2, &obs).unwrap();
        assert!(report.contains("V2(b=2)"), "{report}");
        assert!(report.contains("on 2 rank(s)"), "{report}");
        assert!(
            report.contains("max deviation from the sequential factor"),
            "{report}"
        );
        assert!(report.contains("comm volume:"), "{report}");
        // Satellite observability: counters and the wait histogram
        // surface through the standard --metrics export.
        assert!(report.contains("comm_recv_bytes"), "{report}");
        assert!(report.contains("comm wait latency"), "{report}");
        // Invalid configurations are usage errors, not panics.
        assert!(matches!(
            cmd_factor_dist(&mat, "v3:4", 4, &Observe::default()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_factor_dist(&mat, "v9", 2, &Observe::default()),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&mat).ok();
    }

    #[test]
    fn simulate_command_formats() {
        let out = cmd_simulate(1024, 4, 8, "v2:4").unwrap();
        assert!(out.contains("V2(b=4)"), "{out}");
        assert!(cmd_simulate(1024, 4, 8, "v9").is_err());
        assert!(cmd_simulate(1024, 3, 8, "v1").is_err());
        assert!(cmd_simulate(1024, 4, 6, "v3:4").is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        let p = tmp("bad.txt");
        std::fs::write(&p, "2 2\n1 0 0 1\n").unwrap(); // too few values
        assert!(matches!(read_matrix(&p), Err(CliError::Parse(_))));
        std::fs::write(&p, "0 2\n").unwrap();
        assert!(matches!(read_matrix(&p), Err(CliError::Parse(_))));
        std::fs::write(&p, "1 1\nnotanumber\n").unwrap();
        assert!(matches!(read_matrix(&p), Err(CliError::Parse(_))));
        std::fs::remove_file(&p).ok();
        assert!(cmd_gen("bogus", 8, 1, 0.0, 0, &tmp("x.txt")).is_err());
    }
}
