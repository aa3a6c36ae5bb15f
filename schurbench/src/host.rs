//! What a result records about the machine and the kernel engine.

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`) in MB, read from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> crate::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// CPU time the hypervisor stole so far and total CPU time, in clock
/// ticks summed over CPUs, from the `cpu` line of `/proc/stat`; `None`
/// where the file or the field is missing.
pub fn steal_and_total_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// One line naming the kernel ISA, the packed-GEMM blocking, the CPU
/// count and the seed of a run.
pub fn describe(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let b = bs_matrix::kernel::tuning::blocking();
    format!(
        "# schurbench workload={workload} seed={seed} seconds={seconds} trace={} \
         kernel_isa={} mc={} kc={} nc={} nproc={}",
        u8::from(trace),
        bs_matrix::kernel::active_isa_name(),
        b.mc,
        b.kc,
        b.nc,
        nproc()
    )
}
