//! The kernel engine: runtime-dispatched SIMD microkernels for the
//! `MR x NR` GEMM register tile, plus the cache-aware blocking
//! parameters and the one-shot throughput calibration that feed the
//! `bs-perfmodel` cost model.
//!
//! The paper's performance claim rests on the block algorithm being
//! "rich in level-3 BLAS" — and on those BLAS kernels actually running
//! near machine speed (its Y-MP analysis even trades *extra* flops for
//! kernel rate, §6.5). This module makes that real on a modern CPU:
//!
//! - `portable` — the always-available scalar microkernel (the exact
//!   kernel the blocked `gemm` has always used; reference semantics).
//! - `x86` — AVX2+FMA, and (behind the `avx512` cargo feature)
//!   AVX-512F microkernels for `x86_64`.
//! - `neon` — NEON microkernel for `aarch64`.
//!
//! Hardware support is detected once per process
//! (`is_x86_feature_detected!`) and cached; the active kernel can be
//! forced with the `BS_KERNEL` environment variable
//! (`portable | native | avx2 | avx512 | neon`) or programmatically
//! with [`set_override`] (the CLI `--kernel` flag). An explicit ISA the
//! machine cannot run falls back to the portable kernel.
//!
//! Determinism contract: a *fixed* kernel choice computes every `C`
//! entry through a per-entry accumulation chain that is independent of
//! how columns are grouped into strips, so parallel results stay
//! bitwise identical to sequential ones at every thread count.
//! Different kernels may legitimately differ in the last bits (FMA
//! fuses the multiply-add the portable kernel rounds twice).

use crate::scalar::Scalar;
use crate::view::MatMut;
use bs_probe::metrics::Counter;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

pub mod calibrate;
pub(crate) mod pack;
pub(crate) mod portable;
pub mod tuning;

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// Microkernel register-tile height: rows of C per micro-tile.
pub const MR: usize = 8;
/// Microkernel register-tile width: columns of C per micro-tile.
pub const NR: usize = 4;

/// The microkernel contract: accumulate an `MR x NR` rank-`kc` product
/// from packed panels into `C[ci.., cj..]`, honouring the `mr`/`nr`
/// edge extents. `unsafe` because the SIMD variants require their ISA
/// to be present; [`Kernel`] construction guarantees it.
// SAFETY: [isa values of this type are produced only by `kernel_for`,
// which verifies the ISA is runtime-supported before handing out a
// SIMD fn] [bounds every implementation reaches its packed panels and
// the output tile through bounds-checked slice indexing]
pub type MicroFn<T> = unsafe fn(&[T], &[T], usize, MatMut<'_, T>, usize, usize, usize, usize);

/// Instruction set a microkernel is compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Scalar Rust, compiled for the baseline target — runs anywhere.
    Portable,
    /// AVX2 + FMA (`x86_64`).
    Avx2,
    /// AVX-512F (`x86_64`, `avx512` cargo feature).
    Avx512,
    /// NEON (`aarch64`).
    Neon,
}

impl Isa {
    /// Stable lowercase name (CLI reports, metrics, bench records).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// The per-ISA flop counter this kernel charges.
    pub fn flops_counter(self) -> Counter {
        match self {
            Isa::Portable => Counter::KernelFlopsPortable,
            Isa::Avx2 => Counter::KernelFlopsAvx2,
            Isa::Avx512 => Counter::KernelFlopsAvx512,
            Isa::Neon => Counter::KernelFlopsNeon,
        }
    }

    /// The per-ISA wall-time counter this kernel charges.
    pub fn nanos_counter(self) -> Counter {
        match self {
            Isa::Portable => Counter::KernelNanosPortable,
            Isa::Avx2 => Counter::KernelNanosAvx2,
            Isa::Avx512 => Counter::KernelNanosAvx512,
            Isa::Neon => Counter::KernelNanosNeon,
        }
    }
}

/// A user-facing kernel request: either a concrete ISA or `native`
/// ("best the hardware supports").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    Portable,
    Native,
    Avx2,
    Avx512,
    Neon,
}

/// Parse a `BS_KERNEL` / `--kernel` value. Case-insensitive; `None`
/// for anything unrecognized.
pub fn parse_choice(s: &str) -> Option<Choice> {
    match s.to_ascii_lowercase().as_str() {
        "portable" | "scalar" => Some(Choice::Portable),
        "native" | "auto" => Some(Choice::Native),
        "avx2" => Some(Choice::Avx2),
        "avx512" => Some(Choice::Avx512),
        "neon" => Some(Choice::Neon),
        _ => None,
    }
}

/// Best SIMD ISA the running machine supports among those compiled in.
/// Detected once per process and cached.
pub fn native_isa() -> Isa {
    static NATIVE: OnceLock<Isa> = OnceLock::new();
    *NATIVE.get_or_init(detect_native)
}

// Under Miri there is no point (and no soundness story) in running
// `#[target_feature]` kernels, so detection lands on the portable
// kernel and `cargo miri test` exercises the reference path.
fn detect_native() -> Isa {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        #[cfg(feature = "avx512")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2;
        }
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Isa::Neon;
        }
    }
    Isa::Portable
}

/// `true` when the running machine can execute microkernels for `isa`
/// (compiled in *and* runtime-detected).
pub fn isa_supported(isa: Isa) -> bool {
    match isa {
        Isa::Portable => true,
        Isa::Avx2 => {
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(any(not(target_arch = "x86_64"), miri))]
            {
                false
            }
        }
        Isa::Avx512 => {
            #[cfg(all(target_arch = "x86_64", feature = "avx512", not(miri)))]
            {
                std::arch::is_x86_feature_detected!("avx512f")
            }
            #[cfg(not(all(target_arch = "x86_64", feature = "avx512", not(miri))))]
            {
                false
            }
        }
        Isa::Neon => {
            #[cfg(all(target_arch = "aarch64", not(miri)))]
            {
                std::arch::is_aarch64_feature_detected!("neon")
            }
            #[cfg(any(not(target_arch = "aarch64"), miri))]
            {
                false
            }
        }
    }
}

/// Resolve a request to a runnable ISA: `Native` picks the best
/// supported SIMD kernel, an explicit ISA the machine cannot run falls
/// back to `Portable`.
pub fn resolve_choice(c: Choice) -> Isa {
    let want = match c {
        Choice::Portable => return Isa::Portable,
        Choice::Native => return native_isa(),
        Choice::Avx2 => Isa::Avx2,
        Choice::Avx512 => Isa::Avx512,
        Choice::Neon => Isa::Neon,
    };
    if isa_supported(want) {
        want
    } else {
        Isa::Portable
    }
}

// Process-wide programmatic override (the CLI `--kernel` flag and the
// bench harness set it). 0 = none; otherwise Choice discriminant + 1.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn choice_to_code(c: Choice) -> u8 {
    match c {
        Choice::Portable => 1,
        Choice::Native => 2,
        Choice::Avx2 => 3,
        Choice::Avx512 => 4,
        Choice::Neon => 5,
    }
}

fn code_to_choice(code: u8) -> Option<Choice> {
    match code {
        1 => Some(Choice::Portable),
        2 => Some(Choice::Native),
        3 => Some(Choice::Avx2),
        4 => Some(Choice::Avx512),
        5 => Some(Choice::Neon),
        _ => None,
    }
}

/// Force (or with `None`, release) the process-wide kernel choice.
/// Takes precedence over `BS_KERNEL`. Each BLAS-3 driver call resolves
/// the kernel once on entry, so a concurrent change never mixes
/// kernels within one multiply.
pub fn set_override(c: Option<Choice>) {
    OVERRIDE.store(c.map_or(0, choice_to_code), Ordering::Relaxed);
}

/// The `BS_KERNEL` environment request, parsed once per process.
/// Unrecognized values behave as unset (the CLI validates `--kernel`
/// before it gets here).
fn env_choice() -> Option<Choice> {
    static ENV: OnceLock<Option<Choice>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("BS_KERNEL")
            .ok()
            .and_then(|v| parse_choice(&v))
    })
}

/// A dispatched kernel: the resolved ISA plus its microkernel at one
/// precision. `Copy` so drivers resolve once and hand the same kernel
/// to every strip.
#[derive(Clone, Copy)]
pub struct Kernel<T: Scalar = f64> {
    isa: Isa,
    pub(crate) micro: MicroFn<T>,
    pub(crate) rows: usize,
}

impl<T: Scalar> std::fmt::Debug for Kernel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("isa", &self.isa)
            .field("scalar", &T::NAME)
            .finish()
    }
}

impl<T: Scalar> Kernel<T> {
    /// The ISA this kernel executes.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Rows of `C` one microkernel call covers — the macrokernel's `ir`
    /// stride. `MR` for every kernel except the f32 AVX2 one, which
    /// spans two adjacent packed panels (`2 * MR` rows) to double its
    /// accumulator chains. Always a multiple of `MR`, so the packed
    /// panel layout is shared by every kernel.
    pub fn micro_rows(&self) -> usize {
        self.rows
    }
}

/// The f64 microkernel table for a *supported* ISA (callers degrade
/// unsupported requests first).
pub(crate) fn micro_for_f64(isa: Isa) -> MicroFn<f64> {
    match isa {
        Isa::Portable => portable::micro_8x4::<f64>,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => x86::micro_8x4_avx2,
        #[cfg(all(target_arch = "x86_64", feature = "avx512"))]
        Isa::Avx512 => x86::micro_8x4_avx512,
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::micro_8x4_neon,
        // ISAs compiled out are never "supported" above.
        #[allow(unreachable_patterns)]
        _ => portable::micro_8x4::<f64>,
    }
}

/// The f32 microkernel table. With `MR = 8`, one 256-bit register holds
/// a full f32 column tile, so the AVX2 kernel covers a double-height
/// `2*MR x NR` tile (two adjacent packed panels) — the f64 kernel's
/// accumulator structure at twice the rows per register, and the
/// ≥1.5x Gflop/s the mixed-precision pipeline banks on. AVX-512F uses
/// the same 256-bit kernel (a 512-bit register would cover two column
/// tiles; the double-height tile gets the chains without a new path).
pub(crate) fn micro_for_f32(isa: Isa) -> MicroFn<f32> {
    match isa {
        Isa::Portable => portable::micro_8x4::<f32>,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => x86::micro_16x4_avx2_f32,
        #[cfg(all(target_arch = "x86_64", feature = "avx512"))]
        Isa::Avx512 => x86::micro_16x4_avx2_f32,
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::micro_8x4_neon_f32,
        #[allow(unreachable_patterns)]
        _ => portable::micro_8x4::<f32>,
    }
}

/// Rows per f32 microkernel call (the macrokernel's `ir` stride): the
/// AVX2/AVX-512F dispatch runs the double-height 16-row tile; every
/// other ISA covers `MR` rows.
pub(crate) fn micro_rows_f32(isa: Isa) -> usize {
    let _ = isa;
    #[cfg(target_arch = "x86_64")]
    if matches!(isa, Isa::Avx2 | Isa::Avx512) {
        return 2 * MR;
    }
    MR
}

/// The kernel for a concrete ISA. Callers must only pass supported
/// ISAs ([`resolve_choice`] guarantees this); an unsupported request
/// degrades to the portable kernel rather than faulting.
pub(crate) fn kernel_for<T: Scalar>(isa: Isa) -> Kernel<T> {
    let isa = if isa_supported(isa) {
        isa
    } else {
        Isa::Portable
    };
    Kernel {
        isa,
        micro: T::micro_for(isa),
        rows: T::micro_rows(isa),
    }
}

/// The ISA the BLAS-3 drivers and the upper triangular solves resolve
/// right now: [`set_override`] > `BS_KERNEL` > native detection.
pub fn active_isa() -> Isa {
    let choice = code_to_choice(OVERRIDE.load(Ordering::Relaxed))
        .or_else(env_choice)
        .unwrap_or(Choice::Native);
    resolve_choice(choice)
}

/// The kernel the BLAS-3 drivers dispatch to right now at precision
/// `T`: [`set_override`] > `BS_KERNEL` > native detection.
pub fn active<T: Scalar>() -> Kernel<T> {
    kernel_for(active_isa())
}

/// Name of the ISA [`active`] dispatches to (CLI reports, plans).
pub fn active_isa_name() -> &'static str {
    active_isa().name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_choice_accepts_known_names() {
        assert_eq!(parse_choice("portable"), Some(Choice::Portable));
        assert_eq!(parse_choice("NATIVE"), Some(Choice::Native));
        assert_eq!(parse_choice("avx2"), Some(Choice::Avx2));
        assert_eq!(parse_choice("avx512"), Some(Choice::Avx512));
        assert_eq!(parse_choice("neon"), Some(Choice::Neon));
        assert_eq!(parse_choice("bogus"), None);
        assert_eq!(parse_choice(""), None);
    }

    #[test]
    fn native_is_supported_and_resolution_is_total() {
        let native = native_isa();
        assert!(isa_supported(native), "detected ISA must be runnable");
        assert!(isa_supported(Isa::Portable));
        for c in [
            Choice::Portable,
            Choice::Native,
            Choice::Avx2,
            Choice::Avx512,
            Choice::Neon,
        ] {
            let isa = resolve_choice(c);
            assert!(isa_supported(isa), "{c:?} resolved to unrunnable {isa:?}");
        }
        assert_eq!(resolve_choice(Choice::Portable), Isa::Portable);
    }

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(Isa::Portable.name(), "portable");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Avx512.name(), "avx512");
        assert_eq!(Isa::Neon.name(), "neon");
    }
}
