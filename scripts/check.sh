#!/usr/bin/env bash
# Repo gate: formatting, lints, the audit layer, and the tiered test
# suite. Run from anywhere; operates on the workspace root.
#
# Opt-in knobs:
#   BS_SAN=thread|address  nightly sanitizer pass over the concurrency
#                          surface (needs rust-src for -Zbuild-std)
#   BS_BENCH_GATE=1|strict bench regression gate vs BENCH_schur.json
set -euo pipefail
cd "$(dirname "$0")/.."

# Every completed tier lands in this list; the summary line echoes it
# so CI logs show at a glance which gates actually ran.
TIERS=()

echo "==> cargo fmt --check"
cargo fmt --all -- --check
TIERS+=("fmt")

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings
TIERS+=("clippy")

echo "==> audit tier: bs-lint (lint.toml: unsafe-contract, atomics manifest, hot-path coverage)"
cargo run -q -p bs-lint
echo "==> audit tier: waiver honesty report (empty or copy-pasted justifications fail)"
cargo run -q -p bs-lint -- --waivers
echo "==> audit tier: bs-lint self-tests"
cargo test -q -p bs-lint
TIERS+=("audit")

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release
cargo test -q
TIERS+=("tier1")

echo "==> workspace crate tests"
cargo test -q --workspace
TIERS+=("workspace")

echo "==> execution tier: workspace tests under BS_THREADS=1 and BS_THREADS=max"
# SchurOptions::default() reads BS_THREADS, so these two runs push the
# whole suite through the forced-sequential and fully-pooled paths; the
# determinism contract says both must pass identically. A Schur step
# whose VY chunks all stream (k < 16) is one inline sweep unless the
# policy fans the trailing update out to the pool; bs-core's
# schur::tests::parallel_update_matches_sequential pins the two routes
# bit for bit on scalar input at m_s = 1, 2, 4, 8 and 2 or 5 threads.
BS_THREADS=1 cargo test -q --workspace
BS_THREADS=max cargo test -q --workspace
TIERS+=("exec")

echo "==> kernel tier: full workspace suite forced onto the portable microkernel"
# BS_KERNEL=portable pins the scalar microkernel: every test must pass
# with SIMD dispatch disabled (the fallback the engine degrades to on
# hardware without AVX2/NEON). The upper triangular solves
# (blas2::trsv_upper_t / trsv_upper) dispatch too: kernel::active_isa
# picks their AVX2 compile on AVX2/AVX-512F hosts, and this tier runs
# their baseline compile. Both compiles share one source with one fixed
# order and no FMA, so a solve's bits depend on the factor it reads,
# not on the tier; blas2's dispatch test
# (dispatched_solves_equal_the_baseline_compile_{f64,f32}) pins the
# public kernels to the baseline bodies and the written-out order.
BS_KERNEL=portable cargo test -q --workspace
TIERS+=("kernel")

echo "==> precision tier: refinement-convergence suite, then engine demoted to f32"
# The mixed-precision contract (§8.1): f32 factors + f64 refinement land
# within 10x of pure f64 across the conditioning sweep, with the stall
# fallback covering the ill-conditioned tail.
cargo test -q --test refinement
# BS_PRECISION=f32 forces every plan request onto the demoted f32 factor
# stage; the execution determinism contracts (batched == looped,
# thread-count invariance) and the env-override test must hold with the
# whole plan path running single precision. Tests pinning mixed/f64
# semantics skip themselves under the override.
BS_PRECISION=f32 cargo test -q --test refinement
BS_PRECISION=f32 cargo test -q --test execution
TIERS+=("precision")

echo "==> serve tier: serving-layer suite plus loopback load smoke"
# The multi-tenant front-end: cache semantics (single-flight, LRU,
# failed-build cleanup), wire-protocol round-trips, admission-control
# shedding, and the TCP/UDS loopback integration tests — then the
# open-loop load generator as a smoke run (4 clients hammering 2 hot
# operators; asserts exactly 2 factorizations, zero sheds, bitwise
# responses, and the warm-cache speedup floor).
cargo test -q -p bs-serve
cargo run -q -p bs-bench --release --bin serve_load -- --quick
TIERS+=("serve")

echo "==> dist tier: sharded executor on both clocks plus scheme cross-validation"
# The sharded executor: the integration suite covers shard-vs-sequential
# residuals at NP in {1,2,4} across V1/V2/V3 on the wall clock, the
# modeled-clock agreement tests (cost-model clock within 5% of the
# analytic engine for V1/V2, more ranks cut modeled time, YTY charges
# fewer broadcast bytes than VY), bitwise reproducibility, the bitwise
# pins of the one rank body (a one-rank shard of every scheme equals
# factor_spd; V3 on one group of `spread` ranks equals the engine's
# two-level panel with chunks of m/spread), and the distmem failure
# paths (poisoned barriers, recv-timeout diagnostics). The
# bs-simulator suite holds the shard's own tests: V1/V2/V3 against
# sequential on both clocks, and modeled V3 against the analytic
# engine. The quick dist_sweep run then measures the real multi-rank
# wall times and cross-checks every scheme against the sequential
# factor (perf floors self-waive on starved hosts).
cargo test -q --test integration_distributed
cargo test -q -p bs-simulator
cargo run -q -p bs-bench --release --bin dist_sweep -- --quick
TIERS+=("dist")

echo "==> benchmark tier: schurbench builds and passes its own tests"
# schurbench is a separate workspace with path dependencies on crates/*,
# so no other tier compiles it; an API change it relies on (e.g.
# ShardOptions for shard_np2) would otherwise first surface as every
# benchmark workload failing.
cargo test -q --release --manifest-path schurbench/Cargo.toml
TIERS+=("schurbench")

echo "==> kernel tier: avx512 feature build (runtime-gated microkernel)"
cargo test -q -p bs-matrix --features avx512
TIERS+=("avx512")

echo "==> paranoid tier: invariant contracts enabled"
cargo test -q -p bs-core --features paranoid
TIERS+=("paranoid")

echo "==> miri tier: designated core suite under the interpreter"
# The cfg(miri) shims (portable kernel dispatch, no-op FTZ scope,
# default cache sizes) keep the algorithm paths interpretable; the
# designated suite is crates/core/tests/miri_smoke.rs. Skips cleanly
# where the nightly miri component is not installed (offline images).
if cargo +nightly miri --version >/dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo +nightly miri test -q -p bs-core --test miri_smoke
  TIERS+=("miri")
else
  echo "    (cargo +nightly miri not available — skipping)"
  TIERS+=("miri[skipped]")
fi

# Sanitizer tier — strictly opt-in: needs nightly plus the rust-src
# component so std itself is instrumented (-Zbuild-std), neither of
# which offline images carry. BS_SAN=thread exercises the worker pool's
# claim/barrier protocol; BS_SAN=address the packing and arena paths.
case "${BS_SAN:-off}" in
  thread | address)
    echo "==> sanitizer tier: ${BS_SAN} (nightly + rust-src)"
    san_target="$(rustc -vV | sed -n 's/^host: //p')"
    RUSTFLAGS="-Zsanitizer=${BS_SAN}" \
      cargo +nightly test -q -Zbuild-std -p bs-matrix --target "${san_target}"
    TIERS+=("san:${BS_SAN}")
    ;;
  off) ;;
  *)
    echo "check.sh: unknown BS_SAN='${BS_SAN}' (expected thread|address)" >&2
    exit 2
    ;;
esac

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
TIERS+=("doc")

echo "==> cross_validate smoke run"
cargo run -q -p bs-bench --release --bin cross_validate -- --quick
TIERS+=("xval")

echo "==> profile tier: disabled-instrumentation overhead contract (<2%)"
cargo run -q -p bs-bench --release --bin profile_overhead -- --quick
TIERS+=("profile")

# Bench regression gate — opt-in because it re-runs the full (non-quick)
# reproduce_all sweep. BS_BENCH_GATE=1 diffs fresh @@BENCH records
# against the committed BENCH_schur.json and writes BENCH_regressions.json
# in report-only mode; BS_BENCH_GATE=strict makes drift fail the gate.
# BS_BENCH_OUT keeps the fresh report out of the committed baseline.
if [[ "${BS_BENCH_GATE:-0}" != "0" ]]; then
  echo "==> profile tier: bench regression gate vs committed BENCH_schur.json"
  BS_BENCH_OUT=target/BENCH_current.json \
    cargo run -q -p bs-bench --release --bin reproduce_all
  TIERS+=("bench-gate")
fi

echo "check.sh: all green — tiers: ${TIERS[*]}"
