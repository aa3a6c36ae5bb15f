//! `schurbench` — the end-to-end benchmark of the block Schur stack.
//!
//! One process runs one workload from a seed (see `README.md` for why
//! each workload exists and which layers it loads):
//!
//! - [`workloads::factor_block`] — plan + factor + solve of a stream
//!   of distinct SPD block Toeplitz systems;
//! - [`workloads::refine_mix`] — factor once, solve many through the
//!   §8.1 refinement loop (mixed precision; the traced run adds a probe
//!   of the δ-perturbed singular-minor path);
//! - [`workloads::serve_mix`] — the operator-cache server on a Unix
//!   socket, hits, content hits and misses in fixed 16-request cycles;
//! - [`workloads::shard_np2`] — `factor_sharded` at NP = 2, timed from
//!   the caller.
//!
//! The [`runner`] sets a workload up several times, runs whole passes
//! over its operator pool for the requested time, verifies every
//! answer outside the timed intervals, and builds the [`report`]. With
//! tracing on, [`trace::Tracer`] records spans around the benchmark's
//! own calls into each module's public functions, and each workload
//! adds its side measurements as per-layer metrics.

pub mod cli;
pub mod host;
pub mod report;
pub mod runner;
pub mod seed;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;

/// Errors are messages: every failure ends the run with a non-zero exit
/// and no result line.
pub type Result<T> = std::result::Result<T, String>;
