#![allow(clippy::needless_range_loop)]
// index-heavy numeric kernels read
// clearer with explicit indices when several parallel arrays are walked
// together; iterator-zip rewrites were measured to obscure, not improve.

//! Message-passing substrate with two transports: per-rank *virtual
//! clocks* for simulation and *wall-clock* timing for measured runs.
//!
//! The paper's distributed experiments ran on a Cray T3D with the shmem
//! library (§7.1.4). This crate is the stand-in: ranks are OS threads
//! connected by `std::sync::mpsc` channels, exposing the primitives the
//! distributed Schur algorithm needs — `send`/`recv`, `broadcast`,
//! `barrier` — with the *data movement executed for real* (results are
//! bit-checked against sequential runs) while *time* is tracked either
//! by a per-rank virtual clock advanced through a pluggable
//! [`CostModel`] ([`World::run`]) or by the machine's real clock
//! ([`World::run_wall`]). The sharded executor in `bs-simulator` runs
//! one rank body on either transport.
//!
//! The timing rules are the classical LogP-flavoured ones:
//!
//! - `compute(flops, primitive)` advances the local clock by the model's
//!   execution time for that primitive (the model may rate BLAS1/2/3
//!   differently and account for cache-line effects — that is how the
//!   T3D model reproduces Fig. 9);
//! - a message departs at the sender's clock and arrives at
//!   `depart + p2p_time(bytes)`; `recv` advances the receiver to at
//!   least the arrival time;
//! - `barrier` synchronizes every clock to the maximum plus the model's
//!   barrier cost (the paper's explicit "compute/communicate paradigm
//!   with barrier synchronization", §7.1);
//! - `broadcast` costs `broadcast_time(bytes, np)` on every participant.

pub mod comm;
pub mod cost;

pub use comm::{Proc, WallOpts, World};
pub use cost::{CostModel, Primitive, UniformCost, ZeroCost};
