//! The sharded executor of the block Schur algorithm: the paper's
//! three T3D distributions (§7.1) run on real rank threads over the
//! `bs-distmem` runtime, on either of two clocks.
//!
//! Every rank is a dedicated OS thread owning a packed shard of the
//! generator, blocks crossing ownership boundaries travel through real
//! channels, and the trailing update runs through the SIMD kernel
//! engine (one [`BlockReflector::apply`] per pivot chunk over the
//! rank's packed trailing suffix). [`ShardOptions::clock`] picks how
//! time is kept:
//!
//! - [`Clock::Wall`] (the default) measures. The ranks run under
//!   [`World::run_wall`] and [`ShardRun::wall_s`] is elapsed
//!   wall-clock seconds.
//! - [`Clock::Model`] predicts. The ranks run under [`World::run`], and
//!   at each phase boundary they charge the cost model the paper's
//!   per-phase quantities: each pivot chunk owner's share of the
//!   blocking flops, each rank's application flops over its trailing
//!   blocks, and the panel broadcast at the representation's wire
//!   size. [`ShardRun::wall_s`] is then the modeled machine's seconds,
//!   which the closed-form [`crate::analytic`] engine must reproduce.
//!
//! The charges are no-ops on the wall transport, so both clocks run one
//! message schedule and produce the same factor.
//!
//! ## One rank body
//!
//! All three distributions run one step (§7.1): shift, pivot-panel
//! broadcast, trailing update, barrier. Block column `j` belongs to the
//! `spread` ranks starting at `scheme.owner(j, np)`, each holding an
//! `mc = m/spread` column slice; V1 and V2 are the `spread = 1` case.
//! The pivot panel is factored in `spread` chunks, one per rank of the
//! pivot group — §6.2's two-level panel with its chunks on different
//! ranks (V3's pipelined panel, §7.1.3). Each chunk's owner broadcasts
//! its raw `2m × mc` slice and every rank factors it with the engine's
//! own [`bs_core::panel::factor_chunk`].
//!
//! ## Ownership map and packing
//!
//! A rank stores its block-column slices **packed, sorted ascending by
//! block index**, stacked upper-over-lower (`2m × owned·mc`).
//! Ascending order makes the active trailing set `{j ≥ s+1}` a
//! *contiguous column suffix* of the local shard at every step `s`, so
//! each chunk's trailing update is one level-3 reflector application
//! per rank — the shared-memory strip dispatch of §6 reproduced across
//! address-space shards.
//!
//! ## Determinism contract
//!
//! Every per-step message has a deterministic (source, tag, layout):
//! shifts batch ascending-`j` blocks into one message per destination
//! and unpack by the same enumeration; every pivot chunk is broadcast
//! raw and refactored identically on every rank; receives are
//! selective by `(source, tag)`. Thread scheduling can reorder
//! *arrivals*, never *contents*, so a run's factor is a pure function
//! of `(matrix, scheme, np, rep, kernel)` — byte-for-byte reproducible
//! across runs and clocks, which the integration suite asserts.

use crate::analytic::apply_dim;
use crate::scheme::Scheme;
use bs_core::eliminate::emit_rows;
use bs_core::panel::{factor_chunk, PanelScratch};
use bs_core::rep::{BlockReflector, RepKind};
use bs_distmem::{CostModel, Primitive, Proc, WallOpts, World};
use bs_matrix::ldlt::Signature;
use bs_matrix::{ExecPolicy, MatRef, Matrix, Workspace};
use bs_perfmodel as pm;
use bs_toeplitz::{build_generator, SymBlockToeplitz};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a sharded run keeps time.
#[derive(Clone, Debug)]
pub enum Clock {
    /// Measured: the wall transport with these options. Times are
    /// elapsed wall-clock seconds.
    Wall(WallOpts),
    /// Modeled: per-rank virtual clocks that the rank bodies charge
    /// through this model at each phase boundary. Times are the
    /// modeled machine's seconds.
    Model(Arc<dyn CostModel>),
}

impl Clock {
    /// Run `body` on `np` rank threads under this clock.
    fn launch<T, F>(&self, np: usize, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Send + Sync,
    {
        match self {
            Clock::Wall(opts) => World::run_wall(np, *opts, body),
            Clock::Model(cost) => World::run(np, Arc::clone(cost), body),
        }
    }
}

/// Configuration for one sharded factorization.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Data distribution (V1 cyclic, V2 block-cyclic, V3 split).
    pub scheme: Scheme,
    /// Number of ranks (dedicated OS threads).
    pub np: usize,
    /// Block-reflector representation for panels and updates.
    pub rep: RepKind,
    /// The clock the ranks keep. A wall receive deadline of `None`
    /// waits forever (peer-panic poison still unblocks).
    pub clock: Clock,
}

impl ShardOptions {
    /// Defaults for `scheme` at `np`: VY2 representation, measured on
    /// the wall clock with a 60 s receive deadline.
    pub fn new(scheme: Scheme, np: usize) -> Self {
        ShardOptions {
            scheme,
            np,
            rep: RepKind::VY2,
            clock: Clock::Wall(WallOpts::default()),
        }
    }
}

/// Result of a sharded factorization. Under [`Clock::Model`] the two
/// time fields hold modeled seconds, not measured ones.
#[derive(Debug)]
pub struct ShardRun {
    /// The assembled upper factor (gathered after timing stopped),
    /// normalized to the sequential driver's sign convention.
    pub r: Matrix,
    /// Elapsed seconds, max across ranks at the final reduce — "the"
    /// factor time.
    pub wall_s: f64,
    /// Per-rank elapsed seconds at that rank's last step.
    pub rank_wall_s: Vec<f64>,
    /// Bytes each rank pushed into the network: the physical payload
    /// on the wall clock; under a model, panel broadcasts count at the
    /// representation's wire size.
    pub bytes_sent: Vec<usize>,
    /// Bytes each rank consumed from the network.
    pub bytes_received: Vec<usize>,
    /// Real seconds each rank spent blocked in receives and barriers.
    pub comm_wait_s: Vec<f64>,
}

impl ShardRun {
    /// Total bytes crossing rank boundaries (sum over ranks).
    pub fn comm_volume(&self) -> usize {
        self.bytes_sent.iter().sum()
    }
}

/// Per-rank output of the rank body:
/// `(step, block col, col offset, width, m×width upper data)` tiles
/// plus the timing/traffic footers.
struct RankOut {
    r_tiles: Vec<(usize, usize, usize, usize, Vec<f64>)>,
    wall: f64,
    max_wall: f64,
    bytes_sent: usize,
    bytes_recv: usize,
    wait_ns: u64,
}

/// Factor an SPD block Toeplitz matrix on `np` rank threads under
/// `opts.scheme`, timed by `opts.clock`.
///
/// Panics on invalid configurations; numerical failures propagate as
/// panics inside ranks (the sweep exercises valid SPD inputs).
pub fn factor_sharded(t: &SymBlockToeplitz, opts: &ShardOptions) -> ShardRun {
    opts.scheme.validate(opts.np).expect("invalid scheme");
    let m = t.block_size();
    let p = t.num_blocks();
    let _span = bs_probe::span!("factor_sharded", n = m * p, m = m, p = p, np = opts.np);
    let gen = build_generator(t).expect("SPD generator");
    assert!(gen.is_spd_signature(), "factor_sharded requires SPD input");
    let scale = t.norm_inf().max(1.0);
    assemble(run_ranks(&gen.data, m, p, opts, scale), m, p)
}

/// Gather the per-rank tiles into the full factor under the sequential
/// engine's sign rule ([`emit_rows`]: positive diagonal, explicit zero
/// sub-diagonal). Each row's sign is read first from the diagonal tile
/// that holds its diagonal entry, then every tile is written once.
fn assemble(outs: Vec<RankOut>, m: usize, p: usize) -> ShardRun {
    let n = m * p;
    let mut neg = vec![false; n];
    for (s, j, coff, width, data) in outs.iter().flat_map(|o| &o.r_tiles) {
        if s == j {
            for b in 0..*width {
                let i = coff + b;
                neg[s * m + i] = data[i + b * m] < 0.0;
            }
        }
    }
    let mut r = Matrix::zeros(n, n);
    for (s, j, coff, width, data) in outs.iter().flat_map(|o| &o.r_tiles) {
        let tile = MatRef::from_parts(data, m, *width, m);
        emit_rows(&mut r, s * m, j * m + coff, tile, &neg[s * m..(s + 1) * m]);
    }
    ShardRun {
        r,
        wall_s: outs.first().map(|o| o.max_wall).unwrap_or(0.0),
        rank_wall_s: outs.iter().map(|o| o.wall).collect(),
        bytes_sent: outs.iter().map(|o| o.bytes_sent).collect(),
        bytes_received: outs.iter().map(|o| o.bytes_recv).collect(),
        comm_wait_s: outs.iter().map(|o| o.wait_ns as f64 * 1e-9).collect(),
    }
}

/// The rank body of every scheme (see "One rank body" above): rank `r`
/// holds column slice `r % spread` (`mc = m/spread` columns) of each
/// block its group owns, packed ascending, and every rank factors each
/// broadcast raw pivot chunk with [`factor_chunk`].
fn run_ranks(gen: &Matrix, m: usize, p: usize, opts: &ShardOptions, scale: f64) -> Vec<RankOut> {
    let (scheme, np, rep) = (opts.scheme, opts.np, opts.rep);
    // The cost model has no blocking formula for `Sequential`; it is
    // charged as VY2.
    let mrep = rep.model().unwrap_or(pm::Rep::VY2);
    let spread = scheme.spread();
    assert!(
        m.is_multiple_of(spread),
        "V3 requires spread ({spread}) to divide the block size ({m})"
    );
    let mc = m / spread;
    let w = Signature::hyperbolic(m);
    opts.clock.launch(np, |px: &mut Proc| {
        let rank = px.rank();
        let intra = rank % spread;
        // First rank of this rank's group: the owner of its blocks.
        let lead = rank - intra;
        let cstart = intra * mc;
        // Owned block columns, ascending: slot i holds block owned[i]'s
        // column slice cstart..cstart+mc at local columns
        // i·mc..(i+1)·mc, upper half stacked on lower.
        let owned: Vec<usize> = (0..p).filter(|&j| scheme.owner(j, np) == lead).collect();
        let slot_of = |j: usize| owned.binary_search(&j).expect("owned block");
        // Column-major storage range of slot i's full 2m × mc slice.
        let slot_range = |i: usize| i * mc * 2 * m..(i + 1) * mc * 2 * m;
        let mut local = Matrix::zeros(2 * m, owned.len() * mc);
        for (i, &j) in owned.iter().enumerate() {
            local
                .sub_mut(0, i * mc, 2 * m, mc)
                .copy_from(gen.sub(0, j * m + cstart, 2 * m, mc));
        }
        let mut ws = Workspace::new();
        let exec = ExecPolicy::sequential();
        let mut scratch = PanelScratch::default();
        let mut chunk_reps: Vec<BlockReflector> = (0..spread)
            .map(|_| BlockReflector::new(rep, w.clone(), mc))
            .collect();
        let mut r_tiles: Vec<(usize, usize, usize, usize, Vec<f64>)> = Vec::new();
        // Emit block row 0 (the generator's upper row).
        for (i, &j) in owned.iter().enumerate() {
            let tile = local.sub(0, i * mc, m, mc).to_matrix();
            r_tiles.push((0, j, cstart, mc, tile.into_col_major()));
        }

        for s in 1..p {
            // ---- Shift: upper slice of block j -> block j+1, same
            // slice index. Capture every outgoing payload first (reads
            // of pre-shift state), then move local blocks descending j
            // (each destination's old value is already consumed), then
            // exchange one batched message per peer. ----
            let mut outgoing: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for j in (s - 1)..(p - 1) {
                if scheme.owner(j, np) == lead {
                    let dst = scheme.owner(j + 1, np) + intra;
                    if dst != rank {
                        let up = local.sub(0, slot_of(j) * mc, m, mc).to_matrix();
                        outgoing.entry(dst).or_default().extend(up.as_slice());
                    }
                }
            }
            for j in ((s - 1)..(p - 1)).rev() {
                if scheme.owner(j, np) == lead && scheme.owner(j + 1, np) == lead {
                    let up = local.sub(0, slot_of(j) * mc, m, mc).to_matrix();
                    local
                        .sub_mut(0, slot_of(j + 1) * mc, m, mc)
                        .copy_from(up.rf());
                }
            }
            for (dst, data) in &outgoing {
                px.send(*dst, s as u64, data);
            }
            let mut incoming: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for j in s..p {
                if scheme.owner(j, np) == lead {
                    let src = scheme.owner(j - 1, np) + intra;
                    if src != rank {
                        incoming.entry(src).or_default().push(j);
                    }
                }
            }
            for (src, js) in &incoming {
                let data = px.recv(*src, s as u64);
                assert_eq!(data.len(), js.len() * m * mc, "shift framing");
                for (idx, &j) in js.iter().enumerate() {
                    let up = Matrix::from_col_major(
                        m,
                        mc,
                        data[idx * m * mc..(idx + 1) * m * mc].to_vec(),
                    );
                    local.sub_mut(0, slot_of(j) * mc, m, mc).copy_from(up.rf());
                }
            }
            px.barrier();

            // ---- Panel: chunk c of pivot block column s lives on rank
            // piv + c. Its owner ships the raw 2m×mc slice and every
            // rank factors it (identical arithmetic, so all ranks agree
            // on the reflectors bit for bit without a representation
            // codec on the wire). The owner keeps the factored slice;
            // later ranks of the pivot group fold the chunk into their
            // own slice before their turn. A model charges each chunk
            // a 1/spread share of the owner's blocking flops and of the
            // representation's wire size, not the raw slice. ----
            let piv = scheme.owner(s, np);
            let wire = pm::comm_words(mrep, m) * 8 / spread;
            for (c, crep) in chunk_reps.iter_mut().enumerate() {
                let owner = piv + c;
                let tag = ((p + s) * spread + c) as u64;
                let raw = if rank == owner {
                    px.compute(
                        pm::blocking_flops(mrep, m, m) / spread as f64,
                        Primitive::Blas2 { dim: m },
                    );
                    let data = &local.as_slice()[slot_range(slot_of(s))];
                    if np > 1 {
                        px.broadcast_charged(owner, tag, data, wire)
                    } else {
                        data.to_vec()
                    }
                } else {
                    px.broadcast_charged(owner, tag, &[], wire)
                };
                let mut chunk = Matrix::from_col_major(2 * m, mc, raw);
                crep.reset();
                factor_chunk(chunk.mt(), c * mc, &w, s, 1e-13, scale, crep, &mut scratch)
                    .expect("SPD panel");
                if rank == owner {
                    local.as_mut_slice()[slot_range(slot_of(s))].copy_from_slice(chunk.as_slice());
                } else if lead == piv && intra > c {
                    let slot = slot_of(s);
                    crep.apply(local.sub_mut(0, slot * mc, 2 * m, mc), &exec, &mut ws);
                }
                if spread > 1 {
                    px.barrier();
                }
            }

            // ---- Trailing update: each chunk's reflectors over the
            // packed suffix of owned blocks j >= s+1 (chunk order;
            // columns are independent, so chunk-major equals
            // block-major bit for bit). ----
            let first = owned.partition_point(|&j| j <= s);
            charge_apply(px, mrep, m, spread, owned.len() - first);
            for crep in &chunk_reps {
                apply_trailing(crep, &mut local, first * mc, &exec, &mut ws);
            }
            px.barrier();

            // ---- Emit block row s slices. ----
            for (i, &j) in owned.iter().enumerate() {
                if j >= s {
                    let tile = local.sub(0, i * mc, m, mc).to_matrix();
                    r_tiles.push((s, j, cstart, mc, tile.into_col_major()));
                }
            }
        }

        let wall = px.time();
        let max_wall = px.allreduce_max(wall);
        RankOut {
            r_tiles,
            wall,
            max_wall,
            bytes_sent: px.bytes_sent(),
            bytes_recv: px.bytes_received(),
            wait_ns: px.comm_wait_ns(),
        }
    })
}

/// The per-step trailing update on one rank's packed shard: blocks
/// `j ≥ s+1` are a contiguous column suffix (ascending packing) from
/// local column `col0`, so the whole distributed update is a single
/// blocked reflector application drawing scratch from the rank's
/// workspace.
fn apply_trailing(
    refl: &BlockReflector,
    local: &mut Matrix,
    col0: usize,
    exec: &ExecPolicy,
    ws: &mut Workspace,
) {
    let (rows, cols) = (local.rows(), local.cols());
    if col0 < cols {
        refl.apply(local.sub_mut(0, col0, rows, cols - col0), exec, ws);
    }
}

/// Charge the model one rank's trailing application over `blocks`
/// owned blocks, each `m/spread` columns wide (a no-op on the wall).
fn charge_apply(px: &mut Proc, rep: pm::Rep, m: usize, spread: usize, blocks: usize) {
    if blocks > 0 {
        px.compute(
            pm::apply_flops(rep, m, m, blocks) / spread as f64,
            Primitive::Blas3 {
                dim: apply_dim(m, spread),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{simulate, SimConfig};
    use crate::t3d::T3DModel;
    use bs_toeplitz::workloads;

    fn seq_r(t: &SymBlockToeplitz) -> Matrix {
        bs_core::factor_spd(t, &bs_core::SchurOptions::default())
            .unwrap()
            .r
            .clone()
    }

    fn modeled(scheme: Scheme, np: usize, cost: impl CostModel + 'static) -> ShardOptions {
        ShardOptions {
            clock: Clock::Model(Arc::new(cost)),
            ..ShardOptions::new(scheme, np)
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Factor on both clocks: each must match the sequential factor,
    /// and the two must agree bit for bit (one message schedule).
    fn check_both_clocks(t: &SymBlockToeplitz, scheme: Scheme, np: usize) -> ShardRun {
        let seq = seq_r(t);
        let wall = factor_sharded(t, &ShardOptions::new(scheme, np));
        let model = factor_sharded(t, &modeled(scheme, np, T3DModel::default()));
        let diff = wall.r.max_abs_diff(&seq);
        assert!(diff < 1e-9, "np={np} {scheme:?}: {diff:e}");
        assert_eq!(bits(&wall.r), bits(&model.r), "np={np} {scheme:?}");
        wall
    }

    #[test]
    fn sharded_matches_sequential_v1_v2() {
        for (m, p, np, scheme) in [
            (2usize, 8usize, 1usize, Scheme::V1),
            (2, 8, 3, Scheme::V1),
            (4, 10, 4, Scheme::V2 { b: 2 }),
            (4, 6, 2, Scheme::V2 { b: 3 }),
        ] {
            let t = workloads::random_spd_block(m, p, 11 + (m * p + np) as u64);
            let run = check_both_clocks(&t, scheme, np);
            if np == 1 {
                assert_eq!(run.comm_volume(), 0, "a single rank sends nothing");
            }
        }
    }

    #[test]
    fn sharded_matches_sequential_v3() {
        // (4, 8, 2, 2) is the single-group case: every shift stays local.
        for (m, p, np, spread) in [
            (4usize, 8usize, 4usize, 2usize),
            (4, 8, 2, 2),
            (8, 6, 8, 4),
            (4, 10, 8, 4),
        ] {
            let t = workloads::random_spd_block(m, p, (m * p + np) as u64);
            check_both_clocks(&t, Scheme::V3 { spread }, np);
        }
    }

    #[test]
    fn wall_times_and_traffic_are_populated() {
        let t = workloads::random_spd_block(4, 8, 3);
        let run = factor_sharded(&t, &ShardOptions::new(Scheme::V1, 2));
        assert_eq!(run.rank_wall_s.len(), 2);
        assert!(run.wall_s > 0.0, "measured wall time must be positive");
        assert!(
            run.rank_wall_s.iter().all(|&t| t > 0.0 && t <= run.wall_s),
            "per-rank walls bounded by the max: {:?}",
            run.rank_wall_s
        );
        // The wall counts physical payloads. V1 on 2 ranks, m = 4,
        // p = 8: step s shifts its 8 − s upper blocks (4·4 words each)
        // across ranks and broadcasts one raw 8×4 panel to one peer.
        let shifts: usize = (1..8).map(|s| (8 - s) * 16 * 8).sum();
        let panels = 7 * 32 * 8;
        assert_eq!(run.comm_volume(), shifts + panels);
        assert_eq!(run.bytes_sent.len(), 2);
        assert_eq!(run.bytes_received.len(), 2);
    }

    #[test]
    fn reps_agree_with_sequential() {
        let t = workloads::random_spd_block(4, 8, 77);
        let seq = seq_r(&t);
        for (scheme, np) in [
            (Scheme::V1, 2),
            (Scheme::V2 { b: 2 }, 4),
            (Scheme::V2 { b: 3 }, 4),
        ] {
            for rep in [RepKind::VY1, RepKind::YTY, RepKind::Accumulated] {
                let mut o = ShardOptions::new(scheme, np);
                o.rep = rep;
                let run = factor_sharded(&t, &o);
                let diff = run.r.max_abs_diff(&seq);
                assert!(diff < 1e-9, "{scheme:?} np={np} rep={rep:?}: {diff:e}");
            }
        }
    }

    #[test]
    fn modeled_v3_clock_tracks_analytic_engine() {
        // The closed form models V3's pipelined chunk broadcasts more
        // coarsely than V1/V2's phases (those agree to 5 % in the
        // integration suite), hence the wider tolerance.
        let model = T3DModel::default();
        let scheme = Scheme::V3 { spread: 2 };
        let t = workloads::random_spd_block(8, 8, 3);
        let run = factor_sharded(&t, &modeled(scheme, 4, model.clone()));
        let sim = simulate(
            &SimConfig {
                n: 64,
                m: 8,
                np: 4,
                scheme,
                rep: pm::Rep::VY2,
            },
            &model,
        );
        let rel = (run.wall_s - sim.total).abs() / sim.total;
        assert!(
            rel < 0.25,
            "modeled {} vs analytic {} (rel {rel})",
            run.wall_s,
            sim.total
        );
    }
}
