//! `serve_mix`: the bs-serve front-end on a Unix socket with the
//! default `ServerConfig`, n = 256 scalar SPD operators, 4-column
//! right-hand sides, one client connection in a closed loop.
//!
//! Each cycle of 16 requests sends
//! - 14 `solve_cached` hits on a hot set of 4 operators,
//! - 1 `OP_SOLVE` carrying a hot generator (a content hit: decode and
//!   fingerprint),
//! - 1 `OP_SOLVE` carrying an operator from a cold pool larger than the
//!   cache, first seen since its eviction (miss → factor → LRU
//!   eviction).
//!
//! A pass is one cycle per cold operator. Op time is in proto, cache,
//! server, transport and small direct solves; every response must be
//! bitwise equal to an in-process `Factor::new` solve of the same
//! operator.

use super::{bytes_metrics, factor_bytes, factor_metrics, solve_bytes, span_metric};
use crate::report::Values;
use crate::runner::{Tallies, Workload};
use crate::seed::{self, Digest};
use crate::trace::Tracer;
use crate::verify::{self, Check, BACKWARD_TOL};
use crate::Result;
use bs_core::Factor;
use bs_matrix::Matrix;
use bs_serve::{proto, Client, Server, ServerConfig, ServerHandle};
use bs_toeplitz::{workloads, SymBlockToeplitz};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Operator order.
pub const N: usize = 256;
/// Hot operators.
pub const HOT: usize = 4;
/// Cold operators; more than the default cache holds, so each one is
/// evicted before it comes round again.
pub const COLD: usize = 32;
/// Right-hand-side columns per request.
pub const COLS: usize = 4;
/// Requests per cycle.
pub const CYCLE: usize = 16;
/// Right-hand sides per hot operator.
pub const HOT_RHS: usize = 4;
const TAG: u64 = 0x5e7;

/// What one request of a cycle sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// `solve_cached` on hot operator `.0` with its right-hand side `.1`.
    Hit(usize, usize),
    /// `OP_SOLVE` with hot operator `.0`'s generator and right-hand side `.1`.
    ContentHit(usize, usize),
    /// `OP_SOLVE` with cold operator `.0`.
    Miss(usize),
}

/// Request `i` of a pass.
pub fn request(i: usize) -> Request {
    let (c, j) = (i / CYCLE, i % CYCLE);
    match j {
        0..=13 => Request::Hit(j % HOT, (c + j / HOT) % HOT_RHS),
        14 => Request::ContentHit(c % HOT, (c / HOT) % HOT_RHS),
        _ => Request::Miss(c),
    }
}

#[derive(Debug)]
struct Operator {
    t: SymBlockToeplitz,
    fp: u64,
    rhs: Vec<Matrix>,
    /// In-process `Factor::new` solutions of each right-hand side.
    refs: Vec<Matrix>,
    /// Why a reference missed the backward-error tolerance, if it did.
    ref_failure: Option<String>,
}

/// The `serve_mix` workload.
pub struct ServeMix {
    hot: Vec<Operator>,
    cold: Vec<Operator>,
    /// In-process factors of the hot operators.
    local: Vec<Factor>,
    client: Option<Client>,
    server: Option<ServerHandle>,
    x: Matrix,
}

fn socket_path() -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    // Relative to the working directory, which keeps the path short
    // and inside the checkout.
    format!(
        ".schurbench-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    )
}

fn make_operator(
    seed: u64,
    tag: u64,
    k: usize,
    nrhs: usize,
    tr: &mut Tracer,
) -> Result<(Operator, Factor)> {
    let t = workloads::random_spd_scalar(N, seed::derive(seed, tag, k as u64));
    let rhs: Vec<Matrix> = (0..nrhs)
        .map(|r| seed::uniform_matrix(seed::derive(seed, tag + 1, (k * 100 + r) as u64), N, COLS))
        .collect();
    let f = tr
        .span_flops("core.factor", || Factor::new(&t))
        .map_err(|e| format!("factor: {e}"))?;
    let tnorm = verify::norm_inf(&t);
    let mut refs = Vec::with_capacity(nrhs);
    let mut ref_failure = None;
    for b in &rhs {
        let x = f.solve_batch(b).map_err(|e| format!("solve_batch: {e}"))?;
        for j in 0..COLS {
            let be = verify::backward_error(&t, tnorm, x.col(j), b.col(j));
            if be > BACKWARD_TOL && ref_failure.is_none() {
                ref_failure = Some(format!(
                    "in-process reference has backward error {be:.3e} above {BACKWARD_TOL:e}"
                ));
            }
        }
        refs.push(x);
    }
    Ok((
        Operator {
            t,
            fp: 0,
            rhs,
            refs,
            ref_failure,
        },
        f,
    ))
}

impl ServeMix {
    fn client(&mut self) -> Result<&mut Client> {
        self.client
            .as_mut()
            .ok_or_else(|| "no client connection".to_string())
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        // Closing the connection ends its server thread; then stop the
        // accept loop (which also removes the socket file).
        self.client.take();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Workload for ServeMix {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self> {
        let mut hot = Vec::with_capacity(HOT);
        let mut local = Vec::with_capacity(HOT);
        for k in 0..HOT {
            let (o, f) = make_operator(seed, TAG, k, HOT_RHS, tr)?;
            hot.push(o);
            local.push(f);
        }
        let cold = (0..COLD)
            .map(|k| make_operator(seed, TAG + 2, k, 1, tr).map(|(o, _)| o))
            .collect::<Result<Vec<_>>>()?;
        let path = socket_path();
        let server = Server::new(ServerConfig::default())
            .serve_uds(&path)
            .map_err(|e| format!("serve_uds {path}: {e}"))?;
        let mut w = ServeMix {
            hot,
            cold,
            local,
            client: None,
            server: Some(server),
            x: Matrix::zeros(0, 0),
        };
        w.client = Some(Client::connect_uds(&path).map_err(|e| format!("connect {path}: {e}"))?);
        // The server factors the hot set; the fingerprints it returns
        // name them in `solve_cached`.
        for k in 0..HOT {
            let t = w.hot[k].t.clone();
            let client = w.client()?;
            let (fp, _) = tr
                .span("serve.factor", || client.factor(&t))
                .map_err(|e| format!("factor request: {e}"))?;
            w.hot[k].fp = fp;
        }
        Ok(w)
    }

    fn ops_per_pass(&self) -> usize {
        COLD * CYCLE
    }

    fn ops_per_cycle(&self) -> usize {
        CYCLE
    }

    fn family(&self, i: usize) -> &'static str {
        match request(i) {
            Request::Hit(..) => "hit",
            Request::ContentHit(..) => "content_hit",
            Request::Miss(_) => "miss",
        }
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<()> {
        let client = self.client.as_mut().ok_or("no client connection")?;
        let answer = match request(i) {
            Request::Hit(k, r) => {
                let o = &self.hot[k];
                tr.span("serve.hit", || client.solve_cached(o.fp, &o.rhs[r]))
            }
            Request::ContentHit(k, r) => {
                let o = &self.hot[k];
                tr.span("serve.content_hit", || client.solve(&o.t, &o.rhs[r]))
            }
            Request::Miss(k) => {
                let o = &self.cold[k];
                tr.span("serve.miss", || client.solve(&o.t, &o.rhs[0]))
            }
        };
        self.x = answer.map_err(|e| format!("request: {e}"))?;
        Ok(())
    }

    fn check(&mut self, i: usize) -> Check {
        let (o, r) = match request(i) {
            Request::Hit(k, r) | Request::ContentHit(k, r) => (&self.hot[k], r),
            Request::Miss(k) => (&self.cold[k], 0),
        };
        if !verify::same_bits(self.x.as_slice(), o.refs[r].as_slice()) {
            Check::Wrong("response differs from the in-process Factor::new solve".into())
        } else if let Some(why) = &o.ref_failure {
            Check::Wrong(why.clone())
        } else {
            Check::Pass
        }
    }

    fn answer_mut(&mut self) -> &mut [f64] {
        self.x.as_mut_slice()
    }

    fn tallies(&mut self) -> Result<Tallies> {
        let s = self.client()?.stats().map_err(|e| format!("stats: {e}"))?;
        Ok(Tallies {
            cache_hits: s.hits,
            cache_factorizations: s.factorizations,
            cache_evictions: s.evictions,
            cache_shed: s.shed,
            comm_bytes: 0,
        })
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for i in 0..self.ops_per_pass() {
            let (o, r) = match request(i) {
                Request::Hit(k, r) | Request::ContentHit(k, r) => (&self.hot[k], r),
                Request::Miss(k) => (&self.cold[k], 0),
            };
            d.operator(&o.t);
            d.floats(o.rhs[r].as_slice());
        }
        d.finish()
    }

    fn pool_outstanding(&self) -> i64 {
        let Some(server) = &self.server else {
            return 0;
        };
        self.hot
            .iter()
            .filter_map(|o| server.cache().get(o.fp))
            .map(|f| f.scratch_pool().outstanding())
            .sum::<i64>()
            + self
                .local
                .iter()
                .map(|f| f.scratch_pool().outstanding())
                .sum::<i64>()
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Values) -> Result<()> {
        let hit = span_metric(out, tr, "serve.hit_us", "serve.hit", 1e6);
        span_metric(out, tr, "serve.content_hit_us", "serve.content_hit", 1e6);
        span_metric(out, tr, "serve.miss_ms", "serve.miss", 1e3);
        factor_metrics(out, tr);
        // The hot solves run in-process: what a hit costs without the
        // server, the socket and the protocol.
        for _ in 0..8 {
            for (f, o) in self.local.iter().zip(&self.hot) {
                for b in &o.rhs {
                    std::hint::black_box(
                        tr.span("serve.local_solve", || f.solve_batch(b))
                            .map_err(|e| format!("solve_batch: {e}"))?,
                    );
                }
            }
        }
        let local = span_metric(out, tr, "serve.local_solve_us", "serve.local_solve", 1e6);
        span_metric(out, tr, "core.solve_ms", "serve.local_solve", 1e3);
        out.set("serve.transport_us", hit - local, 1);
        // The protocol calls on a hit's payload.
        let o = &self.hot[0];
        let mut body = Vec::new();
        let mut back = Matrix::zeros(N, COLS);
        for _ in 0..256 {
            tr.span("serve.encode", || {
                body.clear();
                body.push(proto::OP_SOLVE_CACHED);
                proto::put_u64(&mut body, o.fp);
                proto::put_u32(&mut body, COLS as u32);
                proto::put_f64s(&mut body, o.rhs[0].as_slice());
            });
            tr.span("serve.decode", || -> Result<()> {
                let mut r = proto::Reader::new(&body[1..]);
                let fp = r.u64().map_err(|e| e.to_string())?;
                let cols = r.u32().map_err(|e| e.to_string())?;
                r.f64s_into(back.as_mut_slice())
                    .map_err(|e| e.to_string())?;
                std::hint::black_box((fp, cols));
                Ok(())
            })?;
        }
        if !verify::same_bits(back.as_slice(), o.rhs[0].as_slice()) {
            return Err("proto round trip changed the payload".into());
        }
        span_metric(out, tr, "serve.encode_us", "serve.encode", 1e6);
        span_metric(out, tr, "serve.decode_us", "serve.decode", 1e6);
        bytes_metrics(
            out,
            COLS as f64 * solve_bytes(N) + factor_bytes(N, 1) / CYCLE as f64,
        );
        Ok(())
    }
}
