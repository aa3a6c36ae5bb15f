//! The wire protocol: length-prefixed binary frames, std only.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [u32 LE payload length][payload]
//! ```
//!
//! Request payloads start with a one-byte opcode:
//!
//! | opcode | body |
//! |---|---|
//! | [`OP_PING`] | empty |
//! | [`OP_FACTOR`] | `[u32 m][u32 p][p · m·m f64 blocks]` |
//! | [`OP_SOLVE`] | generator as above, then `[u32 ncols][n·ncols f64]` |
//! | [`OP_SOLVE_CACHED`] | `[u64 fingerprint][u32 ncols][n·ncols f64]` |
//! | [`OP_STATS`] | empty |
//! | [`OP_SHUTDOWN`] | empty |
//!
//! Response payloads start with a one-byte status: [`STATUS_OK`]
//! (body is the opcode's result), [`STATUS_ERR`] (body is a UTF-8
//! message), or [`STATUS_SHED`] (admission control turned the request
//! away; empty body — retry against a less loaded server).
//!
//! All integers are little-endian; matrices travel column-major, the
//! same layout `bs_matrix::Matrix` stores, so encoding is a straight
//! memory walk. Floats travel as raw `f64` bit patterns — a solve
//! response is bit-exact, never formatted.

use crate::ServeError;
use bs_matrix::Matrix;
use bs_toeplitz::SymBlockToeplitz;
use std::io::{ErrorKind, Read, Write};

/// Hard ceiling on a frame's payload (256 MiB): a length prefix beyond
/// this is treated as a protocol violation, not an allocation request.
pub const MAX_FRAME: usize = 1 << 28;

/// Liveness probe; empty OK response.
pub const OP_PING: u8 = 0;
/// Factor (or fetch from cache) the carried generator; response is
/// `[u64 fingerprint][u8 was_cached]`.
pub const OP_FACTOR: u8 = 1;
/// Factor-if-needed then solve against the carried RHS columns;
/// response is the solution columns.
pub const OP_SOLVE: u8 = 2;
/// Solve against an already-cached factor named by fingerprint;
/// response is the solution columns.
pub const OP_SOLVE_CACHED: u8 = 3;
/// Cache/server statistics; response is six `u64`s (hits,
/// factorizations, evictions, single-flight waits, shed, requests).
pub const OP_STATS: u8 = 4;
/// Stop accepting connections; empty OK response.
pub const OP_SHUTDOWN: u8 = 5;

/// Request handled.
pub const STATUS_OK: u8 = 0;
/// Request failed; body is a UTF-8 error message.
pub const STATUS_ERR: u8 = 1;
/// Request shed by admission control; retry later.
pub const STATUS_SHED: u8 = 2;

/// First read of a frame payload. Later reads double the bytes held,
/// so a length prefix alone never makes the reader allocate more than
/// this, or twice the bytes actually received, ahead of the payload.
const READ_CHUNK: usize = 1 << 16;

/// Read one frame into `buf` (reused across calls; resized, not
/// reallocated once warm). A cold buffer grows to exactly the frame
/// length. Returns `false` on clean EOF before a length prefix — the
/// peer closed the connection.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> crate::Result<bool> {
    let mut len4 = [0u8; 4];
    match r.read_exact(&mut len4) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(ServeError::Io(e)),
    }
    let len = u32::from_le_bytes(len4) as usize;
    if len > MAX_FRAME {
        return Err(ServeError::FrameTooLarge(len));
    }
    buf.truncate(len);
    let mut start = 0;
    while start < len {
        let end = len.min(start + start.max(READ_CHUNK));
        if end > buf.len() {
            buf.reserve_exact(end - buf.len());
            buf.resize(end, 0);
        }
        r.read_exact(&mut buf[start..end])?;
        start = end;
    }
    Ok(true)
}

/// Write one frame: length prefix then payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> crate::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(ServeError::FrameTooLarge(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Append a `u32` to the payload under construction.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` to the payload under construction.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` slice as raw little-endian bit patterns.
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    for &v in vs {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Cursor-style reader over a request/response body.
#[derive(Debug)]
pub struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `body` from the beginning.
    pub fn new(body: &'a [u8]) -> Self {
        Reader { body, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn take(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(ServeError::Protocol("truncated frame body"));
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> crate::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> crate::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> crate::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read one `f64` bit pattern.
    pub fn f64(&mut self) -> crate::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read `dst.len()` floats into a caller-provided (e.g. pooled)
    /// buffer without allocating.
    pub fn f64s_into(&mut self, dst: &mut [f64]) -> crate::Result<()> {
        let b = self.take(dst.len() * 8)?;
        for (i, x) in dst.iter_mut().enumerate() {
            let c = &b[i * 8..i * 8 + 8];
            *x = f64::from_bits(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]));
        }
        Ok(())
    }
}

/// Append a generator (`[u32 m][u32 p][blocks]`) to a request body.
pub fn put_generator(out: &mut Vec<u8>, t: &SymBlockToeplitz) {
    put_u32(out, t.block_size() as u32);
    put_u32(out, t.num_blocks() as u32);
    for blk in t.first_block_row() {
        for j in 0..blk.cols() {
            put_f64s(out, blk.col(j));
        }
    }
}

/// Decode a generator from a request body. Validates the announced
/// shape against the bytes actually present before touching them.
pub fn read_generator(r: &mut Reader<'_>) -> crate::Result<SymBlockToeplitz> {
    let m = r.u32()? as usize;
    let p = r.u32()? as usize;
    if m == 0 || p == 0 {
        return Err(ServeError::Protocol("generator with zero dimension"));
    }
    let need = m
        .checked_mul(m)
        .and_then(|mm| mm.checked_mul(p))
        .and_then(|e| e.checked_mul(8))
        .ok_or(ServeError::Protocol("generator shape overflows"))?;
    if r.remaining() < need {
        return Err(ServeError::Protocol("generator body shorter than m·m·p"));
    }
    let mut blocks = Vec::with_capacity(p);
    for _ in 0..p {
        let mut blk = Matrix::zeros(m, m);
        for j in 0..m {
            r.f64s_into(blk.col_mut(j))?;
        }
        blocks.push(blk);
    }
    Ok(SymBlockToeplitz::new(blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_toeplitz::workloads;

    #[test]
    fn generator_round_trips_bitwise() {
        let t = workloads::random_spd_block(3, 5, 77);
        let mut body = Vec::new();
        put_generator(&mut body, &t);
        let mut r = Reader::new(&body);
        let back = read_generator(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.fingerprint(), t.fingerprint());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(!read_frame(&mut cursor, &mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut buf),
            Err(ServeError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn lying_length_prefix_allocates_only_what_arrives() {
        let mut wire = Vec::new();
        put_u32(&mut wire, MAX_FRAME as u32);
        wire.extend_from_slice(&[7u8; 16]);
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).is_err());
        assert!(buf.capacity() <= READ_CHUNK, "capacity {}", buf.capacity());
    }

    #[test]
    fn cold_buffer_grows_to_exactly_the_frame() {
        let payload: Vec<u8> = (0..3 * READ_CHUNK + 1).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, payload);
        assert_eq!(buf.capacity(), payload.len());
    }

    #[test]
    fn truncated_bodies_are_typed_errors() {
        let mut body = Vec::new();
        put_u32(&mut body, 4);
        put_u32(&mut body, 100); // claims 100 blocks, carries none
        let mut r = Reader::new(&body);
        assert!(matches!(
            read_generator(&mut r),
            Err(ServeError::Protocol(_))
        ));
    }
}
