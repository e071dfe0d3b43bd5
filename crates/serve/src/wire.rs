//! The length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one *frame*: a little-endian
//! `u32` payload length followed by that many payload bytes, capped at
//! [`MAX_FRAME`]. Requests open with a fixed three-byte header (`op: u8`,
//! `tenant: u16 LE`) and an op-specific body; responses open with a status
//! byte (`0` = OK, else an [`ErrorCode`]) and an op-specific or
//! error-message body. All integers are little-endian; there is no framing
//! state beyond the prefix, so a malformed frame poisons at most its own
//! connection.
//!
//! ## Request id (DESIGN.md §17)
//!
//! The op byte's high bit ([`TRACE_FLAG`]) marks a traced request, and a
//! fixed 8-byte little-endian [`RequestId`] then sits between the op and
//! the tenant: `[op | 0x80, id × 8 LE, tenant LE, body]`. Untraced frames
//! carry neither. The id is non-zero, so a flagged frame whose id is zero
//! or cut short is [`DecodeError::Malformed`] and answers
//! [`ErrorCode::BadFrame`]; it never decodes as untraced.
//!
//! Decoding is total: any byte sequence either parses or yields a typed
//! [`DecodeError`], never a panic — the seeded frame mutator in this
//! module's tests holds the decoder to that, and `tests/wire_protocol.rs`
//! the server.

use std::io::{ErrorKind, Read, Write};

use smc_obs::RequestId;

/// Largest accepted frame payload (1 MiB). A length prefix past this is a
/// protocol error, not an allocation: the reader refuses before buffering.
pub const MAX_FRAME: u32 = 1 << 20;

/// High bit of the request op byte: set when an 8-byte LE request id sits
/// between the op and the tenant.
pub const TRACE_FLAG: u8 = 0x80;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Liveness probe; empty body, empty OK response.
    Ping = 0x01,
    /// Batched upsert: `count: u32`, then `count` × (`key: u64`,
    /// `value: u64`). OK body: `applied: u64`.
    Upsert = 0x02,
    /// Batched delete: `count: u32`, then `count` × `key: u64`.
    /// OK body: `deleted: u64`.
    Delete = 0x03,
    /// Count rows with `value` in `[lo, hi)`: `lo: u64`, `hi: u64`.
    /// OK body: `count: u64`.
    Count = 0x04,
    /// Sum `value` over rows with `value` in `[lo, hi)`: `lo: u64`,
    /// `hi: u64`. OK body: `count: u64`, `sum: u64`.
    Sum = 0x05,
    // 0x06 (a retired binary stats op) stays unassigned: `UnknownOp`.
    /// The one introspection op; empty body. OK body: a UTF-8 JSON
    /// document (`"schema": "smc-scrape/v1"`) carrying shard and tenant
    /// stats, tail-latency attribution, tracer health, flight-recorder
    /// status, and per-shard heap snapshots and maintenance counters.
    Scrape = 0x07,
}

/// Error codes carried in the response status byte (`0` means OK).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame parsed as no known request shape.
    BadFrame = 1,
    /// The opcode byte is not assigned.
    UnknownOp = 2,
    /// The tenant's memory budget rejected the ingest.
    TenantOverBudget = 3,
    /// The tenant id is not configured on this server.
    UnknownTenant = 4,
    /// The server is draining and no longer accepts work.
    Shutdown = 5,
    /// The server hit an internal error executing the request.
    Internal = 6,
}

impl ErrorCode {
    /// Decodes a status byte (never 0, which is OK).
    pub fn from_byte(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::BadFrame),
            2 => Some(ErrorCode::UnknownOp),
            3 => Some(ErrorCode::TenantOverBudget),
            4 => Some(ErrorCode::UnknownTenant),
            5 => Some(ErrorCode::Shutdown),
            6 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Batched upsert of `(key, value)` rows for one tenant.
    Upsert {
        /// Target tenant id.
        tenant: u16,
        /// Rows to insert or overwrite, keyed by `key`.
        rows: Vec<(u64, u64)>,
    },
    /// Batched delete by key for one tenant.
    Delete {
        /// Target tenant id.
        tenant: u16,
        /// Keys to remove; absent keys are ignored.
        keys: Vec<u64>,
    },
    /// Count rows whose value lies in `[lo, hi)`.
    Count {
        /// Target tenant id.
        tenant: u16,
        /// Inclusive lower value bound.
        lo: u64,
        /// Exclusive upper value bound.
        hi: u64,
    },
    /// Sum values of rows whose value lies in `[lo, hi)`.
    Sum {
        /// Target tenant id.
        tenant: u16,
        /// Inclusive lower value bound.
        lo: u64,
        /// Exclusive upper value bound.
        hi: u64,
    },
    /// Full observability scrape (JSON `smc-scrape/v1` document).
    Scrape,
}

/// Why a request payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode byte is unassigned — maps to [`ErrorCode::UnknownOp`].
    UnknownOp(u8),
    /// The payload is structurally wrong — maps to [`ErrorCode::BadFrame`].
    Malformed(String),
}

impl DecodeError {
    /// The wire error code this decode failure answers with.
    pub fn code(&self) -> ErrorCode {
        match self {
            DecodeError::UnknownOp(_) => ErrorCode::UnknownOp,
            DecodeError::Malformed(_) => ErrorCode::BadFrame,
        }
    }

    /// Human-readable detail for the error response body.
    pub fn message(&self) -> String {
        match self {
            DecodeError::UnknownOp(op) => format!("unknown opcode 0x{op:02x}"),
            DecodeError::Malformed(m) => m.clone(),
        }
    }
}

/// A decoded response: OK with an op-specific body, or a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; body layout depends on the request op.
    Ok(Vec<u8>),
    /// Failure with a code and a human-readable message.
    Err(ErrorCode, String),
}

impl Response {
    /// Builds an error response.
    pub fn err(code: ErrorCode, msg: impl Into<String>) -> Response {
        Response::Err(code, msg.into())
    }

    /// Serializes into a frame payload (status byte + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Ok(body) => {
                let mut out = Vec::with_capacity(1 + body.len());
                out.push(0);
                out.extend_from_slice(body);
                out
            }
            Response::Err(code, msg) => {
                let mut out = Vec::with_capacity(1 + msg.len());
                out.push(*code as u8);
                out.extend_from_slice(msg.as_bytes());
                out
            }
        }
    }

    /// Parses a frame payload into a response.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let (&status, body) = payload
            .split_first()
            .ok_or_else(|| DecodeError::Malformed("empty response frame".into()))?;
        if status == 0 {
            return Ok(Response::Ok(body.to_vec()));
        }
        let code = ErrorCode::from_byte(status)
            .ok_or_else(|| DecodeError::Malformed(format!("unknown status byte {status}")))?;
        Ok(Response::Err(
            code,
            String::from_utf8_lossy(body).into_owned(),
        ))
    }
}

impl Request {
    /// The opcode this request serializes under.
    pub fn op(&self) -> Op {
        match self {
            Request::Ping => Op::Ping,
            Request::Upsert { .. } => Op::Upsert,
            Request::Delete { .. } => Op::Delete,
            Request::Count { .. } => Op::Count,
            Request::Sum { .. } => Op::Sum,
            Request::Scrape => Op::Scrape,
        }
    }

    /// Serializes into a frame payload (header + body).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Serializes with an optional request id: `Some(id)` sets
    /// [`TRACE_FLAG`] on the op byte and puts the id, 8 bytes LE, before
    /// the tenant.
    pub fn encode_traced(&self, trace: Option<RequestId>) -> Vec<u8> {
        let mut out = Vec::new();
        match trace {
            Some(id) => {
                out.push(self.op() as u8 | TRACE_FLAG);
                out.extend_from_slice(&id.get().to_le_bytes());
            }
            None => out.push(self.op() as u8),
        }
        let tenant = match self {
            Request::Upsert { tenant, .. }
            | Request::Delete { tenant, .. }
            | Request::Count { tenant, .. }
            | Request::Sum { tenant, .. } => *tenant,
            Request::Ping | Request::Scrape => 0,
        };
        out.extend_from_slice(&tenant.to_le_bytes());
        match self {
            Request::Ping | Request::Scrape => {}
            Request::Upsert { rows, .. } => {
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for (k, v) in rows {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Request::Delete { keys, .. } => {
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&k.to_le_bytes());
                }
            }
            Request::Count { lo, hi, .. } | Request::Sum { lo, hi, .. } => {
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
        }
        out
    }

    /// Parses a frame payload into a request, discarding any request id.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        Request::decode_traced(payload).map(|(req, _)| req)
    }

    /// Parses a frame payload into a request plus its request id, `None`
    /// when [`TRACE_FLAG`] is clear. A flagged frame whose id is cut short
    /// or zero is [`DecodeError::Malformed`].
    pub fn decode_traced(payload: &[u8]) -> Result<(Request, Option<RequestId>), DecodeError> {
        let mut cur = Cursor::new(payload);
        let raw_op = cur.u8()?;
        let trace = if raw_op & TRACE_FLAG != 0 {
            let raw = cur.u64().map_err(|_| {
                DecodeError::Malformed("traced frame ends inside its 8-byte request id".into())
            })?;
            let id = RequestId::new(raw).ok_or_else(|| {
                DecodeError::Malformed("traced frame carries request id 0".into())
            })?;
            Some(id)
        } else {
            None
        };
        let tenant = cur.u16()?;
        let req = match raw_op & !TRACE_FLAG {
            0x01 => Request::Ping,
            0x02 => {
                let count = cur.u32()? as usize;
                // Validate the count against the actual remaining bytes
                // before allocating: a doctored count must not reserve.
                if cur.remaining() != count * 16 {
                    return Err(DecodeError::Malformed(format!(
                        "upsert count {count} does not match {} body bytes",
                        cur.remaining()
                    )));
                }
                let mut rows = Vec::with_capacity(count);
                for _ in 0..count {
                    rows.push((cur.u64()?, cur.u64()?));
                }
                Request::Upsert { tenant, rows }
            }
            0x03 => {
                let count = cur.u32()? as usize;
                if cur.remaining() != count * 8 {
                    return Err(DecodeError::Malformed(format!(
                        "delete count {count} does not match {} body bytes",
                        cur.remaining()
                    )));
                }
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(cur.u64()?);
                }
                Request::Delete { tenant, keys }
            }
            0x04 => Request::Count {
                tenant,
                lo: cur.u64()?,
                hi: cur.u64()?,
            },
            0x05 => Request::Sum {
                tenant,
                lo: cur.u64()?,
                hi: cur.u64()?,
            },
            0x07 => Request::Scrape,
            other => return Err(DecodeError::UnknownOp(other)),
        };
        if cur.remaining() != 0 {
            return Err(DecodeError::Malformed(format!(
                "{} trailing bytes after a complete request",
                cur.remaining()
            )));
        }
        Ok((req, trace))
    }
}

/// Why [`FrameReader::read_frame`] stopped.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// The connection died mid-frame (partial prefix or payload).
    Truncated,
    /// The length prefix exceeded [`MAX_FRAME`]; carries the claimed length.
    Oversized(u32),
    /// The stop predicate fired while waiting for bytes.
    Stopped,
    /// Any other transport error.
    Io(std::io::Error),
}

/// Bytes a [`FrameReader`] asks the transport for at least, per `read`.
const READ_CHUNK: usize = 4096;

/// Incremental frame reader that survives read timeouts.
///
/// Connection threads poll a stop flag while blocked on the socket: the
/// socket carries a read timeout, and a timed-out `read` returns control
/// here with any partial bytes *already buffered*, so a frame split across
/// timeout boundaries reassembles instead of corrupting the stream.
///
/// The transport reads straight into one buffer that lives as long as the
/// reader, and a frame is handed out as a slice of it: no per-frame
/// allocation, zeroing or copy.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Initialized storage; `buf[head..tail]` holds bytes not yet handed
    /// out. Grows (zeroed once) to the largest frame seen, never past
    /// `4 + MAX_FRAME`.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Reads one complete frame payload, calling `should_stop` whenever the
    /// transport times out. The slice is valid until the next call.
    pub fn read_frame(
        &mut self,
        r: &mut impl Read,
        mut should_stop: impl FnMut() -> bool,
    ) -> Result<&[u8], FrameError> {
        loop {
            let have = self.tail - self.head;
            let mut need = READ_CHUNK;
            if let Some(prefix) = self.buf[self.head..self.tail].first_chunk::<4>() {
                let len = u32::from_le_bytes(*prefix);
                if len > MAX_FRAME {
                    return Err(FrameError::Oversized(len));
                }
                let total = 4 + len as usize;
                if have >= total {
                    let start = self.head + 4;
                    self.head += total;
                    return Ok(&self.buf[start..self.head]);
                }
                need = need.max(total);
            }
            // Slide what is left (a partial frame, usually nothing) to the
            // front, so the frame being assembled always fits in `need`.
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                (self.head, self.tail) = (0, have);
            }
            if self.buf.len() < need {
                self.buf.resize(need, 0);
            }
            match r.read(&mut self.buf[self.tail..]) {
                Ok(0) => {
                    return if have == 0 {
                        Err(FrameError::Closed)
                    } else {
                        Err(FrameError::Truncated)
                    };
                }
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if should_stop() {
                        return Err(FrameError::Stopped);
                    }
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// Frame writer: assembles prefix and payload in one reusable buffer so a
/// frame leaves in one `write` (one syscall, one segment under
/// `TCP_NODELAY`).
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// A writer with an empty buffer.
    pub fn new() -> FrameWriter {
        FrameWriter::default()
    }

    /// Writes one frame (length prefix + payload).
    pub fn write_frame(&mut self, w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
        debug_assert!(payload.len() <= MAX_FRAME as usize);
        self.buf.clear();
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
        w.write_all(&self.buf)?;
        w.flush()
    }
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Malformed(format!(
                "frame too short: wanted {n} more bytes, had {}",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_util::Pcg32;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Scrape,
            Request::Upsert {
                tenant: 3,
                rows: vec![(1, 10), (2, 20)],
            },
            Request::Delete {
                tenant: 1,
                keys: vec![9, 8, 7],
            },
            Request::Count {
                tenant: 0,
                lo: 5,
                hi: 500,
            },
            Request::Sum {
                tenant: 65535,
                lo: 0,
                hi: u64::MAX,
            },
        ]
    }

    /// Every untraced request shape, pinned byte for byte: op, tenant LE,
    /// body. A change that moves any of these breaks every deployed client.
    #[rustfmt::skip]
    fn golden_requests() -> Vec<(Request, Vec<u8>)> {
        vec![
            (Request::Ping, vec![0x01, 0, 0]),
            (Request::Scrape, vec![0x07, 0, 0]),
            (
                Request::Upsert { tenant: 3, rows: vec![(1, 0x0a0b)] },
                vec![0x02, 3, 0, 1, 0, 0, 0,
                     1, 0, 0, 0, 0, 0, 0, 0,
                     0x0b, 0x0a, 0, 0, 0, 0, 0, 0],
            ),
            (
                Request::Delete { tenant: 0x0102, keys: vec![7, 0x0100] },
                vec![0x03, 0x02, 0x01, 2, 0, 0, 0,
                     7, 0, 0, 0, 0, 0, 0, 0,
                     0, 1, 0, 0, 0, 0, 0, 0],
            ),
            (
                Request::Count { tenant: 1, lo: 5, hi: 500 },
                vec![0x04, 1, 0,
                     5, 0, 0, 0, 0, 0, 0, 0,
                     0xf4, 0x01, 0, 0, 0, 0, 0, 0],
            ),
            (
                Request::Sum { tenant: 0xffff, lo: 0, hi: u64::MAX },
                vec![0x05, 0xff, 0xff,
                     0, 0, 0, 0, 0, 0, 0, 0,
                     0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
            ),
        ]
    }

    #[test]
    fn golden_frames_pin_the_wire_bytes() {
        for (req, bytes) in golden_requests() {
            assert_eq!(req.encode(), bytes, "{req:?}");
            assert_eq!(Request::decode(&bytes), Ok(req));
        }
        // The traced layout: flagged op, the id 8 bytes LE, then as above.
        let count = Request::Count {
            tenant: 1,
            lo: 5,
            hi: 500,
        };
        #[rustfmt::skip]
        let traced = vec![0x84, 8, 7, 6, 5, 4, 3, 2, 1,
                          1, 0,
                          5, 0, 0, 0, 0, 0, 0, 0,
                          0xf4, 0x01, 0, 0, 0, 0, 0, 0];
        let trace = id(0x0102_0304_0506_0708);
        assert_eq!(count.encode_traced(trace), traced);
        assert_eq!(Request::decode_traced(&traced), Ok((count, trace)));
        let responses = [
            (Response::Ok(vec![0xaa, 0xbb]), vec![0x00, 0xaa, 0xbb]),
            (
                Response::err(ErrorCode::TenantOverBudget, "full"),
                vec![0x03, b'f', b'u', b'l', b'l'],
            ),
        ];
        for (resp, bytes) in responses {
            assert_eq!(resp.encode(), bytes, "{resp:?}");
            assert_eq!(Response::decode(&bytes), Ok(resp));
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    fn id(raw: u64) -> Option<RequestId> {
        Some(RequestId::new(raw).expect("non-zero test id"))
    }

    #[test]
    fn traced_requests_round_trip_for_every_op() {
        for req in all_requests() {
            let wire = req.encode_traced(id(0xdead_beef_cafe));
            assert_eq!(wire[0] & TRACE_FLAG, TRACE_FLAG);
            assert_eq!(
                Request::decode_traced(&wire),
                Ok((req.clone(), id(0xdead_beef_cafe)))
            );
            // The plain decoder accepts the traced frame too.
            assert_eq!(Request::decode(&wire), Ok(req));
        }
    }

    #[test]
    fn traced_unknown_op_still_reports_unknown_op() {
        let mut p = vec![0x7f | TRACE_FLAG];
        p.extend_from_slice(&5u64.to_le_bytes());
        p.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            Request::decode_traced(&p).unwrap_err().code(),
            ErrorCode::UnknownOp
        );
    }

    /// One seeded mutation of `frame`: a bit flip, a truncation, an
    /// inserted byte, a duplicated span, or a toggled [`TRACE_FLAG`].
    fn mutate(rng: &mut Pcg32, frame: &mut Vec<u8>) {
        let at = |rng: &mut Pcg32, len: usize| rng.gen_range(0..len.max(1));
        match rng.gen_range(0..5u32) {
            0 if !frame.is_empty() => {
                let i = at(rng, frame.len());
                frame[i] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => frame.truncate(at(rng, frame.len())),
            2 => frame.insert(at(rng, frame.len() + 1), rng.next_u32() as u8),
            3 if !frame.is_empty() => {
                let start = at(rng, frame.len());
                let end = rng.gen_range(start + 1..=frame.len());
                let span = frame[start..end].to_vec();
                let into = at(rng, frame.len() + 1);
                frame.splice(into..into, span);
            }
            _ if !frame.is_empty() => frame[0] ^= TRACE_FLAG,
            _ => {}
        }
    }

    #[test]
    fn mutated_frames_decode_or_fail_by_name() {
        for seed in 0..2000u64 {
            let mut rng = Pcg32::seed_from_u64(seed);
            for req in all_requests() {
                // A one-bit id is one bit flip away from the zero id.
                for trace in [None, id(1 << rng.gen_range(0..64u32))] {
                    let mut frame = req.encode_traced(trace);
                    for _ in 0..rng.gen_range(1..=3u32) {
                        mutate(&mut rng, &mut frame);
                    }
                    let why = match std::panic::catch_unwind(|| Request::decode_traced(&frame)) {
                        Err(_) => Some("decode panicked".to_string()),
                        Ok(Ok((_, id))) if id.is_some() != (frame[0] & TRACE_FLAG != 0) => {
                            Some(format!("flag and id {id:?} disagree"))
                        }
                        Ok(Ok((r, id))) => (Request::decode_traced(&r.encode_traced(id))
                            != Ok((r.clone(), id)))
                        .then(|| format!("decoded {r:?} / {id:?} does not round-trip")),
                        Ok(Err(e)) => {
                            (!matches!(e.code(), ErrorCode::BadFrame | ErrorCode::UnknownOp))
                                .then(|| format!("error {e:?} has code {:?}", e.code()))
                        }
                    };
                    if let Some(why) = why {
                        panic!("seed {seed}, frame {frame:02x?}: {why}");
                    }
                }
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let ok = Response::Ok(vec![1, 2, 3]);
        assert_eq!(Response::decode(&ok.encode()), Ok(ok));
        let err = Response::err(ErrorCode::TenantOverBudget, "tenant 2 over budget");
        assert_eq!(Response::decode(&err.encode()), Ok(err));
    }

    #[test]
    fn malformed_requests_decode_to_errors_not_panics() {
        // Empty payload.
        assert!(matches!(
            Request::decode(&[]),
            Err(DecodeError::Malformed(_))
        ));
        // Unknown opcode.
        assert_eq!(
            Request::decode(&[0x7f, 0, 0]).unwrap_err().code(),
            ErrorCode::UnknownOp
        );
        // Upsert whose count promises more rows than the body carries — must
        // not allocate based on the doctored count.
        let mut p = vec![0x02, 0, 0];
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&p).unwrap_err().code(), ErrorCode::BadFrame);
        // Trailing garbage after a complete request.
        let mut p = Request::Ping.encode();
        p.push(0xee);
        assert_eq!(Request::decode(&p).unwrap_err().code(), ErrorCode::BadFrame);
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let req = Request::Count {
            tenant: 1,
            lo: 2,
            hi: 3,
        };
        let mut wire = Vec::new();
        let mut fw = FrameWriter::new();
        fw.write_frame(&mut wire, &req.encode()).unwrap();
        fw.write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        // Feed the bytes one at a time through a reader that times out
        // between each byte.
        struct Trickle<'a> {
            data: &'a [u8],
            pos: usize,
            starved: bool,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.starved {
                    self.starved = true;
                    return Err(std::io::Error::from(ErrorKind::WouldBlock));
                }
                self.starved = false;
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut t = Trickle {
            data: &wire,
            pos: 0,
            starved: false,
        };
        let mut fr = FrameReader::new();
        let p1 = fr.read_frame(&mut t, || false).unwrap();
        assert_eq!(Request::decode(p1), Ok(req));
        let p2 = fr.read_frame(&mut t, || false).unwrap();
        assert_eq!(Request::decode(p2), Ok(Request::Ping));
        assert!(matches!(
            fr.read_frame(&mut t, || false),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn frame_reader_hands_out_batched_and_buffer_growing_frames() {
        let big = Request::Upsert {
            tenant: 3,
            rows: (0..1000).map(|i| (i, i * 7)).collect(),
        };
        assert!(big.encode().len() > READ_CHUNK);
        let mut wire = Vec::new();
        let mut fw = FrameWriter::new();
        for req in [&Request::Ping, &big, &Request::Scrape] {
            fw.write_frame(&mut wire, &req.encode()).unwrap();
        }
        // One `read` delivers the two small frames and the head of the big
        // one; the reader grows once to finish it.
        let mut src = &wire[..];
        let mut fr = FrameReader::new();
        for want in [Request::Ping, big, Request::Scrape] {
            let p = fr.read_frame(&mut src, || false).unwrap();
            assert_eq!(Request::decode(p), Ok(want));
        }
        assert!(matches!(
            fr.read_frame(&mut src, || false),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_prefix_is_refused_without_buffering() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut fr = FrameReader::new();
        match fr.read_frame(&mut &wire[..], || false) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_reports_truncation() {
        let mut wire = Vec::new();
        FrameWriter::new()
            .write_frame(&mut wire, &Request::Ping.encode())
            .unwrap();
        wire.truncate(wire.len() - 1);
        let mut fr = FrameReader::new();
        assert!(matches!(
            fr.read_frame(&mut &wire[..], || false),
            Err(FrameError::Truncated)
        ));
    }
}
