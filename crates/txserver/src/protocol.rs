//! Wire protocol of the STM server: length-prefixed binary frames.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! frame    := len:u32 payload[len]                  (len caps at MAX_FRAME)
//! request  := req_id:u64 opcode:u8 flags:u8 deadline_ms:u16 body[..]
//! response := req_id:u64 status:u8 body[..]
//! ```
//!
//! `deadline_ms` is a *relative* deadline (0 = none): the server converts
//! it into a [`rtf::RunBudget`] so the retry machinery stops re-executing a
//! transaction the client has already given up on. `flags` bit 0 requests
//! ordered commit (the server draws an [`rtf::OrderedTicket`] when the
//! request leaves the FIFO execution queue, pinning commit order to
//! arrival order — see the threading-model notes in `server.rs` for why
//! drawing any earlier can deadlock).
//!
//! Every overload decision is a *typed* status, not a dropped connection:
//! clients distinguish "retry later" ([`Status::ShedAdmission`],
//! [`Status::ShedSaturated`], [`Status::ShedReadonly`]) from "this server
//! is going away" ([`Status::ShedDraining`]) from transaction-level
//! failures mapped 1:1 off [`rtf::TxError`].

use std::io::{self, Read, Write};

use rtf::TxError;

/// Hard cap on frame payloads; anything larger is a protocol error (and a
/// defense against a corrupt length prefix making the reader allocate GBs).
pub const MAX_FRAME: u32 = 64 * 1024;

/// Request flag bit 0: commit in arrival order (ordered lane).
pub const FLAG_ORDERED: u8 = 0x01;

/// Operation codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// `key:u64` → `present:u8 value:u64`.
    KvGet = 0x01,
    /// `key:u64 value:u64` → `had_old:u8 old:u64`.
    KvPut = 0x02,
    /// `key:u64` → `had_old:u8 old:u64`.
    KvDel = 0x03,
    /// `key:u64 expect:u64 new:u64` → `swapped:u8 current:u64`.
    KvCas = 0x04,
    /// `key:u64 delta:u64` → `new:u64` (missing key starts at 0).
    KvIncr = 0x05,
    /// `customer:u64 kind:u8 resource:u64` → `reserved:u8`.
    VacReserve = 0x10,
    /// `customer:u64` → `present:u8 bill:u32`.
    VacBill = 0x11,
    /// `w:u64 d:u64 c:u64 amount:i64` → `balance:i64`.
    TpccPayment = 0x20,
    /// `w:u64 d:u64 threshold:i32` → `low_items:u64`.
    TpccStockLevel = 0x21,
    /// empty → empty (liveness probe; bypasses the transaction layer but
    /// not admission).
    Ping = 0x30,
}

impl OpCode {
    /// Decodes a wire opcode.
    pub fn from_u8(b: u8) -> Option<OpCode> {
        Some(match b {
            0x01 => OpCode::KvGet,
            0x02 => OpCode::KvPut,
            0x03 => OpCode::KvDel,
            0x04 => OpCode::KvCas,
            0x05 => OpCode::KvIncr,
            0x10 => OpCode::VacReserve,
            0x11 => OpCode::VacBill,
            0x20 => OpCode::TpccPayment,
            0x21 => OpCode::TpccStockLevel,
            0x30 => OpCode::Ping,
            _ => return None,
        })
    }

    /// Read-only operations are the first rung of the shedding ladder:
    /// under pressure they are the cheapest work to push back to the
    /// client (no ticket, no write-set, trivially retryable).
    pub fn is_read_only(self) -> bool {
        matches!(self, OpCode::KvGet | OpCode::VacBill | OpCode::TpccStockLevel | OpCode::Ping)
    }
}

/// Response status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Transaction committed; body carries the operation result.
    Ok = 0,
    /// Admission token bucket empty: arrival rate above the configured
    /// sustained rate. Retry after backoff.
    ShedAdmission = 1,
    /// Server saturated (in-flight cap, a deep commit-chain backlog, or a
    /// backed-up worker pool). Retry after backoff.
    ShedSaturated = 2,
    /// Server is draining for shutdown; this request was not started (or
    /// was still queued when the drain deadline expired). Do not retry
    /// against this server.
    ShedDraining = 3,
    /// [`TxError::RetryExhausted`]: the retry budget (including the
    /// request's own `deadline_ms`) ran out before a validation succeeded.
    ErrRetryExhausted = 4,
    /// [`TxError::StallAborted`]: the starvation watchdog tore the
    /// transaction out of a stalled wait.
    ErrStallAborted = 5,
    /// [`TxError::FuturePanicked`]: the transaction body (or a future it
    /// spawned) panicked; the tree was torn down.
    ErrPanicked = 6,
    /// [`TxError::Cancelled`].
    ErrCancelled = 7,
    /// Malformed request (unknown opcode, short body, oversized frame).
    ErrBadRequest = 8,
    /// Pressure rung 1: read-only request shed while the server favors
    /// completing admitted read-write work. Retry after backoff.
    ShedReadonly = 9,
}

impl Status {
    /// Decodes a wire status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::ShedAdmission,
            2 => Status::ShedSaturated,
            3 => Status::ShedDraining,
            4 => Status::ErrRetryExhausted,
            5 => Status::ErrStallAborted,
            6 => Status::ErrPanicked,
            7 => Status::ErrCancelled,
            8 => Status::ErrBadRequest,
            9 => Status::ShedReadonly,
            _ => return None,
        })
    }

    /// Whether this status is an overload shed (as opposed to a result or
    /// a transaction-level failure).
    pub fn is_shed(self) -> bool {
        matches!(
            self,
            Status::ShedAdmission
                | Status::ShedSaturated
                | Status::ShedDraining
                | Status::ShedReadonly
        )
    }

    /// The wire mapping of [`TxError`] — every transaction-level failure
    /// the runtime can produce has exactly one typed status.
    pub fn from_tx_error(e: &TxError) -> Status {
        match e {
            TxError::Cancelled => Status::ErrCancelled,
            TxError::FuturePanicked { .. } => Status::ErrPanicked,
            TxError::RetryExhausted { .. } => Status::ErrRetryExhausted,
            TxError::StallAborted { .. } => Status::ErrStallAborted,
        }
    }
}

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub req_id: u64,
    /// Operation.
    pub op: OpCode,
    /// Flag bits ([`FLAG_ORDERED`]).
    pub flags: u8,
    /// Relative deadline in milliseconds (0 = none).
    pub deadline_ms: u16,
    /// Operation-specific body.
    pub body: Vec<u8>,
}

impl Request {
    /// Whether the client asked for ordered (arrival-order) commit.
    pub fn ordered(&self) -> bool {
        self.flags & FLAG_ORDERED != 0
    }

    /// Encodes into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.body.len());
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.push(self.op as u8);
        out.push(self.flags);
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Decodes a frame payload. `None` on short frames or unknown opcodes.
    pub fn decode(buf: &[u8]) -> Option<Request> {
        if buf.len() < 12 {
            return None;
        }
        let req_id = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let op = OpCode::from_u8(buf[8])?;
        let flags = buf[9];
        let deadline_ms = u16::from_le_bytes(buf[10..12].try_into().unwrap());
        Some(Request { req_id, op, flags, deadline_ms, body: buf[12..].to_vec() })
    }
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request's `req_id`.
    pub req_id: u64,
    /// Outcome.
    pub status: Status,
    /// Operation-specific body (empty on errors and sheds).
    pub body: Vec<u8>,
}

impl Response {
    /// Encodes into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.body.len());
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.push(self.status as u8);
        out.extend_from_slice(&self.body);
        out
    }

    /// Decodes a frame payload. `None` on short frames or unknown status.
    pub fn decode(buf: &[u8]) -> Option<Response> {
        if buf.len() < 9 {
            return None;
        }
        let req_id = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let status = Status::from_u8(buf[8])?;
        Some(Response { req_id, status, body: buf[9..].to_vec() })
    }
}

/// Writes one length-prefixed frame with a single `write_all`, so an
/// unbuffered socket sends prefix and payload as one segment instead of
/// waking its peer once for a bare length prefix.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME as usize);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary; oversized lengths surface as `InvalidData` (the stream is
/// unrecoverable past a corrupt prefix).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Little-endian field reader for operation bodies.
pub struct BodyReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> BodyReader<'a> {
    /// Starts reading `buf` from the front.
    pub fn new(buf: &'a [u8]) -> BodyReader<'a> {
        BodyReader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.at..self.at + n)?;
        self.at += n;
        Some(s)
    }

    /// Next u8.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Next u32.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Next i32.
    pub fn i32(&mut self) -> Option<i32> {
        self.take(4).map(|s| i32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Next u64.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Next i64.
    pub fn i64(&mut self) -> Option<i64> {
        self.take(8).map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = Request {
            req_id: 0xDEAD_BEEF_0BAD_F00D,
            op: OpCode::KvCas,
            flags: FLAG_ORDERED,
            deadline_ms: 250,
            body: vec![1, 2, 3],
        };
        let got = Request::decode(&r.encode()).unwrap();
        assert_eq!(got, r);
        assert!(got.ordered());
    }

    #[test]
    fn response_roundtrip_and_error_mapping() {
        for (e, s) in [
            (TxError::Cancelled, Status::ErrCancelled),
            (TxError::FuturePanicked { message: "x".into() }, Status::ErrPanicked),
            (TxError::RetryExhausted { attempts: 3 }, Status::ErrRetryExhausted),
            (TxError::StallAborted { kind: "wait_turn", waited_ms: 7 }, Status::ErrStallAborted),
        ] {
            assert_eq!(Status::from_tx_error(&e), s);
            let r = Response { req_id: 9, status: s, body: vec![] };
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    #[test]
    fn truncated_and_unknown_frames_decode_to_none() {
        assert!(Request::decode(&[0; 11]).is_none());
        assert!(Response::decode(&[0; 8]).is_none());
        let mut bad =
            Request { req_id: 1, op: OpCode::Ping, flags: 0, deadline_ms: 0, body: vec![] }
                .encode();
        bad[8] = 0xEE;
        assert!(Request::decode(&bad).is_none(), "unknown opcode");
    }

    #[test]
    fn read_only_classification() {
        assert!(OpCode::KvGet.is_read_only());
        assert!(OpCode::TpccStockLevel.is_read_only());
        assert!(!OpCode::KvPut.is_read_only());
        assert!(!OpCode::TpccPayment.is_read_only());
    }
}
