//! A small blocking client for the wire protocol.
//!
//! One TCP connection, one in-flight request at a time — exactly the shape
//! the closed-loop load generator wants. The raw-frame escape hatches
//! ([`Client::send_raw`], [`Client::read_response`]) exist so protocol
//! tests can put deliberately broken bytes on the wire and watch the
//! server answer with typed errors instead of dying.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use smc_obs::{JsonValue, RequestId};

use crate::wire::{ErrorCode, FrameError, FrameReader, FrameWriter, Request, Response};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write, early close).
    Io(std::io::Error),
    /// The server's bytes did not parse as a response.
    Protocol(String),
    /// The server answered with a wire error.
    Server(ErrorCode, String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(code, m) => write!(f, "server {code:?}: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A blocking connection to an SMC server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    /// Request id to attach to the next request, consumed on send.
    trace_next: Option<RequestId>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            trace_next: None,
        })
    }

    /// Bounds how long [`Client::read_response`] blocks. `None` blocks
    /// forever (the default).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Attaches `id` to the next request; `None` clears a pending one.
    pub fn trace_next(&mut self, id: Option<RequestId>) {
        self.trace_next = id;
    }

    /// Sends a request and waits for its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let trace = self.trace_next.take();
        self.send_raw(&req.encode_traced(trace))?;
        self.read_response()
    }

    /// Writes one properly framed payload without interpreting it — fuzz
    /// tests use this to send structurally broken *requests* inside valid
    /// frames.
    pub fn send_raw(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.writer.write_frame(&mut self.stream, payload)
    }

    /// Writes arbitrary bytes, bypassing framing entirely — fuzz tests use
    /// this for doctored length prefixes and truncated frames.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads and decodes one response frame.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let payload = self
            .reader
            .read_frame(&mut self.stream, || false)
            .map_err(|e| match e {
                FrameError::Io(io) => ClientError::Io(io),
                FrameError::Closed | FrameError::Truncated => {
                    ClientError::Io(std::io::Error::from(std::io::ErrorKind::UnexpectedEof))
                }
                FrameError::Oversized(len) => {
                    ClientError::Protocol(format!("server sent oversized frame ({len} bytes)"))
                }
                FrameError::Stopped => unreachable!("client never installs a stop predicate"),
            })?;
        Response::decode(payload).map_err(|e| ClientError::Protocol(e.message()))
    }

    /// Request + unwrap: an error response becomes [`ClientError::Server`].
    fn call(&mut self, req: &Request) -> Result<Vec<u8>, ClientError> {
        match self.request(req)? {
            Response::Ok(body) => Ok(body),
            Response::Err(code, msg) => Err(ClientError::Server(code, msg)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Ping).map(|_| ())
    }

    /// Batched upsert; returns how many rows applied.
    pub fn upsert(&mut self, tenant: u16, rows: Vec<(u64, u64)>) -> Result<u64, ClientError> {
        let body = self.call(&Request::Upsert { tenant, rows })?;
        read_u64(&body, "upsert ack")
    }

    /// Batched delete; returns how many keys were present and removed.
    pub fn delete(&mut self, tenant: u16, keys: Vec<u64>) -> Result<u64, ClientError> {
        let body = self.call(&Request::Delete { tenant, keys })?;
        read_u64(&body, "delete ack")
    }

    /// Counts rows with value in `[lo, hi)`.
    pub fn count(&mut self, tenant: u16, lo: u64, hi: u64) -> Result<u64, ClientError> {
        let body = self.call(&Request::Count { tenant, lo, hi })?;
        read_u64(&body, "count")
    }

    /// Sums values over rows with value in `[lo, hi)`; returns
    /// `(matching_rows, sum)`.
    pub fn sum(&mut self, tenant: u16, lo: u64, hi: u64) -> Result<(u64, u64), ClientError> {
        let body = self.call(&Request::Sum { tenant, lo, hi })?;
        if body.len() != 16 {
            return Err(ClientError::Protocol(format!(
                "sum body is {} bytes, wanted 16",
                body.len()
            )));
        }
        let count = u64::from_le_bytes(body[..8].try_into().expect("checked length"));
        let sum = u64::from_le_bytes(body[8..].try_into().expect("checked length"));
        Ok((count, sum))
    }

    /// Pulls the live observability document (`smc-scrape/v1`), the
    /// server's one introspection op: shard and tenant stats,
    /// tail-latency attribution, tracer and flight-recorder health, and
    /// per-shard heap snapshots and maintenance counters, parsed into a
    /// [`JsonValue`].
    pub fn scrape(&mut self) -> Result<JsonValue, ClientError> {
        let body = self.call(&Request::Scrape)?;
        let text = std::str::from_utf8(&body)
            .map_err(|_| ClientError::Protocol("scrape body is not UTF-8".to_string()))?;
        let doc = JsonValue::parse(text)
            .map_err(|e| ClientError::Protocol(format!("scrape body is not JSON: {e}")))?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some("smc-scrape/v1") => Ok(doc),
            other => Err(ClientError::Protocol(format!(
                "unexpected scrape schema {other:?}"
            ))),
        }
    }
}

fn read_u64(body: &[u8], what: &str) -> Result<u64, ClientError> {
    let bytes: [u8; 8] = body.try_into().map_err(|_| {
        ClientError::Protocol(format!("{what} body is {} bytes, wanted 8", body.len()))
    })?;
    Ok(u64::from_le_bytes(bytes))
}
