//! The wire protocol: length-prefixed, checksummed JSON frames.
//!
//! Every message — request or response — is one *frame*: an 8-byte
//! header (a 4-byte big-endian payload length `n`, then a 4-byte
//! big-endian FNV-1a checksum of the payload) followed by exactly `n`
//! bytes of UTF-8 JSON. Frames are capped at [`MAX_FRAME`] bytes; a
//! peer announcing a larger frame is protocol-broken and the connection
//! is closed after a structured error, because the stream can no longer
//! be resynchronized. A checksum mismatch ([`FrameError::Corrupted`])
//! is handled the same way: a flipped bit anywhere in the frame — even
//! one that would still parse as valid JSON — may also have corrupted
//! the length itself, so the stream boundary cannot be trusted and the
//! connection is closed after a structured error. Malformed JSON
//! *inside* a well-framed, checksum-clean message is recoverable: the
//! server answers with an error response and keeps serving the
//! connection.
//!
//! Requests are JSON objects with a `kind` field (`route`, `attack`,
//! `perturb`, `recon`, `impact`, `stats`, `metrics`, `health`, `ping`)
//! plus kind-specific parameters;
//! responses echo the request `id` and carry either `"ok": true` with a
//! `result` object or `"ok": false` with an `error` string (and a
//! `retry_after_ms` hint when the server shed the request under load).
//! Responses serialize through [`obs::JsonValue`], whose object keys are
//! sorted — identical results are byte-identical on the wire, which the
//! `serve_load` bench exploits to prove batching never changes answers.

use obs::JsonValue;
use pathattack::{CostType, WeightType};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on one frame's payload size (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Largest request id the wire format can carry without loss.
///
/// Ids travel as JSON numbers and round-trip through `f64`, which
/// represents every integer up to 2^53 exactly. An id above that would
/// be silently rounded in flight — the response would echo a *different*
/// id than the client sent, breaking correlation — so
/// [`Request::parse`] rejects such ids with a structured error instead
/// of letting them corrupt.
pub const MAX_EXACT_ID: u64 = 1 << 53;

/// Size of the frame header: 4-byte length plus 4-byte checksum.
pub const FRAME_HEADER: usize = 8;

/// Outcome of reading one frame from a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The stream ended inside a frame (truncated header or body).
    Truncated,
    /// The header announced a frame larger than [`MAX_FRAME`].
    Oversized(usize),
    /// The payload does not match the header checksum: the frame was
    /// corrupted in flight and the stream can no longer be trusted.
    Corrupted {
        /// Checksum the header announced.
        expected: u32,
        /// Checksum of the payload actually received.
        got: u32,
    },
    /// Transport error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Truncated => f.write_str("stream ended inside a frame"),
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Corrupted { expected, got } => write!(
                f,
                "frame checksum mismatch (header {expected:#010x}, payload {got:#010x})"
            ),
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a (32-bit) over `bytes` — the frame checksum. Cheap, stateless,
/// and strong enough to catch the single-byte flips and truncations the
/// chaos proxy injects; not a cryptographic MAC.
pub fn frame_checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Applies the transport policy to a metro-serve socket: `TCP_NODELAY`.
///
/// Every frame is one request or one response, and the peer waits for
/// it. With Nagle's algorithm on, a small frame written while an earlier
/// segment is still unacknowledged is held back until the peer ACKs —
/// and the peer delays that ACK (up to ~40 ms on Linux) because it has
/// nothing to send yet. Every stream the crate connects or accepts goes
/// through here, on both ends and on both legs of the chaos proxy.
///
/// # Errors
///
/// Propagates the socket-option failure.
pub fn configure_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Writes one frame (4-byte big-endian length, 4-byte big-endian
/// FNV-1a checksum, then the payload) with a single `write_all`, so
/// header and payload leave in one segment rather than as a small
/// header segment the payload then waits behind.
///
/// # Errors
///
/// Propagates transport errors; refuses payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&frame_checksum(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    on_eof: fn(usize) -> FrameError,
) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(on_eof(got)),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame, blocking until it is complete, and verifies its
/// checksum.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF at a frame boundary,
/// [`FrameError::Truncated`] on EOF inside a frame,
/// [`FrameError::Oversized`] when the header exceeds [`MAX_FRAME`],
/// [`FrameError::Corrupted`] when the payload fails its checksum.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER];
    read_exact_or(r, &mut header, |got| {
        if got == 0 {
            FrameError::Closed
        } else {
            FrameError::Truncated
        }
    })?;
    let len = u32::from_be_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
    let expected = u32::from_be_bytes(header[4..].try_into().expect("4-byte slice"));
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    read_exact_or(r, &mut body, |_| FrameError::Truncated)?;
    let got = frame_checksum(&body);
    if got != expected {
        return Err(FrameError::Corrupted { expected, got });
    }
    Ok(body)
}

/// What one request asks the service to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Shortest (or `rank`-th shortest) route from `source` to the
    /// hospital.
    Route,
    /// Force Path Cut attack on the (source, hospital) trip.
    Attack,
    /// PATHPERTURB: minimum-cost edge-weight perturbation forcing the
    /// rank-`rank` alternative to become uniquely shortest.
    Perturb,
    /// Betweenness reconnaissance: the `top` most critical segments.
    Recon,
    /// City-wide congestion impact of the attack's cut set.
    Impact,
    /// Server telemetry snapshot.
    Stats,
    /// Prometheus text exposition of the full registry plus rolling
    /// windows (the result carries it as one string field).
    Metrics,
    /// Resilience surface: per-city circuit-breaker state, worker
    /// liveness (configured/alive/panics/restarts), and drain status.
    Health,
    /// Liveness probe; echoes back.
    Ping,
}

impl RequestKind {
    /// Wire name of the kind.
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Route => "route",
            RequestKind::Attack => "attack",
            RequestKind::Perturb => "perturb",
            RequestKind::Recon => "recon",
            RequestKind::Impact => "impact",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::Health => "health",
            RequestKind::Ping => "ping",
        }
    }

    /// Inverse of [`RequestKind::name`].
    pub fn from_name(name: &str) -> Option<RequestKind> {
        match name {
            "route" => Some(RequestKind::Route),
            "attack" => Some(RequestKind::Attack),
            "perturb" => Some(RequestKind::Perturb),
            "recon" => Some(RequestKind::Recon),
            "impact" => Some(RequestKind::Impact),
            "stats" => Some(RequestKind::Stats),
            "metrics" => Some(RequestKind::Metrics),
            "health" => Some(RequestKind::Health),
            "ping" => Some(RequestKind::Ping),
            _ => None,
        }
    }

    /// Whether a request of this kind may be safely re-sent after a
    /// transport failure that leaves its fate unknown (the connection
    /// died after the request was written but before a response
    /// arrived, so it may or may not have executed).
    ///
    /// This is the retry contract [`crate::client::ResilientClient`]
    /// enforces: every current kind is a pure query against immutable
    /// resident networks, so re-execution is always safe. A future
    /// mutating kind (e.g. loading or evicting a resident network)
    /// must return `false` here, and the client will then surface
    /// in-flight transport failures instead of retrying them.
    /// Server-side sheds (`ok: false` with `retry_after_ms`) are
    /// retryable regardless: the request was never executed.
    pub fn is_idempotent(&self) -> bool {
        match self {
            RequestKind::Route
            | RequestKind::Attack
            | RequestKind::Perturb
            | RequestKind::Recon
            | RequestKind::Impact
            | RequestKind::Stats
            | RequestKind::Metrics
            | RequestKind::Health
            | RequestKind::Ping => true,
        }
    }
}

/// A fault a request asks the executing worker to inject. Only servers
/// started with `fault_injection: true` honor it; production servers
/// answer such requests with a plain error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Panic mid-request (wire value `"panic"`): exercises the
    /// supervisor's per-job unwind boundary.
    Panic,
    /// Park the worker (wire value `"park"`) until the admission queue
    /// next sheds a request or the server drains, then execute the
    /// request normally: a deterministic way to hold a worker busy
    /// while a test fills the queue behind it.
    Park,
}

impl Injection {
    /// Wire name of the fault.
    pub fn name(self) -> &'static str {
        match self {
            Injection::Panic => "panic",
            Injection::Park => "park",
        }
    }
}

/// One parsed request.
///
/// Defaults mirror the CLI: weight `time`, cost `uniform`, rank 20,
/// algorithm `greedy-pathcover`. `city` is required for every kind
/// except `stats`/`metrics`/`ping`.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    /// Must not exceed [`MAX_EXACT_ID`]: larger ids do not survive the
    /// JSON `f64` round trip and are rejected at parse time.
    pub id: u64,
    /// What to do.
    pub kind: RequestKind,
    /// Resident network to query (registry key).
    pub city: String,
    /// Victim trip origin (node index).
    pub source: usize,
    /// Hospital index (into the city's hospital POI list).
    pub hospital: usize,
    /// Alternative-route rank (`route` returns this path, `attack`
    /// forces it).
    pub rank: usize,
    /// Victim weight model.
    pub weight: WeightType,
    /// Attacker cost model.
    pub cost: CostType,
    /// Attack algorithm name (CLI spelling, e.g. `greedy-pathcover`).
    pub algorithm: String,
    /// `recon`: how many segments to rank.
    pub top: usize,
    /// `impact`: demand trips and RNG seed.
    pub trips: usize,
    /// `impact`: demand RNG seed.
    pub seed: u64,
    /// `perturb`: optional per-edge cap on the weight increase.
    pub perturb_cap: Option<f64>,
    /// `perturb`: round deltas up to whole weight units (with a
    /// feasibility re-check; reverted if rounding breaks certification).
    pub integer_round: bool,
    /// Per-request deadline override in milliseconds (`None` = server
    /// default).
    pub deadline_ms: Option<u64>,
    /// Fault-injection hook (see [`Injection`]). Only honored by
    /// servers started with `fault_injection: true` (the
    /// `resilience_proof` bench and the chaos and robustness tests);
    /// production servers answer it with a plain error.
    pub inject: Option<Injection>,
}

impl Request {
    /// A request of `kind` with CLI-default parameters.
    pub fn new(id: u64, kind: RequestKind, city: &str) -> Request {
        Request {
            id,
            kind,
            city: city.to_string(),
            source: 0,
            hospital: 0,
            rank: 20,
            weight: WeightType::Time,
            cost: CostType::Uniform,
            algorithm: "greedy-pathcover".to_string(),
            top: 10,
            trips: 20,
            seed: 42,
            perturb_cap: None,
            integer_round: false,
            deadline_ms: None,
            inject: None,
        }
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed
    /// field (also covering non-object documents and unknown kinds).
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let doc = JsonValue::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        if !matches!(doc, JsonValue::Obj(_)) {
            return Err("request must be a JSON object".to_string());
        }
        let kind_name = doc
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"kind\"")?;
        let kind = RequestKind::from_name(kind_name)
            .ok_or_else(|| format!("unknown kind {kind_name:?}"))?;
        let city = doc
            .get("city")
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
        if city.is_empty()
            && !matches!(
                kind,
                RequestKind::Stats | RequestKind::Metrics | RequestKind::Health | RequestKind::Ping
            )
        {
            return Err(format!("kind {kind_name:?} requires \"city\""));
        }
        let num = |key: &str, default: u64| -> Result<u64, String> {
            match doc.get(key) {
                None | Some(JsonValue::Null) => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("\"{key}\" must be a non-negative number")),
            }
        };
        let id = num("id", 0)?;
        if id > MAX_EXACT_ID {
            // The saturating f64 -> u64 cast above makes any
            // unrepresentable id land strictly past 2^53, so this one
            // check catches both "too large to be exact" and "absurd".
            return Err(format!(
                "\"id\" {id} exceeds 2^53; ids above {MAX_EXACT_ID} do not survive the JSON \
                 number round trip"
            ));
        }
        let mut req = Request::new(id, kind, city);
        req.source = num("source", req.source as u64)? as usize;
        req.hospital = num("hospital", req.hospital as u64)? as usize;
        req.rank = num("rank", req.rank as u64)? as usize;
        req.top = num("top", req.top as u64)? as usize;
        req.trips = num("trips", req.trips as u64)? as usize;
        req.seed = num("seed", req.seed)?;
        req.deadline_ms = match doc.get("deadline_ms") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("\"deadline_ms\" must be a non-negative number")?,
            ),
        };
        if let Some(w) = doc.get("weight").and_then(JsonValue::as_str) {
            req.weight = match w {
                "length" => WeightType::Length,
                "time" => WeightType::Time,
                other => return Err(format!("unknown weight {other:?}")),
            };
        }
        if let Some(c) = doc.get("cost").and_then(JsonValue::as_str) {
            req.cost = match c {
                "uniform" => CostType::Uniform,
                "lanes" => CostType::Lanes,
                "width" => CostType::Width,
                other => return Err(format!("unknown cost {other:?}")),
            };
        }
        if let Some(a) = doc.get("algorithm").and_then(JsonValue::as_str) {
            req.algorithm = a.to_string();
        }
        req.perturb_cap = match doc.get("perturb_cap") {
            None | Some(JsonValue::Null) => None,
            Some(v) => {
                let cap = v.as_f64().ok_or("\"perturb_cap\" must be a number")?;
                if !cap.is_finite() || cap <= 0.0 {
                    return Err("\"perturb_cap\" must be finite and positive".to_string());
                }
                Some(cap)
            }
        };
        req.integer_round = match doc.get("integer_round") {
            None | Some(JsonValue::Null) => false,
            Some(JsonValue::Bool(b)) => *b,
            Some(_) => return Err("\"integer_round\" must be a boolean".to_string()),
        };
        req.inject = match doc.get("inject") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::Str(s)) if s == "panic" => Some(Injection::Panic),
            Some(JsonValue::Str(s)) if s == "park" => Some(Injection::Park),
            Some(other) => {
                return Err(format!(
                    "unknown \"inject\" value {:?} (\"panic\" and \"park\" are defined)",
                    other.to_json()
                ))
            }
        };
        Ok(req)
    }

    /// Serializes the request to a frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut obj = BTreeMap::new();
        obj.insert("id".to_string(), JsonValue::Num(self.id as f64));
        obj.insert(
            "kind".to_string(),
            JsonValue::Str(self.kind.name().to_string()),
        );
        if !self.city.is_empty() {
            obj.insert("city".to_string(), JsonValue::Str(self.city.clone()));
        }
        obj.insert("source".to_string(), JsonValue::Num(self.source as f64));
        obj.insert("hospital".to_string(), JsonValue::Num(self.hospital as f64));
        obj.insert("rank".to_string(), JsonValue::Num(self.rank as f64));
        obj.insert(
            "weight".to_string(),
            JsonValue::Str(
                match self.weight {
                    WeightType::Length => "length",
                    WeightType::Time => "time",
                }
                .to_string(),
            ),
        );
        obj.insert(
            "cost".to_string(),
            JsonValue::Str(
                match self.cost {
                    CostType::Uniform => "uniform",
                    CostType::Lanes => "lanes",
                    CostType::Width => "width",
                }
                .to_string(),
            ),
        );
        obj.insert(
            "algorithm".to_string(),
            JsonValue::Str(self.algorithm.clone()),
        );
        obj.insert("top".to_string(), JsonValue::Num(self.top as f64));
        obj.insert("trips".to_string(), JsonValue::Num(self.trips as f64));
        obj.insert("seed".to_string(), JsonValue::Num(self.seed as f64));
        if let Some(cap) = self.perturb_cap {
            obj.insert("perturb_cap".to_string(), JsonValue::Num(cap));
        }
        if self.integer_round {
            obj.insert("integer_round".to_string(), JsonValue::Bool(true));
        }
        if let Some(d) = self.deadline_ms {
            obj.insert("deadline_ms".to_string(), JsonValue::Num(d as f64));
        }
        if let Some(fault) = self.inject {
            obj.insert(
                "inject".to_string(),
                JsonValue::Str(fault.name().to_string()),
            );
        }
        JsonValue::Obj(obj).to_json().into_bytes()
    }
}

/// Builds a success response payload.
pub fn ok_response(id: u64, kind: &RequestKind, result: JsonValue) -> Vec<u8> {
    let mut obj = BTreeMap::new();
    obj.insert("id".to_string(), JsonValue::Num(id as f64));
    obj.insert("ok".to_string(), JsonValue::Bool(true));
    obj.insert("kind".to_string(), JsonValue::Str(kind.name().to_string()));
    obj.insert("result".to_string(), result);
    JsonValue::Obj(obj).to_json().into_bytes()
}

/// Builds an error response payload; `retry_after_ms` marks retryable
/// load-shed rejections.
pub fn error_response(id: u64, error: &str, retry_after_ms: Option<u64>) -> Vec<u8> {
    let mut obj = BTreeMap::new();
    obj.insert("id".to_string(), JsonValue::Num(id as f64));
    obj.insert("ok".to_string(), JsonValue::Bool(false));
    obj.insert("error".to_string(), JsonValue::Str(error.to_string()));
    if let Some(ms) = retry_after_ms {
        obj.insert("retry_after_ms".to_string(), JsonValue::Num(ms as f64));
    }
    JsonValue::Obj(obj).to_json().into_bytes()
}

/// A parsed response (client-side view).
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed request id.
    pub id: u64,
    /// Whether the request was executed.
    pub ok: bool,
    /// Error description when `ok` is false.
    pub error: Option<String>,
    /// Load-shed retry hint in milliseconds.
    pub retry_after_ms: Option<u64>,
    /// The result object when `ok` is true.
    pub result: Option<JsonValue>,
}

impl Response {
    /// Parses a response frame.
    ///
    /// # Errors
    ///
    /// Describes the malformed field.
    pub fn parse(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let doc = JsonValue::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let ok = match doc.get("ok") {
            Some(JsonValue::Bool(b)) => *b,
            _ => return Err("missing \"ok\"".to_string()),
        };
        Ok(Response {
            id: doc.get("id").and_then(JsonValue::as_u64).unwrap_or(0),
            ok,
            error: doc
                .get("error")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            retry_after_ms: doc.get("retry_after_ms").and_then(JsonValue::as_u64),
            result: doc.get("result").cloned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"x\":1}").unwrap();
        assert_eq!(&buf[..4], &[0, 0, 0, 7]);
        assert_eq!(
            &buf[4..8],
            &frame_checksum(b"{\"x\":1}").to_be_bytes(),
            "header carries the payload checksum"
        );
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"{\"x\":1}");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    /// A sink that counts `write` calls and keeps what it was given.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        let payload = br#"{"kind":"ping","id":1}"#;
        let mut w = CountingWriter::default();
        write_frame(&mut w, payload).unwrap();
        assert_eq!(w.writes, 1, "header and payload must leave in one write");
        assert_eq!(w.bytes.len(), FRAME_HEADER + payload.len());
        let mut r = &w.bytes[..];
        assert_eq!(read_frame(&mut r).unwrap(), payload);
        // An oversized payload is refused before anything is written.
        let mut w = CountingWriter::default();
        assert!(write_frame(&mut w, &vec![b'x'; MAX_FRAME + 1]).is_err());
        assert_eq!(w.writes, 0);
    }

    #[test]
    fn truncated_and_oversized_frames_detected() {
        let mut r: &[u8] = &[0, 0]; // partial header
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Full header announcing 9 payload bytes, only one sent.
        let mut framed = Vec::new();
        framed.extend_from_slice(&9u32.to_be_bytes());
        framed.extend_from_slice(&0u32.to_be_bytes());
        framed.push(b'x');
        let mut r: &[u8] = &framed;
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        let mut huge = Vec::new();
        huge.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
        huge.extend_from_slice(&0u32.to_be_bytes());
        let mut r: &[u8] = &huge;
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Oversized(n)) if n == MAX_FRAME + 1
        ));
    }

    #[test]
    fn corrupted_frames_fail_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, br#"{"kind":"ping","id":1}"#).unwrap();
        // A flipped payload byte that still yields plausible bytes must
        // be caught: without the checksum this could parse as valid —
        // but wrong — JSON.
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Corrupted { .. })
        ));
        // A flipped header (length) byte is caught the same way as long
        // as the announced length stays in range.
        let mut buf2 = Vec::new();
        write_frame(&mut buf2, b"ab").unwrap();
        buf2[3] ^= 0x01; // length 2 -> 3; checksum no longer matches
        buf2.push(b'c');
        let mut r = &buf2[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Corrupted { .. })
        ));
    }

    #[test]
    fn request_round_trip() {
        let mut req = Request::new(7, RequestKind::Attack, "boston");
        req.source = 12;
        req.rank = 30;
        req.weight = WeightType::Length;
        req.cost = CostType::Lanes;
        req.deadline_ms = Some(250);
        let back = Request::parse(&req.to_payload()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_defaults_applied() {
        let req = Request::parse(br#"{"kind":"route","city":"sf","id":3}"#).unwrap();
        assert_eq!(req.id, 3);
        assert_eq!(req.kind, RequestKind::Route);
        assert_eq!(req.rank, 20);
        assert_eq!(req.weight, WeightType::Time);
        assert!(req.deadline_ms.is_none());
    }

    #[test]
    fn request_parse_rejects_malformed() {
        assert!(Request::parse(b"not json").is_err());
        assert!(Request::parse(b"[1,2]").is_err());
        assert!(Request::parse(br#"{"kind":"frobnicate","city":"x"}"#).is_err());
        assert!(Request::parse(br#"{"kind":"attack"}"#).is_err()); // no city
        assert!(Request::parse(br#"{"kind":"attack","city":"x","rank":-2}"#).is_err());
        assert!(Request::parse(br#"{"kind":"attack","city":"x","inject":"explode"}"#).is_err());
        assert!(Request::parse(br#"{"kind":"stats"}"#).is_ok()); // city-less kinds
        assert!(Request::parse(br#"{"kind":"metrics"}"#).is_ok());
        assert!(Request::parse(br#"{"kind":"health"}"#).is_ok());
    }

    #[test]
    fn inject_round_trips_and_kinds_declare_idempotency() {
        for fault in [Injection::Panic, Injection::Park] {
            let mut req = Request::new(5, RequestKind::Route, "boston");
            req.inject = Some(fault);
            let back = Request::parse(&req.to_payload()).unwrap();
            assert_eq!(back.inject, Some(fault));
            assert_eq!(back, req);
        }
        // Every current kind is a pure query; the contract is exercised
        // (rather than dead) through the resilient client's transport
        // retry gate.
        for kind in [
            "route", "attack", "perturb", "recon", "impact", "stats", "health",
        ] {
            assert!(RequestKind::from_name(kind).unwrap().is_idempotent());
        }
    }

    #[test]
    fn perturb_request_round_trips_with_its_knobs() {
        let mut req = Request::new(21, RequestKind::Perturb, "chicago");
        req.source = 5;
        req.rank = 12;
        req.perturb_cap = Some(2.5);
        req.integer_round = true;
        let back = Request::parse(&req.to_payload()).unwrap();
        assert_eq!(back, req);
        // knobs default off
        let plain = Request::parse(br#"{"kind":"perturb","city":"chicago","id":1}"#).unwrap();
        assert_eq!(plain.perturb_cap, None);
        assert!(!plain.integer_round);
        // malformed knobs rejected
        assert!(
            Request::parse(br#"{"kind":"perturb","city":"x","perturb_cap":-1}"#).is_err(),
            "non-positive cap must be rejected"
        );
        assert!(Request::parse(br#"{"kind":"perturb","city":"x","perturb_cap":"big"}"#).is_err());
        assert!(Request::parse(br#"{"kind":"perturb","city":"x","integer_round":1}"#).is_err());
    }

    #[test]
    fn ids_past_the_f64_precision_cliff_are_rejected() {
        // 2^53 is the last integer f64 represents exactly: accepted.
        let payload = format!(r#"{{"kind":"ping","id":{MAX_EXACT_ID}}}"#);
        let req = Request::parse(payload.as_bytes()).unwrap();
        assert_eq!(req.id, MAX_EXACT_ID);
        // 2^53 + 2 is the next representable f64 integer; anything the
        // parser sees past the cliff must come back as a structured
        // error, not a silently rounded id.
        let payload = format!(r#"{{"kind":"ping","id":{}}}"#, MAX_EXACT_ID + 2);
        let err = Request::parse(payload.as_bytes()).unwrap_err();
        assert!(err.contains("2^53"), "{err}");
        // 2^53 + 1 rounds *down* to 2^53 inside the f64 parse — exactly
        // the corruption the guard exists for. The guard cannot see the
        // original text, so this one slips through as 2^53; document
        // the boundary honestly: the contract is "ids <= 2^53".
        let huge = Request::parse(br#"{"kind":"ping","id":18446744073709551615}"#);
        assert!(huge.is_err(), "u64::MAX-sized ids must be rejected");
    }

    #[test]
    fn responses_parse_back() {
        let ok = ok_response(
            9,
            &RequestKind::Ping,
            JsonValue::Obj(std::collections::BTreeMap::new()),
        );
        let r = Response::parse(&ok).unwrap();
        assert!(r.ok);
        assert_eq!(r.id, 9);
        let err = error_response(4, "overloaded", Some(50));
        let r = Response::parse(&err).unwrap();
        assert!(!r.ok);
        assert_eq!(r.retry_after_ms, Some(50));
        assert_eq!(r.error.as_deref(), Some("overloaded"));
    }
}
