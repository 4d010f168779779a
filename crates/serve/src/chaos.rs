//! Chaos proxy: seeded, deterministic connection-fault injection.
//!
//! A [`ChaosProxy`] sits between clients and a real server, forwarding
//! frames in both directions and injecting transport faults on
//! *selected* connections: immediate resets, slow-loris request
//! writers, flipped payload bytes (caught by the frame checksum),
//! mid-frame response disconnects, truncated headers, and per-frame
//! artificial latency. Selection reuses the PR 2 `FaultPlan`
//! convention — a pure FNV-1a hash of `(seed, site, connection id)`
//! mapped to `[0, 1)` and compared against the site's rate — so a test
//! can *predict* which connections a plan hits
//! ([`ChaosPlan::selects`]) and the `resilience_proof` bench replays
//! the exact same fault schedule on every run with the same seed.
//!
//! Connection ids are assigned by accept order starting at 0. The
//! proxy is frame-aware (it parses the 8-byte header to find frame
//! boundaries) but checksum-agnostic: it forwards corrupted inbound
//! frames untouched and, when injecting corruption itself, flips a
//! payload byte while keeping the original header so the receiver's
//! checksum verification is what detects it — exactly the production
//! failure mode.

use crate::protocol::{configure_stream, FRAME_HEADER, MAX_FRAME};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Injection site: which fault a connection is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSite {
    /// Close the client connection immediately on accept.
    Reset,
    /// Dribble the first request frame to the server a few bytes at a
    /// time (slow-loris writer).
    SlowLoris,
    /// Flip one payload byte of the first request frame (header kept,
    /// so the server's checksum catches it).
    CorruptRequest,
    /// Flip one payload byte of the first response frame.
    CorruptResponse,
    /// Forward only half of the first response frame, then close
    /// (mid-frame disconnect).
    Disconnect,
    /// Forward only 3 of the 8 header bytes of the first response
    /// frame, then close (truncated length prefix).
    Truncate,
    /// Sleep before forwarding every response frame.
    Latency,
}

impl ChaosSite {
    fn tag(self) -> u8 {
        match self {
            ChaosSite::Reset => 1,
            ChaosSite::SlowLoris => 2,
            ChaosSite::CorruptRequest => 3,
            ChaosSite::CorruptResponse => 4,
            ChaosSite::Disconnect => 5,
            ChaosSite::Truncate => 6,
            ChaosSite::Latency => 7,
        }
    }

    fn counter(self) -> &'static str {
        match self {
            ChaosSite::Reset => "serve.chaos.inject.reset",
            ChaosSite::SlowLoris => "serve.chaos.inject.slow_loris",
            ChaosSite::CorruptRequest => "serve.chaos.inject.corrupt_request",
            ChaosSite::CorruptResponse => "serve.chaos.inject.corrupt_response",
            ChaosSite::Disconnect => "serve.chaos.inject.disconnect",
            ChaosSite::Truncate => "serve.chaos.inject.truncate",
            ChaosSite::Latency => "serve.chaos.inject.latency",
        }
    }
}

/// A seeded connection-fault plan. Rates are probabilities in `[0, 1]`
/// over connection ids; selection is a pure function of
/// `(seed, site, connection id)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed mixed into every selection decision.
    pub seed: u64,
    /// Fraction of connections reset on accept.
    pub reset: f64,
    /// Fraction of connections whose first request is dribbled.
    pub slow_loris: f64,
    /// Fraction of connections whose first request payload is flipped.
    pub corrupt_request: f64,
    /// Fraction of connections whose first response payload is flipped.
    pub corrupt_response: f64,
    /// Fraction of connections disconnected mid-response-frame.
    pub disconnect: f64,
    /// Fraction of connections whose first response header is cut to
    /// 3 bytes.
    pub truncate: f64,
    /// Fraction of connections with per-response-frame latency.
    pub latency: f64,
    /// Sleep injected per response frame on latency-selected
    /// connections.
    pub latency_ms: u64,
    /// Delay between dribbled chunks on slow-loris connections.
    pub slow_ms: u64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0,
            reset: 0.0,
            slow_loris: 0.0,
            corrupt_request: 0.0,
            corrupt_response: 0.0,
            disconnect: 0.0,
            truncate: 0.0,
            latency: 0.0,
            latency_ms: 20,
            slow_ms: 5,
        }
    }
}

impl ChaosPlan {
    /// Parses a spec like
    /// `seed=7,disconnect=0.1,slow_loris=0.05,corrupt_request=0.05,latency=0.2,latency_ms=10`.
    /// Unknown keys, malformed entries, and out-of-range rates are
    /// rejected.
    ///
    /// # Errors
    ///
    /// Describes the first bad entry.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec entry `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = || format!("chaos spec `{key}` has non-numeric value `{value}`");
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad())?,
                "reset" => plan.reset = value.parse().map_err(|_| bad())?,
                "slow_loris" => plan.slow_loris = value.parse().map_err(|_| bad())?,
                "corrupt_request" => plan.corrupt_request = value.parse().map_err(|_| bad())?,
                "corrupt_response" => plan.corrupt_response = value.parse().map_err(|_| bad())?,
                "disconnect" => plan.disconnect = value.parse().map_err(|_| bad())?,
                "truncate" => plan.truncate = value.parse().map_err(|_| bad())?,
                "latency" => plan.latency = value.parse().map_err(|_| bad())?,
                "latency_ms" => plan.latency_ms = value.parse().map_err(|_| bad())?,
                "slow_ms" => plan.slow_ms = value.parse().map_err(|_| bad())?,
                other => return Err(format!("unknown chaos spec key `{other}`")),
            }
        }
        for (name, rate) in [
            ("reset", plan.reset),
            ("slow_loris", plan.slow_loris),
            ("corrupt_request", plan.corrupt_request),
            ("corrupt_response", plan.corrupt_response),
            ("disconnect", plan.disconnect),
            ("truncate", plan.truncate),
            ("latency", plan.latency),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("chaos rate `{name}` = {rate} outside [0, 1]"));
            }
        }
        Ok(plan)
    }

    /// Whether this plan selects connection `conn_id` for faults at
    /// `site`. Pure and deterministic — tests use it to predict which
    /// connections are hit (same FNV-1a convention as
    /// `metro_core::FaultPlan::selects`).
    pub fn selects(&self, site: ChaosSite, conn_id: u64) -> bool {
        let rate = match site {
            ChaosSite::Reset => self.reset,
            ChaosSite::SlowLoris => self.slow_loris,
            ChaosSite::CorruptRequest => self.corrupt_request,
            ChaosSite::CorruptResponse => self.corrupt_response,
            ChaosSite::Disconnect => self.disconnect,
            ChaosSite::Truncate => self.truncate,
            ChaosSite::Latency => self.latency,
        };
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        // FNV-1a over (seed, site, conn_id), mapped to [0, 1).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for b in self.seed.to_le_bytes() {
            mix(b);
        }
        mix(site.tag());
        for b in conn_id.to_le_bytes() {
            mix(b);
        }
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }

    /// Deterministic payload byte index to flip when corrupting
    /// `conn_id`'s frame of `len` bytes.
    fn corrupt_index(&self, conn_id: u64, len: usize) -> usize {
        (self.seed ^ conn_id.wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize % len.max(1)
    }
}

/// One raw frame as the proxy sees it: the 8-byte header plus payload,
/// unvalidated (the proxy only needs the length to find boundaries).
struct RawFrame {
    header: [u8; FRAME_HEADER],
    payload: Vec<u8>,
}

impl RawFrame {
    /// The frame as it travels: header then payload, contiguous.
    fn bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(FRAME_HEADER + self.payload.len());
        bytes.extend_from_slice(&self.header);
        bytes.extend_from_slice(&self.payload);
        bytes
    }
}

/// Reads one raw frame without checksum validation. `Err(())` covers
/// EOF, transport errors, and unframeable (oversized) input — in every
/// case the pump gives up and closes both directions.
fn read_raw_frame(r: &mut impl Read) -> Result<RawFrame, ()> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    while got < FRAME_HEADER {
        match r.read(&mut header[got..]) {
            Ok(0) => return Err(()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME {
        // An oversized announcement cannot be frame-pumped; the real
        // server would close this connection anyway.
        return Err(());
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    Ok(RawFrame { header, payload })
}

fn shutdown_both(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

/// Client→server pump: forwards request frames, optionally dribbling
/// (slow-loris) or corrupting the first one.
fn pump_requests(mut from_client: TcpStream, mut to_server: TcpStream, plan: ChaosPlan, id: u64) {
    let slow = plan.selects(ChaosSite::SlowLoris, id);
    let corrupt = plan.selects(ChaosSite::CorruptRequest, id);
    let mut first = true;
    while let Ok(mut frame) = read_raw_frame(&mut from_client) {
        let ok = if first && corrupt {
            obs::inc(ChaosSite::CorruptRequest.counter());
            // Flip a payload byte but keep the original header: the
            // announced checksum no longer matches, which is what the
            // server must detect.
            if !frame.payload.is_empty() {
                let i = plan.corrupt_index(id, frame.payload.len());
                frame.payload[i] ^= 0xA5;
            }
            write_frame_raw(&mut to_server, &frame)
        } else if slow {
            if first {
                obs::inc(ChaosSite::SlowLoris.counter());
            }
            write_frame_slowly(&mut to_server, &frame, plan.slow_ms)
        } else {
            write_frame_raw(&mut to_server, &frame)
        };
        if !ok {
            break;
        }
        first = false;
    }
    shutdown_both(&from_client, &to_server);
}

/// Forwards a frame intact: header and payload in one write, the same
/// contract as [`crate::protocol::write_frame`], so the proxy adds no
/// transport stall of its own to the frames it passes through.
fn write_frame_raw(w: &mut TcpStream, frame: &RawFrame) -> bool {
    w.write_all(&frame.bytes()).and_then(|_| w.flush()).is_ok()
}

/// Dribbles a frame: header and the first payload bytes go out in
/// 3-byte chunks with a sleep between each, the remainder in one burst
/// (bounded total delay so the test stays fast while the receiver
/// still experiences a slow writer across its header/payload reads).
fn write_frame_slowly(w: &mut TcpStream, frame: &RawFrame, slow_ms: u64) -> bool {
    let bytes = frame.bytes();
    let dribbled = bytes.len().min(FRAME_HEADER + 16);
    for chunk in bytes[..dribbled].chunks(3) {
        if w.write_all(chunk).and_then(|_| w.flush()).is_err() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(slow_ms.max(1)));
    }
    w.write_all(&bytes[dribbled..])
        .and_then(|_| w.flush())
        .is_ok()
}

/// Server→client pump: forwards response frames, optionally delaying
/// each, and corrupting / cutting / truncating the first one.
fn pump_responses(mut from_server: TcpStream, mut to_client: TcpStream, plan: ChaosPlan, id: u64) {
    let latency = plan.selects(ChaosSite::Latency, id);
    // One-shot faults are mutually exclusive per connection; priority
    // order keeps selection deterministic when rates overlap.
    let oneshot = [
        ChaosSite::Truncate,
        ChaosSite::Disconnect,
        ChaosSite::CorruptResponse,
    ]
    .into_iter()
    .find(|&s| plan.selects(s, id));
    let mut first = true;
    while let Ok(mut frame) = read_raw_frame(&mut from_server) {
        if latency {
            if first {
                obs::inc(ChaosSite::Latency.counter());
            }
            std::thread::sleep(Duration::from_millis(plan.latency_ms.max(1)));
        }
        match (first, oneshot) {
            (true, Some(ChaosSite::Truncate)) => {
                obs::inc(ChaosSite::Truncate.counter());
                let _ = to_client
                    .write_all(&frame.header[..3])
                    .and_then(|_| to_client.flush());
                break;
            }
            (true, Some(ChaosSite::Disconnect)) => {
                obs::inc(ChaosSite::Disconnect.counter());
                let half = frame.payload.len() / 2;
                let _ = to_client
                    .write_all(&frame.header)
                    .and_then(|_| to_client.write_all(&frame.payload[..half]))
                    .and_then(|_| to_client.flush());
                break;
            }
            (true, Some(ChaosSite::CorruptResponse)) => {
                obs::inc(ChaosSite::CorruptResponse.counter());
                if !frame.payload.is_empty() {
                    let i = plan.corrupt_index(id, frame.payload.len());
                    frame.payload[i] ^= 0xA5;
                }
                if !write_frame_raw(&mut to_client, &frame) {
                    break;
                }
            }
            _ => {
                if !write_frame_raw(&mut to_client, &frame) {
                    break;
                }
            }
        }
        first = false;
    }
    shutdown_both(&from_server, &to_client);
}

/// A running chaos proxy: accepts on its own address, forwards every
/// connection to `upstream` through the fault-injecting pumps.
#[derive(Debug)]
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `listen` and starts forwarding to `upstream` under `plan`.
    ///
    /// # Errors
    ///
    /// Describes the bind or spawn failure.
    pub fn start(
        listen: &str,
        upstream: SocketAddr,
        plan: ChaosPlan,
    ) -> Result<ChaosProxy, String> {
        let listener = TcpListener::bind(listen)
            .map_err(|e| format!("chaos proxy cannot bind {listen}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("chaos proxy cannot set nonblocking: {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("chaos proxy cannot read local addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("chaos-accept".to_string())
                .spawn(move || accept_loop(listener, upstream, plan, &stop))
                .map_err(|e| format!("chaos proxy cannot spawn accept loop: {e}"))?
        };
        Ok(ChaosProxy {
            local_addr,
            stop,
            accept: Some(accept),
        })
    }

    /// Where the proxy is listening (clients connect here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the accept loop. Established pump
    /// threads exit when either side of their connection closes.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, upstream: SocketAddr, plan: ChaosPlan, stop: &AtomicBool) {
    let conn_seq = AtomicU64::new(0);
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _peer)) => {
                let id = conn_seq.fetch_add(1, Ordering::Relaxed);
                obs::inc("serve.chaos.connections");
                handle_conn(client, upstream, plan, id);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(client: TcpStream, upstream: SocketAddr, plan: ChaosPlan, id: u64) {
    if plan.selects(ChaosSite::Reset, id) {
        // Immediate close on accept: the client sees its next read or
        // write fail (reset storm).
        obs::inc(ChaosSite::Reset.counter());
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let configured = configure_stream(&client).and_then(|_| configure_stream(&server));
    let (Ok(()), Ok(client_r), Ok(server_r)) = (configured, client.try_clone(), server.try_clone())
    else {
        shutdown_both(&client, &server);
        return;
    };
    let spawn = |name: String, f: Box<dyn FnOnce() + Send>| {
        let _ = std::thread::Builder::new().name(name).spawn(f);
    };
    spawn(
        format!("chaos-c2s-{id}"),
        Box::new(move || pump_requests(client_r, server, plan, id)),
    );
    spawn(
        format!("chaos-s2c-{id}"),
        Box::new(move || pump_responses(server_r, client, plan, id)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = ChaosPlan::parse(
            "seed=7, reset=0.05, slow_loris=0.1, corrupt_request=0.04, corrupt_response=0.04, \
             disconnect=0.08, truncate=0.04, latency=0.2, latency_ms=10, slow_ms=2",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.reset, 0.05);
        assert_eq!(plan.slow_loris, 0.1);
        assert_eq!(plan.disconnect, 0.08);
        assert_eq!(plan.latency_ms, 10);
        assert_eq!(plan.slow_ms, 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChaosPlan::parse("nonsense").is_err());
        assert!(ChaosPlan::parse("frobnicate=1").is_err());
        assert!(ChaosPlan::parse("disconnect=2.0").is_err());
        assert!(ChaosPlan::parse("seed=x").is_err());
    }

    #[test]
    fn selection_is_deterministic_rate_bounded_and_site_independent() {
        let plan = ChaosPlan {
            seed: 42,
            disconnect: 0.3,
            latency: 0.3,
            ..ChaosPlan::default()
        };
        let hits: Vec<bool> = (0..1000)
            .map(|id| plan.selects(ChaosSite::Disconnect, id))
            .collect();
        let again: Vec<bool> = (0..1000)
            .map(|id| plan.selects(ChaosSite::Disconnect, id))
            .collect();
        assert_eq!(hits, again);
        let count = hits.iter().filter(|&&h| h).count();
        assert!((150..=450).contains(&count), "hit count {count}");
        // Site tag must be mixed in: the two sites disagree somewhere.
        assert!(
            (0..100).any(|id| plan.selects(ChaosSite::Disconnect, id)
                != plan.selects(ChaosSite::Latency, id)),
            "site tag not mixed into the hash"
        );
        // Zero and one rates are exact.
        assert!((0..50).all(|id| !plan.selects(ChaosSite::Reset, id)));
        let all = ChaosPlan {
            truncate: 1.0,
            ..ChaosPlan::default()
        };
        assert!((0..50).all(|id| all.selects(ChaosSite::Truncate, id)));
    }

    #[test]
    fn passthrough_proxy_is_transparent() {
        use crate::protocol::{read_frame, write_frame};
        // A trivial echo upstream: reads one frame, echoes it back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let payload = read_frame(&mut s).unwrap();
            write_frame(&mut s, &payload).unwrap();
        });
        let proxy = ChaosProxy::start("127.0.0.1:0", upstream_addr, ChaosPlan::default()).unwrap();
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        write_frame(&mut conn, b"{\"x\":1}").unwrap();
        assert_eq!(read_frame(&mut conn).unwrap(), b"{\"x\":1}");
        echo.join().unwrap();
        proxy.stop();
    }
}
