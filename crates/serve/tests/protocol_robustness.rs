//! Protocol robustness: malformed input must produce a structured error
//! (or a clean close) and never take the server down — well-formed
//! requests keep flowing afterwards. The second half drives the same
//! contract through the seeded [`ChaosProxy`]: the faults arrive from
//! a hostile network instead of a hand-crafted socket write, and the
//! resilient client must absorb the retryable ones.

use serve::{
    read_frame, write_frame, ChaosPlan, ChaosProxy, ChaosSite, Client, FrameError, Injection,
    Request, RequestKind, ResilientClient, Response, RetryBudget, RetryPolicy, Server,
    ServerConfig, MAX_FRAME,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn tiny_server() -> Server {
    Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn ping_ok(stream: &mut TcpStream, id: u64) {
    let req = Request::new(id, RequestKind::Ping, "");
    write_frame(stream, &req.to_payload()).unwrap();
    let resp = Response::parse(&read_frame(stream).unwrap()).unwrap();
    assert!(resp.ok, "ping {id} failed: {:?}", resp.error);
    assert_eq!(resp.id, id);
}

#[test]
fn invalid_json_gets_structured_error_and_connection_survives() {
    let server = tiny_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, b"{this is not json").unwrap();
    let resp = Response::parse(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(!resp.ok);
    assert!(
        resp.error.as_deref().unwrap_or("").contains("JSON"),
        "unexpected error: {:?}",
        resp.error
    );
    // Same connection, same server: still serving.
    ping_ok(&mut stream, 1);
    write_frame(&mut stream, b"[1,2,3]").unwrap();
    let resp = Response::parse(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(!resp.ok);
    ping_ok(&mut stream, 2);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_answered_then_closed() {
    let server = tiny_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A header announcing a frame over the cap; no body follows. The
    // length check happens before checksum verification, so the 4
    // checksum bytes can be anything.
    stream
        .write_all(&((MAX_FRAME + 1) as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&[0u8; 4]).unwrap();
    stream.flush().unwrap();
    let resp = Response::parse(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.as_deref().unwrap_or("").contains("exceeds"));
    // The stream cannot be resynchronized: the server closes it.
    assert!(matches!(
        read_frame(&mut stream),
        Err(FrameError::Closed) | Err(FrameError::Io(_))
    ));
    // New connections are unaffected.
    let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
    ping_ok(&mut fresh, 3);
    server.shutdown();
}

#[test]
fn truncated_frame_closes_cleanly_and_server_keeps_serving() {
    let server = tiny_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Claim 64 bytes (with a filler checksum), send 5, then
    // half-close: the server sees EOF mid-frame and drops the
    // connection without a response.
    stream.write_all(&64u32.to_be_bytes()).unwrap();
    stream.write_all(&[0u8; 4]).unwrap();
    stream.write_all(b"hello").unwrap();
    stream.flush().unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert!(matches!(
        read_frame(&mut stream),
        Err(FrameError::Closed) | Err(FrameError::Io(_))
    ));
    let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
    ping_ok(&mut fresh, 4);
    server.shutdown();
}

#[test]
fn unknown_city_and_bad_parameters_are_per_request_errors() {
    let server = tiny_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let checks: [(&[u8], &str); 4] = [
        (
            br#"{"kind":"route","city":"atlantis","id":1}"#,
            "unknown city",
        ),
        (
            br#"{"kind":"route","city":"boston","id":2,"hospital":99}"#,
            "out of range",
        ),
        (
            br#"{"kind":"route","city":"boston","id":3,"source":99999999}"#,
            "out of range",
        ),
        (
            br#"{"kind":"attack","city":"boston","id":4,"algorithm":"magic"}"#,
            "unknown algorithm",
        ),
    ];
    for (payload, needle) in checks {
        write_frame(&mut stream, payload).unwrap();
        let resp = Response::parse(&read_frame(&mut stream).unwrap()).unwrap();
        assert!(!resp.ok);
        let msg = resp.error.unwrap_or_default();
        assert!(msg.contains(needle), "{msg:?} does not mention {needle:?}");
    }
    ping_ok(&mut stream, 5);
    server.shutdown();
}

/// A proxy that faults every connection at `site == 1.0` rates.
fn chaos_front(server: &Server, plan: ChaosPlan) -> ChaosProxy {
    ChaosProxy::start("127.0.0.1:0", server.local_addr(), plan).expect("chaos proxy starts")
}

#[test]
fn slow_writer_header_is_tolerated() {
    let server = tiny_server();
    let proxy = chaos_front(
        &server,
        ChaosPlan {
            slow_loris: 1.0,
            slow_ms: 1,
            ..ChaosPlan::default()
        },
    );
    // The reader must survive a header that arrives 3 bytes at a time;
    // a second request on the same dribbling connection still works.
    let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
    ping_ok(&mut stream, 6);
    ping_ok(&mut stream, 7);
    proxy.stop();
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_is_retried_to_success() {
    // Seed-search a plan that cuts the first proxied connection but
    // spares the second: the retry lands on a clean path and the test
    // stays fully deterministic.
    let plan = (0..u64::MAX)
        .map(|seed| ChaosPlan {
            seed,
            disconnect: 0.5,
            ..ChaosPlan::default()
        })
        .find(|p| p.selects(ChaosSite::Disconnect, 0) && !p.selects(ChaosSite::Disconnect, 1))
        .expect("some seed separates conn 0 from conn 1");
    let server = tiny_server();
    let proxy = chaos_front(&server, plan);
    let mut client = ResilientClient::new(
        &proxy.local_addr().to_string(),
        RetryPolicy {
            base_backoff: std::time::Duration::from_millis(1),
            ..RetryPolicy::default()
        },
    );
    let call = client
        .call(&Request::new(8, RequestKind::Ping, ""))
        .expect("retry clears the mid-frame disconnect");
    assert!(call.response.ok);
    assert_eq!(call.attempts, 2, "first attempt is cut mid-frame");
    assert_eq!(client.reconnects(), 1);
    proxy.stop();
    server.shutdown();
}

#[test]
fn corrupted_request_gets_structured_checksum_error() {
    let server = tiny_server();
    let proxy = chaos_front(
        &server,
        ChaosPlan {
            corrupt_request: 1.0,
            ..ChaosPlan::default()
        },
    );
    // The proxy flips one payload byte but keeps the header, so the
    // server's checksum verification must reject the frame with a
    // structured error before closing the unsyncable stream.
    let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Request::new(9, RequestKind::Ping, "").to_payload(),
    )
    .unwrap();
    let resp = Response::parse(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(!resp.ok);
    assert!(
        resp.error.as_deref().unwrap_or("").contains("checksum"),
        "unexpected error: {:?}",
        resp.error
    );
    assert!(matches!(
        read_frame(&mut stream),
        Err(FrameError::Closed) | Err(FrameError::Io(_))
    ));
    // The fault was transport-local: a direct connection is unaffected.
    let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
    ping_ok(&mut fresh, 10);
    proxy.stop();
    server.shutdown();
}

/// Polls `stats` until the admission queue is empty.
fn wait_for_empty_queue(control: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = control
            .roundtrip(&Request::new(1, RequestKind::Stats, ""))
            .expect("stats roundtrip");
        let depth = resp
            .result
            .as_ref()
            .and_then(|r| r.get("queue_depth"))
            .and_then(obs::JsonValue::as_u64);
        if depth == Some(0) {
            return;
        }
        assert!(Instant::now() < deadline, "queue depth stuck at {depth:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn shed_request_is_retried_after_the_hint_and_succeeds() {
    // One worker, one queue slot. The worker is parked by an injected
    // fault until the queue sheds a request, and a filler job holds the
    // only slot, so the client's first attempt is shed with a retry
    // hint; the shed releases the worker, and honoring the hint must
    // then succeed. No step depends on how long real work takes.
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 1,
        queue_depth: 1,
        retry_after_ms: 20,
        fault_injection: true,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut control = Client::connect(&server.local_addr()).unwrap();
    let mut hog = TcpStream::connect(server.local_addr()).unwrap();
    let mut park = Request::new(20, RequestKind::Route, "boston");
    park.source = 3;
    park.inject = Some(Injection::Park);
    write_frame(&mut hog, &park.to_payload()).unwrap();
    // A connection's frames are handled in order and ping is answered
    // inline, so the pong proves the park job was admitted; an empty
    // queue after that proves the worker took it.
    ping_ok(&mut hog, 40);
    wait_for_empty_queue(&mut control);
    let mut filler = Request::new(21, RequestKind::Route, "boston");
    filler.source = 5;
    write_frame(&mut hog, &filler.to_payload()).unwrap();
    ping_ok(&mut hog, 41); // the filler now holds the only slot

    let max_attempts = 200;
    let mut client = ResilientClient::new(
        &server.local_addr().to_string(),
        RetryPolicy {
            // Poll tightly: the hint (20 ms) dominates the backoff. The
            // attempt cap only bounds a debug build on a loaded host
            // draining the park and filler jobs; the call returns as
            // soon as the queue frees.
            max_attempts,
            max_backoff: Duration::from_millis(50),
            ..RetryPolicy::default()
        },
    )
    // One retry token per attempt, so the budget never ends the call
    // before the attempt cap does.
    .with_budget(RetryBudget::new(max_attempts as f64, 0.0));
    let mut req = Request::new(30, RequestKind::Route, "boston");
    req.source = 17;
    let call = client.call(&req).expect("shed request clears on retry");
    assert!(
        call.response.ok,
        "final response: {:?}",
        call.response.error
    );
    assert!(
        call.attempts >= 2,
        "expected at least one shed-and-retry, got {} attempt(s)",
        call.attempts
    );
    assert!(client.retries() >= 1);
    // The parked and filler jobs are answered too, in order.
    for id in [20, 21] {
        let resp = Response::parse(&read_frame(&mut hog).unwrap()).unwrap();
        assert!(resp.ok, "job {id} failed: {:?}", resp.error);
        assert_eq!(resp.id, id);
    }
    drop((hog, control, client));
    server.shutdown();
}
