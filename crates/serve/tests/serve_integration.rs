//! End-to-end service behavior: concurrent mixed workloads, the
//! batched/unbatched byte-identity contract, admission control,
//! per-request deadlines, and graceful drain under load.

use obs::JsonValue;
use serve::{Client, Request, RequestKind, Server, ServerConfig};
use std::collections::BTreeMap;

fn server_with(batching: bool, workers: usize) -> Server {
    Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers,
        batching,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// A deterministic mixed request list; ids are list indices so the two
/// modes can be compared response-by-response.
fn workload() -> Vec<Request> {
    let mut reqs = Vec::new();
    for (i, (kind, source, rank)) in [
        (RequestKind::Route, 3usize, 5usize),
        (RequestKind::Route, 11, 8),
        (RequestKind::Attack, 3, 5),
        (RequestKind::Attack, 17, 6),
        (RequestKind::Route, 3, 5),
        (RequestKind::Recon, 0, 1),
        (RequestKind::Attack, 11, 8),
        (RequestKind::Perturb, 3, 5),
        (RequestKind::Perturb, 17, 6),
        (RequestKind::Route, 29, 4),
    ]
    .into_iter()
    .enumerate()
    {
        let mut r = Request::new(i as u64, kind, "boston");
        r.source = source;
        r.rank = rank;
        r.top = 5;
        reqs.push(r);
    }
    reqs
}

#[test]
fn concurrent_clients_all_get_their_own_answers() {
    let server = server_with(true, 2);
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                for i in 0..3u64 {
                    let id = t * 100 + i;
                    let mut req = Request::new(id, RequestKind::Route, "boston");
                    req.source = (3 + 7 * t as usize + i as usize) % 30;
                    req.rank = 4;
                    let resp = client.roundtrip(&req).unwrap();
                    assert_eq!(resp.id, id, "response routed to the wrong request");
                    assert!(resp.ok, "route failed: {:?}", resp.error);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn batched_and_unbatched_responses_are_byte_identical() {
    let reqs = workload();
    let mut by_mode: Vec<BTreeMap<u64, Vec<u8>>> = Vec::new();
    for batching in [true, false] {
        let server = server_with(batching, 2);
        let mut client = Client::connect(&server.local_addr()).unwrap();
        let mut responses = BTreeMap::new();
        for req in &reqs {
            let raw = client.roundtrip_raw(&req.to_payload()).unwrap();
            let parsed = serve::Response::parse(&raw).unwrap();
            assert!(parsed.ok, "request {} failed: {:?}", req.id, parsed.error);
            responses.insert(parsed.id, raw);
        }
        server.shutdown();
        by_mode.push(responses);
    }
    assert_eq!(by_mode[0].len(), reqs.len());
    for (id, raw) in &by_mode[0] {
        assert_eq!(
            Some(raw),
            by_mode[1].get(id),
            "response {id} differs between batched and unbatched mode"
        );
    }
}

#[test]
fn batching_reuses_contexts_across_requests() {
    let server = server_with(true, 1);
    let mut client = Client::connect(&server.local_addr()).unwrap();
    // Same (network, weight, target) key every time: after the first
    // request builds the shared context, the rest must hit it.
    for i in 0..4u64 {
        let mut req = Request::new(i, RequestKind::Route, "boston");
        req.source = 3 + i as usize;
        req.rank = 3;
        assert!(client.roundtrip(&req).unwrap().ok);
    }
    let stats = client
        .roundtrip(&Request::new(99, RequestKind::Stats, ""))
        .unwrap();
    let result = stats.result.expect("stats result");
    let hits = result
        .get("counters")
        .and_then(|c| c.get("serve.reuse.ctx.hit"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    assert!(hits > 0, "expected shared-context hits, got {result:?}");
    server.shutdown();
}

#[test]
fn perturb_requests_return_structured_perturbations() {
    let server = server_with(true, 1);
    let mut client = Client::connect(&server.local_addr()).unwrap();
    let mut req = Request::new(7, RequestKind::Perturb, "boston");
    req.source = 3;
    req.rank = 5;
    let resp = client.roundtrip(&req).unwrap();
    assert!(resp.ok, "perturb failed: {:?}", resp.error);
    let result = resp.result.expect("perturb result");
    assert_eq!(
        result.get("status").and_then(JsonValue::as_str),
        Some("success"),
        "{result:?}"
    );
    let perturbed = result
        .get("perturbed")
        .and_then(JsonValue::as_arr)
        .expect("perturbed edge array");
    let deltas = result
        .get("deltas")
        .and_then(JsonValue::as_arr)
        .expect("delta array");
    assert!(!perturbed.is_empty(), "{result:?}");
    assert_eq!(perturbed.len(), deltas.len());
    let total_delta = result
        .get("total_delta")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    assert!(total_delta > 0.0, "{result:?}");
    assert_eq!(
        result.get("algorithm").and_then(JsonValue::as_str),
        Some("LP-Perturb")
    );
    // Per-edge caps travel through the wire and shape the answer: a cap
    // forces the delta to spread without breaking certification.
    let mut capped = req.clone();
    capped.id = 8;
    capped.perturb_cap = Some(total_delta.max(0.5));
    let resp = client.roundtrip(&capped).unwrap();
    assert!(resp.ok, "capped perturb failed: {:?}", resp.error);
    // Recon now prices each segment for perturbation too.
    let mut recon = Request::new(9, RequestKind::Recon, "boston");
    recon.top = 3;
    let resp = client.roundtrip(&recon).unwrap();
    assert!(resp.ok);
    let segments = resp
        .result
        .as_ref()
        .and_then(|r| r.get("segments"))
        .and_then(JsonValue::as_arr)
        .expect("segments");
    for seg in segments {
        assert!(
            seg.get("perturb_unit_cost")
                .and_then(JsonValue::as_f64)
                .is_some_and(|c| c > 0.0),
            "{seg:?}"
        );
    }
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_retry_hint() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let client = Client::connect(&server.local_addr()).unwrap();
    // Occupy the single worker with a heavy equilibrium computation,
    // then rapid-fire pipelined requests: capacity 1 admits one, the
    // rest are shed with a retry-after hint.
    let mut heavy = Request::new(0, RequestKind::Impact, "boston");
    heavy.source = 3;
    heavy.rank = 4;
    heavy.trips = 400;
    let mut payloads = vec![heavy.to_payload()];
    for i in 1..=6u64 {
        let mut light = Request::new(i, RequestKind::Route, "boston");
        light.source = 3;
        light.rank = 3;
        payloads.push(light.to_payload());
    }
    use std::io::Write as _;
    let mut framed = Vec::new();
    for p in &payloads {
        serve::write_frame(&mut framed, p).unwrap();
    }
    // One write: all requests land before the worker can drain them.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&framed).unwrap();
    raw.flush().unwrap();
    let mut shed = 0;
    let mut ok = 0;
    for _ in 0..payloads.len() {
        let resp = serve::Response::parse(&serve::read_frame(&mut raw).unwrap()).unwrap();
        if resp.ok {
            ok += 1;
        } else {
            assert!(
                resp.retry_after_ms.is_some(),
                "non-shed error: {:?}",
                resp.error
            );
            shed += 1;
        }
    }
    assert!(shed > 0, "expected load shedding at queue depth 1");
    // The heavy job was admitted before the flood, so it always
    // completes; lights race the worker and may all be shed.
    assert!(ok >= 1, "admitted work still completes under shedding");
    assert_eq!(ok + shed, payloads.len());
    // Shedding never poisons the connection: the next request goes
    // through once the backlog clears.
    let mut after = Request::new(50, RequestKind::Route, "boston");
    after.source = 3;
    after.rank = 3;
    serve::write_frame(&mut raw, &after.to_payload()).unwrap();
    let resp = serve::Response::parse(&serve::read_frame(&mut raw).unwrap()).unwrap();
    assert!(resp.ok, "post-shed request failed: {:?}", resp.error);
    drop(client);
    server.shutdown();
}

#[test]
fn expired_deadline_yields_timed_out_status_not_a_dropped_connection() {
    let server = server_with(true, 1);
    let mut client = Client::connect(&server.local_addr()).unwrap();
    let mut req = Request::new(5, RequestKind::Attack, "boston");
    req.source = 3;
    req.rank = 5;
    req.deadline_ms = Some(0);
    let resp = client.roundtrip(&req).unwrap();
    assert!(resp.ok, "timed-out attack still gets a structured answer");
    let status = resp
        .result
        .as_ref()
        .and_then(|r| r.get("status"))
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    assert_eq!(status, "timed_out");
    // The connection survives the timeout.
    let pong = client
        .roundtrip(&Request::new(6, RequestKind::Ping, ""))
        .unwrap();
    assert!(pong.ok);
    server.shutdown();
}

#[test]
fn responses_are_byte_identical_with_tracing_on_and_off() {
    // The tracing plane observes requests but must never alter their
    // answers: raw response frames are compared byte-for-byte.
    let reqs = workload();
    let mut by_mode: Vec<BTreeMap<u64, Vec<u8>>> = Vec::new();
    for tracing in [true, false] {
        let server = Server::start(ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            cities: vec!["boston".to_string()],
            workers: 2,
            tracing,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(&server.local_addr()).unwrap();
        let mut responses = BTreeMap::new();
        for req in &reqs {
            let raw = client.roundtrip_raw(&req.to_payload()).unwrap();
            let parsed = serve::Response::parse(&raw).unwrap();
            assert!(parsed.ok, "request {} failed: {:?}", req.id, parsed.error);
            responses.insert(parsed.id, raw);
        }
        server.shutdown();
        by_mode.push(responses);
    }
    assert_eq!(by_mode[0].len(), reqs.len());
    for (id, raw) in &by_mode[0] {
        assert_eq!(
            Some(raw),
            by_mode[1].get(id),
            "response {id} differs with tracing on vs off"
        );
    }
}

#[test]
fn metrics_request_returns_lint_clean_prometheus_text_with_windows() {
    obs::set_enabled(true);
    let server = server_with(true, 1);
    let mut client = Client::connect(&server.local_addr()).unwrap();
    for i in 0..3u64 {
        let mut req = Request::new(i, RequestKind::Route, "boston");
        req.source = 3 + i as usize;
        req.rank = 3;
        assert!(client.roundtrip(&req).unwrap().ok);
    }
    let resp = client
        .roundtrip(&Request::new(99, RequestKind::Metrics, ""))
        .unwrap();
    assert!(resp.ok, "metrics request failed: {:?}", resp.error);
    let result = resp.result.expect("metrics result");
    assert_eq!(
        result.get("content_type").and_then(JsonValue::as_str),
        Some("text/plain; version=0.0.4")
    );
    let text = result
        .get("exposition")
        .and_then(JsonValue::as_str)
        .expect("exposition text")
        .to_string();
    obs::prometheus::lint(&text).expect("exposition passes the format lint");
    // The rolling windows show up as labeled gauges with quantiles.
    for needle in [
        "serve_requests_window_rate{window=\"10s\"}",
        "serve_requests_window_rate{window=\"60s\"}",
        "serve_latency_us_window{window=\"10s\",q=\"0.5\"}",
        "serve_latency_us_window_count{window=\"10s\"}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    server.shutdown();
}

#[test]
fn slow_query_log_captures_span_trees_of_slow_requests() {
    let path = std::env::temp_dir().join(format!("metro_slowlog_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 1,
        // Threshold 0: every traced request is "slow".
        slow_ms: Some(0),
        slow_log: Some(path.display().to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server.local_addr()).unwrap();
    for i in 0..2u64 {
        let mut req = Request::new(i, RequestKind::Route, "boston");
        req.source = 3 + i as usize;
        req.rank = 3;
        assert!(client.roundtrip(&req).unwrap().ok);
    }
    server.shutdown();
    let text = std::fs::read_to_string(&path).expect("slow log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one record per slow request:\n{text}");
    for line in lines {
        let v = JsonValue::parse(line).expect("slow log line is JSON");
        assert!(
            v.get("trace_id").and_then(JsonValue::as_str).is_some(),
            "missing trace_id in {line}"
        );
        assert_eq!(
            v.get("label").and_then(JsonValue::as_str),
            Some("serve/route")
        );
        let events = v.get("events").and_then(JsonValue::as_arr).unwrap();
        assert!(!events.is_empty(), "span tree is empty: {line}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn drain_flushes_final_metrics_snapshot_to_file() {
    obs::set_enabled(true);
    let path = std::env::temp_dir().join(format!("metro_metrics_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 1,
        metrics_file: Some(path.display().to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server.local_addr()).unwrap();
    let mut req = Request::new(1, RequestKind::Route, "boston");
    req.source = 3;
    req.rank = 3;
    assert!(client.roundtrip(&req).unwrap().ok);
    server.shutdown();
    let text = std::fs::read_to_string(&path).expect("metrics file written on drain");
    let snap = obs::Snapshot::from_jsonl(&text).expect("metrics file parses");
    assert!(
        snap.counter("serve.requests.admitted").unwrap_or(0) >= 1,
        "final snapshot records the request:\n{text}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn drain_finishes_in_flight_work_and_rejects_new_requests() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 1,
        drain_deadline: std::time::Duration::from_secs(60),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(&addr).unwrap();
    // Put a heavy request in flight, then drain while it runs.
    let mut heavy = Request::new(1, RequestKind::Impact, "boston");
    heavy.source = 3;
    heavy.rank = 4;
    heavy.trips = 100;
    let in_flight = std::thread::spawn(move || client.roundtrip(&heavy));
    std::thread::sleep(std::time::Duration::from_millis(30));
    server.drain();
    // The in-flight request completes.
    let resp = in_flight.join().unwrap().unwrap();
    assert!(
        resp.ok,
        "in-flight request aborted by drain: {:?}",
        resp.error
    );
    // New connections are refused (listener closed) or new requests on
    // the old connection rejected — either way no new work is accepted.
    let mut late = Client::connect(&addr)
        .ok()
        .and_then(|mut c| c.roundtrip(&Request::new(2, RequestKind::Ping, "")).ok());
    if let Some(resp) = late.take() {
        // A racing accept may still answer ping; real work is refused.
        let _ = resp;
    }
    server.join();
}

#[test]
fn health_reports_pool_breakers_and_drain_state() {
    let server = server_with(true, 2);
    let mut client = Client::connect(&server.local_addr()).unwrap();
    // Workers register themselves as they start; give the pool a
    // moment to come fully alive before asserting on the snapshot.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let result = loop {
        let resp = client
            .roundtrip(&Request::new(1, RequestKind::Health, ""))
            .unwrap();
        assert!(resp.ok, "health failed: {:?}", resp.error);
        let result = resp.result.expect("health result");
        let alive = result
            .get("workers")
            .and_then(|w| w.get("alive"))
            .and_then(JsonValue::as_u64);
        if alive == Some(2) || std::time::Instant::now() > deadline {
            break result;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert_eq!(result.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert!(matches!(
        result.get("draining"),
        Some(JsonValue::Bool(false))
    ));
    assert!(matches!(
        result.get("escalated"),
        Some(JsonValue::Bool(false))
    ));
    let workers = result.get("workers").expect("workers object");
    assert_eq!(
        workers.get("configured").and_then(JsonValue::as_u64),
        Some(2)
    );
    assert_eq!(workers.get("alive").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(workers.get("restarts").and_then(JsonValue::as_u64), Some(0));
    // One resident city, one breaker, born closed.
    let state = result
        .get("breakers")
        .and_then(|b| b.get("boston"))
        .and_then(|b| b.get("state"))
        .and_then(JsonValue::as_str);
    assert_eq!(state, Some("closed"));
    server.shutdown();
}

#[test]
fn sequential_pings_on_one_connection_are_not_stalled_by_the_transport() {
    // Ping is answered inline by the connection's reader, so its round
    // trip is almost pure transport. When Nagle's algorithm holds a
    // frame's payload back behind its separately written header, each
    // round trip waits out the peer's delayed ACK (~40 ms on Linux);
    // without that stall it is well under a millisecond even in a
    // debug build.
    let server = server_with(true, 1);
    let mut client = Client::connect(&server.local_addr()).unwrap();
    let mut samples: Vec<std::time::Duration> = (0..30u64)
        .map(|id| {
            let sent = std::time::Instant::now();
            let resp = client
                .roundtrip(&Request::new(id, RequestKind::Ping, ""))
                .expect("ping roundtrip");
            let rtt = sent.elapsed();
            assert!(resp.ok && resp.id == id, "ping {id}: {:?}", resp.error);
            rtt
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(10),
        "median ping round trip {median:?} (all: {samples:?})"
    );
    drop(client);
    server.shutdown();
}
