//! Survival-layer integration: injected worker panics must be answered
//! as final errors, the supervisor must put the pool back at full
//! strength while the budget holds and escalate to a drain when it
//! runs out, the per-city circuit breaker must fast-fail, cool
//! down, and close again, and a retrying client must get correct
//! answers through a seeded mix of connection faults.

use serve::{
    BreakerConfig, ChaosPlan, ChaosProxy, Client, Request, RequestKind, ResilientClient,
    RetryPolicy, Server, ServerConfig,
};
use std::time::{Duration, Instant};

fn panic_request(id: u64) -> Request {
    let mut req = Request::new(id, RequestKind::Route, "boston");
    req.source = 3;
    req.inject = Some(serve::Injection::Panic);
    req
}

/// Health fields relevant here: (alive, configured, restarts, draining, escalated).
fn health(client: &mut Client) -> (u64, u64, u64, bool, bool) {
    let resp = client
        .roundtrip(&Request::new(serve::MAX_EXACT_ID, RequestKind::Health, ""))
        .expect("health roundtrip");
    assert!(resp.ok, "health failed: {:?}", resp.error);
    let result = resp.result.expect("health result");
    let workers = result.get("workers").expect("workers object").clone();
    let num = |k: &str| workers.get(k).and_then(obs::JsonValue::as_u64).unwrap_or(0);
    let flag = |k: &str| matches!(result.get(k), Some(obs::JsonValue::Bool(true)));
    (
        num("alive"),
        num("configured"),
        num("restarts"),
        flag("draining"),
        flag("escalated"),
    )
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

#[test]
fn injected_panic_is_answered_and_the_pool_recovers() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 2,
        fault_injection: true,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(&server.local_addr()).unwrap();
    let resp = client.roundtrip(&panic_request(1)).unwrap();
    assert!(!resp.ok);
    assert!(
        resp.error.as_deref().unwrap_or("").contains("panicked"),
        "unexpected error: {:?}",
        resp.error
    );
    // A poison pill must never carry a retry hint.
    assert_eq!(resp.retry_after_ms, None);
    // The supervisor replaces the dead worker.
    assert!(
        wait_until(Duration::from_secs(5), || {
            let (alive, configured, restarts, _, _) = health(&mut client);
            alive == configured && restarts >= 1
        }),
        "pool never recovered"
    );
    // And the recovered pool still answers real queries.
    let mut route = Request::new(2, RequestKind::Route, "boston");
    route.source = 5;
    let resp = client.roundtrip(&route).unwrap();
    assert!(resp.ok, "post-recovery route failed: {:?}", resp.error);
    server.shutdown();
}

#[test]
fn exhausted_restart_budget_escalates_to_drain() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 1,
        fault_injection: true,
        restart_burst: 1,
        restart_per_sec: 0.0,
        drain_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(&server.local_addr()).unwrap();
    // First panic: the budget's single token buys a restart.
    let resp = client.roundtrip(&panic_request(1)).unwrap();
    assert!(!resp.ok);
    assert!(
        wait_until(Duration::from_secs(5), || {
            let (alive, _, restarts, _, _) = health(&mut client);
            alive == 1 && restarts == 1
        }),
        "first panic was not repaired"
    );
    // Second panic: budget exhausted (refill rate 0), so the
    // supervisor escalates instead of masking a crash loop forever.
    let resp = client.roundtrip(&panic_request(2)).unwrap();
    assert!(!resp.ok);
    assert!(
        wait_until(Duration::from_secs(5), || {
            let (_, _, _, draining, escalated) = health(&mut client);
            draining && escalated
        }),
        "budget exhaustion did not escalate to a drain"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn circuit_breaker_opens_fast_fails_and_recloses_after_cooldown() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 2,
        fault_injection: true,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(100),
            half_open_probes: 1,
        },
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(&server.local_addr()).unwrap();
    // Two worker panics against boston trip the breaker.
    for id in 1..=2u64 {
        let resp = client.roundtrip(&panic_request(id)).unwrap();
        assert!(!resp.ok);
    }
    // Fast-fail: rejected before touching the queue, with a hint.
    let mut route = Request::new(3, RequestKind::Route, "boston");
    route.source = 5;
    let resp = client.roundtrip(&route).unwrap();
    assert!(!resp.ok);
    assert!(
        resp.error.as_deref().unwrap_or("").contains("circuit open"),
        "unexpected error: {:?}",
        resp.error
    );
    assert!(resp.retry_after_ms.is_some(), "fast-fail must carry a hint");
    // Health reports the open breaker while the pool itself is fine.
    let result = client
        .roundtrip(&Request::new(4, RequestKind::Health, ""))
        .unwrap()
        .result
        .expect("health result");
    let state = result
        .get("breakers")
        .and_then(|b| b.get("boston"))
        .and_then(|b| b.get("state"))
        .and_then(obs::JsonValue::as_str)
        .map(str::to_string);
    assert_eq!(state.as_deref(), Some("open"));
    // After the cooldown a probe is admitted; a healthy answer closes
    // the breaker and traffic flows again.
    std::thread::sleep(Duration::from_millis(150));
    let mut probe = Request::new(5, RequestKind::Route, "boston");
    probe.source = 11;
    // The pool may still be respawning workers right after the panics;
    // retry the probe briefly rather than racing the supervisor.
    assert!(
        wait_until(Duration::from_secs(5), || {
            probe.id += 1;
            matches!(client.roundtrip(&probe), Ok(r) if r.ok)
        }),
        "probe never succeeded after cooldown"
    );
    let mut after = Request::new(100, RequestKind::Route, "boston");
    after.source = 17;
    let resp = client.roundtrip(&after).unwrap();
    assert!(resp.ok, "breaker did not reclose: {:?}", resp.error);
    server.shutdown();
}

/// A hot mix of every fault site. Faults are per *connection*:
/// roughly half of all connections get hit by something, so a run of
/// fifty connections sees every site, while an 8-attempt retry policy
/// keeps the per-call give-up probability around `0.5^7`.
const CHAOS_SPEC: &str = "seed=7,reset=0.15,slow_loris=0.15,corrupt_request=0.12,\
corrupt_response=0.12,disconnect=0.15,truncate=0.12,latency=0.3,latency_ms=3,slow_ms=1";

/// Deterministic route/attack mix. Ids start at 1: id 0 is what the
/// server echoes for unparseable requests, so a frame corrupted by the
/// proxy never collides with a real id.
fn mixed_workload(requests: usize) -> Vec<Request> {
    const SOURCES: [usize; 6] = [3, 11, 17, 29, 5, 23];
    (0..requests)
        .map(|i| {
            let kind = if i % 4 == 3 {
                RequestKind::Attack
            } else {
                RequestKind::Route
            };
            let mut r = Request::new(i as u64 + 1, kind, "boston");
            r.source = SOURCES[i % SOURCES.len()];
            r.rank = 4;
            r
        })
        .collect()
}

/// Drives `reqs` in order, four requests per client connection, so a
/// run opens many connections and the proxy's per-connection faults
/// hit many of them. Returns the raw frame of every ok response
/// (`None` for an error or a give-up) and the clients' summed retries.
fn drive(addr: &str, reqs: &[Request], policy: &RetryPolicy) -> (Vec<Option<Vec<u8>>>, u64) {
    let mut responses = Vec::with_capacity(reqs.len());
    let mut retries = 0;
    for chunk in reqs.chunks(4) {
        let mut client = ResilientClient::new(addr, policy.clone());
        for req in chunk {
            responses.push(match client.call(req) {
                Ok(call) if call.response.ok => Some(call.raw),
                _ => None,
            });
        }
        retries += client.retries();
    }
    (responses, retries)
}

#[test]
fn retrying_client_gets_byte_identical_answers_through_chaos() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let reqs = mixed_workload(200);

    // The reference: straight at the server, one attempt per request.
    let (clean, _) = drive(
        &server.local_addr().to_string(),
        &reqs,
        &RetryPolicy::no_retry(),
    );
    assert!(clean.iter().all(Option::is_some), "clean run had errors");

    // The same workload through the proxy. The clients run one after
    // another, so connection ids follow a fixed accept order and the
    // fault schedule is the same on every run.
    let plan = ChaosPlan::parse(CHAOS_SPEC).expect("chaos spec parses");
    let proxy = ChaosProxy::start("127.0.0.1:0", server.local_addr(), plan).expect("proxy starts");
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(200),
        attempt_timeout: Some(Duration::from_secs(2)),
        ..RetryPolicy::default()
    };
    let (faulted, retries) = drive(&proxy.local_addr().to_string(), &reqs, &policy);
    proxy.stop();
    server.shutdown();

    let ok = faulted.iter().filter(|r| r.is_some()).count();
    println!(
        "{ok}/{} ok through the proxy after {retries} retries",
        reqs.len()
    );
    assert!(retries > 0, "no fault reached the client");
    assert!(
        ok * 100 >= reqs.len() * 99,
        "{ok}/{} requests succeeded through the proxy",
        reqs.len()
    );
    // Retries may change when an answer arrives, never what it says.
    for (i, got) in faulted.iter().enumerate() {
        if let Some(got) = got {
            assert_eq!(Some(got), clean[i].as_ref(), "request {} diverged", i + 1);
        }
    }
}
