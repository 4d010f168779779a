//! Survival-layer integration: injected worker panics must be answered
//! as final errors, the supervisor must put the pool back at full
//! strength while the budget holds and escalate to a drain when it
//! runs out, and the per-city circuit breaker must fast-fail, cool
//! down, and close again.

use serve::{BreakerConfig, Client, Request, RequestKind, Server, ServerConfig};
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
