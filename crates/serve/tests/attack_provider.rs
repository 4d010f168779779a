//! Served attacks prune with the decremental repair table and nothing
//! else: repeated identical attacks, with batching off and on, give
//! byte-identical answers, hit the repair table, and never customize a
//! contraction hierarchy.
//!
//! This binary holds one test on purpose: it reads process-wide
//! telemetry counters, and no other test may move them meanwhile.

use serve::{Client, Request, RequestKind, Server, ServerConfig};

const REPEATS: usize = 20;

fn counter(name: &str) -> u64 {
    obs::global().snapshot().counter(name).unwrap_or(0)
}

/// `REPEATS` identical attack requests against a fresh server; returns
/// the raw response frames.
fn repeated_attacks(batching: bool) -> Vec<Vec<u8>> {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers: 1,
        batching,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(&server.local_addr()).unwrap();
    let mut req = Request::new(1, RequestKind::Attack, "boston");
    req.source = 3;
    req.rank = 5;
    let payload = req.to_payload();
    let answers = (0..REPEATS)
        .map(|_| {
            let raw = client.roundtrip_raw(&payload).unwrap();
            let parsed = serve::Response::parse(&raw).unwrap();
            assert!(parsed.ok, "attack failed: {:?}", parsed.error);
            raw
        })
        .collect();
    server.shutdown();
    answers
}

#[test]
fn repeated_attacks_prune_with_repair_and_never_customize() {
    let hits_before = counter("pathattack.reuse.repair.hit");
    let mut answers = repeated_attacks(false);
    let hits_unbatched = counter("pathattack.reuse.repair.hit");
    answers.extend(repeated_attacks(true));
    let hits_batched = counter("pathattack.reuse.repair.hit");

    assert_eq!(answers.len(), 2 * REPEATS);
    for (i, raw) in answers.iter().enumerate() {
        assert_eq!(raw, &answers[0], "answer {i} differs from the first");
    }
    assert!(
        hits_unbatched > hits_before,
        "unbatched attacks never hit the repair table"
    );
    assert!(
        hits_batched > hits_unbatched,
        "batched attacks never hit the repair table"
    );
    assert_eq!(counter("routing.cch.customizations"), 0);
}
