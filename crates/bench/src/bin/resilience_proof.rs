//! SLO proof for the `serve` survival layer: the resilient client plus
//! supervised workers must deliver correct answers through injected
//! faults, and the resilience machinery must cost (almost) nothing on
//! the clean path.
//!
//! ```text
//! resilience_proof [--requests N] [--concurrency C]
//!                  [--min-success F]      # default 0.99
//!                  [--max-overhead-pct P] # default 5
//!                  [--rounds R]           # default 3
//!                  [--out FILE]           # default BENCH_resilience.json
//! ```
//!
//! Four phases, one in-process Boston server:
//!
//! 1. **Clean reference** — drive the deterministic workload with a
//!    no-retry client straight at the server; every response must be ok
//!    and is kept as the byte-identity reference.
//! 2. **Faulted run** — the same workload, now through a seeded
//!    [`serve::ChaosProxy`] injecting resets, slow-loris dribble,
//!    request/response corruption, mid-frame disconnects, truncated
//!    headers, and latency — driven by the retrying
//!    [`serve::ResilientClient`]. Gate: eventual success rate ≥
//!    `--min-success`, and every successful response byte-identical to
//!    the clean reference (retries must change *when* an answer
//!    arrives, never *what* it says).
//! 3. **Panic recovery** — one `inject=panic` request (the server runs
//!    with `fault_injection: true`) must come back as a *final* error
//!    (the retry contract forbids replaying a poison pill), after
//!    which polling `health` must observe the supervisor restart the
//!    dead worker: pool back at full strength with `restarts ≥ 1`.
//! 4. **Clean-path overhead** — two fresh servers, `resilience` off
//!    vs on (per-job `catch_unwind` + breaker admission), alternately
//!    driven for `--rounds` rounds; best-of-rounds exact p99s must
//!    satisfy `p99_on ≤ p99_off · (1 + pct/100) + 150 µs`. The
//!    absolute slack term keeps sub-millisecond scheduler noise from
//!    failing a relative gate that the machinery (a few atomics and a
//!    zero-cost unwind boundary) cannot meaningfully move.
//!
//! Writes `BENCH_resilience.json` and exits non-zero if any gate
//! fails.

use serve::{
    ChaosPlan, ChaosProxy, Request, RequestKind, ResilientClient, RetryBudget, RetryPolicy, Server,
    ServerConfig,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The chaos mix for phase 2. Clients hold connections open, so faults
/// are per-*connection*, not per-request: the rates are deliberately
/// hot (roughly half of all connections get hit by something) so that
/// even the handful of initial connections plus their retry
/// reconnections see every fault site, while an 8-attempt retry budget
/// keeps the per-call give-up probability around `0.5^7`.
const CHAOS_SPEC: &str = "seed=7,reset=0.15,slow_loris=0.15,corrupt_request=0.12,\
corrupt_response=0.12,disconnect=0.15,truncate=0.12,latency=0.3,latency_ms=3,slow_ms=1";

/// Counters the chaos proxy bumps per injected fault; their delta over
/// the faulted phase proves the run was not vacuous.
const INJECT_COUNTERS: [&str; 7] = [
    "serve.chaos.inject.reset",
    "serve.chaos.inject.slow_loris",
    "serve.chaos.inject.corrupt_request",
    "serve.chaos.inject.corrupt_response",
    "serve.chaos.inject.disconnect",
    "serve.chaos.inject.truncate",
    "serve.chaos.inject.latency",
];

/// Deterministic route/attack mix. Ids start at 1: id 0 is what the
/// server echoes for unparseable requests, so a corrupted-by-chaos
/// frame must never collide with a real id.
fn workload(requests: usize) -> Vec<Request> {
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

struct DriveResult {
    ok: usize,
    errors: usize,
    retries: u64,
    reconnects: u64,
    /// Raw response frames by workload index (`None` = gave up).
    responses: Vec<Option<Vec<u8>>>,
    /// Exact per-request wall latencies, microseconds.
    latencies_us: Vec<u64>,
}

/// Drives `reqs` at `addr` from `concurrency` closed-loop clients.
fn drive(addr: &str, reqs: &[Request], concurrency: usize, policy: &RetryPolicy) -> DriveResult {
    let next = AtomicUsize::new(0);
    let responses = Mutex::new(vec![None; reqs.len()]);
    let latencies = Mutex::new(Vec::with_capacity(reqs.len()));
    let errors = AtomicUsize::new(0);
    let retries = AtomicU64::new(0);
    let reconnects = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            scope.spawn(|| {
                let mut client = ResilientClient::new(addr, policy.clone())
                    .with_budget(RetryBudget::new(reqs.len() as f64, 1.0));
                let mut mine: Vec<u64> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    let t = Instant::now();
                    match client.call(req) {
                        Ok(call) => {
                            mine.push(t.elapsed().as_micros() as u64);
                            if !call.response.ok {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            responses.lock().unwrap()[i] = Some(call.raw);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                retries.fetch_add(client.retries(), Ordering::Relaxed);
                reconnects.fetch_add(client.reconnects(), Ordering::Relaxed);
                latencies.lock().unwrap().extend(mine);
            });
        }
    });
    let errors = errors.into_inner();
    DriveResult {
        ok: reqs.len() - errors,
        errors,
        retries: retries.into_inner(),
        reconnects: reconnects.into_inner(),
        responses: responses.into_inner().unwrap(),
        latencies_us: latencies.into_inner().unwrap(),
    }
}

/// Exact p99 over raw samples (the log2-bucket histogram would
/// quantize a 5 % gate out of existence).
fn p99(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[(samples.len() - 1) * 99 / 100]
}

fn server(resilience: bool, fault_injection: bool, workers: usize) -> Server {
    Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers,
        batching: true,
        resilience,
        fault_injection,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// Health snapshot relevant to recovery: (alive, configured, restarts).
/// Ids stay small: a u64 near `MAX` does not survive the JSON f64
/// roundtrip and the resilient client would treat the echo mismatch as
/// a transport failure.
fn health(client: &mut ResilientClient) -> (u64, u64, u64) {
    let resp = client
        .call(&Request::new(900_002, RequestKind::Health, ""))
        .expect("health request")
        .response;
    let workers = resp
        .result
        .as_ref()
        .and_then(|r| r.get("workers"))
        .expect("health result carries workers")
        .clone();
    let num = |k: &str| workers.get(k).and_then(obs::JsonValue::as_u64).unwrap_or(0);
    (num("alive"), num("configured"), num("restarts"))
}

fn main() {
    let mut requests = 200usize;
    let mut concurrency = 4usize;
    let mut min_success = 0.99f64;
    let mut max_overhead_pct = 5.0f64;
    let mut rounds = 3usize;
    let mut out_path = "BENCH_resilience.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| panic!("{a} needs a value"));
        match a.as_str() {
            "--requests" => requests = val().parse().expect("--requests N"),
            "--concurrency" => concurrency = val().parse().expect("--concurrency C"),
            "--min-success" => min_success = val().parse().expect("--min-success F"),
            "--max-overhead-pct" => max_overhead_pct = val().parse().expect("--max-overhead-pct P"),
            "--rounds" => rounds = val().parse().expect("--rounds R"),
            "--out" => out_path = val(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    let rounds = rounds.max(1);
    let workers = 2usize;
    obs::set_enabled(true);
    let reqs = workload(requests);

    // Phase 1: clean reference straight at the server, no retries.
    let main_server = server(true, true, workers);
    let direct_addr = main_server.local_addr().to_string();
    let clean = drive(&direct_addr, &reqs, concurrency, &RetryPolicy::no_retry());
    if clean.errors > 0 {
        eprintln!(
            "FAIL: clean run had {} errors before any fault was injected",
            clean.errors
        );
        std::process::exit(1);
    }
    println!(
        "clean     {}/{} ok (reference captured)",
        clean.ok,
        reqs.len()
    );

    // Phase 2: the same workload through the chaos proxy, retrying.
    let plan = ChaosPlan::parse(CHAOS_SPEC).expect("chaos spec parses");
    let proxy = ChaosProxy::start("127.0.0.1:0", main_server.local_addr(), plan)
        .expect("chaos proxy starts");
    let retry_policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(200),
        attempt_timeout: Some(Duration::from_secs(2)),
        ..RetryPolicy::default()
    };
    let before_chaos = obs::global().snapshot();
    let faulted = drive(
        &proxy.local_addr().to_string(),
        &reqs,
        concurrency,
        &retry_policy,
    );
    let after_chaos = obs::global().snapshot();
    proxy.stop();
    let faults_injected: u64 = INJECT_COUNTERS
        .iter()
        .map(|c| after_chaos.counter(c).unwrap_or(0) - before_chaos.counter(c).unwrap_or(0))
        .sum();
    let success_rate = faulted.ok as f64 / reqs.len() as f64;
    // Byte-identity: whatever survived the chaos must match the clean
    // answer exactly — retries may change when, never what.
    let mut divergent = 0usize;
    for (i, got) in faulted.responses.iter().enumerate() {
        if let Some(got) = got {
            if clean.responses[i].as_deref() != Some(got.as_slice()) {
                divergent += 1;
            }
        }
    }
    println!(
        "faulted   {}/{} ok ({:.1} % eventual success, {} faults injected, {} retries, \
         {} reconnects, {} divergent)",
        faulted.ok,
        reqs.len(),
        success_rate * 100.0,
        faults_injected,
        faulted.retries,
        faulted.reconnects,
        divergent,
    );

    // Phase 3: a poison pill must come back as a final error, and the
    // supervisor must put the pool back at full strength.
    let mut probe = ResilientClient::new(&direct_addr, RetryPolicy::default());
    let mut panic_req = Request::new(900_001, RequestKind::Route, "boston");
    panic_req.source = 3;
    panic_req.inject = Some(serve::Injection::Panic);
    let panic_resp = probe
        .call(&panic_req)
        .expect("panic call completes")
        .response;
    let panic_final = !panic_resp.ok
        && panic_resp.retry_after_ms.is_none()
        && panic_resp
            .error
            .as_deref()
            .is_some_and(|e| e.contains("panicked"));
    let recovery_deadline = Instant::now() + Duration::from_secs(10);
    let (mut alive, mut configured, mut restarts) = health(&mut probe);
    while (alive < configured || restarts == 0) && Instant::now() < recovery_deadline {
        std::thread::sleep(Duration::from_millis(20));
        (alive, configured, restarts) = health(&mut probe);
    }
    let recovered = alive == configured && restarts >= 1;
    main_server.shutdown();
    println!(
        "recovery  panic answered finally: {panic_final}; pool {alive}/{configured} alive after {restarts} restart(s)"
    );

    // Phase 4: clean-path overhead of the resilience machinery.
    let baseline_srv = server(false, false, workers);
    let resilient_srv = server(true, false, workers);
    let base_addr = baseline_srv.local_addr().to_string();
    let res_addr = resilient_srv.local_addr().to_string();
    let mut best_base = u64::MAX;
    let mut best_res = u64::MAX;
    for _ in 0..rounds {
        let mut b = drive(&base_addr, &reqs, concurrency, &RetryPolicy::no_retry());
        let mut r = drive(&res_addr, &reqs, concurrency, &RetryPolicy::no_retry());
        best_base = best_base.min(p99(&mut b.latencies_us));
        best_res = best_res.min(p99(&mut r.latencies_us));
    }
    baseline_srv.shutdown();
    resilient_srv.shutdown();
    let overhead_ratio = best_res as f64 / best_base.max(1) as f64;
    // 150 µs of absolute slack: at sub-millisecond p99s a relative
    // gate alone measures the scheduler, not the unwind boundary.
    let overhead_ok =
        best_res as f64 <= best_base as f64 * (1.0 + max_overhead_pct / 100.0) + 150.0;
    println!(
        "overhead  p99 {} us (resilience off) vs {} us (on): ratio {:.3}, gate {:.0} % + 150 us -> {}",
        best_base,
        best_res,
        overhead_ratio,
        max_overhead_pct,
        if overhead_ok { "ok" } else { "FAIL" },
    );

    let pass = success_rate >= min_success
        && divergent == 0
        && faults_injected > 0
        && panic_final
        && recovered
        && overhead_ok;
    let json = format!(
        "{{\n  \"bench\": \"resilience_proof\",\n  \"city\": \"boston\",\n  \"requests\": {requests},\n  \
         \"concurrency\": {concurrency},\n  \"workers\": {workers},\n  \"chaos\": \"{CHAOS_SPEC}\",\n  \
         \"faulted\": {{\"ok\": {}, \"errors\": {}, \"faults_injected\": {faults_injected}, \
         \"retries\": {}, \"reconnects\": {}, \
         \"success_rate\": {:.4}, \"min_success\": {min_success}, \"divergent_responses\": {divergent}}},\n  \
         \"recovery\": {{\"panic_answered_final\": {panic_final}, \"workers_alive\": {alive}, \
         \"workers_configured\": {configured}, \"worker_restarts\": {restarts}}},\n  \
         \"overhead\": {{\"rounds\": {rounds}, \"baseline_p99_us\": {best_base}, \
         \"resilience_p99_us\": {best_res}, \"ratio\": {overhead_ratio:.3}, \
         \"max_overhead_pct\": {max_overhead_pct}, \"abs_slack_us\": 150}},\n  \"pass\": {pass}\n}}\n",
        faulted.ok, faulted.errors, faulted.retries, faulted.reconnects, success_rate,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_resilience.json");
    println!("wrote {out_path}");
    if !pass {
        eprintln!(
            "FAIL: success {:.4} (min {min_success}), divergent {divergent}, \
             faults_injected {faults_injected}, panic_final {panic_final}, \
             recovered {recovered}, overhead_ok {overhead_ok}",
            success_rate
        );
        std::process::exit(1);
    }
}
