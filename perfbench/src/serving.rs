//! Machinery shared by the two serve workloads: input generation, the
//! in-process server, the framed client, the slow-query-log reader,
//! the answer checks, and the per-layer figures read from `obs`.

use crate::report::{Accounting, Metrics, Run};
use crate::stats::{self, Rng};
use crate::trace;
use citygen::{CityPreset, Scale};
use obs::JsonValue;
use pathattack::{
    AttackOutcome, AttackProblem, AttackStatus, CostType, Degradation, PerturbProblem,
    PerturbResult, TargetContext, WeightType,
};
use serve::{Request, RequestKind, Response, Server, ServerConfig};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use traffic_graph::{EdgeId, GraphView, NodeId, PoiKind, RoadNetwork};

/// City generation seed of every resident network.
pub const CITY_SEED: u64 = 42;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Client connections (and generator threads): at most `nproc`.
pub const CONNECTIONS: usize = 2;

/// A resident city: the server's `--city` spec and its preset.
#[derive(Debug, Clone, Copy)]
pub struct City {
    /// Registry name the requests use.
    pub spec: &'static str,
    /// Generator preset.
    pub preset: CityPreset,
}

/// A (city, weight, hospital) key: one `TargetContext` in the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Index into the workload's city list.
    pub city: usize,
    /// Victim weight model.
    pub weight: WeightType,
    /// Hospital index in the city's hospital list.
    pub hospital: usize,
}

/// The keys of `cities` (city-major, then weight, then hospital) and,
/// per key, `per_key` seeded source intersections whose shortest trip
/// to the hospital has at least `experiments::MIN_TRIP_EDGES` edges.
pub fn keys_and_sources(
    cities: &[City],
    scale: Scale,
    per_key: usize,
    seed: u64,
) -> (Vec<Key>, Vec<Vec<usize>>) {
    let mut keys = Vec::new();
    let mut pools = Vec::new();
    for (ci, city) in cities.iter().enumerate() {
        let net = city.preset.build(scale, CITY_SEED);
        let hospitals: Vec<NodeId> = net
            .pois_of_kind(PoiKind::Hospital)
            .map(|p| p.node)
            .collect();
        let view = GraphView::new(&net);
        let mut dij = routing::Dijkstra::new(net.num_nodes());
        for weight in WeightType::ALL {
            let w = weight.compute(&net);
            for (hi, &target) in hospitals.iter().enumerate() {
                let key = Key {
                    city: ci,
                    weight,
                    hospital: hi,
                };
                let mut rng = Rng::new(seed, 0x6b65_7900 + keys.len() as u64);
                let mut pool = Vec::new();
                while pool.len() < per_key {
                    let s = NodeId::new(rng.below(net.num_nodes()));
                    if s == target || pool.contains(&s.index()) {
                        continue;
                    }
                    if let Some(p) = dij.shortest_path(&view, |e| w[e.index()], s, target) {
                        if p.len() >= experiments::MIN_TRIP_EDGES {
                            pool.push(s.index());
                        }
                    }
                }
                keys.push(key);
                pools.push(pool);
            }
        }
    }
    (keys, pools)
}

/// One request of the workload, before it gets an id.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Key index.
    pub key: usize,
    /// Source intersection.
    pub source: usize,
    /// `route`, `attack` or `perturb`.
    pub kind: RequestKind,
    /// Attack algorithm (attack only).
    pub algorithm: &'static str,
    /// Path rank.
    pub rank: usize,
}

impl Op {
    /// The wire request for this op.
    pub fn request(&self, id: u64, keys: &[Key], cities: &[City]) -> Request {
        let key = keys[self.key];
        let mut r = Request::new(id, self.kind.clone(), cities[key.city].spec);
        r.source = self.source;
        r.hospital = key.hospital;
        r.weight = key.weight;
        r.cost = CostType::Uniform;
        r.rank = self.rank;
        r.algorithm = self.algorithm.to_string();
        r
    }

    /// Label for per-kind figures (`route`, `perturb`, or the algorithm).
    pub fn label(&self) -> &'static str {
        match self.kind {
            RequestKind::Attack => self.algorithm,
            RequestKind::Perturb => "perturb",
            _ => "route",
        }
    }
}

/// Production server configuration with `workers = 2`; the traced pass
/// adds the slow-query log with a zero threshold.
pub fn server_config(cities: &[City], scale: Scale, slow_log: Option<&Path>) -> ServerConfig {
    ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: cities.iter().map(|c| c.spec.to_string()).collect(),
        scale,
        seed: CITY_SEED,
        workers: WORKERS,
        slow_ms: slow_log.map(|_| 0),
        slow_log: slow_log.map(|p| p.display().to_string()),
        ..ServerConfig::default()
    }
}

/// Records the server configuration in the metadata header.
pub fn describe_server(cfg: &ServerConfig, run: &mut Run) {
    run.param("server.cities", cfg.cities.join(","));
    run.param("server.scale", cfg.scale.cli_name());
    run.param("server.seed", cfg.seed);
    run.param("server.workers", cfg.workers);
    run.param("server.queue_depth", cfg.queue_depth);
    run.param("server.batch_max", cfg.batch_max);
    run.param("server.batching", cfg.batching);
    run.param("server.tracing", cfg.tracing);
    run.param("server.resilience", cfg.resilience);
    run.param("server.retry_after_ms", cfg.retry_after_ms);
    run.param("client.connections", CONNECTIONS);
}

/// A framed client connection that can poll for responses without
/// losing frame boundaries.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` (the client side of the protocol).
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// A second handle on the same connection, so one thread can send
    /// while another reads.
    pub fn try_clone(&self) -> Result<Conn, String> {
        Ok(Conn {
            stream: self.stream.try_clone().map_err(|e| format!("clone: {e}"))?,
            buf: Vec::new(),
        })
    }

    /// Writes one request frame in a single write; returns the time
    /// the write took, milliseconds.
    pub fn send(&mut self, req: &Request) -> Result<f64, String> {
        let _s = trace::span("serve.frame_write");
        let t = Instant::now();
        let mut frame = Vec::new();
        serve::write_frame(&mut frame, &req.to_payload()).map_err(|e| format!("frame: {e}"))?;
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }

    /// A complete frame already buffered, checksum-verified.
    fn buffered_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        if self.buf.len() < serve::FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_be_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        let end = serve::FRAME_HEADER + len;
        if self.buf.len() < end {
            return Ok(None);
        }
        let payload = serve::read_frame(&mut &self.buf[..end]).map_err(|e| format!("recv: {e}"))?;
        self.buf.drain(..end);
        Ok(Some(payload))
    }

    /// Waits up to `timeout` for the next response frame.
    pub fn poll(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, String> {
        if let Some(f) = self.buffered_frame()? {
            return Ok(Some(f));
        }
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(50))))
            .map_err(|e| format!("timeout: {e}"))?;
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                self.buffered_frame()
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Blocks (up to a minute) for the next response frame.
    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(60) {
            if let Some(f) = self.poll(Duration::from_millis(100))? {
                return Ok(f);
            }
        }
        Err("no response within 60 s".to_string())
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Client-observed latency, milliseconds (open loop: from the due
    /// time; closed loop: from the send).
    pub latency_ms: f64,
    /// Open loop: send time minus due time, milliseconds.
    pub lateness_ms: f64,
    /// Time the frame write took, milliseconds.
    pub write_ms: f64,
    /// When the answer arrived, seconds since the phase started.
    pub at_s: f64,
    /// Raw response payload.
    pub raw: Vec<u8>,
}

/// Decodes a response, requiring `ok` and the expected id.
pub fn decode(raw: &[u8], id: u64) -> Result<JsonValue, String> {
    let _s = trace::span("serve.frame_read");
    let resp = Response::parse(raw)?;
    if resp.id != id {
        return Err(format!("response id {} for request {id}", resp.id));
    }
    if !resp.ok {
        return Err(format!(
            "request {id} failed: {}",
            resp.error.unwrap_or_default()
        ));
    }
    resp.result
        .ok_or_else(|| format!("request {id}: no result"))
}

/// Parses the id a response echoes.
pub fn response_id(raw: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(raw).ok()?;
    JsonValue::parse(text).ok()?.get("id")?.as_u64()
}

/// Closed loop over [`CONNECTIONS`] clients: each sends its next
/// request only after the previous answer. Runs every request in
/// `reqs`, or with `stop = Some((seconds, min))` until `seconds` have
/// passed and at least `min` answers arrived. Returns the answers by
/// request index and the phase wall time, seconds.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Request],
    stop: Option<(f64, usize)>,
) -> Result<(Vec<Option<Answer>>, f64), String> {
    let next = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let answers = Mutex::new(vec![None; reqs.len()]);
    let started = Instant::now();
    let errors: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut conn = Conn::connect(addr)?;
                    loop {
                        if let Some((secs, min)) = stop {
                            if started.elapsed().as_secs_f64() >= secs
                                && answered.load(Ordering::SeqCst) >= min
                            {
                                return Ok(());
                            }
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = reqs.get(i) else {
                            return if stop.is_some() {
                                Err("the request sequence ran out before the phase ended".into())
                            } else {
                                Ok(())
                            };
                        };
                        let t = Instant::now();
                        let write_ms = conn.send(req)?;
                        let raw = conn.recv()?;
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        answered.fetch_add(1, Ordering::SeqCst);
                        answers.lock().expect("answers lock")[i] = Some(Answer {
                            latency_ms,
                            lateness_ms: 0.0,
                            write_ms,
                            at_s: started.elapsed().as_secs_f64(),
                            raw,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread").err())
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    Ok((answers.into_inner().expect("answers lock"), wall))
}

/// Starts a server and runs the warm-up requests through it, closed
/// loop; every warm-up answer must be `ok`. Returns the server and the
/// set-up time, seconds.
pub fn start_and_warm(cfg: &ServerConfig, warmup: &[Request]) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = {
        let _s = trace::span("serve.start");
        Server::start(cfg.clone())?
    };
    let (answers, _) = {
        let _s = trace::span("serve.warmup");
        closed_loop(server.local_addr(), warmup, None)?
    };
    let secs = t.elapsed().as_secs_f64();
    for (req, a) in warmup.iter().zip(&answers) {
        let a = a
            .as_ref()
            .ok_or_else(|| format!("warm-up request {} unanswered", req.id))?;
        decode(&a.raw, req.id).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((server, secs))
}

/// The server's own view of one request, from the slow-query log.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerTrace {
    /// Admission to response sent, milliseconds.
    pub total_ms: f64,
    /// Time queued before a worker picked the request up.
    pub queue_ms: f64,
    /// The `exec` span.
    pub exec_ms: f64,
}

/// Reads the slow-query log (zero threshold: every request) and maps
/// each trace to its request id. The server derives trace ids from
/// (admission sequence, request id); `ids` are every id sent.
pub fn read_slow_log(path: &Path, ids: &[u64]) -> Result<HashMap<u64, ServerTrace>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("slow log: {e}"))?;
    let mut by_trace = HashMap::new();
    for line in text.lines() {
        let doc = JsonValue::parse(line).map_err(|e| format!("slow log line: {e:?}"))?;
        let tid = doc
            .get("trace_id")
            .and_then(JsonValue::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("slow log line without trace_id")?;
        let mut t = ServerTrace {
            total_ms: doc
                .get("total_us")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                / 1e3,
            ..ServerTrace::default()
        };
        for ev in doc.get("events").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            match ev.get("name").and_then(JsonValue::as_str) {
                Some("queue.wait") => {
                    t.queue_ms = ev
                        .get("attrs")
                        .and_then(|a| a.get("wait_us"))
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0)
                        / 1e3;
                }
                Some("exec") => {
                    t.exec_ms = ev.get("dur_us").and_then(JsonValue::as_f64).unwrap_or(0.0) / 1e3;
                }
                _ => {}
            }
        }
        by_trace.insert(tid, t);
    }
    let mut out = HashMap::new();
    for seq in 0..by_trace.len() as u64 {
        for &id in ids {
            if let Some(t) = by_trace.get(&obs::trace::trace_id(&[seq, id])) {
                out.insert(id, *t);
            }
        }
    }
    Ok(out)
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("result has no number {key:?}"))
}

fn indices(v: &JsonValue, key: &str) -> Result<Vec<usize>, String> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("result has no array {key:?}"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| format!("non-integer in {key:?}"))
        })
        .collect()
}

fn status(v: &JsonValue) -> Result<AttackStatus, String> {
    v.get("status")
        .and_then(JsonValue::as_str)
        .and_then(AttackStatus::from_name)
        .ok_or_else(|| "result has no status".to_string())
}

/// Checks one served answer against a direct, fresh computation:
/// routes against `AttackProblem::with_path_rank`, attack cut sets with
/// `AttackOutcome::verify`, perturb deltas with `PerturbResult::verify`
/// (both re-run a fresh oracle).
pub fn check_answer(
    net: &RoadNetwork,
    problem: &AttackProblem<'_>,
    op: &Op,
    result: &JsonValue,
) -> Result<(), String> {
    match op.kind {
        RequestKind::Route => {
            let nodes = indices(result, "nodes")?;
            let expect: Vec<usize> = problem.pstar().nodes().iter().map(|n| n.index()).collect();
            if nodes != expect {
                return Err("served route differs from the direct rank-k path".into());
            }
            if num(result, "weight")?.to_bits() != problem.pstar_weight().to_bits() {
                return Err("served route weight differs".into());
            }
            let ctx = TargetContext::build(net, problem.weight_type(), problem.target());
            if num(result, "optimal_weight")?.to_bits()
                != ctx.distance_to_target(problem.source()).to_bits()
            {
                return Err("served optimal weight differs".into());
            }
            Ok(())
        }
        RequestKind::Attack => {
            let st = status(result)?;
            if st != AttackStatus::Success {
                return Err(format!("attack ended {}", st.name()));
            }
            let outcome = AttackOutcome {
                algorithm: op.algorithm.to_string(),
                removed: indices(result, "removed")?
                    .into_iter()
                    .map(EdgeId::new)
                    .collect(),
                total_cost: num(result, "total_cost")?,
                iterations: num(result, "iterations")? as usize,
                runtime: Duration::ZERO,
                status: st,
                degraded: Degradation::None,
            };
            if num(result, "pstar_weight")?.to_bits() != problem.pstar_weight().to_bits() {
                return Err("served p* weight differs".into());
            }
            outcome.verify(problem)
        }
        RequestKind::Perturb => {
            let st = status(result)?;
            if st != AttackStatus::Success {
                return Err(format!("perturb ended {}", st.name()));
            }
            let edges = indices(result, "perturbed")?;
            let deltas: Vec<f64> = result
                .get("deltas")
                .and_then(JsonValue::as_arr)
                .ok_or("result has no deltas")?
                .iter()
                .map(|d| d.as_f64().ok_or("non-number delta"))
                .collect::<Result<_, _>>()?;
            if edges.len() != deltas.len() {
                return Err("perturbed edges and deltas differ in length".into());
            }
            let res = PerturbResult {
                algorithm: "LP-Perturb".to_string(),
                perturbed: edges.into_iter().map(EdgeId::new).zip(deltas).collect(),
                total_cost: num(result, "total_cost")?,
                total_delta: num(result, "total_delta")?,
                rounds: num(result, "rounds")? as usize,
                oracle_calls: 0,
                integer_rounded: false,
                runtime: Duration::ZERO,
                status: st,
                degraded: Degradation::None,
            };
            res.verify(&PerturbProblem::new(problem.clone()))
        }
        _ => Err("unexpected request kind".into()),
    }
}

/// Verifies every distinct (key, source, kind) op answered, on fresh
/// problems over freshly built cities, on two threads. Every repeat of
/// an op must also have returned the same result bytes. Returns the
/// number of answers that failed.
pub fn verify_answers(
    cities: &[City],
    scale: Scale,
    keys: &[Key],
    ops: &[Op],
    answers: &[Option<Answer>],
    ids: &[u64],
    run: &mut Run,
) -> u64 {
    // Group answered requests by distinct op; results must agree.
    let mut groups: HashMap<(usize, usize, &'static str), Vec<usize>> = HashMap::new();
    for (i, a) in answers.iter().enumerate() {
        if a.is_some() {
            groups
                .entry((ops[i].key, ops[i].source, ops[i].label()))
                .or_default()
                .push(i);
        }
    }
    let mut failed = 0u64;
    let mut work = Vec::new();
    for members in groups.values() {
        let mut first: Option<String> = None;
        for &i in members {
            let raw = &answers[i].as_ref().expect("answered").raw;
            match decode(raw, ids[i]) {
                Ok(result) => {
                    let bytes = result.to_json();
                    match &first {
                        None => first = Some(bytes),
                        Some(f) if *f != bytes => {
                            failed += 1;
                            run.problem(format!(
                                "request {} answered differently from an identical request",
                                ids[i]
                            ));
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    failed += 1;
                    run.problem(e);
                }
            }
        }
        if first.is_some() {
            work.push(members.clone());
        }
    }
    let nets: Vec<RoadNetwork> = cities
        .iter()
        .map(|c| c.preset.build(scale, CITY_SEED))
        .collect();
    let hospitals: Vec<Vec<NodeId>> = nets
        .iter()
        .map(|n| n.pois_of_kind(PoiKind::Hospital).map(|p| p.node).collect())
        .collect();
    // One fresh problem per (key, source, rank) serves every kind.
    let mut by_problem: HashMap<(usize, usize, usize), Vec<Vec<usize>>> = HashMap::new();
    for members in work {
        let op = &ops[members[0]];
        by_problem
            .entry((op.key, op.source, op.rank))
            .or_default()
            .push(members);
    }
    let jobs: Vec<_> = by_problem.into_iter().collect();
    let next = AtomicUsize::new(0);
    let bad = AtomicUsize::new(0);
    let problems = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while let Some(((k, source, rank), groups)) =
                    jobs.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    let key = keys[*k];
                    let net = &nets[key.city];
                    let target = hospitals[key.city][key.hospital];
                    let problem = match AttackProblem::with_path_rank(
                        net,
                        key.weight,
                        CostType::Uniform,
                        NodeId::new(*source),
                        target,
                        *rank,
                    ) {
                        Ok(p) => p,
                        Err(e) => {
                            bad.fetch_add(groups.iter().map(Vec::len).sum(), Ordering::Relaxed);
                            problems
                                .lock()
                                .expect("lock")
                                .push(format!("source {source}: direct problem failed: {e}"));
                            continue;
                        }
                    };
                    for members in groups {
                        let i = members[0];
                        let raw = &answers[i].as_ref().expect("answered").raw;
                        let result = decode(raw, ids[i]).expect("decoded above");
                        if let Err(e) = check_answer(net, &problem, &ops[i], &result) {
                            bad.fetch_add(members.len(), Ordering::Relaxed);
                            problems.lock().expect("lock").push(format!(
                                "request {} ({} from {source}): {e}",
                                ids[i],
                                ops[i].label()
                            ));
                        }
                    }
                }
            });
        }
    });
    for p in problems.into_inner().expect("lock").into_iter().take(10) {
        run.problem(p);
    }
    failed + bad.into_inner() as u64
}

/// Digest of every answer's result, in request order.
pub fn answers_digest(answers: &[Option<Answer>], ids: &[u64]) -> u64 {
    let mut h = stats::FNV_BASIS;
    for (a, id) in answers.iter().zip(ids) {
        if let Some(a) = a {
            if let Ok(r) = decode(&a.raw, *id) {
                h = stats::fnv1a(h, &id.to_le_bytes());
                h = stats::fnv1a(h, r.to_json().as_bytes());
            }
        }
    }
    h
}

/// Counter delta between two registry snapshots.
pub fn delta(before: &obs::Snapshot, after: &obs::Snapshot, name: &str) -> f64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

/// Span-total delta between two registry snapshots, milliseconds.
pub fn span_delta_ms(before: &obs::Snapshot, after: &obs::Snapshot, name: &str) -> f64 {
    let total = |s: &obs::Snapshot| s.span(name).map_or(0, |x| x.total_ns);
    total(after).saturating_sub(total(before)) as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The reuse ratios: RepairTable hits over repair attempts, and the
/// share of CCH rev-table syncs that stayed incremental,
/// sync / (sync + reset + fallback). 0 when the layer was not used.
pub fn put_ratio_layers(l: &mut Metrics, before: &obs::Snapshot, after: &obs::Snapshot) {
    let d = |n: &str| delta(before, after, n);
    let hit = d("pathattack.reuse.repair.hit");
    l.put(
        "pathattack.repair.hit_ratio",
        ratio(hit, hit + d("pathattack.reuse.repair.full_fallback")),
        "ratio",
    );
    let sync = d("pathattack.reuse.cch.sync");
    l.put(
        "pathattack.cch.incremental_ratio",
        ratio(
            sync,
            sync + d("pathattack.reuse.cch.reset") + d("pathattack.reuse.cch.fallback"),
        ),
        "ratio",
    );
}

/// The `serve` layer figures of a workload that bypasses the server.
pub fn put_absent_serve_layers(l: &mut Metrics) {
    for name in [
        "serve.queue_ms.p50",
        "serve.queue_ms.tail",
        "serve.exec_ms.p50",
        "serve.exec_ms.tail",
        "serve.residual_ms.p50",
        "serve.residual_ms.tail",
    ] {
        l.put(name, 0.0, "ms");
    }
    l.put("serve.residual_share.p50", 0.0, "ratio");
    l.put("serve.batch_size", 0.0, "count");
    l.put("serve.ctx_hit_ratio", 0.0, "ratio");
    l.put("serve.shed", 0.0, "count");
    l.put("serve.timeouts", 0.0, "count");
}

/// What one serve pass measured, for the per-layer figures.
pub struct ServePass<'a> {
    /// The ops of the timed phase, by request index.
    pub ops: &'a [Op],
    /// Request ids, by request index.
    pub ids: &'a [u64],
    /// Answers, by request index.
    pub answers: &'a [Option<Answer>],
    /// Server traces by request id.
    pub traces: &'a HashMap<u64, ServerTrace>,
    /// Registry snapshot before the timed phase.
    pub before: &'a obs::Snapshot,
    /// Registry snapshot after it.
    pub after: &'a obs::Snapshot,
    /// Tail quantile of the workload.
    pub tail_q: f64,
}

/// Fills the request-path per-layer metrics of a serve workload from
/// the traced pass (per answered request), and returns the accounting
/// of the mean client latency.
pub fn serve_layers(p: &ServePass<'_>, l: &mut Metrics, untraced_mean_ms: f64) -> Accounting {
    let answered: Vec<usize> = (0..p.ops.len())
        .filter(|&i| p.answers[i].is_some())
        .collect();
    let n = answered.len().max(1) as f64;
    let d = |name: &str| delta(p.before, p.after, name);
    let mut queue = Vec::new();
    let mut exec = Vec::new();
    let mut residual = Vec::new();
    let mut share = Vec::new();
    let mut sums = [0.0f64; 7];
    let mut by_label: HashMap<&'static str, (f64, usize)> = HashMap::new();
    for &i in &answered {
        let a = p.answers[i].as_ref().expect("answered");
        let t = p.traces.get(&p.ids[i]).copied().unwrap_or_default();
        let res = a.latency_ms - a.lateness_ms - t.total_ms;
        queue.push(t.queue_ms);
        exec.push(t.exec_ms);
        residual.push(res);
        share.push(ratio(res, a.latency_ms));
        sums[0] += a.lateness_ms;
        sums[1] += a.write_ms;
        sums[2] += t.queue_ms;
        sums[3] += t.exec_ms;
        sums[4] += t.total_ms - t.queue_ms - t.exec_ms;
        sums[5] += res - a.write_ms;
        sums[6] += a.latency_ms;
        let e = by_label.entry(p.ops[i].label()).or_default();
        e.0 += t.exec_ms;
        e.1 += 1;
    }
    let (queue, exec, residual, share) = (
        stats::sorted(&queue),
        stats::sorted(&exec),
        stats::sorted(&residual),
        stats::sorted(&share),
    );
    l.put(
        "routing.yen_ms",
        span_delta_ms(p.before, p.after, "routing.yen.shortest_path") / n,
        "ms",
    );
    l.put(
        "routing.yen.spur_searches",
        d("routing.yen.spur_searches") / n,
        "count",
    );
    l.put("routing.astar.pops", d("routing.astar.pops") / n, "count");
    l.put(
        "routing.repair.nodes_resettled",
        d("routing.repair.nodes_resettled") / n,
        "count",
    );
    l.put(
        "routing.cch.rev_nodes_recomputed",
        d("routing.cch.rev_nodes_recomputed") / n,
        "count",
    );
    for alg in [
        "lp-pathcover",
        "greedy-pathcover",
        "greedy-edge",
        "greedy-eig",
    ] {
        let label = if alg == "lp-pathcover" { "lp" } else { alg };
        let (sum, count) = by_label.get(label).copied().unwrap_or((0.0, 0));
        l.put(
            format!("pathattack.attack_ms.{alg}"),
            ratio(sum, count as f64),
            "ms",
        );
    }
    let (sum, count) = by_label.get("perturb").copied().unwrap_or((0.0, 0));
    l.put("pathattack.perturb_ms", ratio(sum, count as f64), "ms");
    l.put(
        "pathattack.oracle.calls",
        (d("pathattack.oracle.calls") + d("pathattack.perturb.oracle.calls")) / n,
        "count",
    );
    put_ratio_layers(l, p.before, p.after);
    l.put(
        "lp.solve_ms",
        span_delta_ms(p.before, p.after, "lp.simplex.solve") / n,
        "ms",
    );
    l.put("lp.simplex.pivots", d("lp.simplex.pivots") / n, "count");
    for name in ["experiments.sample_ms", "experiments.run_ms"] {
        l.put(name, 0.0, "ms");
    }
    for name in [
        "experiments.busy_frac.sample",
        "experiments.busy_frac.run",
        "experiments.sample_share",
    ] {
        l.put(name, 0.0, "ratio");
    }
    let q = p.tail_q;
    l.put("serve.queue_ms.p50", stats::quantile(&queue, 0.5), "ms");
    l.put("serve.queue_ms.tail", stats::quantile(&queue, q), "ms");
    l.put("serve.exec_ms.p50", stats::quantile(&exec, 0.5), "ms");
    l.put("serve.exec_ms.tail", stats::quantile(&exec, q), "ms");
    l.put(
        "serve.residual_ms.p50",
        stats::quantile(&residual, 0.5),
        "ms",
    );
    l.put(
        "serve.residual_ms.tail",
        stats::quantile(&residual, q),
        "ms",
    );
    l.put(
        "serve.residual_share.p50",
        stats::quantile(&share, 0.5),
        "ratio",
    );
    let batch = |s: &obs::Snapshot| {
        s.histogram("serve.batch.size")
            .map_or((0, 0), |h| (h.sum, h.count))
    };
    let ((s0, c0), (s1, c1)) = (batch(p.before), batch(p.after));
    l.put(
        "serve.batch_size",
        ratio((s1 - s0) as f64, (c1 - c0) as f64),
        "count",
    );
    let hit = d("serve.reuse.ctx.hit");
    l.put(
        "serve.ctx_hit_ratio",
        ratio(hit, hit + d("serve.reuse.ctx.miss")),
        "ratio",
    );
    l.put("serve.shed", d("serve.requests.shed"), "count");
    l.put("serve.timeouts", d("serve.requests.timeout"), "count");

    let mut acc = Accounting {
        quantity: "mean client latency per request".into(),
        untraced_ms: untraced_mean_ms,
        traced_ms: sums[6] / n,
        lines: Vec::new(),
    };
    acc.line("generator lateness (send - due)", sums[0] / n);
    acc.line("serve.frame_write (client)", sums[1] / n);
    acc.line("server queue.wait", sums[2] / n);
    acc.line("server exec", sums[3] / n);
    acc.line("server admit-to-send outside queue and exec", sums[4] / n);
    acc.line(
        "transport and client read (serve.residual_ms minus frame write)",
        sums[5] / n,
    );
    acc
}

/// Layer costs of the set-up, measured by calling each layer's public
/// functions directly on the same inputs the server loads: the server
/// makes these calls inside `Server::start` and the warm-up, where the
/// benchmark cannot wrap them.
#[derive(Debug, Default, Clone, Copy)]
pub struct SideTimes {
    /// `CityPreset::build`, every resident city.
    pub citygen_ms: f64,
    /// `TargetContext::build_with_cache`, every key.
    pub context_ms: f64,
    /// `NetworkHierarchy::build`, every city (attack workloads).
    pub hierarchy_build_ms: f64,
    /// `NetworkHierarchy::metric_for`, once per key as the server does.
    pub customize_ms: f64,
    /// `NetworkCache::eigenvector_with`, every city (attack workloads).
    pub centrality_ms: f64,
}

/// Runs the set-up side measurements (see [`SideTimes`]).
pub fn side_measurements(cities: &[City], scale: Scale, keys: &[Key], attacks: bool) -> SideTimes {
    let mut t = SideTimes::default();
    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    for (ci, city) in cities.iter().enumerate() {
        let s = Instant::now();
        let net = {
            let _s = trace::span("citygen.build");
            city.preset.build(scale, CITY_SEED)
        };
        t.citygen_ms += ms(s);
        let hospitals: Vec<NodeId> = net
            .pois_of_kind(PoiKind::Hospital)
            .map(|p| p.node)
            .collect();
        let cache = std::sync::Arc::new(pathattack::NetworkCache::new());
        let hierarchy = attacks.then(|| {
            let s = Instant::now();
            let h = {
                let _s = trace::span("pathattack.hierarchy.build");
                pathattack::NetworkHierarchy::build(&net)
            };
            t.hierarchy_build_ms += ms(s);
            h
        });
        for key in keys.iter().filter(|k| k.city == ci) {
            let s = Instant::now();
            let ctx = {
                let _s = trace::span("pathattack.context");
                TargetContext::build_with_cache(
                    &net,
                    key.weight,
                    hospitals[key.hospital],
                    cache.clone(),
                )
            };
            t.context_ms += ms(s);
            if let Some(h) = &hierarchy {
                let s = Instant::now();
                let _s = trace::span("pathattack.hierarchy.customize");
                std::hint::black_box(h.metric_for(ctx.weights()));
                t.customize_ms += ms(s);
            }
        }
        if attacks {
            let s = Instant::now();
            let _s = trace::span("traffic-graph.centrality");
            let eig = pathattack::GreedyEig::default();
            cache.eigenvector_with(eig.max_iterations, eig.tolerance, || {
                traffic_graph::eigenvector_centrality(
                    &GraphView::new(&net),
                    eig.max_iterations,
                    eig.tolerance,
                )
            });
            t.centrality_ms += ms(s);
        }
    }
    t
}

/// Accounts the untraced set-up time with the traced set-up spans and
/// the side measurements nested inside them.
pub fn setup_accounting(untraced_s: f64, side: &SideTimes) -> Accounting {
    let spans = trace::summary();
    let sp = |n: &str| spans.get(n).map_or(0.0, |a| a.total_ms);
    let (start, warm) = (sp("serve.start"), sp("serve.warmup"));
    let mut acc = Accounting {
        quantity: "set-up: Server::start + warm-up".into(),
        untraced_ms: untraced_s * 1e3,
        traced_ms: start + warm,
        lines: Vec::new(),
    };
    acc.line(
        "citygen (side measurement, inside serve.start)",
        side.citygen_ms,
    );
    acc.line("serve.start outside citygen", start - side.citygen_ms);
    let inside_warm =
        side.context_ms + side.hierarchy_build_ms + side.customize_ms + side.centrality_ms;
    acc.line("pathattack.context (side, inside warm-up)", side.context_ms);
    acc.line(
        "pathattack.hierarchy.build (side, inside warm-up)",
        side.hierarchy_build_ms,
    );
    acc.line(
        "pathattack.hierarchy.customize (side, inside warm-up)",
        side.customize_ms,
    );
    acc.line(
        "traffic-graph.centrality (side, inside warm-up)",
        side.centrality_ms,
    );
    acc.line("warm-up requests outside those layers", warm - inside_warm);
    acc
}

/// The hierarchy figures the server reports in `stats`.
pub fn hierarchy_stats(addr: SocketAddr) -> Result<(f64, f64), String> {
    let mut conn = Conn::connect(addr)?;
    let id = 9_000_000;
    conn.send(&Request::new(id, RequestKind::Stats, ""))?;
    let stats = decode(&conn.recv()?, id)?;
    let mut customizations = 0.0;
    let mut bytes = 0.0;
    if let Some(JsonValue::Obj(h)) = stats.get("hierarchies") {
        for city in h.values() {
            customizations += city
                .get("customizations")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            bytes += city
                .get("bytes_resident")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
        }
    }
    Ok((customizations, bytes / (1024.0 * 1024.0)))
}

/// Per-layer set-up figures of a serve workload.
pub fn put_setup_layers(l: &mut Metrics, side: &SideTimes, customizations: f64, mb: f64) {
    l.put("citygen.build_ms", side.citygen_ms, "ms");
    l.put("traffic-graph.centrality_ms", side.centrality_ms, "ms");
    l.put("pathattack.context_ms", side.context_ms, "ms");
    l.put(
        "pathattack.hierarchy.build_ms",
        side.hierarchy_build_ms,
        "ms",
    );
    l.put("pathattack.hierarchy.customize_ms", side.customize_ms, "ms");
    l.put(
        "pathattack.hierarchy.customizations",
        customizations,
        "count",
    );
    l.put("pathattack.hierarchy.mb", mb, "MB");
}
