//! The server: accept loop, connection readers, supervised worker
//! pool, circuit breakers, drain.
//!
//! Thread structure (all std threads, no framework):
//!
//! * **accept thread** — nonblocking `TcpListener` polled every 10 ms so
//!   it also notices the drain flag ([`crate::signal`] or
//!   [`Server::drain`]) promptly. On drain it stops accepting and
//!   exits; the supervisor then waits for live connections to finish
//!   (bounded by the drain deadline, after which stragglers are
//!   force-closed) and closes the queue. Accepted sockets get the
//!   crate's transport policy ([`configure_stream`]: `TCP_NODELAY`).
//! * **reader threads** (one per connection) — frame + parse requests,
//!   validate them against the resident networks (cheap work, early
//!   errors), and push [`Job`]s into the [`BatchQueue`]. `stats`,
//!   `health`, and `ping` are answered inline. A full queue sheds with
//!   a retry-after error; a draining server rejects new work the same
//!   way, but jobs already admitted always get their response.
//! * **worker threads** (`workers` of them) — pop batches grouped by
//!   (network, weight, target), resolve one shared [`TargetContext`]
//!   per batch (or a fresh one per request with batching off) and run
//!   the route/attack/recon/impact computations against the existing
//!   `pathattack` / `traffic-sim` APIs. Each job runs under
//!   `catch_unwind`: a panic answers that request with a structured
//!   error (no retry hint — re-sending a poison pill would just kill
//!   the next worker), hands the rest of the batch back to the queue,
//!   and retires the worker thread.
//! * **supervisor thread** — owns every worker/accept `JoinHandle` and
//!   a token-bucket [`RestartBudget`]. A panicked worker (or accept
//!   loop) is respawned while the budget holds
//!   (`serve.worker.restart`); when it runs dry the supervisor
//!   escalates to a graceful drain instead of thrashing. It also runs
//!   the drain endgame once the accept loop exits.
//!
//! Per-city [`CircuitBreaker`]s sit between validation and admission:
//! consecutive exec timeouts or panics against one resident network
//! trip its breaker, and further requests for that city fast-fail with
//! a `retry_after_ms` hint until a half-open probe succeeds. The
//! `health` request kind exposes breaker state, worker liveness, and
//! drain status.
//!
//! Responses deliberately carry no wall-clock fields: the same request
//! must serialize to byte-identical responses with batching on or off,
//! which is how `serve_load` proves the reuse layer never changes
//! answers.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::protocol::{
    configure_stream, error_response, ok_response, read_frame, write_frame, FrameError, Injection,
    Request, RequestKind, Response,
};
use crate::queue::BatchQueue;
use crate::registry::{NetworkRegistry, ResidentNetwork};
use crate::signal;
use crate::slowlog::SlowQueryLog;
use crate::supervisor::RestartBudget;
use obs::trace::TraceContext;
use obs::{AttrValue, JsonValue};
use parking_lot::Mutex;
use pathattack::{
    AttackAlgorithm, AttackProblem, AttackStatus, GreedyBetweenness, GreedyEdge, GreedyEig,
    GreedyPathCover, LpPathCover, LpPerturb, PerturbProblem, RunLimits, TargetContext,
};
use std::collections::BTreeMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use traffic_graph::NodeId;
use traffic_sim::{attack_impact, AssignmentConfig, OdMatrix};

/// Everything [`Server::start`] needs to know.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Resident networks: preset names or OSM file paths.
    pub cities: Vec<String>,
    /// Generation scale for preset cities.
    pub scale: citygen::Scale,
    /// Generation seed for preset cities.
    pub seed: u64,
    /// Worker-pool size.
    pub workers: usize,
    /// Admission-queue capacity; pushes beyond it are shed.
    pub queue_depth: usize,
    /// Largest batch one worker pops at a time.
    pub batch_max: usize,
    /// Whether to share `TargetContext`s across requests (on in
    /// production; off is the `serve_load` baseline).
    pub batching: bool,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// How long a drain may take before stragglers are force-closed.
    pub drain_deadline: Duration,
    /// Retry hint attached to load-shed responses, milliseconds.
    pub retry_after_ms: u64,
    /// Whether each admitted request carries a [`TraceContext`]
    /// (sampling-free; on in production). Off is the overhead-bench
    /// baseline — responses are byte-identical either way.
    pub tracing: bool,
    /// Requests slower than this many milliseconds end-to-end have
    /// their span tree appended to the slow-query log.
    pub slow_ms: Option<u64>,
    /// Slow-query log path; defaults to `slow_queries.jsonl` when
    /// `slow_ms` is set without a path.
    pub slow_log: Option<String>,
    /// Where to flush a final registry snapshot during graceful drain
    /// (the serve-side counterpart of `--metrics FILE`).
    pub metrics_file: Option<String>,
    /// Worker/accept restarts the supervisor grants immediately (token
    /// bucket burst) before the refill rate applies.
    pub restart_burst: u32,
    /// Sustained restart rate (tokens per second). 0 disables refill:
    /// `restart_burst` restarts total, ever.
    pub restart_per_sec: f64,
    /// Per-city circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Whether requests carrying an `"inject"` fault ([`Injection`]:
    /// panic or park the executing worker) actually inject it. Off in
    /// production (such requests get a plain error); the chaos and
    /// robustness tests and `resilience_proof` turn it on.
    pub fault_injection: bool,
    /// Master switch for the per-job resilience machinery (breaker
    /// admission checks and per-job `catch_unwind`). On in production;
    /// off is the overhead-bench baseline. The supervisor itself always
    /// runs — it is off the per-request hot path.
    pub resilience: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            cities: vec!["boston".to_string()],
            scale: citygen::Scale::Small,
            seed: 42,
            workers: crate::resolve_workers(None).unwrap_or(4),
            queue_depth: 256,
            batch_max: 32,
            batching: true,
            default_deadline: None,
            drain_deadline: Duration::from_secs(5),
            retry_after_ms: 50,
            tracing: true,
            slow_ms: None,
            slow_log: None,
            metrics_file: None,
            restart_burst: 5,
            restart_per_sec: 1.0,
            breaker: BreakerConfig::default(),
            fault_injection: false,
            resilience: true,
        }
    }
}

/// One admitted request, waiting for (or being run by) a worker.
#[derive(Debug)]
struct Job {
    request: Request,
    resident: Arc<ResidentNetwork>,
    target: NodeId,
    deadline: Option<Instant>,
    received: Instant,
    writer: Arc<Mutex<TcpStream>>,
    /// Request-scoped trace, allocated at admission (None with
    /// tracing off). Never read by the execution path — traces only
    /// observe, so responses stay byte-identical with tracing on/off.
    trace: Option<Arc<TraceContext>>,
}

/// State shared by every thread of one server.
#[derive(Debug)]
struct Shared {
    cfg: ServerConfig,
    registry: NetworkRegistry,
    queue: BatchQueue<Job>,
    draining: AtomicBool,
    active_conns: AtomicUsize,
    conns: Mutex<Vec<Weak<Mutex<TcpStream>>>>,
    /// Monotone admission sequence; seeds the deterministic trace id.
    admitted_seq: AtomicU64,
    slow_log: Option<SlowQueryLog>,
    /// Worker threads currently running (the `health` liveness figure).
    workers_alive: AtomicUsize,
    /// Worker panics caught over the server's lifetime.
    panics: AtomicU64,
    /// Supervisor restarts granted over the server's lifetime.
    restarts: AtomicU64,
    /// Set when the supervisor escalated to drain (restart budget
    /// exhausted or an unrecoverable accept-loop failure).
    escalated: AtomicBool,
    /// One circuit breaker per resident network, keyed by city name.
    /// Built at startup and never mutated, so lookups are lock-free.
    breakers: BTreeMap<String, CircuitBreaker>,
    /// Requests shed over the server's lifetime; a parked worker
    /// ([`Injection::Park`]) waits for this to move.
    sheds: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::drain_requested()
    }

    /// Books one shed request: counters, the park release, and the
    /// breaker probe slot the request reserved at admission (a shed
    /// request produced no verdict, so the slot goes back).
    fn note_shed(&self, city: &str) {
        obs::inc("serve.requests.shed");
        obs::add_windowed("serve.requests.shed", 1);
        self.sheds.fetch_add(1, Ordering::SeqCst);
        if self.cfg.resilience {
            if let Some(breaker) = self.breakers.get(city) {
                breaker.release();
            }
        }
    }
}

/// A running service instance.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Loads the resident networks, binds the listener, and spawns the
    /// accept loop, worker pool, and supervisor. Telemetry is switched
    /// on — the `stats` request depends on it.
    ///
    /// Worker spawns are fallible: a failed spawn is logged and the
    /// server continues with a smaller pool
    /// (`serve.worker.spawn_failed`); only zero workers is fatal.
    ///
    /// # Errors
    ///
    /// Describes the bad city spec, bind failure, or a fully failed
    /// pool.
    pub fn start(cfg: ServerConfig) -> Result<Server, String> {
        obs::set_enabled(true);
        let mut registry = NetworkRegistry::new();
        for spec in &cfg.cities {
            registry.load(spec, cfg.scale, cfg.seed)?;
        }
        if registry.names().is_empty() {
            return Err("no resident networks configured".to_string());
        }
        let listener = TcpListener::bind(&cfg.listen)
            .map_err(|e| format!("cannot bind {}: {e}", cfg.listen))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking: {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read local addr: {e}"))?;

        let workers = cfg.workers.max(1);
        let slow_log = match (&cfg.slow_ms, &cfg.slow_log) {
            (Some(_), path) => {
                let path = path.as_deref().unwrap_or("slow_queries.jsonl");
                Some(
                    SlowQueryLog::open(std::path::Path::new(path))
                        .map_err(|e| format!("cannot open slow-query log {path:?}: {e}"))?,
                )
            }
            (None, _) => None,
        };
        let breakers = registry
            .names()
            .iter()
            .map(|name| (name.clone(), CircuitBreaker::new(cfg.breaker.clone())))
            .collect();
        let shared = Arc::new(Shared {
            queue: BatchQueue::new(cfg.queue_depth, cfg.batch_max),
            cfg,
            registry,
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            admitted_seq: AtomicU64::new(0),
            slow_log,
            workers_alive: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            escalated: AtomicBool::new(false),
            breakers,
            sheds: AtomicU64::new(0),
        });

        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        let mut spawned = 0usize;
        for i in 0..workers {
            match spawn_worker(&shared, i, &tx) {
                Ok(h) => {
                    handles.push(h);
                    spawned += 1;
                }
                Err(e) => {
                    obs::inc("serve.worker.spawn_failed");
                    eprintln!("metro-serve: {e}; continuing with a smaller pool");
                }
            }
        }
        if spawned == 0 {
            shared.queue.close();
            return Err("no worker threads could be spawned".to_string());
        }
        let accept = spawn_accept(listener, &shared, &tx)?;
        handles.push(accept);
        let supervisor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared, local_addr, rx, tx, handles, spawned))
                .map_err(|e| format!("cannot spawn supervisor: {e}"))?
        };
        Ok(Server {
            shared,
            local_addr,
            supervisor: Some(supervisor),
        })
    }

    /// Where the server is actually listening.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts a graceful drain — same effect as SIGTERM.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain is in progress.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Blocks until the server has fully drained (supervisor, accept
    /// loop, and every worker exited). Without a prior
    /// [`Server::drain`] or signal this waits for one to arrive.
    pub fn join(mut self) {
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        // Every worker has exited: the registry is final. Flush the
        // drain-time telemetry before reporting the server down, so a
        // SIGTERM exit loses neither metrics nor slow-query records.
        if let Some(log) = &self.shared.slow_log {
            log.sync();
        }
        if let Some(path) = &self.shared.cfg.metrics_file {
            if let Err(e) = flush_metrics_file(path) {
                eprintln!("metro-serve: cannot write metrics file {path:?}: {e}");
            }
        }
    }

    /// Convenience: drain, then join.
    pub fn shutdown(self) {
        self.drain();
        self.join();
    }
}

/// Writes the global registry's snapshot to `path` as JSONL, buffered
/// and renamed into place so a crash mid-write never leaves a
/// truncated metrics file.
fn flush_metrics_file(path: &str) -> std::io::Result<()> {
    use obs::TelemetrySink;
    let mut buf: Vec<u8> = Vec::new();
    obs::JsonlSink::new(&mut buf).export(&obs::global().snapshot())?;
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, &buf)?;
    std::fs::rename(&tmp, path)
}

/// Lifecycle events the supervisor reacts to.
enum SupEvent {
    /// The accept loop returned (`panicked: false` means a normal
    /// drain exit).
    AcceptExited {
        /// Whether it died of a panic rather than a drain.
        panicked: bool,
    },
    /// A worker thread returned.
    WorkerExited {
        /// Pool slot, reused for the replacement's thread name.
        index: usize,
        /// Whether it died of a panic rather than a drain.
        panicked: bool,
    },
}

/// How a worker's run ended (the non-panicking exit reasons).
enum WorkerExit {
    /// The queue closed and drained.
    Drained,
    /// A job panicked; the worker answered it, re-queued the rest of
    /// its batch, and retired so the supervisor can decide.
    Panicked,
}

fn spawn_worker(
    shared: &Arc<Shared>,
    index: usize,
    tx: &mpsc::Sender<SupEvent>,
) -> Result<JoinHandle<()>, String> {
    let shared = shared.clone();
    let tx = tx.clone();
    std::thread::Builder::new()
        .name(format!("serve-worker-{index}"))
        .spawn(move || {
            shared.workers_alive.fetch_add(1, Ordering::SeqCst);
            let exit = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared)));
            shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
            let panicked = !matches!(exit, Ok(WorkerExit::Drained));
            let _ = tx.send(SupEvent::WorkerExited { index, panicked });
        })
        .map_err(|e| format!("cannot spawn worker {index}: {e}"))
}

fn spawn_accept(
    listener: TcpListener,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<SupEvent>,
) -> Result<JoinHandle<()>, String> {
    let shared = shared.clone();
    let tx = tx.clone();
    std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || {
            let exit = catch_unwind(AssertUnwindSafe(|| accept_loop(listener, &shared)));
            let _ = tx.send(SupEvent::AcceptExited {
                panicked: exit.is_err(),
            });
        })
        .map_err(|e| format!("cannot spawn accept loop: {e}"))
}

/// Flags the server as degraded-beyond-repair and starts a drain.
fn escalate(shared: &Shared, why: &str) {
    if !shared.escalated.swap(true, Ordering::SeqCst) {
        obs::inc("serve.supervisor.escalated");
        eprintln!("metro-serve: {why}; escalating to drain");
    }
    shared.draining.store(true, Ordering::SeqCst);
}

/// The drain endgame, run by the supervisor once the accept loop has
/// exited (no new connections): wait for live connections bounded by
/// the drain deadline, force-close stragglers, then close the queue so
/// workers finish the backlog and exit.
fn run_drain(shared: &Shared) {
    let drain_started = Instant::now();
    while shared.active_conns.load(Ordering::SeqCst) > 0
        && drain_started.elapsed() < shared.cfg.drain_deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    if shared.active_conns.load(Ordering::SeqCst) > 0 {
        for conn in shared.conns.lock().iter() {
            if let Some(stream) = conn.upgrade() {
                obs::inc("serve.drain.force_closed");
                let _ = stream.lock().shutdown(Shutdown::Both);
            }
        }
    }
    shared.queue.close();
}

/// Reacts to worker/accept exits until the server is fully down:
/// panicked threads are respawned while the restart budget holds,
/// after which the supervisor escalates to a drain. Owns every thread
/// handle and joins them all before returning, so [`Server::join`]
/// only needs to join the supervisor.
fn supervisor_loop(
    shared: &Arc<Shared>,
    local_addr: SocketAddr,
    rx: mpsc::Receiver<SupEvent>,
    tx: mpsc::Sender<SupEvent>,
    mut handles: Vec<JoinHandle<()>>,
    mut workers_left: usize,
) {
    let mut budget = RestartBudget::new(shared.cfg.restart_burst, shared.cfg.restart_per_sec);
    let mut accept_alive = true;
    let mut drained = false;
    while accept_alive || workers_left > 0 {
        let Ok(event) = rx.recv() else { break };
        match event {
            SupEvent::WorkerExited { index, panicked } => {
                workers_left -= 1;
                if !panicked {
                    continue;
                }
                if shared.draining() || !budget.try_take() {
                    escalate(shared, "worker restart budget exhausted");
                    continue;
                }
                match spawn_worker(shared, index, &tx) {
                    Ok(h) => {
                        handles.push(h);
                        workers_left += 1;
                        shared.restarts.fetch_add(1, Ordering::SeqCst);
                        obs::inc("serve.worker.restart");
                    }
                    Err(e) => {
                        obs::inc("serve.worker.spawn_failed");
                        escalate(shared, &e.to_string());
                    }
                }
            }
            SupEvent::AcceptExited { panicked } => {
                if panicked && !shared.draining() && budget.try_take() {
                    // Rebind the same address and put a fresh accept
                    // loop up; established connections were never owned
                    // by the accept thread and keep working throughout.
                    let rebound = TcpListener::bind(local_addr)
                        .map_err(|e| format!("cannot rebind {local_addr}: {e}"))
                        .and_then(|l| {
                            l.set_nonblocking(true)
                                .map_err(|e| format!("cannot set nonblocking: {e}"))?;
                            Ok(l)
                        })
                        .and_then(|l| spawn_accept(l, shared, &tx));
                    match rebound {
                        Ok(h) => {
                            handles.push(h);
                            shared.restarts.fetch_add(1, Ordering::SeqCst);
                            obs::inc("serve.worker.restart");
                            obs::inc("serve.accept.restart");
                            continue;
                        }
                        Err(e) => escalate(shared, &format!("accept loop lost: {e}")),
                    }
                } else if panicked {
                    escalate(shared, "accept-loop restart budget exhausted");
                }
                accept_alive = false;
                run_drain(shared);
                drained = true;
            }
        }
    }
    if !drained {
        // Defensive: never leave workers blocked on an open queue.
        shared.queue.close();
    }
    for h in handles {
        let _ = h.join();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if configure_stream(&stream).is_err() {
                    continue;
                }
                let writer = match stream.try_clone() {
                    Ok(clone) => Arc::new(Mutex::new(clone)),
                    Err(_) => continue,
                };
                shared.conns.lock().push(Arc::downgrade(&writer));
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                obs::inc("serve.connections");
                let conn_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        reader_loop(stream, &writer, &conn_shared);
                        conn_shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Drain: returning drops the listener (no new connections); the
    // supervisor notices the exit and runs the drain endgame.
}

fn send(writer: &Mutex<TcpStream>, payload: &[u8]) {
    let mut stream = writer.lock();
    if write_frame(&mut *stream, payload).is_err() {
        obs::inc("serve.write_errors");
    }
}

fn reader_loop(mut stream: TcpStream, writer: &Arc<Mutex<TcpStream>>, shared: &Arc<Shared>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed) => break,
            Err(FrameError::Truncated) => {
                obs::inc("serve.protocol.truncated");
                break;
            }
            Err(FrameError::Oversized(n)) => {
                // The stream cannot be resynchronized past an oversized
                // frame; answer once, then close.
                obs::inc("serve.protocol.oversized");
                send(
                    writer,
                    &error_response(0, &format!("frame of {n} bytes exceeds the cap"), None),
                );
                break;
            }
            Err(FrameError::Corrupted { expected, got }) => {
                // A failed checksum means the length itself may be
                // wrong, so the frame boundary is untrustworthy: answer
                // once, then close (same contract as oversized).
                obs::inc("serve.protocol.corrupted");
                send(
                    writer,
                    &error_response(
                        0,
                        &format!(
                            "frame checksum mismatch (header {expected:#010x}, payload {got:#010x}); closing"
                        ),
                        None,
                    ),
                );
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        let request = match Request::parse(&payload) {
            Ok(r) => r,
            Err(msg) => {
                obs::inc("serve.protocol.bad_request");
                send(writer, &error_response(0, &msg, None));
                continue;
            }
        };
        handle_request(request, writer, shared);
    }
}

/// Validates a request and either answers inline (`stats`/`ping`,
/// validation errors, shed) or admits it to the queue.
fn handle_request(request: Request, writer: &Arc<Mutex<TcpStream>>, shared: &Arc<Shared>) {
    let id = request.id;
    match request.kind {
        RequestKind::Ping => {
            let mut obj = BTreeMap::new();
            obj.insert("pong".to_string(), JsonValue::Bool(true));
            send(
                writer,
                &ok_response(id, &RequestKind::Ping, JsonValue::Obj(obj)),
            );
            return;
        }
        RequestKind::Stats => {
            send(
                writer,
                &ok_response(id, &RequestKind::Stats, stats_result(shared)),
            );
            return;
        }
        RequestKind::Metrics => {
            send(
                writer,
                &ok_response(id, &RequestKind::Metrics, metrics_result()),
            );
            return;
        }
        RequestKind::Health => {
            // Answered inline and before the draining check: health is
            // the one surface that must keep working while degraded.
            send(
                writer,
                &ok_response(id, &RequestKind::Health, health_result(shared)),
            );
            return;
        }
        _ => {}
    }
    if shared.draining() {
        obs::inc("serve.requests.rejected_draining");
        send(
            writer,
            &error_response(id, "server is draining; no new requests", None),
        );
        return;
    }
    let Some(resident) = shared.registry.get(&request.city) else {
        send(
            writer,
            &error_response(
                id,
                &format!(
                    "unknown city {:?}; resident: {}",
                    request.city,
                    shared.registry.names().join(", ")
                ),
                None,
            ),
        );
        return;
    };
    let hospitals = resident.hospitals();
    if hospitals.is_empty() {
        send(writer, &error_response(id, "city has no hospitals", None));
        return;
    }
    if request.hospital >= hospitals.len() {
        send(
            writer,
            &error_response(
                id,
                &format!(
                    "hospital {} out of range (city has {})",
                    request.hospital,
                    hospitals.len()
                ),
                None,
            ),
        );
        return;
    }
    if request.source >= resident.net().num_nodes() {
        send(
            writer,
            &error_response(
                id,
                &format!(
                    "source {} out of range (city has {} intersections)",
                    request.source,
                    resident.net().num_nodes()
                ),
                None,
            ),
        );
        return;
    }
    if request.rank == 0 {
        send(writer, &error_response(id, "rank is 1-based", None));
        return;
    }
    if matches!(request.kind, RequestKind::Attack) {
        if let Err(msg) = algorithm_by_name(&request.algorithm) {
            send(writer, &error_response(id, &msg, None));
            return;
        }
    }
    if shared.cfg.resilience {
        if let Some(breaker) = shared.breakers.get(&request.city) {
            if let Err(retry_after_ms) = breaker.admit() {
                obs::inc("serve.breaker.fast_fail");
                send(
                    writer,
                    &error_response(
                        id,
                        &format!(
                            "circuit open for city {:?}: recent requests kept timing out or panicking",
                            request.city
                        ),
                        Some(retry_after_ms),
                    ),
                );
                return;
            }
        }
    }
    let target = hospitals[request.hospital].node;
    let now = Instant::now();
    let deadline = request
        .deadline_ms
        .map(Duration::from_millis)
        .or(shared.cfg.default_deadline)
        .map(|d| now + d);
    let trace = shared.cfg.tracing.then(|| {
        let seq = shared.admitted_seq.fetch_add(1, Ordering::Relaxed);
        let ctx = Arc::new(TraceContext::new(
            obs::trace::trace_id(&[seq, request.id]),
            request_label(&request.kind),
        ));
        ctx.point(
            "admit",
            vec![
                ("kind", AttrValue::Str(request.kind.name().to_string())),
                ("city", AttrValue::Str(request.city.clone())),
                ("source", AttrValue::U64(request.source as u64)),
                ("hospital", AttrValue::U64(request.hospital as u64)),
            ],
        );
        ctx
    });
    let job = Job {
        request,
        resident: resident.clone(),
        target,
        deadline,
        received: now,
        writer: writer.clone(),
        trace,
    };
    obs::inc("serve.requests.admitted");
    obs::add_windowed("serve.requests", 1);
    if let Err(job) = shared.queue.push(job) {
        shared.note_shed(&job.request.city);
        send(
            &job.writer,
            &error_response(
                id,
                "overloaded: admission queue full",
                Some(shared.cfg.retry_after_ms),
            ),
        );
    }
}

/// Static trace label for a request kind.
fn request_label(kind: &RequestKind) -> &'static str {
    match kind {
        RequestKind::Route => "serve/route",
        RequestKind::Attack => "serve/attack",
        RequestKind::Perturb => "serve/perturb",
        RequestKind::Recon => "serve/recon",
        RequestKind::Impact => "serve/impact",
        RequestKind::Stats => "serve/stats",
        RequestKind::Metrics => "serve/metrics",
        RequestKind::Health => "serve/health",
        RequestKind::Ping => "serve/ping",
    }
}

/// Batch key: jobs share a batch iff they hit the same network with the
/// same weight model and target hospital — exactly the `TargetContext`
/// key.
fn same_key(a: &Job, b: &Job) -> bool {
    Arc::ptr_eq(&a.resident, &b.resident)
        && a.request.weight == b.request.weight
        && a.target == b.target
}

/// How one job's execution ended, for the breaker's bookkeeping.
enum JobOutcome {
    /// Executed and answered `ok` (breaker success).
    Success,
    /// Answered with a plain error — bad parameters, unknown
    /// algorithm: says nothing about the city's health (breaker
    /// neutral).
    Error,
    /// The execution itself ran out of time (breaker failure).
    ExecTimeout,
    /// The deadline expired while queued — a load signal, not a city
    /// signal (breaker neutral).
    QueueExpired,
}

/// Settles the breaker verdict a successful (non-panicking) job owes
/// for its admission slot.
fn settle_breaker(shared: &Shared, city: &str, outcome: &JobOutcome) {
    if !shared.cfg.resilience {
        return;
    }
    let Some(breaker) = shared.breakers.get(city) else {
        return;
    };
    match outcome {
        JobOutcome::Success => breaker.record_success(),
        JobOutcome::ExecTimeout => breaker.record_failure(),
        JobOutcome::Error | JobOutcome::QueueExpired => breaker.release(),
    }
}

fn worker_loop(shared: &Arc<Shared>) -> WorkerExit {
    let batching = shared.cfg.batching;
    loop {
        let batch = if batching {
            shared.queue.pop_batch(same_key)
        } else {
            shared.queue.pop_batch(|_, _| false)
        };
        let Some(batch) = batch else {
            return WorkerExit::Drained;
        };
        let batch_size = batch.len() as u64;
        obs::record_value("serve.batch.size", batch_size);
        // One context serves the whole batch; built lazily because
        // recon jobs never touch it.
        let mut batch_ctx: Option<Arc<TargetContext>> = None;
        let mut jobs = batch.into_iter();
        while let Some(job) = jobs.next() {
            // Captured before the job is consumed so a panic can still
            // be answered on the right connection.
            let id = job.request.id;
            let city = job.request.city.clone();
            let writer = job.writer.clone();
            let trace = job.trace.clone();
            let received = job.received;
            let run = || {
                // Install the request's trace for the duration of its
                // processing so deep code (oracle, A*, context caches)
                // records into it ambiently. The guard lives inside the
                // unwind boundary: a panic drops it during unwinding,
                // so the next job never inherits a stale trace.
                let _guard = trace.as_ref().map(obs::trace::install);
                if let Some(t) = &trace {
                    t.point(
                        "queue.wait",
                        vec![(
                            "wait_us",
                            AttrValue::U64(received.elapsed().as_micros() as u64),
                        )],
                    );
                    t.point(
                        "batch",
                        vec![
                            ("size", AttrValue::U64(batch_size)),
                            ("city", AttrValue::Str(job.request.city.clone())),
                            (
                                "weight",
                                AttrValue::Str(job.request.weight.name().to_string()),
                            ),
                            ("target", AttrValue::U64(job.target.index() as u64)),
                        ],
                    );
                }
                process_job(job, &mut batch_ctx, shared)
            };
            let outcome = if shared.cfg.resilience {
                catch_unwind(AssertUnwindSafe(run))
            } else {
                Ok(run())
            };
            match outcome {
                Ok((outcome, payload)) => {
                    // Settle the breaker *before* the response leaves:
                    // the moment the client reads this answer it may
                    // pipeline its next request, which must be admitted
                    // against the settled state (a probe success that
                    // settled after the send would fast-fail it).
                    settle_breaker(shared, &city, &outcome);
                    send(&writer, &payload);
                    if let (Some(t), Some(slow_ms)) = (&trace, shared.cfg.slow_ms) {
                        let total_us = received.elapsed().as_micros() as u64;
                        if total_us >= slow_ms.saturating_mul(1_000) {
                            obs::inc("serve.requests.slow");
                            if let Some(log) = &shared.slow_log {
                                log.append(t);
                            }
                        }
                    }
                }
                Err(_) => {
                    // The job's state (shared context, caches) is
                    // suspect after an unwind: answer the request with
                    // a *final* error — no retry hint, so a resilient
                    // client will not re-send a poison pill — give the
                    // rest of the batch back to the queue, and retire
                    // this worker for the supervisor to replace.
                    obs::inc("serve.worker.panic");
                    shared.panics.fetch_add(1, Ordering::SeqCst);
                    obs::inc("serve.requests.error");
                    if shared.cfg.resilience {
                        if let Some(breaker) = shared.breakers.get(&city) {
                            breaker.record_failure();
                        }
                    }
                    send(
                        &writer,
                        &error_response(
                            id,
                            "internal error: worker panicked while executing this request",
                            None,
                        ),
                    );
                    for j in jobs {
                        let jid = j.request.id;
                        let jwriter = j.writer.clone();
                        let jcity = j.request.city.clone();
                        if shared.queue.push(j).is_err() {
                            shared.note_shed(&jcity);
                            send(
                                &jwriter,
                                &error_response(
                                    jid,
                                    "overloaded: could not requeue after a worker panic",
                                    Some(shared.cfg.retry_after_ms),
                                ),
                            );
                        }
                    }
                    return WorkerExit::Panicked;
                }
            }
        }
    }
}

/// Longest a parked worker waits for a shed before giving up.
const MAX_PARK: Duration = Duration::from_secs(10);

/// Holds the calling worker until the admission queue sheds a request,
/// the server drains, or [`MAX_PARK`] passes. Lets a test keep a worker
/// busy for exactly as long as it takes to observe a shed, with no
/// dependence on how long real work takes.
fn park_until_shed(shared: &Shared) {
    let sheds = shared.sheds.load(Ordering::SeqCst);
    let parked = Instant::now();
    while shared.sheds.load(Ordering::SeqCst) == sheds
        && !shared.draining()
        && parked.elapsed() < MAX_PARK
    {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn context_for(
    job: &Job,
    batch_ctx: &mut Option<Arc<TargetContext>>,
    batching: bool,
) -> Arc<TargetContext> {
    if batching {
        batch_ctx
            .get_or_insert_with(|| job.resident.shared_context(job.request.weight, job.target))
            .clone()
    } else {
        job.resident.fresh_context(job.request.weight, job.target)
    }
}

/// Executes one job and returns its outcome plus the response frame
/// payload. The caller sends the payload *after* settling the breaker
/// with the outcome, so a client that pipelines its next request the
/// moment it reads this answer observes consistent admission state.
fn process_job(
    job: Job,
    batch_ctx: &mut Option<Arc<TargetContext>>,
    shared: &Shared,
) -> (JobOutcome, Vec<u8>) {
    let batching = shared.cfg.batching;
    let id = job.request.id;
    let now = Instant::now();
    if let Some(deadline) = job.deadline {
        obs::trace::point(
            "deadline",
            &[(
                "remaining_us",
                AttrValue::U64(deadline.saturating_duration_since(now).as_micros() as u64),
            )],
        );
        if now >= deadline {
            // The deadline elapsed while the job sat in the queue: same
            // contract as an attack that ran out of time — a structured
            // timed-out answer, not a dropped connection.
            obs::inc("serve.requests.timeout");
            obs::inc("serve.requests.timeout.queue");
            record_latency(&job);
            return (JobOutcome::QueueExpired, timed_out_payload(&job));
        }
    }
    match job.request.inject {
        None => {}
        Some(_) if !shared.cfg.fault_injection => {
            obs::inc("serve.requests.error");
            record_latency(&job);
            return (
                JobOutcome::Error,
                error_response(id, "fault injection is disabled on this server", None),
            );
        }
        // The chaos tests and `resilience_proof` exercise the
        // supervisor through this: a real unwind from request depth,
        // caught by the worker's per-job boundary.
        Some(Injection::Panic) => panic!("injected worker panic (fault injection)"),
        Some(Injection::Park) => park_until_shed(shared),
    }
    let mut exec_timed_out = false;
    let result = {
        let _exec = obs::trace::span("exec");
        match job.request.kind {
            RequestKind::Route => exec_route(&job, &context_for(&job, batch_ctx, batching)),
            RequestKind::Attack => exec_attack(&job, &context_for(&job, batch_ctx, batching), now)
                .map(|(value, timed_out)| {
                    exec_timed_out = timed_out;
                    value
                }),
            RequestKind::Perturb => {
                exec_perturb(&job, &context_for(&job, batch_ctx, batching), now).map(
                    |(value, timed_out)| {
                        exec_timed_out = timed_out;
                        value
                    },
                )
            }
            RequestKind::Recon => exec_recon(&job),
            RequestKind::Impact => exec_impact(&job, &context_for(&job, batch_ctx, batching)),
            // Handled inline by the reader; unreachable through the queue.
            RequestKind::Stats | RequestKind::Metrics | RequestKind::Health | RequestKind::Ping => {
                Err("not a queued request kind".to_string())
            }
        }
    };
    let (outcome, payload) = match result {
        Ok(value) => {
            obs::inc("serve.requests.ok");
            let outcome = if exec_timed_out {
                JobOutcome::ExecTimeout
            } else {
                JobOutcome::Success
            };
            (outcome, ok_response(id, &job.request.kind, value))
        }
        Err(msg) => {
            obs::inc("serve.requests.error");
            (JobOutcome::Error, error_response(id, &msg, None))
        }
    };
    record_latency(&job);
    (outcome, payload)
}

/// Records one finished request's end-to-end latency into both the
/// lifetime histogram and the rolling windows.
fn record_latency(job: &Job) {
    let us = job.received.elapsed().as_micros() as u64;
    obs::record_value("serve.latency_us", us);
    obs::record_windowed("serve.latency_us", us);
}

/// The answer for a request whose deadline expired in the queue: for
/// `attack`, the existing `timed_out` status with an empty cut set; for
/// everything else a plain error.
fn timed_out_payload(job: &Job) -> Vec<u8> {
    if matches!(job.request.kind, RequestKind::Attack) {
        let mut obj = BTreeMap::new();
        obj.insert(
            "status".to_string(),
            JsonValue::Str(AttackStatus::TimedOut.name().to_string()),
        );
        obj.insert("removed".to_string(), JsonValue::Arr(Vec::new()));
        obj.insert("total_cost".to_string(), JsonValue::Num(0.0));
        obj.insert("iterations".to_string(), JsonValue::Num(0.0));
        ok_response(job.request.id, &job.request.kind, JsonValue::Obj(obj))
    } else if matches!(job.request.kind, RequestKind::Perturb) {
        let mut obj = BTreeMap::new();
        obj.insert(
            "status".to_string(),
            JsonValue::Str(AttackStatus::TimedOut.name().to_string()),
        );
        obj.insert("perturbed".to_string(), JsonValue::Arr(Vec::new()));
        obj.insert("deltas".to_string(), JsonValue::Arr(Vec::new()));
        obj.insert("total_cost".to_string(), JsonValue::Num(0.0));
        obj.insert("total_delta".to_string(), JsonValue::Num(0.0));
        obj.insert("rounds".to_string(), JsonValue::Num(0.0));
        ok_response(job.request.id, &job.request.kind, JsonValue::Obj(obj))
    } else {
        error_response(job.request.id, "deadline exceeded in queue", None)
    }
}

fn algorithm_by_name(name: &str) -> Result<Box<dyn AttackAlgorithm>, String> {
    match name {
        "lp" | "lp-pathcover" => Ok(Box::new(LpPathCover::default())),
        "greedy-pathcover" | "pathcover" => Ok(Box::new(GreedyPathCover)),
        "greedy-edge" | "edge" => Ok(Box::new(GreedyEdge)),
        "greedy-eig" | "eig" => Ok(Box::new(GreedyEig::default())),
        "greedy-betweenness" | "betweenness" => Ok(Box::new(GreedyBetweenness::default())),
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

fn num_arr<I: IntoIterator<Item = usize>>(items: I) -> JsonValue {
    JsonValue::Arr(
        items
            .into_iter()
            .map(|v| JsonValue::Num(v as f64))
            .collect(),
    )
}

fn exec_route(job: &Job, ctx: &Arc<TargetContext>) -> Result<JsonValue, String> {
    let req = &job.request;
    let problem = AttackProblem::with_path_rank_in(
        job.resident.net(),
        req.weight,
        req.cost,
        NodeId::new(req.source),
        job.target,
        req.rank,
        ctx,
    )
    .map_err(|e| e.to_string())?;
    let mut obj = BTreeMap::new();
    obj.insert(
        "nodes".to_string(),
        num_arr(problem.pstar().nodes().iter().map(|n| n.index())),
    );
    obj.insert(
        "num_edges".to_string(),
        JsonValue::Num(problem.pstar().len() as f64),
    );
    obj.insert("weight".to_string(), JsonValue::Num(problem.pstar_weight()));
    obj.insert(
        "optimal_weight".to_string(),
        JsonValue::Num(ctx.distance_to_target(NodeId::new(req.source))),
    );
    Ok(JsonValue::Obj(obj))
}

/// The attack problem a job names, sharing the batch's
/// [`TargetContext`] and bounded by the job's remaining deadline: the
/// common set-up of [`exec_attack`] and [`exec_perturb`].
fn job_problem<'a>(
    job: &'a Job,
    ctx: &Arc<TargetContext>,
    now: Instant,
) -> Result<AttackProblem<'a>, String> {
    let req = &job.request;
    let limits = RunLimits {
        deadline: job.deadline.map(|d| d.saturating_duration_since(now)),
        ..RunLimits::default()
    };
    let problem = AttackProblem::with_path_rank_in(
        job.resident.net(),
        req.weight,
        req.cost,
        NodeId::new(req.source),
        job.target,
        req.rank,
        ctx,
    )
    .map_err(|e| e.to_string())?;
    Ok(problem.with_limits(limits))
}

/// The fields every attack response carries, plus the exec-timeout
/// flag: the pair [`exec_attack`] and [`exec_perturb`] return. A
/// timeout is counted here; it is a breaker failure even though the
/// response itself is `ok` with a `timed_out` status.
fn attack_response(
    mut obj: BTreeMap<String, JsonValue>,
    status: AttackStatus,
    total_cost: f64,
    pstar_weight: f64,
    algorithm: &str,
) -> (JsonValue, bool) {
    let timed_out = status == AttackStatus::TimedOut;
    if timed_out {
        obs::inc("serve.requests.timeout");
        obs::inc("serve.requests.timeout.exec");
    }
    obj.insert(
        "status".to_string(),
        JsonValue::Str(status.name().to_string()),
    );
    obj.insert("total_cost".to_string(), JsonValue::Num(total_cost));
    obj.insert("pstar_weight".to_string(), JsonValue::Num(pstar_weight));
    obj.insert(
        "algorithm".to_string(),
        JsonValue::Str(algorithm.to_string()),
    );
    (JsonValue::Obj(obj), timed_out)
}

/// Runs a cut attack; see [`attack_response`] for the returned pair.
fn exec_attack(
    job: &Job,
    ctx: &Arc<TargetContext>,
    now: Instant,
) -> Result<(JsonValue, bool), String> {
    let problem = job_problem(job, ctx, now)?;
    let algorithm = algorithm_by_name(&job.request.algorithm)?;
    let out = algorithm.attack(&problem);
    let mut obj = BTreeMap::new();
    obj.insert(
        "removed".to_string(),
        num_arr(out.removed.iter().map(|e| e.index())),
    );
    obj.insert(
        "iterations".to_string(),
        JsonValue::Num(out.iterations as f64),
    );
    Ok(attack_response(
        obj,
        out.status,
        out.total_cost,
        problem.pstar_weight(),
        &out.algorithm,
    ))
}

/// Runs the PATHPERTURB weight-perturbation attack; see
/// [`attack_response`] for the returned pair. Shares the batch's
/// [`TargetContext`]: a perturb job batches with route/attack jobs
/// against the same (network, weight, hospital).
fn exec_perturb(
    job: &Job,
    ctx: &Arc<TargetContext>,
    now: Instant,
) -> Result<(JsonValue, bool), String> {
    let req = &job.request;
    let problem = job_problem(job, ctx, now)?;
    let mut perturb = PerturbProblem::new(problem).with_integer_rounding(req.integer_round);
    if let Some(cap) = req.perturb_cap {
        perturb = perturb.with_edge_cap(cap);
    }
    let out = LpPerturb::default().attack(&perturb);
    let mut obj = BTreeMap::new();
    obj.insert(
        "perturbed".to_string(),
        num_arr(out.perturbed.iter().map(|(e, _)| e.index())),
    );
    obj.insert(
        "deltas".to_string(),
        JsonValue::Arr(
            out.perturbed
                .iter()
                .map(|&(_, d)| JsonValue::Num(d))
                .collect(),
        ),
    );
    obj.insert("total_delta".to_string(), JsonValue::Num(out.total_delta));
    obj.insert("rounds".to_string(), JsonValue::Num(out.rounds as f64));
    obj.insert(
        "integer_rounded".to_string(),
        JsonValue::Bool(out.integer_rounded),
    );
    Ok(attack_response(
        obj,
        out.status,
        out.total_cost,
        perturb.inner().pstar_weight(),
        &out.algorithm,
    ))
}

fn exec_recon(job: &Job) -> Result<JsonValue, String> {
    let req = &job.request;
    let segments = pathattack::critical_segments(job.resident.net(), req.weight, Some(64), req.top);
    // Per-unit perturbation price of each segment under the requested
    // attacker cost model: what one unit of added weight there costs.
    let unit_cost = req.cost.compute(job.resident.net());
    let items = segments
        .iter()
        .map(|seg| {
            let mut obj = BTreeMap::new();
            obj.insert("edge".to_string(), JsonValue::Num(seg.edge.index() as f64));
            obj.insert("betweenness".to_string(), JsonValue::Num(seg.betweenness));
            obj.insert("class".to_string(), JsonValue::Str(seg.class.to_string()));
            obj.insert("length_m".to_string(), JsonValue::Num(seg.length_m));
            obj.insert(
                "perturb_unit_cost".to_string(),
                JsonValue::Num(unit_cost[seg.edge.index()]),
            );
            JsonValue::Obj(obj)
        })
        .collect();
    let mut obj = BTreeMap::new();
    obj.insert("segments".to_string(), JsonValue::Arr(items));
    Ok(JsonValue::Obj(obj))
}

fn exec_impact(job: &Job, ctx: &Arc<TargetContext>) -> Result<JsonValue, String> {
    let req = &job.request;
    let net = job.resident.net();
    let problem = AttackProblem::with_path_rank_in(
        net,
        req.weight,
        req.cost,
        NodeId::new(req.source),
        job.target,
        req.rank,
        ctx,
    )
    .map_err(|e| e.to_string())?;
    let out = GreedyPathCover.attack(&problem);
    let demand = OdMatrix::synthetic_hospital_demand(net, req.trips, 350.0, req.seed);
    let report = attack_impact(net, &demand, &out.removed, &AssignmentConfig::default());
    let mut obj = BTreeMap::new();
    obj.insert(
        "removed".to_string(),
        num_arr(out.removed.iter().map(|e| e.index())),
    );
    obj.insert(
        "mean_trip_before_s".to_string(),
        JsonValue::Num(report.before.mean_trip_time_s),
    );
    obj.insert(
        "mean_trip_after_s".to_string(),
        JsonValue::Num(report.after.mean_trip_time_s),
    );
    obj.insert(
        "extra_mean_trip_s".to_string(),
        JsonValue::Num(report.extra_mean_trip_s),
    );
    obj.insert(
        "extra_time_veh_s".to_string(),
        JsonValue::Num(report.extra_time_veh_s),
    );
    obj.insert(
        "newly_unserved_vph".to_string(),
        JsonValue::Num(report.newly_unserved_vph),
    );
    Ok(JsonValue::Obj(obj))
}

/// The `health` response body: drain/escalation status, worker
/// liveness, and per-city breaker state. Unlike every queued kind this
/// reports *live* state (it is excluded from byte-identity workloads).
fn health_result(shared: &Shared) -> JsonValue {
    let configured = shared.cfg.workers.max(1);
    let alive = shared.workers_alive.load(Ordering::SeqCst);
    let draining = shared.draining();
    let escalated = shared.escalated.load(Ordering::SeqCst);
    let mut breakers = BTreeMap::new();
    let mut any_open = false;
    for (city, breaker) in &shared.breakers {
        let snap = breaker.snapshot();
        any_open |= snap.state == BreakerState::Open;
        let mut b = BTreeMap::new();
        b.insert(
            "state".to_string(),
            JsonValue::Str(snap.state.name().to_string()),
        );
        b.insert(
            "consecutive_failures".to_string(),
            JsonValue::Num(snap.consecutive_failures as f64),
        );
        b.insert("opens".to_string(), JsonValue::Num(snap.opens as f64));
        breakers.insert(city.clone(), JsonValue::Obj(b));
    }
    let status = if draining {
        "draining"
    } else if escalated || alive < configured || any_open {
        "degraded"
    } else {
        "ok"
    };
    let mut workers = BTreeMap::new();
    workers.insert("configured".to_string(), JsonValue::Num(configured as f64));
    workers.insert("alive".to_string(), JsonValue::Num(alive as f64));
    workers.insert(
        "panics".to_string(),
        JsonValue::Num(shared.panics.load(Ordering::SeqCst) as f64),
    );
    workers.insert(
        "restarts".to_string(),
        JsonValue::Num(shared.restarts.load(Ordering::SeqCst) as f64),
    );
    let mut obj = BTreeMap::new();
    obj.insert("status".to_string(), JsonValue::Str(status.to_string()));
    obj.insert("draining".to_string(), JsonValue::Bool(draining));
    obj.insert("escalated".to_string(), JsonValue::Bool(escalated));
    obj.insert("workers".to_string(), JsonValue::Obj(workers));
    obj.insert("breakers".to_string(), JsonValue::Obj(breakers));
    JsonValue::Obj(obj)
}

/// The `stats` response body: service configuration, live queue state,
/// and the serve-relevant slice of the telemetry registry.
fn stats_result(shared: &Shared) -> JsonValue {
    let snap = obs::global().snapshot();
    let mut counters = BTreeMap::new();
    for name in [
        "serve.connections",
        "serve.requests.admitted",
        "serve.requests.ok",
        "serve.requests.error",
        "serve.requests.shed",
        "serve.requests.timeout",
        "serve.requests.timeout.queue",
        "serve.requests.timeout.exec",
        "serve.requests.slow",
        "serve.requests.rejected_draining",
        "serve.worker.panic",
        "serve.worker.restart",
        "serve.worker.spawn_failed",
        "serve.breaker.open",
        "serve.breaker.fast_fail",
        "serve.reuse.ctx.hit",
        "serve.reuse.ctx.miss",
        "pathattack.reuse.rev_dij.hit",
        "pathattack.reuse.rev_dij.miss",
        "pathattack.reuse.repair.hit",
        "pathattack.reuse.repair.full_fallback",
        "routing.repair.nodes_resettled",
    ] {
        counters.insert(
            name.to_string(),
            JsonValue::Num(snap.counter(name).unwrap_or(0) as f64),
        );
    }
    let hist = |name: &str| {
        let mut obj = BTreeMap::new();
        if let Some(h) = snap.histogram(name) {
            obj.insert("count".to_string(), JsonValue::Num(h.count as f64));
            obj.insert("mean".to_string(), JsonValue::Num(h.mean()));
            obj.insert("p50".to_string(), JsonValue::Num(h.quantile(0.5) as f64));
            obj.insert("p99".to_string(), JsonValue::Num(h.quantile(0.99) as f64));
        }
        JsonValue::Obj(obj)
    };
    let mut obj = BTreeMap::new();
    obj.insert(
        "cities".to_string(),
        JsonValue::Arr(
            shared
                .registry
                .names()
                .iter()
                .map(|n| JsonValue::Str(n.clone()))
                .collect(),
        ),
    );
    obj.insert(
        "workers".to_string(),
        JsonValue::Num(shared.cfg.workers.max(1) as f64),
    );
    obj.insert(
        "queue_capacity".to_string(),
        JsonValue::Num(shared.queue.capacity() as f64),
    );
    obj.insert(
        "queue_depth".to_string(),
        JsonValue::Num(shared.queue.len() as f64),
    );
    obj.insert("batching".to_string(), JsonValue::Bool(shared.cfg.batching));
    obj.insert("draining".to_string(), JsonValue::Bool(shared.draining()));
    obj.insert("counters".to_string(), JsonValue::Obj(counters));
    obj.insert("batch_size".to_string(), hist("serve.batch.size"));
    obj.insert("latency_us".to_string(), hist("serve.latency_us"));
    obj.insert("windows".to_string(), windows_result());
    JsonValue::Obj(obj)
}

/// Rolling-window section of the `stats` response: per window
/// (`10s`/`60s`), latency quantiles from the windowed histogram plus
/// request/shed rates from the windowed counters.
fn windows_result() -> JsonValue {
    let reg = obs::global();
    let latency = reg.windowed_histogram("serve.latency_us");
    let requests = reg.windowed_counter("serve.requests");
    let shed = reg.windowed_counter("serve.requests.shed");
    let mut windows = BTreeMap::new();
    for (label, ms) in obs::prometheus::WINDOWS {
        let snap = latency.snapshot_window(ms);
        let mut w = BTreeMap::new();
        w.insert("count".to_string(), JsonValue::Num(snap.count as f64));
        w.insert(
            "latency_p50_us".to_string(),
            JsonValue::Num(snap.quantile(0.5) as f64),
        );
        w.insert(
            "latency_p95_us".to_string(),
            JsonValue::Num(snap.quantile(0.95) as f64),
        );
        w.insert(
            "latency_p99_us".to_string(),
            JsonValue::Num(snap.quantile(0.99) as f64),
        );
        w.insert("rps".to_string(), JsonValue::Num(requests.rate_per_sec(ms)));
        w.insert(
            "shed_per_sec".to_string(),
            JsonValue::Num(shed.rate_per_sec(ms)),
        );
        windows.insert(label.to_string(), JsonValue::Obj(w));
    }
    JsonValue::Obj(windows)
}

/// The `metrics` response body: the Prometheus text exposition of the
/// whole registry (aggregates plus rolling windows) as one string.
fn metrics_result() -> JsonValue {
    let mut obj = BTreeMap::new();
    obj.insert(
        "content_type".to_string(),
        JsonValue::Str("text/plain; version=0.0.4".to_string()),
    );
    obj.insert(
        "exposition".to_string(),
        JsonValue::Str(obs::prometheus::render(obs::global())),
    );
    JsonValue::Obj(obj)
}

/// A minimal blocking client for tests, the CLI, and `serve_load`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        configure_stream(&stream)?;
        Ok(Client { stream })
    }

    /// Sends one request and waits for the next response frame.
    ///
    /// # Errors
    ///
    /// Describes transport or protocol failures.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, String> {
        let raw = self.roundtrip_raw(&request.to_payload())?;
        Response::parse(&raw)
    }

    /// Sends a raw payload and returns the raw response bytes —
    /// `serve_load` compares these byte-for-byte across modes.
    ///
    /// # Errors
    ///
    /// Describes transport failures.
    pub fn roundtrip_raw(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        write_frame(&mut self.stream, payload).map_err(|e| format!("send: {e}"))?;
        read_frame(&mut self.stream).map_err(|e| format!("recv: {e}"))
    }
}
