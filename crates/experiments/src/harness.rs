//! The paper's experiment harness (§III-A "Experimental Methodology").
//!
//! One *experiment set* fixes a city and weight type, then runs every
//! (hospital × random source) pair through every algorithm under every
//! cost type. The paper uses 4 hospitals × 10 sources = 40 experiments
//! per set; the harness makes those knobs configurable so tests and
//! benches can run smaller sets.

use crate::checkpoint::{record_key, run_key, CheckpointJournal, JournalRecord};
use crate::metrics::ExperimentRecord;
use citygen::{CityPreset, Scale};
use parking_lot::Mutex;
use pathattack::{
    all_algorithms, all_algorithms_extended, faults, AttackProblem, AttackStatus, CostType,
    Degradation, FaultPlan, NetworkCache, RunLimits, TargetContext, WeightType,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use routing::Path;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use traffic_graph::{NodeId, PoiKind, RoadNetwork};

/// Configuration of one experiment set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentPlan {
    /// City to attack.
    pub city: CityPreset,
    /// Generation scale (see [`Scale`]).
    pub scale: Scale,
    /// RNG seed for generation and source sampling.
    pub seed: u64,
    /// Victim weight model for this set.
    pub weight: WeightType,
    /// Alternative-route rank (the paper uses 100).
    pub path_rank: usize,
    /// Random sources per hospital (the paper uses 10).
    pub sources_per_hospital: usize,
    /// Cost models to sweep (the paper sweeps all three).
    pub cost_types: Vec<CostType>,
    /// Worker threads for sampling (the rank-`path_rank` Yen
    /// enumeration of each candidate trip, see [`sample_instances`])
    /// and for the sweep's (instance × cost) fan-out. Neither output
    /// depends on it.
    pub threads: usize,
    /// Per-run wall-clock deadline in seconds (`None` = unlimited). A
    /// run past its deadline ends with [`AttackStatus::TimedOut`]
    /// instead of hanging the sweep.
    pub deadline_s: Option<f64>,
    /// Per-run oracle-call budget (`None` = unlimited).
    pub max_oracle_calls: Option<u64>,
    /// Deterministic fault-injection plan for resilience testing
    /// (`None` = no injected faults; see [`pathattack::FaultPlan`]).
    pub faults: Option<FaultPlan>,
    /// Share one [`pathattack::TargetContext`] per hospital across all
    /// runs of the set (default). The shared tables are bit-identical to
    /// the per-run computations, so records do not change; disabling
    /// this exists for the perf bench's before/after comparison.
    pub reuse: bool,
    /// Sweep [`pathattack::all_algorithms_extended`] instead of the
    /// paper's four (adds the centrality-heavy extension baselines).
    pub extended_algorithms: bool,
    /// Decremental distance repair inside the oracles (default). The
    /// repaired tables only prune work, so records are byte-identical
    /// either way; the off switch exists for the determinism tests and
    /// the `perf_repair` ablation bench.
    pub repair: bool,
}

impl ExperimentPlan {
    /// The paper's configuration for one (city, weight) set, at the
    /// given scale.
    pub fn paper(city: CityPreset, weight: WeightType, scale: Scale, seed: u64) -> Self {
        ExperimentPlan {
            city,
            scale,
            seed,
            weight,
            path_rank: 100,
            sources_per_hospital: 10,
            cost_types: CostType::ALL.to_vec(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            deadline_s: None,
            max_oracle_calls: None,
            faults: None,
            reuse: true,
            extended_algorithms: false,
            repair: true,
        }
    }

    /// A shrunk configuration for tests: tiny city, few sources, low
    /// path rank.
    pub fn smoke(city: CityPreset, weight: WeightType, seed: u64) -> Self {
        ExperimentPlan {
            city,
            scale: Scale::Small,
            seed,
            weight,
            path_rank: 10,
            sources_per_hospital: 2,
            cost_types: vec![CostType::Uniform],
            threads: 2,
            deadline_s: None,
            max_oracle_calls: None,
            faults: None,
            reuse: true,
            extended_algorithms: false,
            repair: true,
        }
    }

    /// The [`RunLimits`] this plan imposes on each attack run.
    pub fn run_limits(&self) -> RunLimits {
        RunLimits {
            deadline: self.deadline_s.map(Duration::from_secs_f64),
            max_oracle_calls: self.max_oracle_calls,
        }
    }
}

/// One sampled (source, hospital) pair with its alternative route.
pub struct ExperimentInstance {
    /// Source intersection.
    pub source: NodeId,
    /// Hospital POI node (destination).
    pub target: NodeId,
    /// Hospital display name.
    pub hospital: String,
    /// The chosen alternative route (rank `path_rank`).
    pub pstar: Path,
    /// The hospital's shared tables, built while sampling with
    /// `plan.reuse` on, so the sweep does not build them again. The
    /// first sweep over the instance takes them: a caller that keeps
    /// its instances does not keep every hospital's tables alive, and a
    /// later sweep builds its own.
    ctx: Mutex<Option<Arc<TargetContext>>>,
}

impl Clone for ExperimentInstance {
    fn clone(&self) -> Self {
        ExperimentInstance {
            source: self.source,
            target: self.target,
            hospital: self.hospital.clone(),
            pstar: self.pstar.clone(),
            ctx: Mutex::new(self.ctx.lock().clone()),
        }
    }
}

impl fmt::Debug for ExperimentInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExperimentInstance")
            .field("source", &self.source)
            .field("target", &self.target)
            .field("hospital", &self.hospital)
            .field("pstar", &self.pstar)
            .finish_non_exhaustive()
    }
}

/// Samples the plan's experiment instances on `net`.
///
/// For each hospital in turn, draws random source intersections from
/// one seeded stream until `sources_per_hospital` of them admit a
/// rank-`path_rank` alternative route, skipping doorstep trips (fewer
/// than [`crate::MIN_TRIP_EDGES`] edges) and sources too close to the
/// hospital to have that many simple paths, and giving up after 200
/// draws per wanted source. A hospital that falls short is reported on
/// stderr and counted in `harness.sampling_shortfall`.
///
/// The Yen enumerations run on `plan.threads` workers (the calling
/// thread is one of them), with output identical to drawing and testing
/// one source at a time. Whether a (source, hospital) pair is accepted
/// is a pure function of the pair, so the stream is walked serially
/// with each verdict memoised: a pair whose Yen verdict is still
/// unknown is tentatively accepted, all unknown verdicts are computed
/// in parallel, and the stream is walked again until no pair is left
/// unknown. A Yen rejection only shifts the later hospitals' draws and
/// costs one more walk.
///
/// With `plan.reuse` on, each hospital's [`TargetContext`] is built
/// once here and travels with its instances into [`run_instances`].
pub fn sample_instances(net: &RoadNetwork, plan: &ExperimentPlan) -> Vec<ExperimentInstance> {
    let sampled = sample(net, plan);
    obs::add("harness.sampling_shortfall", sampled.shortfall);
    obs::add("harness.sampling_rounds", sampled.rounds as u64);
    obs::add(
        "harness.sampling_rank_rejections",
        sampled.rank_rejections as u64,
    );
    sampled.instances
}

/// What one sampling produced, with the figures its tests check.
struct Sampled {
    instances: Vec<ExperimentInstance>,
    /// Wanted sources that were never found, over all hospitals.
    shortfall: u64,
    /// Parallel rounds of Yen enumerations.
    rounds: usize,
    /// Doorstep-passing pairs whose Yen enumeration fell short.
    rank_rejections: usize,
}

fn sample(net: &RoadNetwork, plan: &ExperimentPlan) -> Sampled {
    let hospitals: Vec<_> = net.pois_of_kind(PoiKind::Hospital).cloned().collect();
    let n = net.num_nodes();
    let quota = plan.sources_per_hospital;

    // Cheap pre-filter: reject doorstep trips before paying for Yen.
    // It reads the same weight table every hospital's context shares.
    let cache = Arc::new(NetworkCache::new());
    let weight = cache.weights(net, plan.weight);
    let view = traffic_graph::GraphView::new(net);
    let mut dij = routing::Dijkstra::new(n);

    // One backward sweep per hospital feeds every Yen enumeration
    // toward it (via with_path_rank_in) instead of one per source.
    let contexts: Vec<Option<Arc<TargetContext>>> = if plan.reuse {
        parallel_map(&hospitals, plan.threads, |h| {
            Some(Arc::new(TargetContext::build_with_cache(
                net,
                plan.weight,
                h.node,
                cache.clone(),
            )))
        })
    } else {
        vec![None; hospitals.len()]
    };

    let mut rng = SmallRng::seed_from_u64(plan.seed.wrapping_mul(0x9e3779b97f4a7c15));
    let mut draws: Vec<NodeId> = Vec::new();
    // Memoised verdicts per (source, hospital index).
    let mut long_enough: HashMap<(NodeId, usize), bool> = HashMap::new();
    let mut ranked: HashMap<(NodeId, usize), Option<Path>> = HashMap::new();
    let mut rounds = 0;
    loop {
        // One walk of the stream: the serial sampler, with unknown Yen
        // verdicts tentatively accepted.
        let mut picks: Vec<(usize, NodeId)> = Vec::new();
        let mut unknown: Vec<(NodeId, usize)> = Vec::new();
        let mut short: Vec<(usize, usize, usize)> = Vec::new();
        let mut pos = 0;
        for (hi, hospital) in hospitals.iter().enumerate() {
            let mut found = 0usize;
            let mut attempts = 0usize;
            while found < quota && attempts < 200 * quota {
                attempts += 1;
                if pos == draws.len() {
                    draws.push(NodeId::new(rng.gen_range(0..n)));
                }
                let source = draws[pos];
                pos += 1;
                if source == hospital.node {
                    continue;
                }
                let passes = *long_enough.entry((source, hi)).or_insert_with(|| {
                    dij.shortest_path(&view, |e| weight[e.index()], source, hospital.node)
                        .is_some_and(|p| p.len() >= crate::MIN_TRIP_EDGES)
                });
                if !passes {
                    continue;
                }
                match ranked.get(&(source, hi)) {
                    // Too few simple paths: redraw.
                    Some(None) => continue,
                    Some(Some(_)) => {}
                    None if unknown.contains(&(source, hi)) => {}
                    None => unknown.push((source, hi)),
                }
                picks.push((hi, source));
                found += 1;
            }
            if found < quota {
                short.push((hi, found, attempts));
            }
        }

        if unknown.is_empty() {
            let mut shortfall = 0;
            for (hi, found, attempts) in short {
                let missing = quota - found;
                shortfall += missing as u64;
                eprintln!(
                    "warning: hospital `{}` sampled only {found}/{quota} sources \
                     after {attempts} attempts ({missing} short); aggregates \
                     for this hospital average fewer runs than planned",
                    hospitals[hi].name,
                );
            }
            let instances = picks
                .into_iter()
                .map(|(hi, source)| ExperimentInstance {
                    source,
                    target: hospitals[hi].node,
                    hospital: hospitals[hi].name.clone(),
                    pstar: ranked[&(source, hi)].clone().expect("accepted pair"),
                    ctx: Mutex::new(contexts[hi].clone()),
                })
                .collect();
            let rank_rejections = ranked.values().filter(|p| p.is_none()).count();
            return Sampled {
                instances,
                shortfall,
                rounds,
                rank_rejections,
            };
        }

        rounds += 1;
        let verdicts = parallel_map(&unknown, plan.threads, |&(source, hi)| {
            let target = hospitals[hi].node;
            let problem = match &contexts[hi] {
                Some(ctx) => AttackProblem::with_path_rank_in(
                    net,
                    plan.weight,
                    CostType::Uniform,
                    source,
                    target,
                    plan.path_rank,
                    ctx,
                ),
                None => AttackProblem::with_path_rank(
                    net,
                    plan.weight,
                    CostType::Uniform,
                    source,
                    target,
                    plan.path_rank,
                ),
            };
            problem.ok().map(|p| p.pstar().clone())
        });
        ranked.extend(unknown.into_iter().zip(verdicts));
    }
}

/// `f` over `items` on up to `threads` workers, the calling thread
/// being one of them, in input order. A panic in a worker is re-raised
/// on the calling thread with its original payload.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let workers = threads.max(1).min(items.len());
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        for (i, r) in done {
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// Runs one experiment set: every sampled instance × every cost type ×
/// every algorithm. Returns one record per attack run.
///
/// Instances are distributed over `plan.threads` workers; each worker
/// owns its searches end to end, so results are deterministic regardless
/// of thread count (records are sorted at the end).
pub fn run_plan(plan: &ExperimentPlan) -> Vec<ExperimentRecord> {
    let net = plan.city.build(plan.scale, plan.seed);
    let instances = sample_instances(&net, plan);
    run_instances(&net, plan, &instances)
}

/// Runs a pre-sampled instance list (lets callers reuse a built city).
pub fn run_instances(
    net: &RoadNetwork,
    plan: &ExperimentPlan,
    instances: &[ExperimentInstance],
) -> Vec<ExperimentRecord> {
    run_instances_resumable(net, plan, instances, None)
}

/// [`run_instances`] with an optional checkpoint journal.
///
/// Every completed (instance × cost × algorithm) run is appended to the
/// journal atomically before the sweep moves on, and runs whose
/// (hospital, source, cost, algorithm) key is already journaled are
/// skipped — their journaled records are emitted verbatim instead. A
/// sweep killed mid-way and restarted against the same journal therefore
/// produces the output the uninterrupted sweep would have (the final
/// sort is deterministic and journaled floats round-trip exactly).
///
/// Each run is isolated with `catch_unwind`: a panicking algorithm
/// yields a [`AttackStatus::Failed`] record and costs the sweep exactly
/// that one result.
pub fn run_instances_resumable(
    net: &RoadNetwork,
    plan: &ExperimentPlan,
    instances: &[ExperimentInstance],
    journal: Option<&mut CheckpointJournal>,
) -> Vec<ExperimentRecord> {
    run_sweep(
        net,
        plan,
        instances,
        journal,
        |sweep, inst, cost, telemetry| {
            let Some(problem) = sweep.problem(inst, cost) else {
                return;
            };
            let algorithms = if plan.extended_algorithms {
                all_algorithms_extended()
            } else {
                all_algorithms()
            };
            for alg in &algorithms {
                let key = run_key(&inst.hospital, inst.source.index(), cost, alg.name());
                if sweep.is_done(&key) {
                    continue;
                }
                faults::set_run_key(&key);
                // Per-run trace: deterministic id from the run coordinates,
                // installed so the oracle and search layers record into it
                // ambiently (same mechanism the serve workers use).
                let run_trace = telemetry.map(|_| {
                    Arc::new(obs::TraceContext::new(
                        obs::trace::trace_id(&[
                            inst.source.index() as u64,
                            inst.target.index() as u64,
                            cost as u64,
                            alg.name().len() as u64,
                        ]),
                        "experiment/attack",
                    ))
                });
                let trace_guard = run_trace.as_ref().map(obs::trace::install);
                let attempt = isolated(|| alg.attack(&problem));
                drop(trace_guard);
                if let (Some(reg), Some(t)) = (telemetry, &run_trace) {
                    reg.counter("harness.trace.events")
                        .add(t.events().len() as u64);
                    reg.counter("harness.trace.dropped").add(t.dropped());
                }
                faults::clear_run_key();
                // A panic still yields a Failed record, so aggregates know
                // the run existed.
                let mut record = ExperimentRecord {
                    city: net.name().to_string(),
                    weight: plan.weight,
                    cost,
                    algorithm: alg.name().to_string(),
                    hospital: inst.hospital.clone(),
                    source: inst.source.index(),
                    runtime_s: 0.0,
                    iterations: 0,
                    edges_removed: 0,
                    cost_removed: 0.0,
                    status: AttackStatus::Failed,
                    degraded: Degradation::None,
                };
                match attempt {
                    Ok(outcome) => {
                        if let Some(reg) = telemetry {
                            reg.counter("harness.attacks").add(1);
                            reg.histogram("harness.attack_runtime_us")
                                .record(outcome.runtime.as_micros() as u64);
                        }
                        record.algorithm = outcome.algorithm.clone();
                        record.runtime_s = outcome.runtime.as_secs_f64();
                        record.iterations = outcome.iterations;
                        record.edges_removed = outcome.num_removed();
                        record.cost_removed = outcome.total_cost;
                        record.status = outcome.status;
                        record.degraded = outcome.degraded;
                    }
                    Err(runtime_s) => record.runtime_s = runtime_s,
                }
                sweep.emit(record);
            }
        },
    )
}

/// What the shared sweep runner ([`run_sweep`]) hands each
/// per-(instance, cost) body: one [`TargetContext`] per hospital, the
/// already-journaled run keys, and the journal and output that finished
/// records go to.
pub(crate) struct Sweep<'a, R> {
    net: &'a RoadNetwork,
    plan: &'a ExperimentPlan,
    contexts: HashMap<NodeId, Arc<TargetContext>>,
    done: HashSet<String>,
    journal: Mutex<Option<&'a mut CheckpointJournal<R>>>,
    records: Mutex<Vec<R>>,
}

impl<'a, R: JournalRecord> Sweep<'a, R> {
    /// A fresh attack problem for `inst` under `cost`, carrying the
    /// plan's limits and repair flag and (with reuse on) sharing the
    /// hospital's context. `None` when the instance does not form a
    /// valid problem under this cost.
    pub(crate) fn problem(
        &self,
        inst: &ExperimentInstance,
        cost: CostType,
    ) -> Option<AttackProblem<'a>> {
        let view = traffic_graph::GraphView::new(self.net);
        let (weight, pstar) = (self.plan.weight, inst.pstar.clone());
        let built = match self.contexts.get(&inst.target) {
            Some(ctx) => {
                AttackProblem::new_in(view, weight, cost, inst.source, inst.target, pstar, ctx)
            }
            None => AttackProblem::new(view, weight, cost, inst.source, inst.target, pstar),
        };
        let problem = built.ok()?;
        Some(
            problem
                .with_limits(self.plan.run_limits())
                .with_repair(self.plan.repair),
        )
    }

    /// Whether the run with this [`run_key`] is already journaled (its
    /// record is emitted verbatim, so the body must not re-run it).
    pub(crate) fn is_done(&self, key: &str) -> bool {
        self.done.contains(key)
    }

    /// Journals one finished record and adds it to the sweep's output.
    pub(crate) fn emit(&self, record: R) {
        if let Some(j) = self.journal.lock().as_deref_mut() {
            if let Err(e) = j.append(&record) {
                eprintln!("warning: checkpoint append failed: {e}");
            }
        }
        self.records.lock().push(record);
    }
}

/// Runs `run` under `catch_unwind`. A panic costs that one result: it
/// counts `harness.run_panics` and comes back as the seconds spent
/// before it.
pub(crate) fn isolated<T>(run: impl FnOnce() -> T) -> Result<T, f64> {
    let started = Instant::now();
    catch_unwind(AssertUnwindSafe(run)).map_err(|_| {
        obs::inc("harness.run_panics");
        started.elapsed().as_secs_f64()
    })
}

/// The worker pool both sweeps (cut and perturb) run on.
///
/// Seeds the output with the journal's records and skips their keys,
/// takes one [`TargetContext`] per hospital from the instances or
/// builds it on one [`NetworkCache`] (with `plan.reuse`), then hands
/// every (instance × cost) pair to `body` on `plan.threads` workers.
/// Each worker arms the plan's fault plan and, when telemetry is on,
/// records into a private registry (passed to `body`) that it merges
/// once at the end. The output is
/// sorted by (hospital, source, cost, algorithm), so thread count and
/// resume never change it.
pub(crate) fn run_sweep<R: JournalRecord>(
    net: &RoadNetwork,
    plan: &ExperimentPlan,
    instances: &[ExperimentInstance],
    journal: Option<&mut CheckpointJournal<R>>,
    body: impl Fn(&Sweep<'_, R>, &ExperimentInstance, CostType, Option<&obs::Registry>) + Sync,
) -> Vec<R> {
    let mut out: Vec<R> = journal
        .as_ref()
        .map(|j| j.records().to_vec())
        .unwrap_or_default();
    let done = out.iter().map(record_key).collect();

    // One TargetContext per hospital, one NetworkCache for the whole
    // sweep: every oracle built below reuses the hospital's reverse
    // table and the centrality-based algorithms reuse one shared
    // centrality computation (all bit-identical to the per-run path).
    // Contexts the sampler built travel with the instances. They are
    // taken out whether or not this sweep uses them, so they are freed
    // with the sweep; only the missing ones (or ones built for another
    // weight model) are built below, on the same cache.
    let mut contexts: HashMap<NodeId, Arc<TargetContext>> = HashMap::new();
    for inst in instances {
        let carried = inst.ctx.lock().take().filter(|c| {
            c.matches_net(net) && c.weight_type() == plan.weight && c.target() == inst.target
        });
        if let Some(ctx) = carried.filter(|_| plan.reuse) {
            contexts.entry(inst.target).or_insert(ctx);
        }
    }
    if plan.reuse {
        let cache = contexts
            .values()
            .next()
            .map_or_else(|| Arc::new(NetworkCache::new()), |c| c.cache().clone());
        for inst in instances {
            contexts.entry(inst.target).or_insert_with(|| {
                Arc::new(TargetContext::build_with_cache(
                    net,
                    plan.weight,
                    inst.target,
                    cache.clone(),
                ))
            });
        }
    }
    let sweep = Sweep {
        net,
        plan,
        contexts,
        done,
        journal: Mutex::new(journal),
        records: Mutex::new(Vec::new()),
    };
    let next = AtomicUsize::new(0);
    let workers = plan.threads.max(1).min(instances.len().max(1));

    let joined = crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| {
                // Fault plans are thread-local: arm each worker. When
                // the plan carries no faults, leave the thread
                // uninitialized so the METRO_FAULTS env gate can still
                // arm CI smoke runs.
                if plan.faults.is_some() {
                    faults::install(plan.faults);
                }
                // Per-thread registry: workers record (hospital, source)
                // timings privately — zero contention on the global maps
                // — then merge once at join time.
                let telemetry = obs::enabled().then(obs::Registry::new);
                while let Some(inst) = instances.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let _inst_timer = telemetry
                        .as_ref()
                        .map(|reg| obs::span_in(reg, "harness.instance"));
                    for &cost in &plan.cost_types {
                        body(&sweep, inst, cost, telemetry.as_ref());
                    }
                    if let Some(reg) = &telemetry {
                        reg.counter("harness.instances").add(1);
                    }
                }
                if let Some(reg) = &telemetry {
                    reg.counter("harness.workers").add(1);
                    obs::global().merge(reg);
                }
            });
        }
    });
    if joined.is_err() {
        // A worker died outside the per-run catch_unwind (allocator
        // failure, stack exhaustion, ...). Keep everything that
        // completed instead of poisoning the whole sweep.
        obs::inc("harness.worker_failures");
        eprintln!("warning: an experiment worker died; keeping completed records");
    }

    out.extend(sweep.records.into_inner());
    out.sort_by(|a, b| {
        let (ha, sa, ca, aa) = a.coords();
        let (hb, sb, cb, ab) = b.coords();
        (ha, sa, ca.name(), aa).cmp(&(hb, sb, cb.name(), ab))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathattack::AttackStatus;
    use traffic_graph::EdgeId;

    #[test]
    fn smoke_plan_runs_all_algorithms() {
        let plan = ExperimentPlan::smoke(CityPreset::Chicago, WeightType::Time, 1);
        let records = run_plan(&plan);
        // 4 hospitals × 2 sources × 1 cost × 4 algorithms = 32 records
        assert_eq!(records.len(), 32, "{}", records.len());
        assert!(
            records.iter().all(|r| r.status == AttackStatus::Success),
            "all smoke attacks succeed"
        );
        let algs: std::collections::HashSet<&str> =
            records.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(algs.len(), 4);
    }

    #[test]
    fn sampling_is_deterministic() {
        let plan = ExperimentPlan::smoke(CityPreset::Boston, WeightType::Length, 5);
        let net = plan.city.build(plan.scale, plan.seed);
        let a = sample_instances(&net, &plan);
        let b = sample_instances(&net, &plan);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.pstar.edges(), y.pstar.edges());
        }
    }

    #[test]
    fn pstar_has_requested_relationship() {
        let plan = ExperimentPlan::smoke(CityPreset::Chicago, WeightType::Time, 2);
        let net = plan.city.build(plan.scale, plan.seed);
        let instances = sample_instances(&net, &plan);
        assert!(!instances.is_empty());
        for inst in &instances {
            assert_eq!(inst.pstar.source(), inst.source);
            assert_eq!(inst.pstar.target(), inst.target);
            assert!(inst.pstar.is_simple());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut plan = ExperimentPlan::smoke(CityPreset::Chicago, WeightType::Time, 3);
        plan.threads = 1;
        let a = run_plan(&plan);
        plan.threads = 4;
        let b = run_plan(&plan);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.algorithm, y.algorithm);
            assert_eq!(x.edges_removed, y.edges_removed);
            assert!((x.cost_removed - y.cost_removed).abs() < 1e-9);
        }
    }

    /// The sampler as it was before sampling ran on threads: draws and
    /// tests one source at a time. Returns (source, target, hospital,
    /// p* edges) per instance and the total shortfall.
    #[allow(clippy::type_complexity)]
    fn serial_reference(
        net: &RoadNetwork,
        plan: &ExperimentPlan,
    ) -> (Vec<(NodeId, NodeId, String, Vec<EdgeId>)>, u64) {
        let mut rng = SmallRng::seed_from_u64(plan.seed.wrapping_mul(0x9e3779b97f4a7c15));
        let weight = plan.weight.compute(net);
        let view = traffic_graph::GraphView::new(net);
        let mut dij = routing::Dijkstra::new(net.num_nodes());
        let (mut out, mut shortfall) = (Vec::new(), 0);
        for hospital in net.pois_of_kind(PoiKind::Hospital) {
            let (mut found, mut attempts) = (0, 0);
            let quota = plan.sources_per_hospital;
            while found < quota && attempts < 200 * quota {
                attempts += 1;
                let source = NodeId::new(rng.gen_range(0..net.num_nodes()));
                if source == hospital.node {
                    continue;
                }
                match dij.shortest_path(&view, |e| weight[e.index()], source, hospital.node) {
                    Some(p) if p.len() >= crate::MIN_TRIP_EDGES => {}
                    _ => continue,
                }
                let Ok(problem) = AttackProblem::with_path_rank(
                    net,
                    plan.weight,
                    CostType::Uniform,
                    source,
                    hospital.node,
                    plan.path_rank,
                ) else {
                    continue;
                };
                let edges = problem.pstar().edges().to_vec();
                out.push((source, hospital.node, hospital.name.clone(), edges));
                found += 1;
            }
            shortfall += (quota - found) as u64;
        }
        (out, shortfall)
    }

    /// A 6×6 grid with a 60-node cul-de-sac hanging off one corner and
    /// an isolated two-node street. Three hospitals, in this order: at
    /// the end of the cul-de-sac (a source on it is no doorstep trip but
    /// has one simple path, so Yen rejects it), on the isolated street
    /// (no source ever qualifies: a shortfall), and inside the grid.
    fn cul_de_sac_city() -> RoadNetwork {
        use traffic_graph::{Point, RoadClass, RoadNetworkBuilder};
        let mut b = RoadNetworkBuilder::new("cul-de-sac");
        let grid: Vec<NodeId> = (0..36)
            .map(|i| b.add_node(Point::new((i % 6) as f64 * 100.0, (i / 6) as f64 * 100.0)))
            .collect();
        for i in 0..36 {
            if i % 6 < 5 {
                b.add_street(grid[i], grid[i + 1], RoadClass::Residential);
            }
            if i < 30 {
                b.add_street(grid[i], grid[i + 6], RoadClass::Residential);
            }
        }
        let mut tail = grid[0];
        for k in 1..=60 {
            let next = b.add_node(Point::new(-100.0 * k as f64, 0.0));
            b.add_street(tail, next, RoadClass::Residential);
            tail = next;
        }
        let far = b.add_node(Point::new(5000.0, 5000.0));
        let far2 = b.add_node(Point::new(5100.0, 5000.0));
        b.add_street(far, far2, RoadClass::Residential);
        b.attach_poi("End", PoiKind::Hospital, Point::new(-6100.0, 0.0));
        b.attach_poi("Island", PoiKind::Hospital, Point::new(5050.0, 5010.0));
        b.attach_poi("Centre", PoiKind::Hospital, Point::new(250.0, 240.0));
        b.build()
    }

    #[test]
    fn sampling_is_thread_invariant() {
        let mut cases = Vec::new();
        for city in [CityPreset::Chicago, CityPreset::Boston] {
            for seed in 1..=3 {
                let mut plan = ExperimentPlan::smoke(city, WeightType::Time, seed);
                plan.reuse = seed != 3;
                cases.push((plan.city.build(plan.scale, plan.seed), plan));
            }
        }
        let mut plan = ExperimentPlan::smoke(CityPreset::Chicago, WeightType::Length, 4);
        plan.sources_per_hospital = 3;
        cases.push((cul_de_sac_city(), plan));

        let (mut rewalked, mut fell_short) = (false, false);
        for (net, mut plan) in cases {
            let (want, want_shortfall) = serial_reference(&net, &plan);
            for threads in 1..=4 {
                plan.threads = threads;
                let got = sample(&net, &plan);
                let got_rows: Vec<_> = got
                    .instances
                    .iter()
                    .map(|i| {
                        (
                            i.source,
                            i.target,
                            i.hospital.clone(),
                            i.pstar.edges().to_vec(),
                        )
                    })
                    .collect();
                assert_eq!(
                    got_rows,
                    want,
                    "{} seed {} threads {threads}",
                    net.name(),
                    plan.seed
                );
                assert_eq!(got.shortfall, want_shortfall, "{}", net.name());
                rewalked |= got.rank_rejections > 0 && got.rounds > 1;
                fell_short |= got.shortfall > 0;
            }
        }
        assert!(
            rewalked,
            "no plan made Yen reject a doorstep-passing source"
        );
        assert!(fell_short, "no plan fell short of its quota");
    }

    #[test]
    fn parallel_map_keeps_order_and_reraises_worker_panics() {
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 3] {
            assert_eq!(
                parallel_map(&items, threads, |&i| i * 2),
                (0..80).step_by(2).collect::<Vec<_>>()
            );
            let caught = catch_unwind(|| {
                parallel_map(&items, threads, |&i| {
                    if i == 37 {
                        std::panic::panic_any("item 37");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the panic propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 37"));
        }
    }

    #[test]
    fn instances_carry_their_hospital_context() {
        let plan = ExperimentPlan::smoke(CityPreset::Boston, WeightType::Time, 6);
        let net = plan.city.build(plan.scale, plan.seed);
        let instances = sample_instances(&net, &plan);
        assert!(!instances.is_empty());
        for inst in &instances {
            let ctx = inst.ctx.lock().clone().expect("reuse on: context carried");
            assert_eq!(ctx.target(), inst.target);
            assert_eq!(ctx.weight_type(), plan.weight);
        }
        // The sweep takes the contexts, and a second sweep over the
        // same instances builds its own: the records do not change.
        let first = run_instances(&net, &plan, &instances);
        assert!(instances.iter().all(|i| i.ctx.lock().is_none()));
        let again = run_instances(&net, &plan, &instances);
        let outcome = |r: &ExperimentRecord| {
            let (h, s, c, a) = r.coords();
            let cut = (r.edges_removed, r.cost_removed.to_bits(), r.status);
            (h.to_string(), s, c, a.to_string(), cut)
        };
        let first: Vec<_> = first.iter().map(outcome).collect();
        assert_eq!(first, again.iter().map(outcome).collect::<Vec<_>>());
        let off = ExperimentPlan {
            reuse: false,
            ..plan
        };
        assert!(sample_instances(&net, &off)
            .iter()
            .all(|i| i.ctx.lock().is_none()));
    }
}
