//! `metro-attack` — command-line front end for the library.
//!
//! ```text
//! metro-attack generate --city chicago [--scale small] [--seed 42]
//! metro-attack attack   --city boston  [--rank 50] [--algorithm greedy-pathcover]
//!                       [--weight time] [--cost uniform] [--source N] [--svg out.svg]
//!                       [--perturb-cap DELTA] [--integer-round]   (with --algorithm lp-perturb)
//! metro-attack recon    --city chicago [--top 10]
//! metro-attack harden   --city sf      [--rank 30]
//! metro-attack isolate  --city sf      [--radius 400]
//! metro-attack impact   --city chicago [--trips 40] [--rank 20]
//! metro-attack experiment --city boston [--sources 10] [--deadline 30]
//!                       [--max-oracle-calls N] [--resume CKPT] [--csv FILE]
//! metro-attack serve    --city boston [--listen 127.0.0.1:4280] [--workers N]
//!                       [--queue-depth N] [--deadline SECS] [--drain-deadline SECS]
//!                       [--chaos SPEC]
//! metro-attack chaos    --addr HOST:PORT [--listen 127.0.0.1:0] [--chaos SPEC]
//! ```
//!
//! Every subcommand prints a human-readable report; `attack --svg` also
//! writes a Figs 1–4-style map. `experiment` runs a full (city, weight)
//! sweep with checkpoint/resume and per-run deadlines. `serve` runs the
//! long-lived query service from the `serve` crate until SIGTERM/ctrl-c
//! drains it; with `--chaos SPEC` the server hides behind an in-process
//! chaos proxy injecting seeded connection faults. `chaos` runs the
//! same proxy standalone in front of any running server.

use metro_attack::attack::{coordinated_attack, minimal_hardening};
use metro_attack::cli::{command_span_name, MetricsMode, BOOLEAN_FLAGS, KNOWN_FLAGS, USAGE};
use metro_attack::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Minimal `--key value` parser; flags may appear in any order.
struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut values = HashMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                eprintln!("unexpected argument {a:?}");
                usage();
            };
            if !KNOWN_FLAGS.contains(&key) {
                eprintln!("unknown flag --{key}");
                usage();
            }
            if BOOLEAN_FLAGS.contains(&key) {
                values.insert(key.to_string(), "true".to_string());
                continue;
            }
            let Some(v) = it.next() else {
                eprintln!("missing value for --{key}");
                usage();
            };
            values.insert(key.to_string(), v.clone());
        }
        Args { values }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{key}: {v:?}");
                usage()
            }),
            None => default,
        }
    }
}

fn parse_city(args: &Args) -> CityPreset {
    match args.get("city").unwrap_or("chicago") {
        "boston" => CityPreset::Boston,
        "sf" | "san-francisco" | "sanfrancisco" => CityPreset::SanFrancisco,
        "chicago" => CityPreset::Chicago,
        "la" | "los-angeles" | "losangeles" => CityPreset::LosAngeles,
        other => {
            eprintln!("unknown city {other:?}");
            usage()
        }
    }
}

fn parse_scale(args: &Args) -> Scale {
    let value = args.get("scale").unwrap_or("small");
    Scale::from_cli(value).unwrap_or_else(|| {
        eprintln!("bad scale {value:?}");
        usage()
    })
}

fn parse_weight(args: &Args) -> WeightType {
    match args.get("weight").unwrap_or("time") {
        "length" => WeightType::Length,
        "time" => WeightType::Time,
        other => {
            eprintln!("unknown weight {other:?}");
            usage()
        }
    }
}

fn parse_cost(args: &Args) -> CostType {
    match args.get("cost").unwrap_or("uniform") {
        "uniform" => CostType::Uniform,
        "lanes" => CostType::Lanes,
        "width" => CostType::Width,
        other => {
            eprintln!("unknown cost {other:?}");
            usage()
        }
    }
}

/// Per-run limits from `--deadline` (seconds) and `--max-oracle-calls`.
fn parse_limits(args: &Args) -> RunLimits {
    let mut limits = RunLimits::default();
    if let Some(v) = args.get("deadline") {
        let secs: f64 = v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --deadline: {v:?}");
            usage()
        });
        if secs < 0.0 || !secs.is_finite() {
            eprintln!("--deadline must be a non-negative number of seconds");
            usage()
        }
        limits.deadline = Some(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(v) = args.get("max-oracle-calls") {
        let calls: u64 = v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --max-oracle-calls: {v:?}");
            usage()
        });
        limits.max_oracle_calls = Some(calls);
    }
    limits
}

/// Whether `--algorithm` names the PATHPERTURB weight-perturbation
/// attack (which has its own problem/result types rather than the
/// [`AttackAlgorithm`] cut interface).
fn perturb_requested(args: &Args) -> bool {
    matches!(args.get("algorithm"), Some("lp-perturb" | "perturb"))
}

/// Parses `--perturb-cap` (per-edge delta cap, finite and positive).
fn parse_perturb_cap(args: &Args) -> Option<f64> {
    args.get("perturb-cap").map(|v| {
        let cap: f64 = v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --perturb-cap: {v:?}");
            usage()
        });
        if !cap.is_finite() || cap <= 0.0 {
            eprintln!("--perturb-cap must be finite and positive");
            usage()
        }
        cap
    })
}

fn parse_algorithm(args: &Args) -> Box<dyn AttackAlgorithm> {
    match args.get("algorithm").unwrap_or("greedy-pathcover") {
        "lp" | "lp-pathcover" => Box::new(LpPathCover::default()),
        "greedy-pathcover" | "pathcover" => Box::new(GreedyPathCover),
        "greedy-edge" | "edge" => Box::new(GreedyEdge),
        "greedy-eig" | "eig" => Box::new(GreedyEig::default()),
        "greedy-betweenness" | "betweenness" => Box::new(GreedyBetweenness::default()),
        other => {
            eprintln!("unknown algorithm {other:?}");
            usage()
        }
    }
}

/// Builds the city and picks the hospital/source for attack-style
/// subcommands.
fn setup(args: &Args) -> (RoadNetwork, NodeId, String, NodeId) {
    let preset = parse_city(args);
    let city = preset.build(parse_scale(args), args.num("seed", 42u64));
    let hospitals: Vec<_> = city.pois_of_kind(PoiKind::Hospital).cloned().collect();
    let hidx: usize = args.num("hospital", 0usize);
    if hospitals.is_empty() {
        eprintln!("city has no hospitals");
        std::process::exit(1);
    }
    if hidx >= hospitals.len() {
        eprintln!(
            "--hospital {hidx} out of range: city has {} hospitals (0-{})",
            hospitals.len(),
            hospitals.len() - 1
        );
        std::process::exit(1);
    }
    let hospital = hospitals[hidx].clone();
    let source = match args.get("source") {
        Some(v) => {
            let idx = v.parse::<usize>().unwrap_or_else(|_| usage());
            if idx >= city.num_nodes() {
                eprintln!(
                    "--source {idx} out of range: city has {} intersections",
                    city.num_nodes()
                );
                std::process::exit(1);
            }
            NodeId::new(idx)
        }
        None => {
            // deterministic far source
            let w = parse_weight(args).compute(&city);
            let view = GraphView::new(&city);
            let mut dij = Dijkstra::new(city.num_nodes());
            let dist = dij.distances(&view, |e| w[e.index()], hospital.node, Direction::Backward);
            (0..city.num_nodes())
                .filter(|&v| dist[v].is_finite() && v != hospital.node.index())
                .max_by(|&a, &b| dist[a].total_cmp(&dist[b]))
                .map(NodeId::new)
                .unwrap_or(NodeId::new(0))
        }
    };
    let name = hospital.name.clone();
    (city, source, name, hospital.node)
}

fn cmd_generate(args: &Args) -> ExitCode {
    let preset = parse_city(args);
    let city = preset.build(parse_scale(args), args.num("seed", 42u64));
    let s = summarize(&city);
    println!(
        "{}: {} intersections, {} road segments, avg degree {:.2}",
        s.city, s.nodes, s.edges, s.avg_degree
    );
    println!(
        "orientation order φ = {:.3}, circuity = {:.3}",
        orientation_order(&city),
        average_circuity(&city, 60).unwrap_or(f64::NAN)
    );
    for p in city.pois() {
        println!("  {} ({}) at node {}", p.name, p.kind, p.node);
    }
    ExitCode::SUCCESS
}

fn cmd_attack(args: &Args) -> ExitCode {
    let (city, source, hospital_name, hospital) = setup(args);
    let weight = parse_weight(args);
    let cost = parse_cost(args);
    let rank = args.num("rank", 50usize);
    let problem = match AttackProblem::with_path_rank(&city, weight, cost, source, hospital, rank) {
        Ok(p) => p.with_limits(parse_limits(args)),
        Err(e) => {
            eprintln!("cannot set up instance: {e}");
            return ExitCode::FAILURE;
        }
    };
    if perturb_requested(args) {
        return attack_with_perturbation(args, &city, source, &hospital_name, hospital, problem);
    }
    let alg = parse_algorithm(args);
    let out = alg.attack(&problem);
    println!(
        "{} forcing {} → {} onto the rank-{rank} route ({} segments, {:.1} {} vs optimal {:.1})",
        out.algorithm,
        source,
        hospital_name,
        problem.pstar().len(),
        problem.pstar_weight(),
        if weight == WeightType::Time { "s" } else { "m" },
        {
            let w = weight.compute(&city);
            let mut dij = Dijkstra::new(city.num_nodes());
            dij.shortest_path(&GraphView::new(&city), |e| w[e.index()], source, hospital)
                .map(|p| p.total_weight())
                .unwrap_or(f64::NAN)
        },
    );
    println!(
        "status {:?}: removed {} segments, total cost {:.2}, {:.2} ms",
        out.status,
        out.num_removed(),
        out.total_cost,
        out.runtime.as_secs_f64() * 1e3
    );
    for &e in &out.removed {
        let (u, v) = city.edge_endpoints(e);
        let a = city.edge_attrs(e);
        println!(
            "  cut {e}: {u} → {v} ({}, {:.0} m, {} lanes)",
            a.class, a.length_m, a.lanes
        );
    }
    if out.is_success() {
        out.verify(&problem).expect("verification");
        println!("verified: p* is the exclusive shortest path");
    }
    if let Some(path) = args.get("svg") {
        let svg = render_svg(
            &city,
            &FigureSpec {
                pstar: problem.pstar().clone(),
                removed: out.removed.clone(),
                perturbed: Vec::new(),
                source,
                target: hospital,
                title: format!("{} attack on {}", out.algorithm, city.name()),
            },
        );
        if let Err(e) = write_atomic(std::path::Path::new(path), svg.as_bytes()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// `attack --algorithm lp-perturb`: instead of cutting roads, raise
/// their traversal weights at minimum cost until p* is uniquely
/// shortest (the PATHPERTURB modality). `--svg` shades the perturbed
/// segments orange by delta magnitude.
fn attack_with_perturbation(
    args: &Args,
    city: &RoadNetwork,
    source: NodeId,
    hospital_name: &str,
    hospital: NodeId,
    problem: AttackProblem<'_>,
) -> ExitCode {
    let rank = args.num("rank", 50usize);
    let mut perturb =
        PerturbProblem::new(problem).with_integer_rounding(args.get("integer-round").is_some());
    if let Some(cap) = parse_perturb_cap(args) {
        perturb = perturb.with_edge_cap(cap);
    }
    let out = LpPerturb::default().attack(&perturb);
    println!(
        "{} forcing {} → {} onto the rank-{rank} route ({} segments, weight {:.1})",
        out.algorithm,
        source,
        hospital_name,
        perturb.inner().pstar().len(),
        perturb.inner().pstar_weight(),
    );
    println!(
        "status {:?}: perturbed {} segments, total delta {:.2}, total cost {:.2}, {} rounds, {:.2} ms",
        out.status,
        out.num_perturbed(),
        out.total_delta,
        out.total_cost,
        out.rounds,
        out.runtime.as_secs_f64() * 1e3
    );
    for &(e, d) in &out.perturbed {
        let (u, v) = city.edge_endpoints(e);
        let a = city.edge_attrs(e);
        println!(
            "  slow {e}: {u} → {v} ({}, {:.0} m) by +{d:.2}",
            a.class, a.length_m
        );
    }
    if out.is_success() {
        out.verify(&perturb).expect("verification");
        println!("verified: p* is the exclusive shortest path under the perturbed weights");
    }
    if let Some(path) = args.get("svg") {
        let svg = render_svg(
            city,
            &FigureSpec {
                pstar: perturb.inner().pstar().clone(),
                removed: Vec::new(),
                perturbed: out.perturbed.clone(),
                source,
                target: hospital,
                title: format!("{} attack on {}", out.algorithm, city.name()),
            },
        );
        if let Err(e) = write_atomic(std::path::Path::new(path), svg.as_bytes()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_recon(args: &Args) -> ExitCode {
    let preset = parse_city(args);
    let city = preset.build(parse_scale(args), args.num("seed", 42u64));
    let top = critical_segments(
        &city,
        parse_weight(args),
        Some(64),
        args.num("top", 10usize),
    );
    // Per-unit perturbation price under the requested attacker cost
    // model: what one unit of added weight on that segment costs.
    let unit_cost = parse_cost(args).compute(&city);
    println!(
        "most critical segments of {} (sampled betweenness):",
        city.name()
    );
    for (i, seg) in top.iter().enumerate() {
        let (u, v) = city.edge_endpoints(seg.edge);
        println!(
            "{:>3}. {} → {} ({}, {:.0} m) betweenness {:.0}, perturb unit cost {:.2}",
            i + 1,
            u,
            v,
            seg.class,
            seg.length_m,
            seg.betweenness,
            unit_cost[seg.edge.index()]
        );
    }
    ExitCode::SUCCESS
}

fn cmd_harden(args: &Args) -> ExitCode {
    let (city, source, hospital_name, hospital) = setup(args);
    let rank = args.num("rank", 30usize);
    let problem = match AttackProblem::with_path_rank(
        &city,
        parse_weight(args),
        parse_cost(args),
        source,
        hospital,
        rank,
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot set up instance: {e}");
            return ExitCode::FAILURE;
        }
    };
    match minimal_hardening(&problem, args.num("max-hardened", 64usize)) {
        Some(plan) if plan.edges.is_empty() => {
            println!("{source} → {hospital_name}: already defensible (an unblockable route is fast enough)");
        }
        Some(plan) => {
            println!(
                "{source} → {hospital_name}: harden {} segments (witness route weight {:.1}):",
                plan.num_edges(),
                plan.witness_weight
            );
            for &e in &plan.edges {
                let (u, v) = city.edge_endpoints(e);
                println!("  protect {e}: {u} → {v}");
            }
            let hardened = problem.clone().with_protected_edges(plan.edges.clone());
            let after = GreedyPathCover.attack(&hardened);
            println!("attack after hardening: {:?}", after.status);
        }
        None => println!("no witness route within the hardening cap"),
    }
    ExitCode::SUCCESS
}

fn cmd_isolate(args: &Args) -> ExitCode {
    let (city, _, hospital_name, hospital) = setup(args);
    let radius: f64 = args.num("radius", 400.0f64);
    let center = city.node_point(hospital);
    let area: Vec<NodeId> = city
        .nodes()
        .filter(|&v| city.node_point(v).distance(center) < radius)
        .collect();
    let costs = parse_cost(args).compute(&city);
    match isolate_area(&GraphView::new(&city), &area, |e| costs[e.index()]) {
        Some(cut) => {
            println!(
                "blockade isolating {} intersections around {}: {} segments, cost {:.1}",
                area.len(),
                hospital_name,
                cut.edges.len(),
                cut.total_cost
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("area is empty or covers the whole city");
            ExitCode::FAILURE
        }
    }
}

fn cmd_impact(args: &Args) -> ExitCode {
    let (city, source, hospital_name, hospital) = setup(args);
    let problem = match AttackProblem::with_path_rank(
        &city,
        parse_weight(args),
        parse_cost(args),
        source,
        hospital,
        args.num("rank", 20usize),
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot set up instance: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = GreedyPathCover.attack(&problem);
    let demand = OdMatrix::synthetic_hospital_demand(
        &city,
        args.num("trips", 40usize),
        350.0,
        args.num("seed", 42u64),
    );
    let report = attack_impact(&city, &demand, &out.removed, &AssignmentConfig::default());
    println!(
        "attack on {source} → {hospital_name}: {} cuts; city-wide impact on {:.0} veh/h:",
        out.num_removed(),
        demand.total_vph()
    );
    println!(
        "  mean trip {:.1} s → {:.1} s ({:+.2} %), {:+.0} veh·s/h system time, {:.0} veh/h stranded",
        report.before.mean_trip_time_s,
        report.after.mean_trip_time_s,
        report.relative_slowdown() * 100.0,
        report.extra_time_veh_s,
        report.newly_unserved_vph
    );
    ExitCode::SUCCESS
}

fn cmd_coordinate(args: &Args) -> ExitCode {
    let preset = parse_city(args);
    let city = preset.build(parse_scale(args), args.num("seed", 42u64));
    let hospital = city
        .pois_of_kind(PoiKind::Hospital)
        .next()
        .expect("hospital")
        .clone();
    let victims: usize = args.num("victims", 3usize);
    let n = city.num_nodes();
    let problems: Vec<AttackProblem<'_>> = (0..victims)
        .filter_map(|i| {
            AttackProblem::with_path_rank(
                &city,
                parse_weight(args),
                parse_cost(args),
                NodeId::new((97 + i * (n / victims.max(1) + 13)) % n),
                hospital.node,
                args.num("rank", 10usize),
            )
            .ok()
        })
        .collect();
    println!("{} victim trips to {}", problems.len(), hospital.name);
    match coordinated_attack(&problems) {
        Ok(out) => {
            println!(
                "joint cut: {:?}, {} segments, cost {:.1} ({} constraint paths)",
                out.status,
                out.num_removed(),
                out.total_cost,
                out.constraints_discovered
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_experiment(args: &Args) -> ExitCode {
    let preset = parse_city(args);
    let weight = parse_weight(args);
    let mut plan =
        ExperimentPlan::paper(preset, weight, parse_scale(args), args.num("seed", 42u64));
    plan.path_rank = args.num("rank", plan.path_rank);
    plan.sources_per_hospital = args.num("sources", plan.sources_per_hospital);
    // Same worker-count resolution as `serve` and `serve_load`.
    plan.threads = match serve::resolve_workers(args.get("threads")) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("bad --threads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let limits = parse_limits(args);
    plan.deadline_s = limits.deadline.map(|d| d.as_secs_f64());
    plan.max_oracle_calls = limits.max_oracle_calls;
    if let Some(spec) = args.get("faults") {
        match FaultPlan::parse(spec) {
            Ok(faults) => plan.faults = Some(faults),
            Err(e) => {
                eprintln!("bad --faults spec: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let net = plan.city.build(plan.scale, plan.seed);
    let instances = sample_instances(&net, &plan);
    if instances.is_empty() {
        eprintln!("no usable (source, hospital) instances at this scale/rank");
        return ExitCode::FAILURE;
    }
    if perturb_requested(args) {
        return experiment_with_perturbation(args, &net, &plan, &instances);
    }
    let mut journal = match open_journal(args) {
        Ok(j) => j,
        Err(code) => return code,
    };
    let records = run_instances_resumable(&net, &plan, &instances, journal.as_mut());

    let rows = aggregate(&records);
    println!(
        "{}",
        render_experiment_table("EXPERIMENT", net.name(), weight, &rows)
    );
    let timed_out = records
        .iter()
        .filter(|r| r.status == AttackStatus::TimedOut)
        .count();
    let failed = records
        .iter()
        .filter(|r| r.status == AttackStatus::Failed)
        .count();
    let degraded = records
        .iter()
        .filter(|r| r.degraded != Degradation::None)
        .count();
    println!(
        "{} runs: {} timed out, {} failed, {} degraded",
        records.len(),
        timed_out,
        failed,
        degraded
    );
    if obs::enabled() {
        // One-line reuse summary on top of the full --metrics report:
        // sweeps is the total Dijkstra work, hits/misses prove how often
        // the shared reverse tables absorbed a backward sweep.
        let snap = obs::global().snapshot();
        let sweeps = snap.counter("routing.dijkstra.sweeps").unwrap_or(0);
        let hits = snap.counter("pathattack.reuse.rev_dij.hit").unwrap_or(0);
        let misses = snap.counter("pathattack.reuse.rev_dij.miss").unwrap_or(0);
        println!("dijkstra sweeps: {sweeps}; rev-table reuse: {hits} hits, {misses} misses");
    }
    if let Some(path) = args.get("csv") {
        let csv = records_to_csv(&records);
        if let Err(e) = write_atomic(std::path::Path::new(path), csv.as_bytes()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// Opens the `--resume PATH` checkpoint journal, if the flag is given.
fn open_journal<R: JournalRecord>(args: &Args) -> Result<Option<CheckpointJournal<R>>, ExitCode> {
    let Some(path) = args.get("resume") else {
        return Ok(None);
    };
    match CheckpointJournal::open(path) {
        Ok(j) => {
            println!("resuming from {path}: {} runs already journaled", j.len());
            Ok(Some(j))
        }
        Err(e) => {
            eprintln!("cannot open checkpoint {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `experiment --algorithm lp-perturb`: the cut-vs-perturb comparison
/// sweep. Every instance runs both the LP-Perturb weight attack and the
/// LP-PathCover cut baseline; the table and `--csv` carry side-by-side
/// cost and runtime columns, and `--resume` journals
/// [`PerturbRecord`]s.
fn experiment_with_perturbation(
    args: &Args,
    net: &RoadNetwork,
    plan: &ExperimentPlan,
    instances: &[metro_attack::experiments::ExperimentInstance],
) -> ExitCode {
    let mut options = PerturbOptions {
        integer_rounding: args.get("integer-round").is_some(),
        ..PerturbOptions::default()
    };
    options.edge_cap = parse_perturb_cap(args);
    let mut journal = match open_journal(args) {
        Ok(j) => j,
        Err(code) => return code,
    };
    let records = run_perturb_instances_resumable(net, plan, instances, options, journal.as_mut());

    println!(
        "PERTURB vs CUT — {} ({} weight), {} runs",
        net.name(),
        plan.weight.name(),
        records.len()
    );
    println!(
        "{:<9} {:>14} {:>10} {:>15} {:>11} {:>6} {:>8}",
        "cost", "perturb cost", "cut cost", "perturb ms", "cut ms", "n", "both ok"
    );
    for row in aggregate_perturb(&records) {
        println!(
            "{:<9} {:>14.2} {:>10.2} {:>15.2} {:>11.2} {:>6} {:>8}",
            row.cost.name(),
            row.avg_perturb_cost,
            row.avg_cut_cost,
            row.avg_perturb_runtime_s * 1e3,
            row.avg_cut_runtime_s * 1e3,
            row.n,
            row.both_succeeded
        );
    }
    let perturb_failures = records
        .iter()
        .filter(|r| r.perturb_status != AttackStatus::Success)
        .count();
    let degraded = records
        .iter()
        .filter(|r| r.degraded != Degradation::None)
        .count();
    println!(
        "{} runs: {} perturb failures, {} degraded",
        records.len(),
        perturb_failures,
        degraded
    );
    if let Some(path) = args.get("csv") {
        let csv = perturb_records_to_csv(&records);
        if let Err(e) = write_atomic(std::path::Path::new(path), csv.as_bytes()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &Args) -> ExitCode {
    let workers = match serve::resolve_workers(args.get("workers")) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("bad --workers: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defaults = serve::ServerConfig::default();
    let drain_secs: f64 = args.num("drain-deadline", 5.0f64);
    if drain_secs <= 0.0 || !drain_secs.is_finite() {
        eprintln!("--drain-deadline must be a positive number of seconds");
        return ExitCode::FAILURE;
    }
    let chaos_plan = match args.get("chaos").map(serve::ChaosPlan::parse) {
        Some(Ok(plan)) => Some(plan),
        Some(Err(e)) => {
            eprintln!("bad --chaos spec: {e}");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let requested_listen = args.get("listen").unwrap_or("127.0.0.1:4280").to_string();
    let cfg = serve::ServerConfig {
        // With a chaos proxy in front, the real server hides on an
        // ephemeral port and the proxy takes the requested address.
        listen: if chaos_plan.is_some() {
            "127.0.0.1:0".to_string()
        } else {
            requested_listen.clone()
        },
        // `--city` takes a comma-separated list of presets and/or OSM
        // extract paths; each becomes one resident network.
        cities: args
            .get("city")
            .unwrap_or("boston")
            .split(',')
            .map(str::to_string)
            .collect(),
        scale: parse_scale(args),
        seed: args.num("seed", 42u64),
        workers,
        queue_depth: args.num("queue-depth", defaults.queue_depth),
        batch_max: args.num("batch-max", defaults.batch_max),
        batching: true,
        default_deadline: parse_limits(args).deadline,
        drain_deadline: std::time::Duration::from_secs_f64(drain_secs),
        retry_after_ms: defaults.retry_after_ms,
        tracing: true,
        slow_ms: args.get("slow-ms").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --slow-ms: {v:?}");
                usage()
            })
        }),
        slow_log: args.get("slow-log").map(str::to_string),
        // The drain-time flush target: when `--metrics` names a file,
        // the server writes its final snapshot there during join so a
        // SIGTERM exit keeps its telemetry.
        metrics_file: match args.get("metrics").map(MetricsMode::parse) {
            Some(MetricsMode::File(path)) => Some(path),
            _ => None,
        },
        ..defaults
    };
    serve::signal::install();
    let cities = cfg.cities.join(", ");
    let server = match serve::Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let proxy = match chaos_plan {
        Some(plan) => {
            match serve::ChaosProxy::start(&requested_listen, server.local_addr(), plan) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!("cannot start chaos proxy: {e}");
                    server.shutdown();
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    // Parseable line for load generators and the CI smoke job: the
    // bound port is only known now (`--listen host:0` picks one).
    // Clients must talk to the chaos proxy when one is up.
    match &proxy {
        Some(p) => {
            println!("listening on {}", p.local_addr());
            println!(
                "chaos proxy injecting faults in front of {}",
                server.local_addr()
            );
        }
        None => println!("listening on {}", server.local_addr()),
    }
    println!("serving {cities} with {workers} workers (SIGTERM or ctrl-c drains)");
    server.join();
    if let Some(p) = proxy {
        p.stop();
    }
    println!("drained cleanly");
    ExitCode::SUCCESS
}

/// `metro-attack chaos`: a standalone fault-injecting forwarder in
/// front of any running server — same engine as `serve --chaos`, for
/// testing a server you did not start yourself.
fn cmd_chaos(args: &Args) -> ExitCode {
    use std::net::ToSocketAddrs;
    let Some(addr) = args.get("addr") else {
        eprintln!("chaos requires --addr HOST:PORT of the upstream server");
        return ExitCode::FAILURE;
    };
    let Some(upstream) = addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        eprintln!("cannot resolve --addr {addr:?}");
        return ExitCode::FAILURE;
    };
    let plan = match args.get("chaos").map(serve::ChaosPlan::parse) {
        Some(Ok(plan)) => plan,
        Some(Err(e)) => {
            eprintln!("bad --chaos spec: {e}");
            return ExitCode::FAILURE;
        }
        // No spec: a transparent forwarder (still useful as a traffic tap).
        None => serve::ChaosPlan::default(),
    };
    let listen = args.get("listen").unwrap_or("127.0.0.1:0");
    let proxy = match serve::ChaosProxy::start(listen, upstream, plan) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot start chaos proxy: {e}");
            return ExitCode::FAILURE;
        }
    };
    serve::signal::install();
    println!("listening on {}", proxy.local_addr());
    println!("chaos proxy forwarding to {upstream} (SIGTERM or ctrl-c stops)");
    while !serve::signal::drain_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    proxy.stop();
    println!("chaos proxy stopped");
    ExitCode::SUCCESS
}

/// `metro-attack trace`: polls a running server's `stats` request and
/// renders a live terminal view (rps, shed rate, queue depth, rolling
/// window quantiles, top counters). `--once` prints a single frame and
/// exits — the CI-friendly mode.
///
/// The dashboard holds one [`serve::ResilientClient`] across frames,
/// so a dropped connection or a restarting server no longer kills the
/// view: each fetch retries with backoff (bounded attempts, so `--once`
/// still fails fast), and in live mode a frame that exhausts its
/// retries prints a warning and keeps polling at the next interval.
fn cmd_trace(args: &Args) -> ExitCode {
    let Some(addr) = args.get("addr") else {
        eprintln!("trace requires --addr HOST:PORT of a running `metro-attack serve`");
        return ExitCode::FAILURE;
    };
    let once = args.get("once").is_some();
    let interval: f64 = args.num("interval", 2.0f64);
    if interval <= 0.0 || !interval.is_finite() {
        eprintln!("--interval must be a positive number of seconds");
        return ExitCode::FAILURE;
    }
    let mut client = serve::ResilientClient::new(
        addr,
        serve::RetryPolicy {
            max_attempts: 4,
            base_backoff: std::time::Duration::from_millis(100),
            max_backoff: std::time::Duration::from_secs(2),
            attempt_timeout: Some(std::time::Duration::from_secs(5)),
            ..serve::RetryPolicy::default()
        },
    );
    let mut first = true;
    loop {
        match fetch_trace_frame(&mut client, addr) {
            Ok(frame) => {
                if !once && !first {
                    // Repaint in place: clear screen, cursor home.
                    print!("\x1b[2J\x1b[H");
                }
                println!("{frame}");
            }
            Err(e) => {
                eprintln!("trace: {e}");
                if once {
                    return ExitCode::FAILURE;
                }
                eprintln!("trace: retrying at the next interval");
            }
        }
        if once {
            return ExitCode::SUCCESS;
        }
        first = false;
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// One rendered frame of the live view, from a `stats` roundtrip on
/// the dashboard's shared retrying client.
fn fetch_trace_frame(client: &mut serve::ResilientClient, addr: &str) -> Result<String, String> {
    use obs::JsonValue;
    use std::fmt::Write;
    let response = client
        .call(&serve::Request::new(1, serve::RequestKind::Stats, ""))?
        .response;
    if !response.ok {
        return Err(response
            .error
            .unwrap_or_else(|| "stats request failed".to_string()));
    }
    let stats = response.result.ok_or("stats response carries no result")?;
    let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap_or(0.0);
    let joined = |v: Option<&JsonValue>| -> String {
        v.and_then(JsonValue::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(JsonValue::as_str)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default()
    };
    let flag = |v: Option<&JsonValue>| matches!(v, Some(JsonValue::Bool(true)));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "metro-serve @ {addr} — cities {}; workers {}; batching {}; draining {}",
        joined(stats.get("cities")),
        num(stats.get("workers")),
        if flag(stats.get("batching")) {
            "on"
        } else {
            "off"
        },
        if flag(stats.get("draining")) {
            "yes"
        } else {
            "no"
        },
    );
    let counters = stats.get("counters");
    let counter = |name: &str| num(counters.and_then(|c| c.get(name)));
    let _ = writeln!(
        out,
        "queue {:.0}/{:.0} · admitted {:.0} ok {:.0} error {:.0} shed {:.0} timeout {:.0} slow {:.0}",
        num(stats.get("queue_depth")),
        num(stats.get("queue_capacity")),
        counter("serve.requests.admitted"),
        counter("serve.requests.ok"),
        counter("serve.requests.error"),
        counter("serve.requests.shed"),
        counter("serve.requests.timeout"),
        counter("serve.requests.slow"),
    );
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "window", "rps", "shed/s", "p50 ms", "p95 ms", "p99 ms", "count"
    );
    for label in ["10s", "60s"] {
        let w = stats.get("windows").and_then(|v| v.get(label));
        let _ = writeln!(
            out,
            "{label:<8} {:>9.1} {:>9.1} {:>9.2} {:>9.2} {:>9.2} {:>9.0}",
            num(w.and_then(|v| v.get("rps"))),
            num(w.and_then(|v| v.get("shed_per_sec"))),
            num(w.and_then(|v| v.get("latency_p50_us"))) / 1_000.0,
            num(w.and_then(|v| v.get("latency_p95_us"))) / 1_000.0,
            num(w.and_then(|v| v.get("latency_p99_us"))) / 1_000.0,
            num(w.and_then(|v| v.get("count"))),
        );
    }
    let lat = stats.get("latency_us");
    let _ = writeln!(
        out,
        "lifetime latency: count {:.0} mean {:.2} ms p50 {:.2} ms p99 {:.2} ms",
        num(lat.and_then(|v| v.get("count"))),
        num(lat.and_then(|v| v.get("mean"))) / 1_000.0,
        num(lat.and_then(|v| v.get("p50"))) / 1_000.0,
        num(lat.and_then(|v| v.get("p99"))) / 1_000.0,
    );
    if let Some(JsonValue::Obj(map)) = counters {
        let mut top: Vec<(&String, f64)> = map
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k, n)))
            .filter(|(_, n)| *n > 0.0)
            .collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let _ = writeln!(out, "top counters:");
        for (name, value) in top.iter().take(8) {
            let _ = writeln!(out, "  {name:<42} {value:>12.0}");
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        usage();
    };
    let args = Args::parse(rest);
    let metrics = args.get("metrics").map(MetricsMode::parse);
    if metrics.is_some() {
        obs::set_enabled(true);
    }
    let started = std::time::Instant::now();
    let code = {
        let _cmd_timer = obs::span(command_span_name(cmd));
        match cmd.as_str() {
            "generate" => cmd_generate(&args),
            "attack" => cmd_attack(&args),
            "recon" => cmd_recon(&args),
            "harden" => cmd_harden(&args),
            "isolate" => cmd_isolate(&args),
            "impact" => cmd_impact(&args),
            "coordinate" => cmd_coordinate(&args),
            "experiment" => cmd_experiment(&args),
            "serve" => cmd_serve(&args),
            "trace" => cmd_trace(&args),
            "chaos" => cmd_chaos(&args),
            _ => usage(),
        }
    };
    if let Some(mode) = &metrics {
        obs::inc("harness.commands");
        obs::record_value(
            "harness.command_runtime_ms",
            started.elapsed().as_millis() as u64,
        );
        if let Err(e) = mode.emit() {
            eprintln!("cannot write metrics: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}
