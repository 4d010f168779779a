//! Compares the PATHPERTURB weight-perturbation attack against the
//! LP-PathCover cut baseline on the four paper cities and writes
//! `BENCH_perturb.json`.
//!
//! ```text
//! perturb_cost [--sources N] [--rank K] [--iters N] [--out FILE]
//!              [--max-slowdown X]
//! ```
//!
//! For each city the bench samples one small-scale experiment set and
//! runs every (instance × cost-model) pair through both attacks on
//! identically built problems sharing the harness's per-hospital
//! `TargetContext`s:
//!
//! - **LP-Perturb** — minimum-cost weight increases until p* is
//!   uniquely shortest. Every successful result is *certified*:
//!   [`pathattack::PerturbResult::verify`] re-runs a fresh perturbation oracle on
//!   the perturbed weights and confirms no path beats p* within the tie
//!   margin.
//! - **LP-PathCover** — the cut attack on the same instance, the
//!   paper's modality.
//!
//! Reported per city: median sweep wall-clock per modality, average
//! attacker cost per modality and their ratio, edges touched, and the
//! certification count. The comparison is the subsystem's headline
//! number: how much more an attacker pays (under the same cost model)
//! to *slow* roads rather than *close* them.
//!
//! Exits non-zero when any successful perturbation fails certification
//! or when the perturb sweep is slower than `--max-slowdown`× the cut
//! sweep on any city (the CI smoke job relaxes the slowdown gate for
//! noisy runners; certification is exact and never relaxed).

use citygen::{CityPreset, Scale};
use experiments::{sample_instances, ExperimentInstance, ExperimentPlan};
use pathattack::{
    AttackAlgorithm, AttackProblem, AttackStatus, LpPathCover, LpPerturb, NetworkCache,
    PerturbProblem, TargetContext, WeightType,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use traffic_graph::{GraphView, NodeId, RoadNetwork};

struct CityRow {
    city: &'static str,
    nodes: usize,
    runs: usize,
    certified: usize,
    perturb_successes: usize,
    cut_successes: usize,
    perturb_ms: f64,
    cut_ms: f64,
    avg_perturb_cost: f64,
    avg_cut_cost: f64,
    avg_edges_perturbed: f64,
    avg_edges_removed: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

fn build_problem<'g>(
    net: &'g RoadNetwork,
    plan: &ExperimentPlan,
    inst: &ExperimentInstance,
    cost: pathattack::CostType,
    contexts: &HashMap<NodeId, Arc<TargetContext>>,
) -> AttackProblem<'g> {
    AttackProblem::new_in(
        GraphView::new(net),
        plan.weight,
        cost,
        inst.source,
        inst.target,
        inst.pstar.clone(),
        &contexts[&inst.target],
    )
    .expect("sampled instance stays buildable")
}

/// One timed perturbation sweep; returns (wall ms, per-run results).
fn perturb_sweep(
    net: &RoadNetwork,
    plan: &ExperimentPlan,
    instances: &[ExperimentInstance],
    contexts: &HashMap<NodeId, Arc<TargetContext>>,
) -> (f64, Vec<(AttackStatus, f64, usize, bool)>) {
    let mut results = Vec::new();
    let t = Instant::now();
    for inst in instances {
        for &cost in &plan.cost_types {
            let problem = PerturbProblem::new(build_problem(net, plan, inst, cost, contexts));
            let out = LpPerturb::default().attack(&problem);
            // Certification is part of the modality's contract, so it
            // belongs inside the timed region: a result nobody verified
            // is not a result.
            let certified = out.is_success() && out.verify(&problem).is_ok();
            results.push((out.status, out.total_cost, out.num_perturbed(), certified));
        }
    }
    (t.elapsed().as_secs_f64() * 1e3, results)
}

/// One timed cut sweep; returns (wall ms, per-run results).
fn cut_sweep(
    net: &RoadNetwork,
    plan: &ExperimentPlan,
    instances: &[ExperimentInstance],
    contexts: &HashMap<NodeId, Arc<TargetContext>>,
) -> (f64, Vec<(AttackStatus, f64, usize)>) {
    let mut results = Vec::new();
    let t = Instant::now();
    for inst in instances {
        for &cost in &plan.cost_types {
            let problem = build_problem(net, plan, inst, cost, contexts);
            let out = LpPathCover.attack(&problem);
            results.push((out.status, out.total_cost, out.num_removed()));
        }
    }
    (t.elapsed().as_secs_f64() * 1e3, results)
}

fn bench_city(preset: CityPreset, sources: usize, rank: usize, iters: usize) -> CityRow {
    let mut plan = ExperimentPlan::paper(preset, WeightType::Time, Scale::Small, 42);
    plan.sources_per_hospital = sources;
    plan.path_rank = rank;
    let net = plan.city.build(plan.scale, plan.seed);
    let instances = sample_instances(&net, &plan);

    let cache = Arc::new(NetworkCache::new());
    let mut contexts: HashMap<NodeId, Arc<TargetContext>> = HashMap::new();
    for inst in &instances {
        contexts.entry(inst.target).or_insert_with(|| {
            Arc::new(TargetContext::build_with_cache(
                &net,
                plan.weight,
                inst.target,
                cache.clone(),
            ))
        });
    }

    // Warm-up both modalities, then take medians.
    let _ = perturb_sweep(&net, &plan, &instances, &contexts);
    let _ = cut_sweep(&net, &plan, &instances, &contexts);
    let mut perturb_times = Vec::with_capacity(iters);
    let mut cut_times = Vec::with_capacity(iters);
    let mut perturb_results = Vec::new();
    let mut cut_results = Vec::new();
    for i in 0..iters {
        let (t, r) = perturb_sweep(&net, &plan, &instances, &contexts);
        perturb_times.push(t);
        if i == 0 {
            perturb_results = r;
        }
        let (t, r) = cut_sweep(&net, &plan, &instances, &contexts);
        cut_times.push(t);
        if i == 0 {
            cut_results = r;
        }
    }

    let runs = perturb_results.len();
    let perturb_successes = perturb_results
        .iter()
        .filter(|r| r.0 == AttackStatus::Success)
        .count();
    let certified = perturb_results.iter().filter(|r| r.3).count();
    let cut_successes = cut_results
        .iter()
        .filter(|r| r.0 == AttackStatus::Success)
        .count();
    let n = runs.max(1) as f64;
    CityRow {
        city: preset.name(),
        nodes: net.num_nodes(),
        runs,
        certified,
        perturb_successes,
        cut_successes,
        perturb_ms: median(&mut perturb_times),
        cut_ms: median(&mut cut_times),
        avg_perturb_cost: perturb_results.iter().map(|r| r.1).sum::<f64>() / n,
        avg_cut_cost: cut_results.iter().map(|r| r.1).sum::<f64>() / n,
        avg_edges_perturbed: perturb_results.iter().map(|r| r.2 as f64).sum::<f64>() / n,
        avg_edges_removed: cut_results.iter().map(|r| r.2 as f64).sum::<f64>() / n,
    }
}

fn main() {
    let mut sources = 2usize;
    let mut rank = 12usize;
    let mut iters = 5usize;
    let mut out_path = "BENCH_perturb.json".to_string();
    let mut max_slowdown = 10.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |what: &str| -> f64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{what} N"))
        };
        match a.as_str() {
            "--sources" => sources = num("--sources") as usize,
            "--rank" => rank = num("--rank") as usize,
            "--iters" => iters = num("--iters") as usize,
            "--max-slowdown" => max_slowdown = num("--max-slowdown"),
            "--out" => out_path = args.next().expect("--out FILE"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let rows: Vec<CityRow> = CityPreset::ALL
        .into_iter()
        .map(|preset| {
            let row = bench_city(preset, sources, rank, iters);
            println!(
                "{:<9} {} runs  perturb {:>7.1} ms ({}/{} success, {} certified)  \
                 cut {:>7.1} ms ({} success)  avg cost {:.1} vs {:.1} ({:.2}x)  \
                 avg edges {:.1} slowed vs {:.1} cut",
                row.city,
                row.runs,
                row.perturb_ms,
                row.perturb_successes,
                row.runs,
                row.certified,
                row.cut_ms,
                row.cut_successes,
                row.avg_perturb_cost,
                row.avg_cut_cost,
                row.avg_perturb_cost / row.avg_cut_cost.max(f64::MIN_POSITIVE),
                row.avg_edges_perturbed,
                row.avg_edges_removed,
            );
            row
        })
        .collect();

    // Certification is exact: every successful perturbation must
    // survive re-verification on the perturbed weights.
    let all_certified = rows.iter().all(|r| r.certified == r.perturb_successes);
    let any_success = rows.iter().all(|r| r.perturb_successes > 0);
    let worst_slowdown = rows
        .iter()
        .map(|r| r.perturb_ms / r.cut_ms.max(f64::MIN_POSITIVE))
        .fold(0.0f64, f64::max);
    let pass = all_certified && any_success && worst_slowdown <= max_slowdown;

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"perturb_cost\",\n");
    json.push_str("  \"scale\": \"small\",\n");
    json.push_str(&format!("  \"path_rank\": {rank},\n"));
    json.push_str(&format!("  \"sources_per_hospital\": {sources},\n"));
    json.push_str("  \"weight\": \"time\",\n");
    json.push_str("  \"modalities\": \"LP-Perturb (certified) vs LP-PathCover\",\n");
    json.push_str(&format!("  \"iters_per_mode\": {iters},\n"));
    json.push_str("  \"cities\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"city\": \"{}\", \"nodes\": {}, \"runs\": {},\n",
            r.city, r.nodes, r.runs
        ));
        json.push_str(&format!(
            "     \"perturb\": {{\"wall_ms\": {:.1}, \"successes\": {}, \"certified\": {}, \
             \"avg_cost\": {:.2}, \"avg_edges\": {:.1}}},\n",
            r.perturb_ms,
            r.perturb_successes,
            r.certified,
            r.avg_perturb_cost,
            r.avg_edges_perturbed
        ));
        json.push_str(&format!(
            "     \"cut\": {{\"wall_ms\": {:.1}, \"successes\": {}, \"avg_cost\": {:.2}, \
             \"avg_edges\": {:.1}}},\n",
            r.cut_ms, r.cut_successes, r.avg_cut_cost, r.avg_edges_removed
        ));
        json.push_str(&format!(
            "     \"cost_ratio\": {:.2}, \"slowdown\": {:.2}}}{}\n",
            r.avg_perturb_cost / r.avg_cut_cost.max(f64::MIN_POSITIVE),
            r.perturb_ms / r.cut_ms.max(f64::MIN_POSITIVE),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"all_certified\": {all_certified},\n"));
    json.push_str(&format!("  \"worst_slowdown\": {worst_slowdown:.2},\n"));
    json.push_str(&format!("  \"threshold_slowdown\": {max_slowdown},\n"));
    json.push_str(&format!("  \"pass\": {pass}\n"));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_perturb.json");
    println!(
        "wrote {out_path} (certified: {all_certified}, worst slowdown \
         {worst_slowdown:.2}x <= {max_slowdown}x)"
    );
    if !pass {
        std::process::exit(1);
    }
}
