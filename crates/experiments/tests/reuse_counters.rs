//! Counter gate for the computation-reuse layer: with `plan.reuse` on,
//! a sweep runs exactly one backward reverse-table sweep per hospital;
//! with it off, every run pays its own.
//!
//! The gate counts `pathattack.reuse.rev_dij.miss` (a miss *is* a
//! backward Dijkstra that ran), so it is exact where a wall-clock
//! ratio is noisy. The obs registry is process-global, which is why
//! this file holds one test: a second test running concurrently in
//! the same binary would add its own misses to the deltas.
//!
//! Record identity across the two modes is pinned separately by
//! `reuse_determinism`.

use citygen::{CityPreset, Scale};
use experiments::{run_instances, sample_instances, ExperimentPlan};
use pathattack::WeightType;
use std::collections::BTreeSet;

/// Backward reverse-table sweeps one full sample-and-sweep pass runs.
fn rev_sweeps(net: &traffic_graph::RoadNetwork, plan: &ExperimentPlan) -> (u64, usize) {
    let miss = || {
        obs::global()
            .snapshot()
            .counter("pathattack.reuse.rev_dij.miss")
            .unwrap_or(0)
    };
    let before = miss();
    let instances = sample_instances(net, plan);
    let records = run_instances(net, plan, &instances);
    assert!(!records.is_empty());
    let hospitals = instances.iter().map(|i| i.target).collect::<BTreeSet<_>>();
    (miss() - before, hospitals.len())
}

#[test]
fn reuse_runs_one_reverse_sweep_per_hospital() {
    obs::set_enabled(true);
    // The Small Chicago set the reuse layer was first measured on: the
    // full algorithm roster, every cost model, 3 sources per hospital.
    let mut plan = ExperimentPlan::paper(CityPreset::Chicago, WeightType::Time, Scale::Small, 42);
    plan.sources_per_hospital = 3;
    plan.path_rank = 20;
    plan.extended_algorithms = true;
    let net = plan.city.build(plan.scale, plan.seed);

    plan.reuse = true;
    let (on, hospitals) = rev_sweeps(&net, &plan);
    plan.reuse = false;
    let (off, _) = rev_sweeps(&net, &plan);

    println!("reverse sweeps: {off} with reuse off, {on} with it on ({hospitals} hospitals)");
    assert!(hospitals > 0);
    assert_eq!(
        on, hospitals as u64,
        "reuse on: {on} sweeps for {hospitals} hospitals"
    );
    assert!(
        off >= 10 * on,
        "reuse off ran {off} reverse sweeps, reuse on {on}: below the 10x gate"
    );
}
