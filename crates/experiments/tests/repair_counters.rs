//! Counter gate for decremental distance repair: on the Small Boston
//! and Chicago sets, the repaired reverse tables must cut the oracles'
//! A\* heap pops at least tenfold, without changing a single record.
//!
//! A pop count is exact where a wall-clock speedup is noisy: the sweep
//! does the same work on every run, so the gate cannot pass or fail by
//! scheduler luck. Sampling runs once per city, outside the counted
//! region, because it is the same in both modes. The obs registry is
//! process-global, which is why this file holds one test: a second
//! test running concurrently in the same binary would add its own pops
//! to the deltas.

use citygen::{CityPreset, Scale};
use experiments::{records_to_csv, run_instances, sample_instances, ExperimentPlan};
use pathattack::WeightType;

fn pops() -> u64 {
    obs::global()
        .snapshot()
        .counter("routing.astar.pops")
        .unwrap_or(0)
}

#[test]
fn repair_cuts_astar_pops_tenfold_with_identical_records() {
    obs::set_enabled(true);
    for city in [CityPreset::Boston, CityPreset::Chicago] {
        // The sets repair was first measured on: the full algorithm
        // roster, every cost model, 3 sources per hospital, rank 20.
        let mut plan = ExperimentPlan::paper(city, WeightType::Time, Scale::Small, 42);
        plan.sources_per_hospital = 3;
        plan.path_rank = 20;
        plan.extended_algorithms = true;
        let net = plan.city.build(plan.scale, plan.seed);
        let instances = sample_instances(&net, &plan);

        let mut sweep = |repair: bool| {
            plan.repair = repair;
            let before = pops();
            let mut records = run_instances(&net, &plan, &instances);
            let popped = pops() - before;
            // Wall-clock is the one field allowed to differ.
            records.iter_mut().for_each(|r| r.runtime_s = 0.0);
            (popped, records_to_csv(&records))
        };
        let (off, records_off) = sweep(false);
        let (on, records_on) = sweep(true);

        println!(
            "{}: A* pops {off} with repair off, {on} with it on",
            city.name()
        );
        assert_eq!(records_on, records_off, "{}: records differ", city.name());
        assert!(on > 0, "{}: repair-on sweep popped nothing", city.name());
        assert!(
            10 * on <= off,
            "{}: {off} A* pops with repair off, {on} with it on: below the 10x gate",
            city.name()
        );
    }
}
