//! Pins the exact output of every cut algorithm and of LP-Perturb.
//!
//! On Boston and Chicago (`Scale::Small`, seed 42, two sampled trips
//! each, rank 10, every cost model) one FNV-1a digest covers, for each
//! run, the removed (or perturbed) edges, the cost bits, the iteration
//! (or round) count, the status and the degradation. The cut algorithms
//! run unlimited, under a budget and under an oracle-call cap; the
//! perturbation runs uncapped and capped; both LP algorithms also run
//! with every LP solve stalled. Any change to an algorithm's picks,
//! tie-breaks, fallbacks or LP formulation moves the digest; a refactor
//! that keeps behaviour must leave it unchanged.

use metro_attack::attack::faults;
use metro_attack::experiments::{sample_instances, ExperimentPlan};
use metro_attack::prelude::*;

/// Digest of every outcome below; recompute it only for a deliberate
/// behaviour change.
const PINNED: u64 = 0xa423_c33a_0d8a_e8aa;

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self.word(u64::MAX);
    }
}

fn cut_run(h: &mut Fnv, alg: &dyn AttackAlgorithm, problem: &AttackProblem<'_>) {
    let out = alg.attack(problem);
    h.text(&out.algorithm);
    for e in &out.removed {
        h.word(e.index() as u64);
    }
    h.word(out.total_cost.to_bits());
    h.word(out.iterations as u64);
    h.text(&format!("{:?}/{:?}", out.status, out.degraded));
}

fn perturb_run(h: &mut Fnv, problem: PerturbProblem<'_>) {
    let out = LpPerturb::default().attack(&problem);
    h.text(&out.algorithm);
    for (e, d) in &out.perturbed {
        h.word(e.index() as u64);
        h.word(d.to_bits());
    }
    h.word(out.total_cost.to_bits());
    h.word(out.rounds as u64);
    h.text(&format!("{:?}/{:?}", out.status, out.degraded));
}

#[test]
fn cut_and_perturb_outcomes_match_pinned_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut problems = 0;
    for city in [CityPreset::Boston, CityPreset::Chicago] {
        let plan = ExperimentPlan::smoke(city, WeightType::Time, 42);
        assert_eq!((plan.path_rank, plan.scale), (10, Scale::Small));
        let net = city.build(plan.scale, plan.seed);
        let instances = sample_instances(&net, &plan);
        assert!(instances.len() >= 2, "{}: too few instances", net.name());
        for inst in &instances[..2] {
            for cost in CostType::ALL {
                let problem = AttackProblem::new(
                    GraphView::new(&net),
                    plan.weight,
                    cost,
                    inst.source,
                    inst.target,
                    inst.pstar.clone(),
                )
                .expect("sampled instance is valid");
                let budgeted = problem.clone().with_budget(1.5);
                let capped = problem
                    .clone()
                    .with_limits(RunLimits::default().with_max_oracle_calls(2));
                let algorithms = all_algorithms_extended();
                for p in [&problem, &budgeted, &capped] {
                    for alg in &algorithms {
                        cut_run(&mut h, &**alg, p);
                    }
                }
                perturb_run(&mut h, PerturbProblem::new(problem.clone()));
                perturb_run(
                    &mut h,
                    PerturbProblem::new(problem.clone()).with_edge_cap(5.0),
                );
                // Every LP solve stalls: pins both degraded fallbacks.
                faults::install(Some(FaultPlan::parse("seed=1,lp_stall=1").unwrap()));
                faults::set_run_key("digest");
                let lp = algorithms.iter().find(|a| a.name() == "LP-PathCover");
                cut_run(&mut h, &**lp.unwrap(), &problem);
                perturb_run(&mut h, PerturbProblem::new(problem.clone()));
                faults::clear_run_key();
                faults::install(None);
                problems += 1;
            }
        }
    }
    assert_eq!(problems, 2 * 2 * 3);
    assert_eq!(h.0, PINNED, "algorithm outcome digest moved: {:#018x}", h.0);
}
