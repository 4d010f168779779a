//! The `LP-PathCover` algorithm.

use crate::algorithms::greedy_pathcover::greedy_cover;
use crate::algorithms::{solve_cover_lp, AttackAlgorithm, CutLoop};
use crate::{AttackOutcome, AttackProblem, Degradation};
use lp::Outcome;
use routing::Path;
use std::collections::HashMap;
use traffic_graph::EdgeId;

/// Classifies one relaxation solve for the fallback chain: the
/// fractional value per edge (`edges` is the LP's variable order), or
/// the telemetry counter naming why the LP is unusable, after which the
/// caller degrades to greedy rounding.
pub(crate) fn classify_relaxation(
    edges: &[EdgeId],
    outcome: Outcome,
) -> Result<HashMap<EdgeId, f64>, &'static str> {
    match outcome {
        Outcome::Optimal(sol) => Ok(edges.iter().copied().zip(sol.x).collect()),
        // The covering LP is feasible and bounded by construction
        // (cutting every variable at 1.0 satisfies every row; costs are
        // non-negative), so these two arms only appear through numerical
        // degeneracy — treat them like a stall rather than trusting
        // them.
        Outcome::Infeasible => Err("pathattack.lp.degenerate.infeasible"),
        Outcome::Unbounded => Err("pathattack.lp.degenerate.unbounded"),
        Outcome::IterationLimit => Err("pathattack.lp.degenerate.iteration_limit"),
    }
}

/// LP-relaxation attack with constraint generation (paper §III-A,
/// algorithm 1; PATHATTACK-LP adapted to directed graphs).
///
/// Force Path Cut is a weighted set cover whose universe — every s→t
/// path no longer than `p*` — can be factorially large. Constraint
/// generation sidesteps that: only paths actually discovered as
/// *violating* become LP rows. Each round:
///
/// 1. solve the LP relaxation over the discovered paths
///    (`x_e ∈ [0, 1]`, minimize `Σ cost·x`, each path row `Σ x_e ≥ 1`);
/// 2. **re-derive the whole cut set** from the fractional solution:
///    for each still-uncovered path, commit its cuttable edge with the
///    largest `x̂_e` (deterministic rounding, cheapest on ties);
/// 3. apply the cut set to a clean view and search for the next
///    violating path; add it as a row and repeat, or stop if none —
///    the attack succeeded.
///
/// Re-deriving from the latest LP solution (instead of committing cuts
/// permanently as constraints trickle in) is what makes the LP's global
/// view count; the paper uses this algorithm as the near-optimal cost
/// baseline. The paper reports it slower than
/// [`crate::GreedyPathCover`]; on this workspace's paper-scale cities
/// it takes 0.9–1.5× GreedyPathCover's runtime.
///
/// Fallbacks: a stalled or degenerate LP degrades to greedy set cover
/// over the discovered paths ([`Degradation::LpGreedyRounding`]); a
/// rounded cover that misses an already-known path re-runs the whole
/// instance with [`crate::GreedyPathCover`]
/// ([`Degradation::GreedyFallback`]).
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::{AttackProblem, AttackAlgorithm, LpPathCover, WeightType, CostType};
/// use traffic_graph::{NodeId, PoiKind};
///
/// let city = CityPreset::SanFrancisco.build(Scale::Small, 5);
/// let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
/// let problem = AttackProblem::with_path_rank(
///     &city, WeightType::Length, CostType::Lanes, NodeId::new(0), hospital, 10,
/// ).unwrap();
/// let outcome = LpPathCover.attack(&problem);
/// assert!(outcome.is_success());
/// outcome.verify(&problem).unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LpPathCover;

/// Deterministic rounding: cover every constraint path in discovery
/// order, committing its cuttable edge with the largest fractional value
/// (cheapest, then lowest id, on ties). Each pick may cover later paths
/// too.
fn round_cover(
    problem: &AttackProblem<'_>,
    constraints: &[Path],
    fractional: &HashMap<EdgeId, f64>,
) -> Option<Vec<EdgeId>> {
    let mut uncovered: Vec<&Path> = constraints.iter().collect();
    let mut cuts: Vec<EdgeId> = Vec::new();
    while let Some(path) = uncovered.first() {
        let pick = path
            .edges()
            .iter()
            .copied()
            .filter(|&e| problem.is_cuttable(e))
            .max_by(|&a, &b| {
                let xa = fractional.get(&a).copied().unwrap_or(0.0);
                let xb = fractional.get(&b).copied().unwrap_or(0.0);
                xa.total_cmp(&xb)
                    .then_with(|| problem.cost_of(b).total_cmp(&problem.cost_of(a)))
                    .then_with(|| b.cmp(&a))
            })?;
        cuts.push(pick);
        uncovered.retain(|p| !p.contains_edge(pick));
    }
    Some(cuts)
}

impl AttackAlgorithm for LpPathCover {
    fn name(&self) -> &'static str {
        "LP-PathCover"
    }

    fn attack(&self, problem: &AttackProblem<'_>) -> AttackOutcome {
        let mut fractional: HashMap<EdgeId, f64> = HashMap::new();
        let mut degraded = Degradation::None;
        let (mut state, end) = CutLoop::new(problem).run_cover(|paths| {
            // Every round after the first brings one new row. Once the
            // LP has proven unusable, round greedily instead of from the
            // stale fractional solution.
            if !paths.is_empty() && degraded == Degradation::None {
                let _timer = obs::span("pathattack.lp.relaxation");
                let (edges, outcome) =
                    solve_cover_lp(problem, paths.iter().map(|p| (p, 1.0)), Some(1.0))?;
                match classify_relaxation(&edges, outcome) {
                    Ok(x) => fractional = x,
                    Err(counter) => {
                        obs::inc("pathattack.lp.degenerate");
                        obs::inc(counter);
                        degraded = Degradation::LpGreedyRounding;
                    }
                }
            }
            let cuts = match degraded {
                Degradation::None => round_cover(problem, paths, &fractional)?,
                _ => greedy_cover(problem, paths)?,
            };
            obs::inc("pathattack.lp.rounds");
            obs::record_value("pathattack.lp.constraint_paths", paths.len() as u64);
            Some(cuts)
        });
        state.degraded = degraded;
        match end {
            Some(status) => state.finish(self.name(), status),
            // The rounded cover failed to kill an already-known path.
            None => self.greedy_fallback(problem, state),
        }
    }
}

impl LpPathCover {
    /// Last fallback step: abandon constraint generation and solve the
    /// instance with plain [`crate::GreedyPathCover`], reporting the
    /// result under this algorithm's name with
    /// [`Degradation::GreedyFallback`] and the *total* elapsed time
    /// (LP attempt included).
    fn greedy_fallback(
        &self,
        problem: &AttackProblem<'_>,
        state: CutLoop<'_, '_>,
    ) -> AttackOutcome {
        obs::inc("pathattack.lp.greedy_fallbacks");
        if obs::enabled() {
            obs::inc("pathattack.attack.degraded");
        }
        let mut out = crate::GreedyPathCover.attack(problem);
        out.algorithm = self.name().to_string();
        out.degraded = Degradation::GreedyFallback;
        out.runtime = state.started.elapsed();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{faults, AttackStatus, CostType, GreedyEdge, WeightType};
    use lp::{ConstraintOp, Problem as LpProblem};
    use traffic_graph::{EdgeAttrs, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    /// Shared-bridge topology where the LP sees the sharing immediately.
    fn shared_bridge() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("bridge");
        let a = b.add_node(Point::new(0.0, 0.0));
        let hub = b.add_node(Point::new(1.0, 0.0));
        let m1 = b.add_node(Point::new(2.0, 1.0));
        let m2 = b.add_node(Point::new(2.0, -1.0));
        let d = b.add_node(Point::new(3.0, 0.0));
        let alt = b.add_node(Point::new(1.5, -3.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, hub, 1.0);
        arc(hub, m1, 1.0);
        arc(m1, d, 1.0); // 3
        arc(hub, m2, 2.0);
        arc(m2, d, 2.0); // 5
        arc(a, alt, 5.0);
        arc(alt, d, 5.0); // 10 — p*
        b.build()
    }

    fn problem(net: &RoadNetwork) -> AttackProblem<'_> {
        AttackProblem::with_path_rank(
            net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(4),
            3,
        )
        .unwrap()
    }

    #[test]
    fn finds_minimal_cut() {
        let net = shared_bridge();
        let p = problem(&net);
        let out = LpPathCover.attack(&p);
        assert!(out.is_success());
        out.verify(&p).unwrap();
        assert_eq!(out.num_removed(), 1, "{:?}", out.removed);
        assert!((out.total_cost - 1.0).abs() < 1e-9);
    }

    #[test]
    fn never_costlier_than_greedy_edge_on_bridge() {
        let net = shared_bridge();
        let p = problem(&net);
        let lp = LpPathCover.attack(&p);
        let ge = GreedyEdge.attack(&p);
        assert!(lp.total_cost <= ge.total_cost + 1e-9);
    }

    #[test]
    fn respects_costs_in_rounding() {
        // Two disjoint shorter routes with different costs; LP must cut
        // both; total cost = sum of the cheapest edge of each.
        let mut b = RoadNetworkBuilder::new("two");
        let a = b.add_node(Point::new(0.0, 0.0));
        let m1 = b.add_node(Point::new(1.0, 1.0));
        let m2 = b.add_node(Point::new(1.0, -1.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(
            a,
            m1,
            EdgeAttrs::from_class(RoadClass::Primary, 1.0).with_lanes(1),
        );
        b.add_edge(
            m1,
            d,
            EdgeAttrs::from_class(RoadClass::Primary, 1.0).with_lanes(4),
        );
        b.add_edge(
            a,
            m2,
            EdgeAttrs::from_class(RoadClass::Primary, 2.0).with_lanes(2),
        );
        b.add_edge(
            m2,
            d,
            EdgeAttrs::from_class(RoadClass::Primary, 2.0).with_lanes(3),
        );
        // p* long way
        let alt = b.add_node(Point::new(1.0, -3.0));
        b.add_edge(a, alt, EdgeAttrs::from_class(RoadClass::Primary, 6.0));
        b.add_edge(alt, d, EdgeAttrs::from_class(RoadClass::Primary, 6.0));
        let net = b.build();
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Lanes,
            NodeId::new(0),
            NodeId::new(3),
            3,
        )
        .unwrap();
        let out = LpPathCover.attack(&p);
        assert!(out.is_success());
        out.verify(&p).unwrap();
        // cheapest cut: 1-lane edge (cost 1) + 2-lane edge (cost 2) = 3
        assert_eq!(out.num_removed(), 2);
        assert!(
            (out.total_cost - 3.0).abs() < 1e-9,
            "cost {}",
            out.total_cost
        );
    }

    #[test]
    fn stuck_when_alternatives_uncuttable() {
        // Shorter route entirely over artificial edges → Stuck.
        let mut b = RoadNetworkBuilder::new("art");
        let a = b.add_node(Point::new(0.0, 0.0));
        let m = b.add_node(Point::new(1.0, 1.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(a, m, EdgeAttrs::from_class(RoadClass::Artificial, 1.0));
        b.add_edge(m, d, EdgeAttrs::from_class(RoadClass::Artificial, 1.0));
        let alt = b.add_node(Point::new(1.0, -1.0));
        b.add_edge(a, alt, EdgeAttrs::from_class(RoadClass::Primary, 3.0));
        b.add_edge(alt, d, EdgeAttrs::from_class(RoadClass::Primary, 3.0));
        let net = b.build();
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(2),
            2,
        )
        .unwrap();
        let out = LpPathCover.attack(&p);
        assert_eq!(out.status, AttackStatus::Stuck);
    }

    #[test]
    fn classify_optimal_maps_edges_to_solution() {
        let edges = vec![EdgeId::new(3), EdgeId::new(7)];
        let mut lp = LpProblem::minimize(vec![1.0, 2.0]);
        lp.bound_var(0, 1.0);
        lp.bound_var(1, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 1.0);
        let outcome = lp.solve();
        let x = classify_relaxation(&edges, outcome).expect("solved");
        assert_eq!(x.len(), 2);
        assert!((x[&EdgeId::new(3)] - 1.0).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn classify_degenerate_outcomes() {
        for (outcome, reason) in [
            (Outcome::Infeasible, "pathattack.lp.degenerate.infeasible"),
            (Outcome::Unbounded, "pathattack.lp.degenerate.unbounded"),
            (
                Outcome::IterationLimit,
                "pathattack.lp.degenerate.iteration_limit",
            ),
        ] {
            assert_eq!(classify_relaxation(&[], outcome), Err(reason));
        }
    }

    #[test]
    fn iteration_limit_outcome_reachable_from_solver() {
        // Prove the IterationLimit arm is reachable through the real
        // simplex path the attack uses, not just constructible.
        let mut lp = LpProblem::minimize(vec![1.0]);
        lp.bound_var(0, 1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 1.0);
        lp.set_iteration_limit(0);
        assert_eq!(
            classify_relaxation(&[EdgeId::new(0)], lp.solve()),
            Err("pathattack.lp.degenerate.iteration_limit")
        );
    }

    #[test]
    fn injected_lp_stall_degrades_to_greedy_rounding() {
        let plan = crate::FaultPlan::parse("seed=1,lp_stall=1").unwrap();
        faults::install(Some(plan));
        faults::set_run_key("lp-stall-test");
        let net = shared_bridge();
        let p = problem(&net);
        let out = LpPathCover.attack(&p);
        faults::clear_run_key();
        faults::install(None);
        // The stalled LP must not sink the run: greedy rounding over the
        // discovered constraints still solves the instance.
        assert!(out.is_success(), "{out:?}");
        out.verify(&p).unwrap();
        assert_eq!(out.degraded, Degradation::LpGreedyRounding);
    }

    #[test]
    fn fault_free_run_reports_no_degradation() {
        let net = shared_bridge();
        let p = problem(&net);
        let out = LpPathCover.attack(&p);
        assert_eq!(out.degraded, Degradation::None);
    }

    #[test]
    fn call_cap_times_out_instead_of_hanging() {
        use crate::RunLimits;
        let net = shared_bridge();
        let p = problem(&net).with_limits(RunLimits::default().with_max_oracle_calls(0));
        let out = LpPathCover.attack(&p);
        assert_eq!(out.status, AttackStatus::TimedOut);
    }
}
