//! The `GreedyEig` baseline.

use crate::algorithms::{AttackAlgorithm, CutLoop};
use crate::{AttackOutcome, AttackProblem};
use std::sync::Arc;
use traffic_graph::{edge_eigenscore, eigenvector_centrality};

/// Naive spectral baseline (paper §III-A, algorithm 4): while a violating
/// path exists, cut the cuttable edge on the current shortest route with
/// the highest **eigenscore-to-cost** ratio, where an edge's eigenscore
/// is the product of its endpoints' eigenvector-centrality values.
///
/// The intuition: high-eigenscore edges sit in densely connected cores,
/// so cutting them disrupts many alternative routes at once. In the
/// paper it is as fast as [`crate::GreedyEdge`] but usually no cheaper.
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::{AttackProblem, AttackAlgorithm, GreedyEig, WeightType, CostType};
/// use traffic_graph::{NodeId, PoiKind};
///
/// let city = CityPreset::Chicago.build(Scale::Small, 3);
/// let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
/// let problem = AttackProblem::with_path_rank(
///     &city, WeightType::Time, CostType::Lanes, NodeId::new(0), hospital, 10,
/// ).unwrap();
/// let outcome = GreedyEig::default().attack(&problem);
/// assert!(outcome.is_success());
/// outcome.verify(&problem).unwrap();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GreedyEig {
    /// Power-iteration cap for the centrality precomputation.
    pub max_iterations: usize,
    /// Power-iteration convergence tolerance.
    pub tolerance: f64,
}

impl Default for GreedyEig {
    fn default() -> Self {
        GreedyEig {
            max_iterations: 100,
            tolerance: 1e-8,
        }
    }
}

impl AttackAlgorithm for GreedyEig {
    fn name(&self) -> &'static str {
        "GreedyEig"
    }

    fn attack(&self, problem: &AttackProblem<'_>) -> AttackOutcome {
        let state = CutLoop::new(problem);
        // Eigencentrality is computed once on the pre-attack view: the
        // handful of removals an attack makes barely perturbs the
        // principal eigenvector, and recomputing per cut would dominate
        // the runtime (see the paper's Avg. Runtime columns). A shared
        // NetworkCache amortizes it further, across all runs of a sweep.
        let compute =
            || eigenvector_centrality(problem.base_view(), self.max_iterations, self.tolerance);
        let centrality: Arc<Vec<f64>> = problem
            .reusable_cache()
            .and_then(|c| c.eigenvector_with(self.max_iterations, self.tolerance, compute))
            .unwrap_or_else(|| Arc::new(compute()));
        state.run_greedy(self.name(), |e| {
            edge_eigenscore(problem.base_view(), &centrality, e) / problem.cost_of(e)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttackStatus, CostType, WeightType};
    use traffic_graph::{NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    fn ladder() -> RoadNetwork {
        // 2×4 ladder, p* will be a detour rank
        let mut b = RoadNetworkBuilder::new("ladder");
        let mut nodes = Vec::new();
        for y in 0..2 {
            for x in 0..4 {
                nodes.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..2 {
            for x in 0..3 {
                b.add_street(
                    nodes[y * 4 + x],
                    nodes[y * 4 + x + 1],
                    RoadClass::Residential,
                );
            }
        }
        for x in 0..4 {
            b.add_street(nodes[x], nodes[4 + x], RoadClass::Residential);
        }
        b.build()
    }

    #[test]
    fn succeeds_on_ladder() {
        let net = ladder();
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(7),
            3,
        )
        .unwrap();
        let out = GreedyEig::default().attack(&p);
        assert!(out.is_success(), "{out:?}");
        out.verify(&p).unwrap();
        assert!(out.num_removed() >= 1);
    }

    #[test]
    fn prefers_cheap_central_edges() {
        // Two shorter routes: one through a hub (high centrality, cost 1)
        // and p* elsewhere. With equal costs, the hub edge is cut first.
        let net = ladder();
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Lanes,
            NodeId::new(0),
            NodeId::new(7),
            4,
        )
        .unwrap();
        let out = GreedyEig::default().attack(&p);
        assert!(out.is_success());
        out.verify(&p).unwrap();
    }

    #[test]
    fn budget_zero_fails_fast_when_cut_needed() {
        let net = ladder();
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(7),
            3,
        )
        .unwrap()
        .with_budget(0.0);
        let out = GreedyEig::default().attack(&p);
        assert_eq!(out.status, AttackStatus::BudgetExhausted);
        assert_eq!(out.num_removed(), 0);
    }
}
