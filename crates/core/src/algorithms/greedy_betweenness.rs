//! The `GreedyBetweenness` extension baseline.

use crate::algorithms::{AttackAlgorithm, CutLoop};
use crate::{AttackOutcome, AttackProblem};
use std::sync::Arc;
use traffic_graph::{edge_betweenness, NodeId};

/// Extension baseline (not one of the paper's four): while a violating
/// path exists, cut the cuttable edge on the current shortest route with
/// the highest **betweenness-to-cost** ratio.
///
/// The paper's attacker model (§II-A) singles out edge betweenness
/// centrality as the attacker's reconnaissance signal for "critical
/// roads"; this algorithm tests whether that signal also makes a good
/// *cut-selection* heuristic. Like `GreedyEig` it precomputes centrality
/// once on the pre-attack view (sampled Brandes for tractability).
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::{AttackProblem, AttackAlgorithm, GreedyBetweenness, WeightType, CostType};
/// use traffic_graph::{NodeId, PoiKind};
///
/// let city = CityPreset::Chicago.build(Scale::Small, 3);
/// let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
/// let problem = AttackProblem::with_path_rank(
///     &city, WeightType::Time, CostType::Uniform, NodeId::new(0), hospital, 10,
/// ).unwrap();
/// let outcome = GreedyBetweenness::default().attack(&problem);
/// assert!(outcome.is_success());
/// outcome.verify(&problem).unwrap();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GreedyBetweenness {
    /// Number of Brandes source sweeps for the centrality estimate
    /// (`None`-like 0 means exact; keep small on big cities).
    pub sample_sources: usize,
}

impl Default for GreedyBetweenness {
    fn default() -> Self {
        GreedyBetweenness { sample_sources: 64 }
    }
}

impl AttackAlgorithm for GreedyBetweenness {
    fn name(&self) -> &'static str {
        "GreedyBetweenness"
    }

    fn attack(&self, problem: &AttackProblem<'_>) -> AttackOutcome {
        let state = CutLoop::new(problem);

        let net = problem.network();
        let n = net.num_nodes().max(1);
        let sample: Option<Vec<NodeId>> = if self.sample_sources == 0 || self.sample_sources >= n {
            None
        } else {
            let stride = (n / self.sample_sources).max(1);
            Some(
                (0..n)
                    .step_by(stride)
                    .take(self.sample_sources)
                    .map(NodeId::new)
                    .collect(),
            )
        };
        let compute = || {
            edge_betweenness(
                problem.base_view(),
                |e| problem.weight_of(e),
                sample.as_deref(),
            )
        };
        let centrality: Arc<Vec<f64>> = problem
            .reusable_cache()
            .and_then(|c| c.betweenness_with(self.sample_sources, problem.weight_type(), compute))
            .unwrap_or_else(|| Arc::new(compute()));

        state.run_greedy(self.name(), |e| centrality[e.index()] / problem.cost_of(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttackStatus, CostType, WeightType};
    use traffic_graph::{Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    fn grid(n: usize) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("grid");
        let mut nodes = Vec::new();
        for y in 0..n {
            for x in 0..n {
                nodes.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                if x + 1 < n {
                    b.add_street(nodes[i], nodes[i + 1], RoadClass::Residential);
                }
                if y + 1 < n {
                    b.add_street(nodes[i], nodes[i + n], RoadClass::Residential);
                }
            }
        }
        b.build()
    }

    #[test]
    fn succeeds_and_verifies_on_grid() {
        let net = grid(5);
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(24),
            6,
        )
        .unwrap();
        let out = GreedyBetweenness::default().attack(&p);
        assert!(out.is_success(), "{out:?}");
        out.verify(&p).unwrap();
    }

    #[test]
    fn exact_and_sampled_both_succeed() {
        let net = grid(4);
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Lanes,
            NodeId::new(0),
            NodeId::new(15),
            4,
        )
        .unwrap();
        for alg in [
            GreedyBetweenness { sample_sources: 0 },
            GreedyBetweenness { sample_sources: 4 },
        ] {
            let out = alg.attack(&p);
            assert!(out.is_success());
            out.verify(&p).unwrap();
        }
    }

    #[test]
    fn respects_budget() {
        let net = grid(4);
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(15),
            4,
        )
        .unwrap()
        .with_budget(0.0);
        let out = GreedyBetweenness::default().attack(&p);
        assert_eq!(out.status, AttackStatus::BudgetExhausted);
    }
}
