//! The `GreedyEdge` baseline.

use crate::algorithms::{AttackAlgorithm, CutLoop};
use crate::{AttackOutcome, AttackProblem};

/// Naive baseline (paper §III-A, algorithm 3): while a violating path
/// exists, cut the **lightest** (shortest-weight) cuttable road segment
/// on the current shortest route that is not part of `p*`.
///
/// Fastest of the four algorithms but produces the most expensive cut
/// sets, especially on non-lattice cities (paper Tables II–VIII).
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::{AttackProblem, AttackAlgorithm, GreedyEdge, WeightType, CostType};
/// use traffic_graph::{NodeId, PoiKind};
///
/// let city = CityPreset::Chicago.build(Scale::Small, 3);
/// let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
/// let problem = AttackProblem::with_path_rank(
///     &city, WeightType::Time, CostType::Uniform, NodeId::new(0), hospital, 10,
/// ).unwrap();
/// let outcome = GreedyEdge.attack(&problem);
/// assert!(outcome.is_success());
/// outcome.verify(&problem).unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyEdge;

impl AttackAlgorithm for GreedyEdge {
    fn name(&self) -> &'static str {
        "GreedyEdge"
    }

    fn attack(&self, problem: &AttackProblem<'_>) -> AttackOutcome {
        // Negating reverses `total_cmp` exactly: the lightest edge wins.
        CutLoop::new(problem).run_greedy(self.name(), |e| -problem.weight_of(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttackStatus, CostType, WeightType};
    use traffic_graph::{EdgeAttrs, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    /// Two shorter parallel routes that must both be cut.
    fn net() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("n");
        let a = b.add_node(Point::new(0.0, 0.0));
        let m1 = b.add_node(Point::new(1.0, 2.0));
        let m2 = b.add_node(Point::new(1.0, 0.0));
        let m3 = b.add_node(Point::new(1.0, -2.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, m1, 1.0);
        arc(m1, d, 1.0); // 2
        arc(a, m2, 2.0);
        arc(m2, d, 2.0); // 4
        arc(a, m3, 4.0);
        arc(m3, d, 4.0); // 8 — p*
        b.build()
    }

    fn problem(net: &RoadNetwork) -> crate::AttackProblem<'_> {
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
    fn cuts_until_pstar_is_exclusive() {
        let net = net();
        let p = problem(&net);
        assert_eq!(p.pstar_weight(), 8.0);
        let out = GreedyEdge.attack(&p);
        assert!(out.is_success());
        // must disconnect both shorter routes: 2 cuts, cost 2
        assert_eq!(out.num_removed(), 2);
        assert!((out.total_cost - 2.0).abs() < 1e-9);
        out.verify(&p).unwrap();
    }

    #[test]
    fn respects_budget() {
        let net = net();
        let p = problem(&net).with_budget(1.0);
        let out = GreedyEdge.attack(&p);
        assert_eq!(out.status, AttackStatus::BudgetExhausted);
        assert!(out.num_removed() <= 1);
        out.verify(&p).unwrap(); // partial removals still verify
    }

    #[test]
    fn already_exclusive_needs_no_cuts() {
        let net = net();
        // p* = the actual shortest path
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(4),
            1,
        )
        .unwrap();
        let out = GreedyEdge.attack(&p);
        assert!(out.is_success());
        assert_eq!(out.num_removed(), 0);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn picks_lightest_edge_on_route() {
        // a → x → d where a→x weighs 1 and x→d weighs 9; GreedyEdge must
        // cut a→x (the lighter one).
        let mut b = RoadNetworkBuilder::new("n");
        let a = b.add_node(Point::new(0.0, 0.0));
        let x = b.add_node(Point::new(1.0, 1.0));
        let m = b.add_node(Point::new(1.0, -1.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, x, 1.0);
        arc(x, d, 9.0); // 10
        arc(a, m, 6.0);
        arc(m, d, 6.0); // 12 — p*
        let net = b.build();
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            2,
        )
        .unwrap();
        let out = GreedyEdge.attack(&p);
        assert!(out.is_success());
        assert_eq!(out.num_removed(), 1);
        let ax = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(out.removed[0], ax);
    }
}
