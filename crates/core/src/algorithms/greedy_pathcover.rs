//! The `GreedyPathCover` algorithm.

use crate::algorithms::{AttackAlgorithm, CutLoop};
use crate::{AttackOutcome, AttackProblem, AttackStatus};
use routing::Path;
use std::collections::HashMap;
use traffic_graph::EdgeId;

/// Greedy weighted set cover over discovered violating paths (paper
/// §III-A, algorithm 2; PATHATTACK's greedy variant).
///
/// Constraint generation discovers violating paths one at a time (always
/// the currently cheapest). After each discovery the *entire* cut set is
/// re-derived from scratch by greedy weighted set cover over every
/// discovered path: repeatedly commit the edge covering the most
/// still-uncovered paths per unit cost. Re-deriving (rather than
/// committing cuts permanently as paths trickle in) lets late discoveries
/// revise early, poorly-informed choices — without it the cut sets
/// measurably exceed even the naive baselines on lattice cities.
///
/// The paper's headline result: consistently as effective as
/// [`crate::LpPathCover`] while 5–10× faster. On this workspace's
/// cities the two run in comparable time (LP-PathCover takes 0.9–1.5×
/// as long at paper scale).
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::{AttackProblem, AttackAlgorithm, GreedyPathCover, WeightType, CostType};
/// use traffic_graph::{NodeId, PoiKind};
///
/// let city = CityPreset::Boston.build(Scale::Small, 5);
/// let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
/// let problem = AttackProblem::with_path_rank(
///     &city, WeightType::Time, CostType::Width, NodeId::new(0), hospital, 10,
/// ).unwrap();
/// let outcome = GreedyPathCover::default().attack(&problem);
/// assert!(outcome.is_success());
/// outcome.verify(&problem).unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPathCover;

/// Greedy weighted set cover: returns a cut set covering every
/// constraint path (each loses at least one edge), or `None` if some
/// path has no cuttable edge.
pub(crate) fn greedy_cover(
    problem: &AttackProblem<'_>,
    constraints: &[Path],
) -> Option<Vec<EdgeId>> {
    greedy_cover_with(
        constraints,
        |e| problem.is_cuttable(e),
        |e| problem.cost_of(e),
    )
}

/// [`greedy_cover`] with an explicit cuttability test and cost (the
/// coordinated multi-victim attack passes joint cuttability: an edge
/// must be cuttable for *every* instance).
pub(crate) fn greedy_cover_with(
    constraints: &[Path],
    cuttable: impl Fn(EdgeId) -> bool,
    cost: impl Fn(EdgeId) -> f64,
) -> Option<Vec<EdgeId>> {
    let mut uncovered: Vec<&Path> = constraints.iter().collect();
    let mut cuts: Vec<EdgeId> = Vec::new();
    while !uncovered.is_empty() {
        let mut count: HashMap<EdgeId, usize> = HashMap::new();
        for p in &uncovered {
            for &e in p.edges() {
                if cuttable(e) {
                    *count.entry(e).or_insert(0) += 1;
                }
            }
        }
        let (&best, _) = count.iter().max_by(|(ea, ca), (eb, cb)| {
            let ra = **ca as f64 / cost(**ea);
            let rb = **cb as f64 / cost(**eb);
            ra.total_cmp(&rb)
                .then_with(|| ca.cmp(cb))
                .then_with(|| eb.cmp(ea))
        })?;
        cuts.push(best);
        uncovered.retain(|p| !p.contains_edge(best));
    }
    Some(cuts)
}

impl AttackAlgorithm for GreedyPathCover {
    fn name(&self) -> &'static str {
        "GreedyPathCover"
    }

    fn attack(&self, problem: &AttackProblem<'_>) -> AttackOutcome {
        let (state, end) = CutLoop::new(problem).run_cover(|paths| {
            let cuts = {
                let _timer = obs::span("pathattack.greedy.cover");
                greedy_cover(problem, paths)?
            };
            obs::inc("pathattack.greedy.rounds");
            obs::record_value("pathattack.greedy.paths_covered", paths.len() as u64);
            Some(cuts)
        });
        // A rediscovered path should be impossible (every path loses an
        // edge to the cover); end the run rather than loop forever.
        state.finish(self.name(), end.unwrap_or(AttackStatus::Stuck))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostType, GreedyEdge, WeightType};
    use traffic_graph::{EdgeAttrs, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    /// A bundle of shorter routes all sharing one "bridge" edge: the
    /// cover-aware algorithm should cut the shared bridge once, while
    /// edge-by-edge baselines may cut several edges.
    fn shared_bridge() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("bridge");
        let a = b.add_node(Point::new(0.0, 0.0));
        let hub = b.add_node(Point::new(1.0, 0.0));
        let m1 = b.add_node(Point::new(2.0, 1.0));
        let m2 = b.add_node(Point::new(2.0, 0.0));
        let m3 = b.add_node(Point::new(2.0, -1.0));
        let d = b.add_node(Point::new(3.0, 0.0));
        let alt = b.add_node(Point::new(1.5, -3.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, hub, 1.0); // the shared bridge
        arc(hub, m1, 1.0);
        arc(m1, d, 1.0); // 3
        arc(hub, m2, 1.5);
        arc(m2, d, 1.5); // 4
        arc(hub, m3, 2.0);
        arc(m3, d, 2.0); // 5
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
            NodeId::new(5),
            4,
        )
        .unwrap()
    }

    #[test]
    fn cuts_shared_bridge_once() {
        let net = shared_bridge();
        let p = problem(&net);
        assert_eq!(p.pstar_weight(), 10.0);
        let out = GreedyPathCover.attack(&p);
        assert!(out.is_success());
        out.verify(&p).unwrap();
        assert_eq!(out.num_removed(), 1, "removed: {:?}", out.removed);
        let bridge = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(out.removed[0], bridge);
    }

    #[test]
    fn no_worse_than_greedy_edge_here() {
        let net = shared_bridge();
        let p = problem(&net);
        let cover = GreedyPathCover.attack(&p);
        let edge = GreedyEdge.attack(&p);
        assert!(cover.total_cost <= edge.total_cost + 1e-9);
    }

    #[test]
    fn trivial_instance_zero_cuts() {
        let net = shared_bridge();
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(5),
            1,
        )
        .unwrap();
        let out = GreedyPathCover.attack(&p);
        assert!(out.is_success());
        assert_eq!(out.num_removed(), 0);
    }

    #[test]
    fn verify_detects_tampering() {
        let net = shared_bridge();
        let p = problem(&net);
        let mut out = GreedyPathCover.attack(&p);
        out.removed.clear(); // claim success without cuts
        assert!(out.verify(&p).is_err());
    }

    #[test]
    fn greedy_cover_handles_uncuttable() {
        let net = shared_bridge();
        let p = problem(&net);
        // a constraint path consisting solely of p* edges is uncuttable
        let cover = greedy_cover(&p, &[p.pstar().clone()]);
        assert!(cover.is_none());
    }

    #[test]
    fn greedy_cover_empty_constraints() {
        let net = shared_bridge();
        let p = problem(&net);
        let cover = greedy_cover(&p, &[]).unwrap();
        assert!(cover.is_empty());
    }
}
