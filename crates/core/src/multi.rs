//! Coordinated multi-victim attacks.
//!
//! The paper's attacker model (§II-A) is explicitly plural: "an attacker
//! (or set of coordinated attackers) controlling several vehicles", with
//! goals like "make all drivers traveling between common locations take
//! much slower routes". This module generalizes Force Path Cut to a set
//! of victim trips: one shared cut set must simultaneously make every
//! instance's alternative route `pᵢ*` the exclusive shortest path for
//! its own (sᵢ, dᵢ) pair.
//!
//! The solver is joint constraint generation with a greedy weighted set
//! cover (the `GreedyPathCover` machinery lifted to the union of all
//! instances' violating paths). An edge is only cuttable if *every*
//! instance allows it — cutting an edge on one victim's `p*` would break
//! that victim's forced route.

use crate::algorithms::greedy_cover_with;
use crate::{AttackProblem, AttackStatus, Oracle};
use routing::Path;
use serde::{Deserialize, Serialize};
use std::time::Duration;
use traffic_graph::EdgeId;

/// Outcome of a coordinated attack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoordinatedOutcome {
    /// Shared removed edge set, in cut order.
    pub removed: Vec<EdgeId>,
    /// Total removal cost under the (shared) cost model.
    pub total_cost: f64,
    /// Wall-clock computation time.
    pub runtime: Duration,
    /// Overall status (`Success` only if every instance succeeded).
    pub status: AttackStatus,
    /// Number of constraint paths discovered across all instances.
    pub constraints_discovered: usize,
}

impl CoordinatedOutcome {
    /// Number of removed road segments.
    pub fn num_removed(&self) -> usize {
        self.removed.len()
    }

    /// Whether every victim's route was forced.
    pub fn is_success(&self) -> bool {
        self.status == AttackStatus::Success
    }
}

/// Errors constructing a coordinated attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordinatedError {
    /// No instances given.
    Empty,
    /// Instances disagree on the underlying network.
    DifferentNetworks,
    /// Instances disagree on the cost model.
    DifferentCostTypes,
    /// Instances disagree on the pre-attack view (different edges
    /// already removed) — the shared cut set would be computed against
    /// inconsistent baselines.
    DifferentBaseViews,
}

impl std::fmt::Display for CoordinatedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordinatedError::Empty => f.write_str("no attack instances"),
            CoordinatedError::DifferentNetworks => {
                f.write_str("instances must share one road network")
            }
            CoordinatedError::DifferentCostTypes => {
                f.write_str("instances must share one cost model")
            }
            CoordinatedError::DifferentBaseViews => {
                f.write_str("instances must share one pre-attack view")
            }
        }
    }
}

impl std::error::Error for CoordinatedError {}

/// Runs a coordinated attack over several Force Path Cut instances that
/// share a network and cost model.
///
/// Returns the shared cut set; `AttackStatus::Stuck` (with an empty cut
/// set) when some victim's violating path has no jointly-cuttable edge
/// (e.g. it runs over another victim's `p*`), and
/// `AttackStatus::TimedOut` (with the cut set so far) when some victim's
/// [`crate::RunLimits`] fire. Budgets are not applied.
///
/// # Errors
///
/// Returns [`CoordinatedError`] when the instance set is empty or
/// inconsistent.
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::{coordinated_attack, AttackProblem, WeightType, CostType};
/// use traffic_graph::{NodeId, PoiKind};
///
/// let city = CityPreset::Chicago.build(Scale::Small, 11);
/// let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
/// // Victims approaching from different directions; victims with
/// // heavily overlapping fast routes can conflict (see
/// // `AttackStatus::Stuck`).
/// let problems: Vec<_> = [100usize, 400]
///     .iter()
///     .filter_map(|&s| AttackProblem::with_path_rank(
///         &city, WeightType::Time, CostType::Uniform, NodeId::new(s), hospital, 8,
///     ).ok())
///     .collect();
/// let outcome = coordinated_attack(&problems).unwrap();
/// assert!(outcome.is_success());
/// ```
pub fn coordinated_attack(
    problems: &[AttackProblem<'_>],
) -> Result<CoordinatedOutcome, CoordinatedError> {
    let started = std::time::Instant::now();
    let first = problems.first().ok_or(CoordinatedError::Empty)?;
    for p in &problems[1..] {
        if !std::ptr::eq(p.network(), first.network()) {
            return Err(CoordinatedError::DifferentNetworks);
        }
        if p.cost_type() != first.cost_type() {
            return Err(CoordinatedError::DifferentCostTypes);
        }
        // Each oracle's reverse-distance heuristic and cuttability mask
        // are computed against its own base view; mixing views would
        // make the shared search silently unsound.
        if p.base_view().removed_count() != first.base_view().removed_count()
            || !p
                .base_view()
                .removed_edges()
                .eq(first.base_view().removed_edges())
        {
            return Err(CoordinatedError::DifferentBaseViews);
        }
    }

    // An edge is jointly cuttable iff every instance allows it.
    let m = first.network().num_edges();
    let mut cuttable = vec![true; m];
    for p in problems {
        for (e, slot) in cuttable.iter_mut().enumerate() {
            if *slot && !p.is_cuttable(EdgeId::new(e)) {
                *slot = false;
            }
        }
    }

    let mut oracles: Vec<Oracle> = problems.iter().map(Oracle::new).collect();
    let mut constraints: Vec<Path> = Vec::new();

    loop {
        let Some(cuts) =
            greedy_cover_with(&constraints, |e| cuttable[e.index()], |e| first.cost_of(e))
        else {
            return Ok(CoordinatedOutcome {
                removed: Vec::new(),
                total_cost: 0.0,
                runtime: started.elapsed(),
                status: AttackStatus::Stuck,
                constraints_discovered: constraints.len(),
            });
        };
        let mut view = first.base_view().clone();
        let mut total_cost = 0.0;
        for &e in &cuts {
            view.remove_edge(e);
            total_cost += first.cost_of(e);
        }

        let mut found_new = false;
        for (problem, oracle) in problems.iter().zip(oracles.iter_mut()) {
            if let Some(v) = oracle.next_violating(problem, &view) {
                if !constraints.iter().any(|q| q.edges() == v.edges()) {
                    constraints.push(v);
                    found_new = true;
                }
            }
        }
        // A tripped run limit makes an oracle answer `None`, the shape
        // of success, so it must be checked before trusting `found_new`.
        let timed_out = oracles.iter().any(Oracle::interrupted);
        if timed_out || !found_new {
            return Ok(CoordinatedOutcome {
                removed: cuts,
                total_cost,
                runtime: started.elapsed(),
                status: if timed_out {
                    AttackStatus::TimedOut
                } else {
                    AttackStatus::Success
                },
                constraints_discovered: constraints.len(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttackAlgorithm, CostType, GreedyPathCover, WeightType};
    use traffic_graph::{
        EdgeAttrs, GraphView, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder,
    };

    /// Two victims whose fast routes share a corridor.
    ///
    /// s1 and s2 both funnel through hub→d; each victim's p* avoids the
    /// hub. Joint attack should cut the shared corridor once.
    fn funnel() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("funnel");
        let s1 = b.add_node(Point::new(0.0, 1.0));
        let s2 = b.add_node(Point::new(0.0, -1.0));
        let hub = b.add_node(Point::new(1.0, 0.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let a1 = b.add_node(Point::new(1.0, 3.0));
        let a2 = b.add_node(Point::new(1.0, -3.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(s1, hub, 1.0);
        arc(s2, hub, 1.0);
        arc(hub, d, 1.0); // shared corridor
        arc(s1, a1, 3.0);
        arc(a1, d, 3.0); // victim-1 p* (6)
        arc(s2, a2, 3.0);
        arc(a2, d, 3.0); // victim-2 p* (6)
        b.build()
    }

    fn funnel_problems(net: &RoadNetwork) -> Vec<AttackProblem<'_>> {
        [0usize, 1]
            .iter()
            .map(|&s| {
                AttackProblem::with_path_rank(
                    net,
                    WeightType::Length,
                    CostType::Uniform,
                    NodeId::new(s),
                    NodeId::new(3),
                    2,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn shared_corridor_cut_once() {
        let net = funnel();
        let problems = funnel_problems(&net);
        let out = coordinated_attack(&problems).unwrap();
        assert!(out.is_success(), "{out:?}");
        assert_eq!(out.num_removed(), 1, "{:?}", out.removed);
        let corridor = net.find_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        assert_eq!(out.removed[0], corridor);
    }

    #[test]
    fn joint_cut_cheaper_than_independent() {
        let net = funnel();
        let problems = funnel_problems(&net);
        let joint = coordinated_attack(&problems).unwrap();
        let independent: f64 = problems
            .iter()
            .map(|p| GreedyPathCover.attack(p).total_cost)
            .sum();
        assert!(joint.total_cost <= independent + 1e-9);
    }

    #[test]
    fn every_victim_forced_after_joint_cut() {
        let net = funnel();
        let problems = funnel_problems(&net);
        let out = coordinated_attack(&problems).unwrap();
        for p in &problems {
            let mut view = GraphView::new(&net);
            for &e in &out.removed {
                view.remove_edge(e);
            }
            let mut oracle = Oracle::new(p);
            assert!(
                oracle.next_violating(p, &view).is_none(),
                "victim {} not forced",
                p.source()
            );
        }
    }

    #[test]
    fn conflicting_pstars_get_stuck() {
        // Victim 2's only shorter route runs along victim 1's p*, which
        // is not jointly cuttable → Stuck.
        let mut b = RoadNetworkBuilder::new("conflict");
        let s = b.add_node(Point::new(0.0, 0.0));
        let m = b.add_node(Point::new(1.0, 0.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let alt = b.add_node(Point::new(1.0, 2.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(s, m, 1.0);
        arc(m, d, 1.0); // direct (2)
        arc(s, alt, 3.0);
        arc(alt, d, 3.0); // detour (6)
        let net = b.build();
        // victim 1: p* = direct route (already shortest: 0 cuts needed,
        // but its edges become uncuttable)
        let p1 = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(2),
            1,
        )
        .unwrap();
        // victim 2: p* = detour; only shorter route is the direct one,
        // whose edges are on victim 1's p*.
        let p2 = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(2),
            2,
        )
        .unwrap();
        let out = coordinated_attack(&[p1, p2]).unwrap();
        assert_eq!(out.status, AttackStatus::Stuck);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            coordinated_attack(&[]).unwrap_err(),
            CoordinatedError::Empty
        );

        let net1 = funnel();
        let net2 = funnel();
        let a = funnel_problems(&net1).remove(0);
        let b = funnel_problems(&net2).remove(0);
        assert_eq!(
            coordinated_attack(&[a.clone(), b]).unwrap_err(),
            CoordinatedError::DifferentNetworks
        );

        let c = AttackProblem::with_path_rank(
            &net1,
            WeightType::Length,
            CostType::Lanes,
            NodeId::new(1),
            NodeId::new(3),
            2,
        )
        .unwrap();
        assert_eq!(
            coordinated_attack(&[a.clone(), c]).unwrap_err(),
            CoordinatedError::DifferentCostTypes
        );

        // Different pre-attack views must be rejected: rebuild the same
        // instance on a view with an unrelated edge already removed
        // (s2 → a2 is not on victim 1's p*).
        let mut view = GraphView::new(&net1);
        let unrelated = net1.find_edge(NodeId::new(1), NodeId::new(5)).unwrap();
        view.remove_edge(unrelated);
        let d = AttackProblem::new(
            view,
            WeightType::Length,
            CostType::Uniform,
            a.source(),
            a.target(),
            a.pstar().clone(),
        )
        .expect("p* untouched by the unrelated removal");
        assert_eq!(
            coordinated_attack(&[a, d]).unwrap_err(),
            CoordinatedError::DifferentBaseViews
        );
    }

    #[test]
    fn coordinated_call_cap_times_out() {
        let net = funnel();
        let capped: Vec<_> = funnel_problems(&net)
            .into_iter()
            .map(|p| p.with_limits(crate::RunLimits::default().with_max_oracle_calls(0)))
            .collect();
        let out = coordinated_attack(&capped).unwrap();
        assert_eq!(out.status, AttackStatus::TimedOut, "{out:?}");
        // The victims are not forced: a fresh oracle still finds a
        // violating path for each on the (empty) cut set.
        assert!(out.removed.is_empty());
        for p in &funnel_problems(&net) {
            let mut oracle = Oracle::new(p);
            assert!(oracle.next_violating(p, p.base_view()).is_some());
        }
    }

    #[test]
    fn single_instance_matches_greedy_pathcover_cost() {
        let net = funnel();
        let p = funnel_problems(&net).remove(0);
        let joint = coordinated_attack(std::slice::from_ref(&p)).unwrap();
        let single = GreedyPathCover.attack(&p);
        assert!(joint.is_success() && single.is_success());
        assert!((joint.total_cost - single.total_cost).abs() < 1e-9);
    }
}
