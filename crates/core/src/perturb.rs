//! The PATHPERTURB problem layer: minimum-cost edge-weight perturbation.
//!
//! Companion modality to Force Path Cut ("Optimal Edge Weight
//! Perturbations to Attack Shortest Paths", Miller et al.): instead of
//! *removing* edges, the adversary *raises* their weights — road works,
//! signal retiming, reported congestion — until the target route `p*`
//! is uniquely shortest, at minimum total perturbation cost.
//!
//! - [`PerturbProblem`] wraps an [`AttackProblem`] with the
//!   perturbation-specific knobs: an optional per-edge delta cap and an
//!   optional integer-rounding post-pass. The cut-cost models
//!   (UNIFORM/LANES/WIDTH) are reused as *per unit of added weight*
//!   costs.
//! - Violating-path queries go to the same [`crate::Oracle`] the cut
//!   algorithms use, through [`crate::Oracle::next_violating_perturbed`]:
//!   it searches the base view under `w + δ` (a [`WeightOverlay`])
//!   instead of a mutated view. Deltas are non-negative, so the intact
//!   reverse-distance table stays an admissible A\* heuristic and, with
//!   repair on, a sound pruning bound.
//! - [`PerturbResult`] carries the perturbation vector plus enough
//!   accounting to certify it independently via
//!   [`PerturbResult::verify`].

use crate::{AttackProblem, AttackStatus, Degradation, Oracle};
use routing::WeightOverlay;
use serde::{Deserialize, Serialize};
use std::time::Duration;
use traffic_graph::EdgeId;

/// A weight-perturbation attack instance: an [`AttackProblem`] plus the
/// perturbation-specific budget model.
///
/// The same edges that Force Path Cut may remove are the ones a
/// perturbation may lengthen ([`PerturbProblem::is_perturbable`] is
/// exactly [`AttackProblem::is_cuttable`]): edges on `p*`, artificial
/// connectors, protected edges, and pre-removed edges are all off
/// limits. The problem's [`crate::CostType`] vector is reinterpreted as
/// the cost *per unit of added weight* on each edge, and the problem's
/// budget (if any) bounds the total perturbation cost.
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::{AttackProblem, LpPerturb, PerturbProblem, WeightType, CostType};
/// use traffic_graph::{NodeId, PoiKind};
///
/// let city = CityPreset::SanFrancisco.build(Scale::Small, 5);
/// let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
/// let inner = AttackProblem::with_path_rank(
///     &city, WeightType::Length, CostType::Uniform, NodeId::new(0), hospital, 10,
/// ).unwrap();
/// let problem = PerturbProblem::new(inner);
/// let result = LpPerturb::default().attack(&problem);
/// assert!(result.is_success());
/// result.verify(&problem).unwrap();
/// ```
#[derive(Debug)]
pub struct PerturbProblem<'g> {
    inner: AttackProblem<'g>,
    edge_cap: Option<f64>,
    integer_round: bool,
}

impl<'g> PerturbProblem<'g> {
    /// Wraps an attack problem as a perturbation instance with no
    /// per-edge cap and no integer rounding.
    pub fn new(inner: AttackProblem<'g>) -> Self {
        PerturbProblem {
            inner,
            edge_cap: None,
            integer_round: false,
        }
    }

    /// Caps the weight increase of every single edge at `cap`. A tight
    /// cap can make an instance infeasible (the LP reports it, the
    /// attack returns [`AttackStatus::Stuck`]).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not finite and positive.
    pub fn with_edge_cap(mut self, cap: f64) -> Self {
        assert!(
            cap.is_finite() && cap > 0.0,
            "per-edge perturbation cap must be finite and positive, got {cap}"
        );
        self.edge_cap = Some(cap);
        self
    }

    /// Enables the integer-rounding post-pass: after the fractional LP
    /// succeeds, every delta is rounded up to the next integer (clamped
    /// to the per-edge cap) and the result re-certified; if rounding
    /// breaks feasibility or the budget, the fractional solution is
    /// kept.
    pub fn with_integer_rounding(mut self, integer_round: bool) -> Self {
        self.integer_round = integer_round;
        self
    }

    /// The wrapped cut-attack problem (weights, costs, `p*`, limits).
    pub fn inner(&self) -> &AttackProblem<'g> {
        &self.inner
    }

    /// The per-edge delta cap, if any.
    pub fn edge_cap(&self) -> Option<f64> {
        self.edge_cap
    }

    /// Whether the integer-rounding post-pass is enabled.
    pub fn integer_rounding(&self) -> bool {
        self.integer_round
    }

    /// Whether the adversary may lengthen `e` — the same edges Force
    /// Path Cut may remove.
    pub fn is_perturbable(&self, e: EdgeId) -> bool {
        self.inner.is_cuttable(e)
    }

    /// The weight every violating path must be pushed past: one tie
    /// margin beyond the violating threshold, so float noise in path
    /// sums can never drop a "fixed" path back into violation.
    pub fn clearance_weight(&self) -> f64 {
        self.inner.pstar_weight() + 2.0 * self.inner.tie_margin()
    }
}

/// Result of running one perturbation algorithm on one
/// [`PerturbProblem`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerturbResult {
    /// Name of the algorithm that produced this result.
    pub algorithm: String,
    /// `(edge, delta)` pairs in edge order, every delta positive.
    pub perturbed: Vec<(EdgeId, f64)>,
    /// Total perturbation cost: `Σ cost(e) · δ(e)`.
    pub total_cost: f64,
    /// Total added weight: `Σ δ(e)`.
    pub total_delta: f64,
    /// Constraint-generation rounds (violating paths turned into LP
    /// rows or greedy bumps).
    pub rounds: usize,
    /// Oracle queries issued.
    pub oracle_calls: u64,
    /// Whether the integer-rounding post-pass produced the final
    /// deltas (`false` when disabled or when rounding was reverted).
    pub integer_rounded: bool,
    /// Wall-clock time of the attack computation.
    pub runtime: Duration,
    /// How the attack terminated.
    pub status: AttackStatus,
    /// Which fallback (if any) produced this result.
    pub degraded: Degradation,
}

impl PerturbResult {
    /// Number of perturbed edges.
    pub fn num_perturbed(&self) -> usize {
        self.perturbed.len()
    }

    /// Whether the attack reached its goal.
    pub fn is_success(&self) -> bool {
        self.status == AttackStatus::Success
    }

    /// Rebuilds the result's [`WeightOverlay`].
    pub fn overlay(&self, num_edges: usize) -> WeightOverlay {
        let mut overlay = WeightOverlay::new(num_edges);
        for &(e, d) in &self.perturbed {
            overlay.set(e, d);
        }
        overlay
    }

    /// Independently certifies this result against `problem`:
    ///
    /// 1. every perturbed edge is perturbable, its delta positive,
    ///    finite, and within the per-edge cap, and the vector is sorted
    ///    by edge with no duplicates;
    /// 2. the reported cost and total delta match the cost model;
    /// 3. if the status is [`AttackStatus::Success`], re-running the
    ///    search oracle on the perturbed weights confirms `p*` is the
    ///    exclusive shortest path (within tie margin).
    pub fn verify(&self, problem: &PerturbProblem<'_>) -> Result<(), String> {
        let inner = problem.inner();
        let mut cost = 0.0;
        let mut delta_sum = 0.0;
        let mut prev: Option<EdgeId> = None;
        for &(e, d) in &self.perturbed {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("edge {e} has invalid delta {d}"));
            }
            if !problem.is_perturbable(e) {
                return Err(format!("perturbed edge {e} is not perturbable"));
            }
            if let Some(cap) = problem.edge_cap() {
                if d > cap + 1e-9 {
                    return Err(format!("edge {e} delta {d} exceeds cap {cap}"));
                }
            }
            if prev.is_some_and(|p| p >= e) {
                return Err(format!("perturbed edge {e} out of order or duplicated"));
            }
            prev = Some(e);
            cost += inner.cost_of(e) * d;
            delta_sum += d;
        }
        if (cost - self.total_cost).abs() > 1e-6 * cost.max(1.0) {
            return Err(format!(
                "cost mismatch: reported {}, recomputed {}",
                self.total_cost, cost
            ));
        }
        if (delta_sum - self.total_delta).abs() > 1e-6 * delta_sum.max(1.0) {
            return Err(format!(
                "delta mismatch: reported {}, recomputed {}",
                self.total_delta, delta_sum
            ));
        }
        if self.status == AttackStatus::Success {
            let overlay = self.overlay(inner.network().num_edges());
            let mut oracle = Oracle::new(inner);
            if let Some(v) = oracle.next_violating_perturbed(inner, &overlay) {
                return Err(format!(
                    "a violating path of perturbed weight {} remains (p* = {})",
                    v.total_weight(),
                    inner.pstar_weight()
                ));
            }
            if oracle.interrupted() {
                return Err("certification oracle was interrupted".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostType, WeightType};
    use traffic_graph::{EdgeAttrs, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    /// Three parallel routes a→d with weights 4, 6, 10 (as in the cut
    /// oracle tests); p* = the middle route.
    fn three_routes() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("three");
        let a = b.add_node(Point::new(0.0, 0.0));
        let m1 = b.add_node(Point::new(1.0, 2.0));
        let m2 = b.add_node(Point::new(1.0, 0.0));
        let m3 = b.add_node(Point::new(1.0, -2.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, m1, 2.0);
        arc(m1, d, 2.0); // 4
        arc(a, m2, 3.0);
        arc(m2, d, 3.0); // 6
        arc(a, m3, 5.0);
        arc(m3, d, 5.0); // 10
        b.build()
    }

    fn perturb_problem(net: &RoadNetwork) -> PerturbProblem<'_> {
        PerturbProblem::new(
            AttackProblem::with_path_rank(
                net,
                WeightType::Length,
                CostType::Uniform,
                NodeId::new(0),
                NodeId::new(4),
                2,
            )
            .unwrap(),
        )
    }

    #[test]
    fn verify_rejects_tampered_results() {
        let net = three_routes();
        let p = perturb_problem(&net);
        let e = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let delta = p.clearance_weight() - 4.0;
        let good = PerturbResult {
            algorithm: "test".into(),
            perturbed: vec![(e, delta)],
            total_cost: delta,
            total_delta: delta,
            rounds: 1,
            oracle_calls: 2,
            integer_rounded: false,
            runtime: Duration::ZERO,
            status: AttackStatus::Success,
            degraded: Degradation::None,
        };
        good.verify(&p).unwrap();

        // wrong cost
        let mut bad = good.clone();
        bad.total_cost = 0.5;
        assert!(bad.verify(&p).is_err());

        // perturbing p* itself is illegal
        let pstar_edge = p.inner().pstar().edges()[0];
        let mut bad = good.clone();
        bad.perturbed = vec![(pstar_edge, 1.0)];
        bad.total_cost = 1.0;
        bad.total_delta = 1.0;
        assert!(bad.verify(&p).is_err());

        // too small a delta leaves the 4-route violating
        let mut bad = good.clone();
        bad.perturbed = vec![(e, 1.0)];
        bad.total_cost = 1.0;
        bad.total_delta = 1.0;
        assert!(bad.verify(&p).is_err());

        // cap violations are caught
        let capped = perturb_problem(&net).with_edge_cap(delta / 2.0);
        assert!(good.verify(&capped).is_err());
    }

    #[test]
    fn clearance_weight_exceeds_violating_threshold() {
        let net = three_routes();
        let p = perturb_problem(&net);
        assert!(p.clearance_weight() > p.inner().pstar_weight() + p.inner().tie_margin());
    }
}
