//! The `LP-Perturb` algorithm: minimum-cost weight perturbation by
//! constraint generation.

use crate::perturb::{PerturbProblem, PerturbResult};
use crate::{faults, AttackStatus, Degradation, Oracle};
use lp::{ConstraintOp, Outcome, Problem as LpProblem};
use routing::{Path, WeightOverlay};
use std::collections::HashMap;
use std::time::Instant;
use traffic_graph::EdgeId;

/// Deltas below this are dropped when a fractional solution is applied
/// to the overlay (matches the simplex feasibility tolerance). If the
/// dropped slack ever matters, the oracle finds the still-violating
/// path again and the greedy bump repairs it, so convergence is safe.
const EPS: f64 = 1e-9;

/// Outcome of one perturbation-LP solve, classified for the fallback
/// chain.
#[derive(Debug, Clone, PartialEq)]
enum PerturbRelaxation {
    /// Fractional deltas per edge — apply them and re-query the oracle.
    Solved(HashMap<EdgeId, f64>),
    /// The caps make the discovered constraints unsatisfiable: no
    /// assignment of capped deltas lengthens every violating path past
    /// the clearance weight. Genuinely [`AttackStatus::Stuck`].
    Infeasible,
    /// The solver failed to produce an optimum (iteration-limit stall,
    /// or a numerically degenerate report the formulation cannot
    /// produce organically). The caller degrades to greedy bumping.
    Degenerate(&'static str),
}

/// LP-relaxation perturbation attack with constraint generation
/// (PATHPERTURB; "Optimal Edge Weight Perturbations to Attack Shortest
/// Paths", Miller et al., adapted to directed road networks).
///
/// The exact problem — find non-negative per-edge weight increases of
/// minimum total cost such that `p*` becomes uniquely shortest — has
/// one constraint per competing s→t path, which is factorially large.
/// Constraint generation sidesteps that, mirroring
/// [`crate::LpPathCover`]: only paths actually discovered as
/// *violating* become LP rows. Each round:
///
/// 1. the [`Oracle`] searches under `base + overlay`
///    ([`Oracle::next_violating_perturbed`]); if no
///    violating path remains, the attack succeeded;
/// 2. the new violating path `p` adds the row
///    `Σ_{e ∈ p, perturbable} δ_e ≥ clearance − w_base(p)` (clearance
///    is `w(p*)` plus twice the tie margin, so float noise can never
///    drop a fixed path back into violation);
/// 3. the LP (`min Σ cost·δ`, `0 ≤ δ_e ≤ cap`) is re-solved over all
///    discovered rows and the overlay replaced wholesale with the new
///    fractional optimum — the LP's global view is what makes the
///    final perturbation near-optimal rather than greedy.
///
/// Fallbacks: a stalled or degenerate LP degrades to *greedy bumping*
/// (raise the cheapest perturbable edges of the still-violating path by
/// the remaining gap, reported as
/// [`Degradation::LpGreedyRounding`]); an LP infeasibility under
/// per-edge caps is a genuine [`AttackStatus::Stuck`]; a total cost
/// above the problem's budget is [`AttackStatus::BudgetExhausted`].
/// With [`PerturbProblem::with_integer_rounding`], a ceil post-pass
/// runs after success and is kept only if a fresh oracle re-certifies
/// feasibility (and the budget still holds).
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
///     &city, WeightType::Length, CostType::Lanes, NodeId::new(0), hospital, 10,
/// ).unwrap();
/// let problem = PerturbProblem::new(inner);
/// let result = LpPerturb::default().attack(&problem);
/// assert!(result.is_success());
/// result.verify(&problem).unwrap();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LpPerturb {
    /// Safety cap on constraint-generation rounds; hitting it ends the
    /// run with [`AttackStatus::TimedOut`]. The oracle-call cap and
    /// deadline in [`crate::RunLimits`] are the intended limits — this
    /// is a backstop against pathological non-convergence.
    pub max_rounds: usize,
}

impl Default for LpPerturb {
    fn default() -> Self {
        LpPerturb { max_rounds: 1024 }
    }
}

impl LpPerturb {
    /// Stable algorithm name (CSV column, CLI `--algorithm lp-perturb`).
    pub fn name(&self) -> &'static str {
        "LP-Perturb"
    }

    /// Solves the perturbation LP over the discovered constraint rows.
    /// Each row is `(path, needed)` with `needed = clearance −
    /// w_base(path)`.
    fn solve_relaxation(
        problem: &PerturbProblem<'_>,
        constraints: &[(Path, f64)],
    ) -> PerturbRelaxation {
        // Variables: perturbable edges appearing in at least one row.
        let mut var_of: HashMap<EdgeId, usize> = HashMap::new();
        let mut edges: Vec<EdgeId> = Vec::new();
        for (path, _) in constraints {
            for &e in path.edges() {
                if problem.is_perturbable(e) && !var_of.contains_key(&e) {
                    var_of.insert(e, edges.len());
                    edges.push(e);
                }
            }
        }
        let inner = problem.inner();
        let mut lp = LpProblem::minimize(edges.iter().map(|&e| inner.cost_of(e)).collect());
        if let Some(cap) = problem.edge_cap() {
            for v in 0..edges.len() {
                lp.bound_var(v, cap);
            }
        }
        for (path, needed) in constraints {
            let mut coeff: HashMap<usize, f64> = HashMap::new();
            for e in path.edges() {
                if let Some(&v) = var_of.get(e) {
                    *coeff.entry(v).or_insert(0.0) += 1.0;
                }
            }
            let mut terms: Vec<(usize, f64)> = coeff.into_iter().collect();
            terms.sort_by_key(|&(v, _)| v);
            lp.add_constraint(terms, ConstraintOp::Ge, *needed);
        }
        if faults::lp_stall_requested() {
            lp.set_iteration_limit(0);
        }
        match lp.solve() {
            Outcome::Optimal(sol) => {
                PerturbRelaxation::Solved(edges.iter().copied().zip(sol.x).collect())
            }
            // Without caps the LP is trivially feasible (raise any
            // perturbable edge far enough), so an Infeasible report is
            // numerical noise; with caps it is a real certificate.
            Outcome::Infeasible if problem.edge_cap().is_some() => PerturbRelaxation::Infeasible,
            Outcome::Infeasible => PerturbRelaxation::Degenerate("infeasible"),
            // Costs are non-negative and deltas bounded below, so an
            // unbounded report is always degeneracy.
            Outcome::Unbounded => PerturbRelaxation::Degenerate("unbounded"),
            Outcome::IterationLimit => PerturbRelaxation::Degenerate("iteration_limit"),
        }
    }

    /// Greedy fallback step: push `path` past the clearance weight by
    /// raising its cheapest perturbable edges (cap-aware), on top of the
    /// current overlay. Returns `false` when the caps leave the gap
    /// uncloseable.
    fn greedy_bump(problem: &PerturbProblem<'_>, overlay: &mut WeightOverlay, path: &Path) -> bool {
        let inner = problem.inner();
        let perturbed_w: f64 = path
            .edges()
            .iter()
            .map(|&e| inner.weight_of(e) + overlay.delta(e))
            .sum();
        let mut gap = (problem.clearance_weight() - perturbed_w).max(inner.tie_margin());
        let mut cands: Vec<EdgeId> = path
            .edges()
            .iter()
            .copied()
            .filter(|&e| problem.is_perturbable(e))
            .collect();
        cands.sort_by(|&a, &b| {
            inner
                .cost_of(a)
                .total_cmp(&inner.cost_of(b))
                .then(a.cmp(&b))
        });
        obs::inc("pathattack.perturb.bumps");
        for e in cands {
            let headroom = problem
                .edge_cap()
                .map_or(f64::INFINITY, |c| c - overlay.delta(e));
            if headroom <= 0.0 {
                continue;
            }
            let add = gap.min(headroom);
            overlay.set(e, overlay.delta(e) + add);
            gap -= add;
            if gap <= 0.0 {
                return true;
            }
        }
        false
    }

    /// Total perturbation cost of the current overlay.
    fn overlay_cost(problem: &PerturbProblem<'_>, overlay: &WeightOverlay) -> f64 {
        overlay
            .perturbed_edges()
            .map(|(e, d)| problem.inner().cost_of(e) * d)
            .sum()
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        problem: &PerturbProblem<'_>,
        overlay: &WeightOverlay,
        started: Instant,
        rounds: usize,
        oracle_calls: u64,
        status: AttackStatus,
        degraded: Degradation,
        integer_rounded: bool,
    ) -> PerturbResult {
        if degraded != Degradation::None && obs::enabled() {
            obs::inc("pathattack.attack.degraded");
        }
        let perturbed: Vec<(EdgeId, f64)> = overlay.perturbed_edges().collect();
        let total_cost = Self::overlay_cost(problem, overlay);
        let total_delta = perturbed.iter().map(|&(_, d)| d).sum();
        PerturbResult {
            algorithm: self.name().to_string(),
            perturbed,
            total_cost,
            total_delta,
            rounds,
            oracle_calls,
            integer_rounded,
            runtime: started.elapsed(),
            status,
            degraded,
        }
    }

    /// Runs the attack. See the type-level docs for the round structure
    /// and the fallback chain.
    pub fn attack(&self, problem: &PerturbProblem<'_>) -> PerturbResult {
        let started = Instant::now();
        let inner = problem.inner();
        let net = inner.network();
        let mut oracle = Oracle::new(inner);
        let mut overlay = WeightOverlay::new(net.num_edges());
        let mut constraints: Vec<(Path, f64)> = Vec::new();
        let mut degraded = Degradation::None;
        let mut rounds = 0usize;
        let clearance = problem.clearance_weight();

        let status = loop {
            match oracle.next_violating_perturbed(inner, &overlay) {
                None if oracle.interrupted() => break AttackStatus::TimedOut,
                None => break AttackStatus::Success,
                Some(p) => {
                    rounds += 1;
                    obs::inc("pathattack.perturb.rounds");
                    if rounds > self.max_rounds {
                        break AttackStatus::TimedOut;
                    }
                    if !p.edges().iter().any(|&e| problem.is_perturbable(e)) {
                        // e.g. a violating path entirely over artificial
                        // connectors — no perturbation can touch it.
                        break AttackStatus::Stuck;
                    }
                    let known = constraints.iter().any(|(q, _)| q.edges() == p.edges());
                    if known || degraded == Degradation::LpGreedyRounding {
                        // Either the LP already degraded, or its latest
                        // solution failed to clear an already-known path
                        // (EPS-dropped slack or numerical wedge): bump
                        // the path directly. Bumps only ever increase
                        // deltas, so previously cleared paths stay
                        // cleared.
                        if known && degraded == Degradation::None {
                            obs::inc("pathattack.perturb.lp.wedged");
                        }
                        degraded = Degradation::LpGreedyRounding;
                        if !Self::greedy_bump(problem, &mut overlay, &p) {
                            break AttackStatus::Stuck;
                        }
                    } else {
                        let needed =
                            clearance - p.edges().iter().map(|&e| inner.weight_of(e)).sum::<f64>();
                        constraints.push((p, needed));
                        obs::record_value(
                            "pathattack.perturb.constraint_paths",
                            constraints.len() as u64,
                        );
                        let relaxed = {
                            let _timer = obs::span("pathattack.perturb.relaxation");
                            Self::solve_relaxation(problem, &constraints)
                        };
                        match relaxed {
                            PerturbRelaxation::Solved(x) => {
                                overlay.clear();
                                for (e, d) in x {
                                    if d > EPS {
                                        overlay.set(e, d);
                                    }
                                }
                            }
                            PerturbRelaxation::Infeasible => break AttackStatus::Stuck,
                            PerturbRelaxation::Degenerate(reason) => {
                                obs::inc("pathattack.perturb.lp.degenerate");
                                obs::inc(match reason {
                                    "infeasible" => "pathattack.perturb.lp.degenerate.infeasible",
                                    "unbounded" => "pathattack.perturb.lp.degenerate.unbounded",
                                    _ => "pathattack.perturb.lp.degenerate.iteration_limit",
                                });
                                degraded = Degradation::LpGreedyRounding;
                                let (p, _) = constraints.last().expect("just pushed");
                                if !Self::greedy_bump(problem, &mut overlay, &p.clone()) {
                                    break AttackStatus::Stuck;
                                }
                            }
                        }
                    }
                    if let Some(budget) = inner.budget() {
                        if Self::overlay_cost(problem, &overlay) > budget + 1e-9 {
                            break AttackStatus::BudgetExhausted;
                        }
                    }
                }
            }
        };
        let mut oracle_calls = oracle.calls();

        // Integer-rounding post-pass: ceil every delta (cap-clamped) and
        // keep the rounded vector only if a fresh oracle re-certifies it
        // and the budget still holds.
        let mut integer_rounded = false;
        if status == AttackStatus::Success && problem.integer_rounding() && !overlay.is_empty() {
            let mut rounded = WeightOverlay::new(net.num_edges());
            for (e, d) in overlay.perturbed_edges() {
                let r = match problem.edge_cap() {
                    Some(cap) => d.ceil().min(cap),
                    None => d.ceil(),
                };
                rounded.set(e, r.max(d));
            }
            let within_budget = inner
                .budget()
                .is_none_or(|b| Self::overlay_cost(problem, &rounded) <= b + 1e-9);
            let mut check = Oracle::new(inner);
            let feasible = within_budget
                && check.next_violating_perturbed(inner, &rounded).is_none()
                && !check.interrupted();
            oracle_calls += check.calls();
            if feasible {
                overlay = rounded;
                integer_rounded = true;
                obs::inc("pathattack.perturb.integer_rounded");
            } else {
                obs::inc("pathattack.perturb.integer_reverted");
            }
        }

        self.finish(
            problem,
            &overlay,
            started,
            rounds,
            oracle_calls,
            status,
            degraded,
            integer_rounded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttackProblem, CostType, RunLimits, WeightType};
    use traffic_graph::{EdgeAttrs, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    /// Three parallel routes a→d with weights 4, 6, 10; p* = the middle
    /// route, so only the 4-route must be lengthened (by 2 + margins).
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

    fn inner(net: &RoadNetwork, cost: CostType) -> AttackProblem<'_> {
        AttackProblem::with_path_rank(
            net,
            WeightType::Length,
            cost,
            NodeId::new(0),
            NodeId::new(4),
            2,
        )
        .unwrap()
    }

    #[test]
    fn lengthens_short_route_at_minimum_cost() {
        let net = three_routes();
        let p = PerturbProblem::new(inner(&net, CostType::Uniform));
        let out = LpPerturb::default().attack(&p);
        assert!(out.is_success(), "{out:?}");
        out.verify(&p).unwrap();
        assert_eq!(out.degraded, Degradation::None);
        // the 4-route needs +2 (plus tie margins) to clear w(p*) = 6
        assert!(
            (out.total_cost - 2.0).abs() < 1e-6,
            "cost {}",
            out.total_cost
        );
        assert!((out.total_delta - 2.0).abs() < 1e-6);
    }

    #[test]
    fn puts_delta_on_cheapest_edge_under_lane_costs() {
        // Same topology, but the 4-route's edges cost 4 and 1 per unit:
        // the whole perturbation must land on the 1-lane edge.
        let mut b = RoadNetworkBuilder::new("lanes");
        let a = b.add_node(Point::new(0.0, 0.0));
        let m1 = b.add_node(Point::new(1.0, 2.0));
        let m2 = b.add_node(Point::new(1.0, 0.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(
            a,
            m1,
            EdgeAttrs::from_class(RoadClass::Primary, 2.0).with_lanes(4),
        );
        b.add_edge(
            m1,
            d,
            EdgeAttrs::from_class(RoadClass::Primary, 2.0).with_lanes(1),
        );
        b.add_edge(
            a,
            m2,
            EdgeAttrs::from_class(RoadClass::Primary, 3.0).with_lanes(2),
        );
        b.add_edge(
            m2,
            d,
            EdgeAttrs::from_class(RoadClass::Primary, 3.0).with_lanes(2),
        );
        let net = b.build();
        let p = PerturbProblem::new(
            AttackProblem::with_path_rank(
                &net,
                WeightType::Length,
                CostType::Lanes,
                NodeId::new(0),
                NodeId::new(3),
                2,
            )
            .unwrap(),
        );
        let out = LpPerturb::default().attack(&p);
        assert!(out.is_success(), "{out:?}");
        out.verify(&p).unwrap();
        assert_eq!(out.num_perturbed(), 1);
        let cheap = net.find_edge(NodeId::new(1), NodeId::new(3)).unwrap();
        assert_eq!(out.perturbed[0].0, cheap);
        assert!((out.total_cost - 2.0).abs() < 1e-6, "{}", out.total_cost);
    }

    #[test]
    fn edge_cap_splits_delta_across_the_path() {
        let net = three_routes();
        let p = PerturbProblem::new(inner(&net, CostType::Uniform)).with_edge_cap(1.5);
        let out = LpPerturb::default().attack(&p);
        assert!(out.is_success(), "{out:?}");
        out.verify(&p).unwrap();
        assert_eq!(out.num_perturbed(), 2, "{:?}", out.perturbed);
        for &(_, d) in &out.perturbed {
            assert!(d <= 1.5 + 1e-9);
        }
        assert!((out.total_delta - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_caps_report_stuck() {
        // Both 4-route edges capped at 0.9: at most +1.8 < the +2
        // needed, so the LP proves infeasibility.
        let net = three_routes();
        let p = PerturbProblem::new(inner(&net, CostType::Uniform)).with_edge_cap(0.9);
        let out = LpPerturb::default().attack(&p);
        assert_eq!(out.status, AttackStatus::Stuck, "{out:?}");
    }

    #[test]
    fn budget_exhaustion_latches() {
        let net = three_routes();
        let p = PerturbProblem::new(inner(&net, CostType::Uniform).with_budget(1.0));
        let out = LpPerturb::default().attack(&p);
        assert_eq!(out.status, AttackStatus::BudgetExhausted, "{out:?}");
    }

    #[test]
    fn integer_rounding_rounds_up_and_recertifies() {
        let net = three_routes();
        let p = PerturbProblem::new(inner(&net, CostType::Uniform)).with_integer_rounding(true);
        let out = LpPerturb::default().attack(&p);
        assert!(out.is_success(), "{out:?}");
        assert!(out.integer_rounded, "{out:?}");
        out.verify(&p).unwrap();
        for &(_, d) in &out.perturbed {
            assert_eq!(d.fract(), 0.0, "non-integer delta {d}");
        }
        // ceil(2 + 2·margin) = 3 on a single edge
        assert!((out.total_delta - 3.0).abs() < 1e-9, "{}", out.total_delta);
    }

    #[test]
    fn injected_lp_stall_degrades_to_greedy_bumping() {
        let plan = crate::FaultPlan::parse("seed=1,lp_stall=1").unwrap();
        faults::install(Some(plan));
        faults::set_run_key("perturb-stall-test");
        let net = three_routes();
        let p = PerturbProblem::new(inner(&net, CostType::Uniform));
        let out = LpPerturb::default().attack(&p);
        faults::clear_run_key();
        faults::install(None);
        assert!(out.is_success(), "{out:?}");
        out.verify(&p).unwrap();
        assert_eq!(out.degraded, Degradation::LpGreedyRounding);
    }

    #[test]
    fn call_cap_times_out_instead_of_hanging() {
        let net = three_routes();
        let p = PerturbProblem::new(
            inner(&net, CostType::Uniform)
                .with_limits(RunLimits::default().with_max_oracle_calls(0)),
        );
        let out = LpPerturb::default().attack(&p);
        assert_eq!(out.status, AttackStatus::TimedOut);
    }

    #[test]
    fn round_backstop_times_out() {
        let net = three_routes();
        let p = PerturbProblem::new(inner(&net, CostType::Uniform));
        let out = LpPerturb { max_rounds: 0 }.attack(&p);
        assert_eq!(out.status, AttackStatus::TimedOut);
    }

    #[test]
    fn stuck_when_violating_path_unperturbable() {
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
        let p = PerturbProblem::new(
            AttackProblem::with_path_rank(
                &net,
                WeightType::Length,
                CostType::Uniform,
                NodeId::new(0),
                NodeId::new(2),
                2,
            )
            .unwrap(),
        );
        let out = LpPerturb::default().attack(&p);
        assert_eq!(out.status, AttackStatus::Stuck);
    }
}
