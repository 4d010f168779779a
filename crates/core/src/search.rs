//! The violating-path oracle shared by both attack modalities.
//!
//! Every algorithm in the paper iterates "find a path that is still at
//! least as short as `p*`, then cut something on it"; PATHPERTURB
//! iterates the same query and lengthens something instead. The oracle
//! answers it efficiently:
//!
//! - the main s→t query runs A\* guided by exact distances-to-target
//!   computed once on the pre-attack view (removals and non-negative
//!   weight increases only lengthen paths, so the heuristic stays
//!   admissible for the entire attack);
//! - when the shortest path *is* `p*` itself, exclusivity still requires
//!   checking for ties, so the oracle computes the best path distinct
//!   from `p*` with a Yen-style spur pass along `p*`.

use crate::{faults, AttackProblem};
use routing::{
    acquire_scratch, CancelToken, Direction, Path, RepairTable, ScratchGuard, WeightOverlay,
};
use std::sync::Arc;
use traffic_graph::{EdgeId, GraphView, NodeId};

/// Reusable search state for one attack run.
///
/// The oracle also enforces the problem's [`crate::RunLimits`]: the
/// deadline clock starts at [`Oracle::new`] and is shared with every
/// inner search via a [`CancelToken`], and the oracle-call cap trips
/// after that many [`Oracle::next_violating`] queries. A tripped limit
/// makes `next_violating` return `None` — exactly the shape of a
/// successful attack — so every caller must check
/// [`Oracle::interrupted`] before treating `None` as success.
#[derive(Debug)]
pub struct Oracle {
    scratch: ScratchGuard,
    /// Exact distance from every node to the target on the pre-attack
    /// view (admissible heuristic for all later views). Shared with the
    /// problem's [`crate::TargetContext`] when one matches, owned
    /// otherwise.
    rev: Arc<Vec<f64>>,
    /// Shortest-path-tree parents of `rev`: the baseline of `repair`.
    rev_parent: Arc<Vec<u32>>,
    /// Decrementally repaired exact distances on the *current* mutated
    /// view, built by the first cut query when the problem enables
    /// repair. The intact table `rev` stays the A\* ordering heuristic —
    /// same expansion order, same tie-breaks — while the repaired table
    /// prunes relaxations that provably cannot finish within the
    /// violating bound.
    repair: Option<RepairTable>,
    cancel: Option<CancelToken>,
    max_calls: Option<u64>,
    calls: u64,
    exhausted: bool,
}

impl Oracle {
    /// Builds the oracle for `problem`. When the problem carries a
    /// matching [`crate::TargetContext`], its reverse-distance table is
    /// reused (`pathattack.reuse.rev_dij.hit`); otherwise one backward
    /// Dijkstra runs here (`pathattack.reuse.rev_dij.miss`). If the
    /// problem has a deadline, its clock starts here (an owned backward
    /// sweep counts against it).
    pub fn new(problem: &AttackProblem<'_>) -> Self {
        let _timer = obs::span("pathattack.oracle.build");
        let limits = problem.limits();
        let cancel = limits.deadline.map(CancelToken::deadline_in);
        let net = problem.network();
        let mut scratch = acquire_scratch(net.num_nodes());
        let (rev, rev_parent) = match problem.target_context().filter(|c| c.matches(problem)) {
            Some(ctx) => {
                obs::inc("pathattack.reuse.rev_dij.hit");
                obs::trace::point(
                    "oracle.rev_table",
                    &[("outcome", obs::AttrValue::Str("hit".into()))],
                );
                (ctx.rev().clone(), ctx.rev_parent().clone())
            }
            None => {
                obs::inc("pathattack.reuse.rev_dij.miss");
                obs::trace::point(
                    "oracle.rev_table",
                    &[("outcome", obs::AttrValue::Str("miss".into()))],
                );
                scratch.dijkstra.set_cancel(cancel.clone());
                let (d, p) = scratch.dijkstra.distances_and_parents(
                    problem.base_view(),
                    |e| problem.weight_of(e),
                    problem.target(),
                    Direction::Backward,
                );
                (Arc::new(d), Arc::new(p))
            }
        };
        scratch.astar.set_cancel(cancel.clone());
        Oracle {
            scratch,
            rev,
            rev_parent,
            repair: None,
            cancel,
            max_calls: limits.max_oracle_calls,
            calls: 0,
            exhausted: false,
        }
    }

    /// Whether a run limit has fired. After a `None` from
    /// [`Oracle::next_violating`], this distinguishes "the attack
    /// succeeded" (`false`) from "the run must end with
    /// [`crate::AttackStatus::TimedOut`]" (`true`).
    pub fn interrupted(&self) -> bool {
        self.exhausted || self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// Number of [`Oracle::next_violating`] queries issued so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Shortest s→t path in `view` under the problem's weights.
    pub fn shortest(&mut self, problem: &AttackProblem<'_>, view: &GraphView<'_>) -> Option<Path> {
        let rev = &self.rev;
        self.scratch.astar.shortest_path(
            view,
            |e| problem.weight_of(e),
            |v| rev[v.index()],
            problem.source(),
            problem.target(),
        )
    }

    /// Cheapest s→t path in `view` that differs from `p*` in at least
    /// one edge. `None` when `p*` is the only remaining s→t path.
    ///
    /// With repair enabled, searches are additionally pruned with exact
    /// distances on `view` (repaired decrementally, not re-swept), and
    /// any alternative strictly beyond the violating threshold may come
    /// back as `None` instead of a too-long path. Every caller treats
    /// the two identically — a too-long alternative and no alternative
    /// both mean "`p*` is exclusively shortest" — so attack records and
    /// CSVs are byte-identical with repair on or off.
    pub fn best_alternative(
        &mut self,
        problem: &AttackProblem<'_>,
        view: &GraphView<'_>,
    ) -> Option<Path> {
        if problem.repair() {
            // The repair baseline may include the base view's pre-attack
            // removals; syncing to views that keep those removals treats
            // them as non-tree no-ops, so the table stays exact. (A
            // baseline truncated by an already-expired deadline is fine
            // too: every later search is cancelled by the same token.)
            let rep = self.repair.get_or_insert_with(|| {
                RepairTable::new(
                    problem.target(),
                    self.rev.clone(),
                    self.rev_parent.clone(),
                    problem.network().num_edges(),
                )
            });
            let out = rep.sync(view, |e| problem.weight_of(e));
            let outcome = if out.rebuilt {
                obs::inc("pathattack.reuse.repair.full_fallback");
                "full_fallback"
            } else {
                obs::inc("pathattack.reuse.repair.hit");
                "hit"
            };
            obs::trace::point(
                "oracle.repair",
                &[("outcome", obs::AttrValue::Str(outcome.into()))],
            );
        }
        // Exact current-view distances, used only to prune.
        let prune = self.repair.as_ref().map(RepairTable::dist);
        best_alternative_under(
            &mut self.scratch,
            &self.rev,
            problem,
            view,
            |e| problem.weight_of(e),
            prune,
        )
    }

    /// The next violating path: the cheapest s→t path distinct from `p*`
    /// whose weight does not exceed `w(p*)` (within the tie margin).
    /// `None` means the attack has succeeded — `p*` is the exclusive
    /// shortest path.
    pub fn next_violating(
        &mut self,
        problem: &AttackProblem<'_>,
        view: &GraphView<'_>,
    ) -> Option<Path> {
        if !self.begin_call() {
            return None;
        }
        let alt = self.best_alternative(problem, view)?;
        problem.is_violating(&alt).then_some(alt)
    }

    /// [`Oracle::next_violating`] for the PATHPERTURB modality: searches
    /// the problem's base view under the perturbed weights `w + δ`
    /// instead of a mutated view. `None` means `p*` is the exclusive
    /// shortest path under `w + δ` (check [`Oracle::interrupted`]
    /// first, exactly as for cuts).
    ///
    /// Paths are built under the perturbed weights while `w(p*)` stays
    /// unperturbed (`p*` edges are never perturbable), so the problem's
    /// violation test is exactly the PATHPERTURB goal.
    ///
    /// With repair enabled the searches are pruned as for cuts, by exact
    /// base-weight distances to the target on the base view. On that
    /// view the repair table would hold exactly the reverse table (there
    /// is nothing to repair), so the reverse table prunes directly and
    /// no repair table is built. The
    /// pruning is sound because [`WeightOverlay::set`] only admits
    /// `δ ≥ 0`: every path is at least as long under `w + δ` as under
    /// `w`, so base distances lower-bound perturbed ones, and the
    /// answers match repair off bit for bit.
    pub fn next_violating_perturbed(
        &mut self,
        problem: &AttackProblem<'_>,
        overlay: &WeightOverlay,
    ) -> Option<Path> {
        if !self.begin_call() {
            return None;
        }
        let prune = problem.repair().then_some(&self.rev[..]);
        let alt = best_alternative_under(
            &mut self.scratch,
            &self.rev,
            problem,
            problem.base_view(),
            |e| problem.weight_of(e) + overlay.delta(e),
            prune,
        )?;
        problem.is_violating(&alt).then_some(alt)
    }

    /// Counts one query against the run limits. `false` means a limit
    /// has fired and the query must return `None`.
    fn begin_call(&mut self) -> bool {
        faults::before_oracle_call();
        self.calls += 1;
        if self.max_calls.is_some_and(|max| self.calls > max) {
            self.exhausted = true;
            if let Some(t) = &self.cancel {
                t.cancel();
            }
            return false;
        }
        if self.interrupted() {
            return false;
        }
        obs::inc("pathattack.oracle.calls");
        obs::trace::point("oracle.call", &[("call", obs::AttrValue::U64(self.calls))]);
        true
    }

    /// Distance from `node` to the target on the pre-attack view.
    pub fn reverse_distance(&self, node: NodeId) -> f64 {
        self.rev[node.index()]
    }
}

/// A\* from `from` to `to` guided by `rev`; with `prune = (dist, bound)`
/// (exact distances-to-target that lower-bound those under `weight`),
/// relaxations that cannot finish within `bound` are skipped.
fn search(
    scratch: &mut ScratchGuard,
    rev: &[f64],
    view: &GraphView<'_>,
    weight: impl Fn(EdgeId) -> f64,
    from: NodeId,
    to: NodeId,
    prune: Option<(&[f64], f64)>,
) -> Option<Path> {
    let h = |v: NodeId| rev[v.index()];
    match prune {
        Some((dist, bound)) => scratch
            .astar
            .shortest_path_bounded(view, weight, h, from, to, dist, bound),
        None => scratch.astar.shortest_path(view, weight, h, from, to),
    }
}

/// The cheapest s→t path in `view` under `weight` that differs from
/// `p*`: the shared body of [`Oracle::best_alternative`] and
/// [`Oracle::next_violating_perturbed`].
///
/// `prune`, when given, must hold exact distances to the target that
/// lower-bound every distance under `weight` in `view`; an alternative
/// beyond the violating threshold may then come back as `None`.
fn best_alternative_under(
    scratch: &mut ScratchGuard,
    rev: &[f64],
    problem: &AttackProblem<'_>,
    view: &GraphView<'_>,
    weight: impl Fn(EdgeId) -> f64 + Copy,
    prune: Option<&[f64]>,
) -> Option<Path> {
    // Prune bound: one tie margin beyond the violating threshold
    // (`pstar_weight + tie_margin`), so float noise in the pruning
    // sums can never touch a path any caller would accept.
    let bound = problem.pstar_weight() + 2.0 * problem.tie_margin();
    let target = problem.target();
    let shortest = search(
        scratch,
        rev,
        view,
        weight,
        problem.source(),
        target,
        prune.map(|d| (d, bound)),
    )?;
    if shortest.edges() != problem.pstar().edges() {
        return Some(shortest);
    }
    // Shortest == p*: find the best deviation with a spur pass.
    let pstar = problem.pstar();
    let net = problem.network();
    let mut work = view.clone();
    let mut best: Option<Path> = None;

    let mut prefix_w = Vec::with_capacity(pstar.len() + 1);
    prefix_w.push(0.0);
    for &e in pstar.edges() {
        prefix_w.push(prefix_w.last().unwrap() + weight(e));
    }
    let mut spur_searches: u64 = 0;
    let mut spur_skips: u64 = 0;

    #[allow(clippy::needless_range_loop)] // i indexes nodes, edges and prefix weights together
    for i in 0..pstar.len() {
        let spur_node = pstar.nodes()[i];
        if let Some(dist) = prune {
            // The pruning distance lower-bounds any spur completion (the
            // spur view only removes more edges), and `best` is only
            // ever replaced by a strictly cheaper path — so once the
            // bound says this spur cannot beat `best`, the search's
            // outcome is already decided and it can be skipped without
            // touching the records.
            let decided = best
                .as_ref()
                .is_some_and(|b| prefix_w[i] + dist[spur_node.index()] >= b.total_weight());
            if decided {
                spur_skips += 1;
                continue;
            }
        }
        // Pooled buffer instead of a per-spur allocation.
        let mut removed = std::mem::take(&mut scratch.spur_removed);
        removed.clear();
        // force a deviation at index i
        if work.remove_edge(pstar.edges()[i]) {
            removed.push(pstar.edges()[i]);
        }
        // keep the deviation simple: no re-entry into the prefix
        for &v in &pstar.nodes()[..i] {
            for e in net.out_edges(v) {
                if work.remove_edge(e) {
                    removed.push(e);
                }
            }
        }
        spur_searches += 1;
        let spur = search(
            scratch,
            rev,
            &work,
            weight,
            spur_node,
            target,
            prune.map(|d| (d, bound - prefix_w[i])),
        );
        if let Some(spur) = spur {
            let total = prefix_w[i] + spur.total_weight();
            if best.as_ref().is_none_or(|b| total < b.total_weight()) {
                let mut edges = pstar.edges()[..i].to_vec();
                edges.extend_from_slice(spur.edges());
                let joined =
                    Path::from_edges(net, edges, weight).expect("prefix + spur is contiguous");
                best = Some(joined);
            }
        }
        for &e in &removed {
            work.restore_edge(e);
        }
        scratch.spur_removed = removed;
    }
    obs::add("pathattack.oracle.spur_searches", spur_searches);
    obs::add("pathattack.oracle.spur_skips", spur_skips);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostType, WeightType};
    use traffic_graph::{EdgeAttrs, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    /// Three parallel routes a→d with weights 4, 6, 10.
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

    fn problem(net: &RoadNetwork) -> AttackProblem<'_> {
        // p* = the middle route (weight 6)
        AttackProblem::with_path_rank(
            net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(4),
            2,
        )
        .unwrap()
    }

    #[test]
    fn next_violating_finds_shorter_route() {
        let net = three_routes();
        let p = problem(&net);
        assert_eq!(p.pstar_weight(), 6.0);
        let mut oracle = Oracle::new(&p);
        let view = p.base_view().clone();
        let v = oracle.next_violating(&p, &view).expect("route 4 violates");
        assert_eq!(v.total_weight(), 4.0);
    }

    #[test]
    fn no_violating_after_cutting_shorter_route() {
        let net = three_routes();
        let p = problem(&net);
        let mut oracle = Oracle::new(&p);
        let mut view = p.base_view().clone();
        // cut the 4-route's first edge
        let e = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        view.remove_edge(e);
        assert!(oracle.next_violating(&p, &view).is_none());
    }

    #[test]
    fn best_alternative_when_shortest_is_pstar() {
        let net = three_routes();
        let p = problem(&net).with_repair(false);
        let mut oracle = Oracle::new(&p);
        let mut view = p.base_view().clone();
        let e = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        view.remove_edge(e);
        // shortest is now p* (6); best alternative must be the 10-route
        let alt = oracle.best_alternative(&p, &view).unwrap();
        assert_eq!(alt.total_weight(), 10.0);
        assert_ne!(alt.edges(), p.pstar().edges());

        // With repair on, the 10-route lies beyond the violating bound
        // and may be pruned to None — the documented equivalence: every
        // caller treats "too long" and "no alternative" identically, as
        // next_violating shows for both modes.
        let p_rep = problem(&net);
        let mut oracle_rep = Oracle::new(&p_rep);
        assert!(oracle_rep.best_alternative(&p_rep, &view).is_none());
        assert!(oracle_rep.next_violating(&p_rep, &view).is_none());
        assert!(oracle.next_violating(&p, &view).is_none());
    }

    #[test]
    fn best_alternative_none_when_pstar_unique() {
        let net = three_routes();
        let p = problem(&net);
        let mut oracle = Oracle::new(&p);
        let mut view = p.base_view().clone();
        for (u, v) in [(0usize, 1usize), (0, 3)] {
            view.remove_edge(net.find_edge(NodeId::new(u), NodeId::new(v)).unwrap());
        }
        assert!(oracle.best_alternative(&p, &view).is_none());
    }

    #[test]
    fn call_cap_zero_interrupts_first_query() {
        let net = three_routes();
        let p = problem(&net).with_limits(crate::RunLimits::default().with_max_oracle_calls(0));
        let mut oracle = Oracle::new(&p);
        assert!(!oracle.interrupted());
        let view = p.base_view().clone();
        // There IS a violating route, but the cap makes the query return
        // None — interrupted() is what keeps this from looking like
        // success.
        assert!(oracle.next_violating(&p, &view).is_none());
        assert!(oracle.interrupted());
        assert_eq!(oracle.calls(), 1);
    }

    #[test]
    fn expired_deadline_interrupts() {
        let net = three_routes();
        let p = problem(&net)
            .with_limits(crate::RunLimits::default().with_deadline(std::time::Duration::ZERO));
        let mut oracle = Oracle::new(&p);
        let view = p.base_view().clone();
        assert!(oracle.next_violating(&p, &view).is_none());
        assert!(oracle.interrupted());
    }

    #[test]
    fn unlimited_oracle_never_interrupts() {
        let net = three_routes();
        let p = problem(&net);
        let mut oracle = Oracle::new(&p);
        let view = p.base_view().clone();
        assert!(oracle.next_violating(&p, &view).is_some());
        assert!(!oracle.interrupted());
    }

    #[test]
    fn shared_context_oracle_matches_owned_sweep() {
        let net = three_routes();
        let ctx = Arc::new(crate::TargetContext::build(
            &net,
            WeightType::Length,
            NodeId::new(4),
        ));
        let p_owned = problem(&net);
        let p_shared = AttackProblem::with_path_rank_in(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(4),
            2,
            &ctx,
        )
        .unwrap();
        assert_eq!(p_owned.pstar().edges(), p_shared.pstar().edges());
        assert!(ctx.matches(&p_shared));

        let mut owned = Oracle::new(&p_owned);
        let mut shared = Oracle::new(&p_shared);
        // The shared table must be bitwise identical to the owned sweep.
        for v in 0..5 {
            assert_eq!(
                owned.reverse_distance(NodeId::new(v)).to_bits(),
                shared.reverse_distance(NodeId::new(v)).to_bits(),
            );
        }
        let view_o = p_owned.base_view().clone();
        let view_s = p_shared.base_view().clone();
        let a = owned.next_violating(&p_owned, &view_o).unwrap();
        let b = shared.next_violating(&p_shared, &view_s).unwrap();
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.total_weight().to_bits(), b.total_weight().to_bits());
    }

    #[test]
    fn ties_count_as_violating() {
        // two disjoint routes of identical weight; p* = rank-2 (tied)
        let mut b = RoadNetworkBuilder::new("tie");
        let a = b.add_node(Point::new(0.0, 0.0));
        let m1 = b.add_node(Point::new(1.0, 1.0));
        let m2 = b.add_node(Point::new(1.0, -1.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, m1, 2.0);
        arc(m1, d, 2.0);
        arc(a, m2, 2.0);
        arc(m2, d, 2.0);
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
        let mut oracle = Oracle::new(&p);
        let view = p.base_view().clone();
        // the tied sibling must be reported as violating
        let v = oracle.next_violating(&p, &view).expect("tie violates");
        assert_eq!(v.total_weight(), p.pstar_weight());
    }

    fn perturb_problem(net: &RoadNetwork) -> crate::PerturbProblem<'_> {
        crate::PerturbProblem::new(problem(net))
    }

    #[test]
    fn perturb_oracle_sees_shorter_route_then_clears() {
        let net = three_routes();
        let p = perturb_problem(&net);
        let mut oracle = Oracle::new(p.inner());
        let mut overlay = WeightOverlay::new(net.num_edges());
        let v = oracle
            .next_violating_perturbed(p.inner(), &overlay)
            .expect("route 4 violates");
        assert_eq!(v.total_weight(), 4.0);

        // push the 4-route past the clearance weight
        let e = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        overlay.set(e, p.clearance_weight() - 4.0);
        assert!(oracle
            .next_violating_perturbed(p.inner(), &overlay)
            .is_none());
        assert!(!oracle.interrupted());
    }

    #[test]
    fn perturb_spur_pass_reports_perturbed_tie_breaker() {
        // Raise the 4-route exactly to w(p*): it ties, stays violating.
        for repair in [false, true] {
            let net = three_routes();
            let p = problem(&net).with_repair(repair);
            let mut oracle = Oracle::new(&p);
            let mut overlay = WeightOverlay::new(net.num_edges());
            let e = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
            overlay.set(e, 2.0); // 4-route now weighs 6 == w(p*)
            let v = oracle
                .next_violating_perturbed(&p, &overlay)
                .expect("tie violates");
            assert_eq!(v.total_weight(), 6.0);
            assert_ne!(v.edges(), p.pstar().edges());
        }
    }

    #[test]
    fn perturb_call_cap_zero_interrupts_first_query() {
        let net = three_routes();
        let p = problem(&net).with_limits(crate::RunLimits::default().with_max_oracle_calls(0));
        let mut oracle = Oracle::new(&p);
        let overlay = WeightOverlay::new(net.num_edges());
        assert!(oracle.next_violating_perturbed(&p, &overlay).is_none());
        assert!(oracle.interrupted());
        assert_eq!(oracle.calls(), 1);
    }

    /// Pruning under overlays never changes an answer: on a preset city,
    /// random non-negative overlays (some lifting an alternative to
    /// exactly `w(p*)`) give the same violating path, edge for edge and
    /// weight bit for weight bit, with repair on and off.
    #[test]
    fn perturb_pruning_matches_unpruned_under_random_overlays() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use traffic_graph::PoiKind;

        let city = citygen::CityPreset::Boston.build(citygen::Scale::Small, 3);
        let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut checked = 0;
        let mut ties = 0;
        for _ in 0..12 {
            let source = NodeId::new(rng.gen_range(0..city.num_nodes()));
            let Ok(base) = AttackProblem::with_path_rank(
                &city,
                WeightType::Time,
                CostType::Uniform,
                source,
                hospital,
                6,
            ) else {
                continue;
            };
            let on = base.clone().with_repair(true);
            let off = base.with_repair(false);
            let mut oracle_on = Oracle::new(&on);
            let mut oracle_off = Oracle::new(&off);
            let mut overlay = WeightOverlay::new(city.num_edges());
            // Grow a random overlay; every few rounds lift the current
            // violating path to exactly w(p*) so ties are exercised.
            for round in 0..8 {
                let a = oracle_on.next_violating_perturbed(&on, &overlay);
                let b = oracle_off.next_violating_perturbed(&off, &overlay);
                assert_eq!(
                    a.as_ref()
                        .map(|p| (p.edges().to_vec(), p.total_weight().to_bits())),
                    b.as_ref()
                        .map(|p| (p.edges().to_vec(), p.total_weight().to_bits())),
                    "repair on/off disagree at round {round}"
                );
                checked += 1;
                let Some(path) = a else { break };
                let lift = path
                    .edges()
                    .iter()
                    .copied()
                    .find(|&e| on.is_cuttable(e) && !on.is_on_pstar(e));
                match lift {
                    Some(e) if round % 3 == 1 => {
                        let gap = on.pstar_weight() - path.total_weight();
                        overlay.set(e, (overlay.delta(e) + gap).max(0.0));
                        ties += 1;
                    }
                    _ => {
                        for _ in 0..4 {
                            let e = traffic_graph::EdgeId::new(rng.gen_range(0..city.num_edges()));
                            if on.is_cuttable(e) {
                                overlay.set(e, overlay.delta(e) + rng.gen_range(0.0..30.0));
                            }
                        }
                        if let Some(e) = lift {
                            overlay.set(e, overlay.delta(e) + rng.gen_range(0.0..60.0));
                        }
                    }
                }
            }
        }
        assert!(checked >= 20, "only {checked} comparisons");
        assert!(ties > 0, "no tie at w(p*) was exercised");
    }
}
