//! The Force Path Cut problem instance (paper §II-B).

use crate::{CostType, NetworkCache, RunLimits, TargetContext, WeightType};
use routing::{k_shortest_paths_with, kth_shortest_path, Path, YenConfig};
use std::fmt;
use std::sync::Arc;
use traffic_graph::{EdgeId, GraphView, NodeId, RoadNetwork};

/// Errors constructing an [`AttackProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// The chosen alternative route does not start at the source.
    WrongSource,
    /// The chosen alternative route does not end at the destination.
    WrongTarget,
    /// The chosen alternative route revisits a node.
    NotSimple,
    /// The alternative route uses an edge that is already removed.
    UsesRemovedEdge(EdgeId),
    /// The requested path rank exceeds the number of simple paths.
    RankUnavailable(usize),
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::WrongSource => f.write_str("alternative route does not start at source"),
            ProblemError::WrongTarget => f.write_str("alternative route does not end at target"),
            ProblemError::NotSimple => f.write_str("alternative route is not a simple path"),
            ProblemError::UsesRemovedEdge(e) => {
                write!(f, "alternative route uses removed edge {e}")
            }
            ProblemError::RankUnavailable(0) => {
                f.write_str("path rank is 1-based; rank 0 is not a path")
            }
            ProblemError::RankUnavailable(r) => {
                write!(f, "fewer than {r} simple paths exist between the endpoints")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// One Force Path Cut instance: make `p*` the exclusive shortest path
/// from `source` to `target` by removing road segments.
///
/// The attacker may not cut edges of `p*` itself, nor artificial
/// POI-connector segments (they model map bookkeeping, not physical
/// roads). An optional budget caps the total removal cost.
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::{AttackProblem, WeightType, CostType};
/// use traffic_graph::PoiKind;
///
/// let city = CityPreset::Chicago.build(Scale::Small, 7);
/// let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
/// let source = traffic_graph::NodeId::new(0);
/// let problem = AttackProblem::with_path_rank(
///     &city, WeightType::Time, CostType::Uniform, source, hospital, 20,
/// ).unwrap();
/// assert_eq!(problem.pstar().source(), source);
/// ```
#[derive(Debug, Clone)]
pub struct AttackProblem<'g> {
    net: &'g RoadNetwork,
    base: GraphView<'g>,
    weight_type: WeightType,
    cost_type: CostType,
    weight: Arc<Vec<f64>>,
    cost: Arc<Vec<f64>>,
    ctx: Option<Arc<TargetContext>>,
    source: NodeId,
    target: NodeId,
    pstar: Path,
    pstar_weight: f64,
    on_pstar: Vec<bool>,
    protected: Vec<bool>,
    budget: Option<f64>,
    limits: RunLimits,
    repair: bool,
}

impl<'g> AttackProblem<'g> {
    /// Creates a problem from an explicit alternative route `p*`.
    ///
    /// # Errors
    ///
    /// Returns a [`ProblemError`] if `p*` is not a simple path from
    /// `source` to `target` over live edges of `view`.
    pub fn new(
        view: GraphView<'g>,
        weight_type: WeightType,
        cost_type: CostType,
        source: NodeId,
        target: NodeId,
        pstar: Path,
    ) -> Result<Self, ProblemError> {
        Self::build(view, weight_type, cost_type, source, target, pstar, None)
    }

    /// Like [`AttackProblem::new`], but attaches a shared
    /// [`TargetContext`] so oracles and centrality-based attacks built
    /// from this problem reuse its precomputed tables instead of
    /// recomputing them per run.
    ///
    /// The context is consulted opportunistically: any table whose
    /// parameters don't match the problem is computed fresh, so an
    /// incompatible context degrades to [`AttackProblem::new`] behavior
    /// rather than an error.
    ///
    /// # Errors
    ///
    /// Same validation as [`AttackProblem::new`].
    pub fn new_in(
        view: GraphView<'g>,
        weight_type: WeightType,
        cost_type: CostType,
        source: NodeId,
        target: NodeId,
        pstar: Path,
        ctx: &Arc<TargetContext>,
    ) -> Result<Self, ProblemError> {
        Self::build(
            view,
            weight_type,
            cost_type,
            source,
            target,
            pstar,
            Some(ctx.clone()),
        )
    }

    fn build(
        view: GraphView<'g>,
        weight_type: WeightType,
        cost_type: CostType,
        source: NodeId,
        target: NodeId,
        pstar: Path,
        ctx: Option<Arc<TargetContext>>,
    ) -> Result<Self, ProblemError> {
        if pstar.source() != source {
            return Err(ProblemError::WrongSource);
        }
        if pstar.target() != target {
            return Err(ProblemError::WrongTarget);
        }
        if !pstar.is_simple() {
            return Err(ProblemError::NotSimple);
        }
        if let Some(&e) = pstar.edges().iter().find(|&&e| view.is_removed(e)) {
            return Err(ProblemError::UsesRemovedEdge(e));
        }
        let net = view.network();
        let ctx_for_net = ctx.as_ref().filter(|c| c.matches_net(net));
        let weight = match ctx_for_net.filter(|c| c.weight_type() == weight_type) {
            Some(c) => c.weights().clone(),
            None => Arc::new(weight_type.compute(net)),
        };
        let cost = match ctx_for_net {
            Some(c) => c.cache().costs(net, cost_type),
            None => Arc::new(cost_type.compute(net)),
        };
        let pstar_weight = pstar.edges().iter().map(|e| weight[e.index()]).sum();
        let mut on_pstar = vec![false; net.num_edges()];
        for &e in pstar.edges() {
            on_pstar[e.index()] = true;
        }
        let num_edges = net.num_edges();
        Ok(AttackProblem {
            net,
            base: view,
            weight_type,
            cost_type,
            weight,
            cost,
            ctx,
            source,
            target,
            pstar,
            pstar_weight,
            on_pstar,
            protected: vec![false; num_edges],
            budget: None,
            limits: RunLimits::default(),
            repair: true,
        })
    }

    /// Creates a problem whose `p*` is the `rank`-th shortest path (the
    /// paper uses rank 100), computed with Yen's algorithm under the
    /// chosen weight type.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::RankUnavailable`] when fewer than `rank`
    /// simple paths exist.
    pub fn with_path_rank(
        net: &'g RoadNetwork,
        weight_type: WeightType,
        cost_type: CostType,
        source: NodeId,
        target: NodeId,
        rank: usize,
    ) -> Result<Self, ProblemError> {
        let view = GraphView::new(net);
        let weight = weight_type.compute(net);
        // Yen's enumeration runs its own backward sweep for the spur
        // heuristic here; with_path_rank_in shares it instead.
        obs::inc("pathattack.reuse.rev_dij.miss");
        let pstar = kth_shortest_path(&view, |e| weight[e.index()], source, target, rank)
            .ok_or(ProblemError::RankUnavailable(rank))?;
        Self::new(view, weight_type, cost_type, source, target, pstar)
    }

    /// Like [`AttackProblem::with_path_rank`], but feeds the shared
    /// reverse-distance table of `ctx` to Yen's spur searches (saving the
    /// per-call backward Dijkstra) and attaches `ctx` to the resulting
    /// problem as [`AttackProblem::new_in`] does.
    ///
    /// Falls back to the self-contained computation when `ctx` was built
    /// for a different network, weight model, or target.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::RankUnavailable`] when fewer than `rank`
    /// simple paths exist.
    pub fn with_path_rank_in(
        net: &'g RoadNetwork,
        weight_type: WeightType,
        cost_type: CostType,
        source: NodeId,
        target: NodeId,
        rank: usize,
        ctx: &Arc<TargetContext>,
    ) -> Result<Self, ProblemError> {
        if rank == 0 {
            return Err(ProblemError::RankUnavailable(0));
        }
        let view = GraphView::new(net);
        let usable =
            ctx.matches_net(net) && ctx.weight_type() == weight_type && ctx.target() == target;
        let weight = if usable {
            ctx.weights().clone()
        } else {
            Arc::new(weight_type.compute(net))
        };
        let config = if usable {
            obs::inc("pathattack.reuse.rev_dij.hit");
            YenConfig {
                shared_reverse: Some(ctx.rev().clone()),
                ..YenConfig::default()
            }
        } else {
            obs::inc("pathattack.reuse.rev_dij.miss");
            YenConfig::default()
        };
        let mut paths =
            k_shortest_paths_with(&view, |e| weight[e.index()], source, target, rank, &config);
        if paths.len() < rank {
            return Err(ProblemError::RankUnavailable(rank));
        }
        let pstar = paths.swap_remove(rank - 1);
        Self::build(
            view,
            weight_type,
            cost_type,
            source,
            target,
            pstar,
            Some(ctx.clone()),
        )
    }

    /// Caps the attacker's total removal cost; attacks report failure
    /// when they would exceed it.
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Marks road segments as *protected* (hardened by the road
    /// authority): the attacker cannot remove them. Used by the defense
    /// analysis in [`crate::minimal_hardening`].
    pub fn with_protected_edges<I: IntoIterator<Item = EdgeId>>(mut self, edges: I) -> Self {
        for e in edges {
            self.protected[e.index()] = true;
        }
        self
    }

    /// Applies per-run resource limits (deadline, oracle-call cap). The
    /// [`crate::Oracle`] enforces them; a limit firing ends the run with
    /// [`crate::AttackStatus::TimedOut`].
    pub fn with_limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Enables or disables decremental distance repair (on by default).
    ///
    /// When on, the [`crate::Oracle`] maintains a
    /// [`routing::RepairTable`] and uses its exact distances on the
    /// mutated view to prune alternative-path searches; results are
    /// byte-identical either way (the repair-off path exists for the
    /// determinism tests and the `perf_repair` ablation bench).
    pub fn with_repair(mut self, repair: bool) -> Self {
        self.repair = repair;
        self
    }

    /// Whether decremental distance repair is enabled for oracles built
    /// from this problem.
    pub fn repair(&self) -> bool {
        self.repair
    }

    /// Attaches a shared [`TargetContext`] after construction (builder
    /// form of [`AttackProblem::new_in`] for already-built problems).
    pub fn with_target_context(mut self, ctx: &Arc<TargetContext>) -> Self {
        self.ctx = Some(ctx.clone());
        self
    }

    /// The attached shared context, if any.
    pub fn target_context(&self) -> Option<&Arc<TargetContext>> {
        self.ctx.as_ref()
    }

    /// The shared whole-network table cache, when the attached context
    /// is valid for this problem (same network/weight/target and an
    /// unmodified pre-attack view — the cached tables describe the
    /// intact network, so a problem with pre-attack removals must not
    /// use them).
    pub fn reusable_cache(&self) -> Option<&NetworkCache> {
        self.ctx
            .as_ref()
            .filter(|c| c.matches(self))
            .map(|c| &**c.cache())
    }

    /// The run limits in effect (unlimited by default).
    pub fn limits(&self) -> RunLimits {
        self.limits
    }

    /// Whether `e` has been hardened against removal.
    #[inline]
    pub fn is_protected(&self, e: EdgeId) -> bool {
        self.protected[e.index()]
    }

    /// The underlying road network.
    pub fn network(&self) -> &'g RoadNetwork {
        self.net
    }

    /// The pre-attack view (caller removals applied, attack removals
    /// not).
    pub fn base_view(&self) -> &GraphView<'g> {
        &self.base
    }

    /// The victim's weight model.
    pub fn weight_type(&self) -> WeightType {
        self.weight_type
    }

    /// The attacker's cost model.
    pub fn cost_type(&self) -> CostType {
        self.cost_type
    }

    /// Per-edge weights under the weight model.
    pub fn weights(&self) -> &[f64] {
        &self.weight
    }

    /// Per-edge removal costs under the cost model.
    pub fn costs(&self) -> &[f64] {
        &self.cost
    }

    /// Weight of one edge.
    #[inline]
    pub fn weight_of(&self, e: EdgeId) -> f64 {
        self.weight[e.index()]
    }

    /// Removal cost of one edge.
    #[inline]
    pub fn cost_of(&self, e: EdgeId) -> f64 {
        self.cost[e.index()]
    }

    /// Victim's trip origin.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Victim's trip destination.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The attacker's chosen alternative route.
    pub fn pstar(&self) -> &Path {
        &self.pstar
    }

    /// Weight of `p*` under the weight model.
    pub fn pstar_weight(&self) -> f64 {
        self.pstar_weight
    }

    /// Attacker's budget, if any.
    pub fn budget(&self) -> Option<f64> {
        self.budget
    }

    /// Whether `e` lies on `p*`.
    #[inline]
    pub fn is_on_pstar(&self, e: EdgeId) -> bool {
        self.on_pstar[e.index()]
    }

    /// Whether the attacker is allowed to cut `e`: not on `p*`, not an
    /// artificial POI connector, not protected, not already removed
    /// pre-attack.
    #[inline]
    pub fn is_cuttable(&self, e: EdgeId) -> bool {
        !self.on_pstar[e.index()]
            && !self.net.edge_attrs(e).artificial
            && !self.protected[e.index()]
            && !self.base.is_removed(e)
    }

    /// Tie margin: alternatives within this of `w(p*)` count as violating
    /// (exclusivity requires every other path to be strictly longer).
    pub fn tie_margin(&self) -> f64 {
        1e-9 * self.pstar_weight.max(1.0)
    }

    /// Whether a candidate path violates exclusivity: distinct from `p*`
    /// and not strictly longer.
    pub fn is_violating(&self, path: &Path) -> bool {
        path.edges() != self.pstar.edges()
            && path.total_weight() <= self.pstar_weight + self.tie_margin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_graph::{EdgeAttrs, Point, RoadClass, RoadNetworkBuilder};

    /// a → b → d (10), a → c → d (2+2=4): p* = the long way.
    fn net_with_detour() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("detour");
        let a = b.add_node(Point::new(0.0, 0.0));
        let nb = b.add_node(Point::new(1.0, 1.0));
        let nc = b.add_node(Point::new(1.0, -1.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, nb, 5.0);
        arc(nb, d, 5.0);
        arc(a, nc, 2.0);
        arc(nc, d, 2.0);
        b.build()
    }

    fn pstar_long(net: &RoadNetwork) -> Path {
        let e0 = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let e1 = net.find_edge(NodeId::new(1), NodeId::new(3)).unwrap();
        Path::from_edges(net, vec![e0, e1], |e| net.edge_attrs(e).length_m).unwrap()
    }

    #[test]
    fn construct_valid_problem() {
        let net = net_with_detour();
        let p = AttackProblem::new(
            GraphView::new(&net),
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            pstar_long(&net),
        )
        .unwrap();
        assert_eq!(p.pstar_weight(), 10.0);
        assert_eq!(p.weights().len(), net.num_edges());
    }

    #[test]
    fn rejects_wrong_endpoints() {
        let net = net_with_detour();
        let err = AttackProblem::new(
            GraphView::new(&net),
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(2),
            NodeId::new(3),
            pstar_long(&net),
        )
        .unwrap_err();
        assert_eq!(err, ProblemError::WrongSource);

        let err = AttackProblem::new(
            GraphView::new(&net),
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(1),
            pstar_long(&net),
        )
        .unwrap_err();
        assert_eq!(err, ProblemError::WrongTarget);
    }

    #[test]
    fn rejects_pstar_over_removed_edge() {
        let net = net_with_detour();
        let mut view = GraphView::new(&net);
        let e0 = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        view.remove_edge(e0);
        let err = AttackProblem::new(
            view,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            pstar_long(&net),
        )
        .unwrap_err();
        assert_eq!(err, ProblemError::UsesRemovedEdge(e0));
    }

    #[test]
    fn cuttable_excludes_pstar_edges() {
        let net = net_with_detour();
        let p = AttackProblem::new(
            GraphView::new(&net),
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            pstar_long(&net),
        )
        .unwrap();
        let e_on = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let e_off = net.find_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        assert!(!p.is_cuttable(e_on));
        assert!(p.is_cuttable(e_off));
        assert!(p.is_on_pstar(e_on));
        assert!(!p.is_on_pstar(e_off));
    }

    #[test]
    fn with_path_rank_picks_kth() {
        let net = net_with_detour();
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            2,
        )
        .unwrap();
        // second shortest a→d is the long way (10)
        assert_eq!(p.pstar_weight(), 10.0);
    }

    #[test]
    fn with_path_rank_unavailable() {
        let net = net_with_detour();
        let err = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            50,
        )
        .unwrap_err();
        assert_eq!(err, ProblemError::RankUnavailable(50));
    }

    #[test]
    fn violating_test_respects_margin() {
        let net = net_with_detour();
        let problem = AttackProblem::new(
            GraphView::new(&net),
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            pstar_long(&net),
        )
        .unwrap();
        let view = GraphView::new(&net);
        let mut dij = routing::Dijkstra::new(net.num_nodes());
        let short = dij
            .shortest_path(
                &view,
                |e| problem.weight_of(e),
                NodeId::new(0),
                NodeId::new(3),
            )
            .unwrap();
        assert!(problem.is_violating(&short));
        assert!(!problem.is_violating(problem.pstar()));
    }

    #[test]
    fn budget_stored() {
        let net = net_with_detour();
        let p = AttackProblem::new(
            GraphView::new(&net),
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            pstar_long(&net),
        )
        .unwrap()
        .with_budget(3.5);
        assert_eq!(p.budget(), Some(3.5));
    }
}
