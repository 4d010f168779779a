//! Cross-run computation reuse: shared per-target search tables.
//!
//! One experiment set runs every (source × cost × algorithm) combination
//! against the same hospital, yet each [`crate::Oracle`] historically
//! re-ran the identical backward Dijkstra and each `GreedyEig` /
//! `GreedyBetweenness` run re-derived the identical centrality vector.
//! [`TargetContext`] computes those tables **once per (network, weight,
//! target)** and shares them via `Arc`.
//!
//! Reuse is sound because of one invariant: *removing edges only
//! lengthens shortest paths*. A distance-to-target table computed on the
//! intact network is therefore an exact table for the pre-attack view
//! and a consistent (hence admissible) A\* heuristic for every view an
//! attack derives from it — no later removal can make it overestimate.
//! Weight, centrality and cost tables depend only on the intact network
//! (and the weight model), so they are shared across hospitals outright
//! through the embedded [`NetworkCache`].
//!
//! Consumers verify compatibility through [`TargetContext::matches`]
//! before touching a shared table; a mismatched context silently falls
//! back to computing fresh (and the `pathattack.reuse.rev_dij.miss`
//! counter shows it).

use crate::{AttackProblem, CostType, WeightType};
use routing::Direction;
use std::sync::{Arc, OnceLock};
use traffic_graph::{GraphView, NodeId, RoadNetwork};

/// An initialize-once slot holding a table together with the parameter
/// key it was computed under.
type KeyedSlot<K> = OnceLock<(K, Arc<Vec<f64>>)>;

/// Lazily computed whole-network tables, shared across every
/// [`TargetContext`] of one sweep (they do not depend on the target).
///
/// All slots are initialize-once: the first computation wins and later
/// callers with the *same* parameters get the cached `Arc`. Callers with
/// different parameters get `None` back and compute privately — the
/// cache never returns a table computed under different settings.
#[derive(Debug, Default)]
pub struct NetworkCache {
    /// Eigenvector centrality on the intact view, keyed by the
    /// power-iteration parameters `(max_iter, tol)`.
    eig: KeyedSlot<(usize, u64)>,
    /// Edge betweenness on the intact view, keyed by
    /// `(sample_sources, weight model)`.
    betweenness: KeyedSlot<(usize, WeightType)>,
    /// Per-edge removal costs, one slot per [`CostType`].
    costs: [OnceLock<Arc<Vec<f64>>>; 3],
    /// Per-edge victim weights, one slot per [`WeightType`]: every
    /// context of one weight model shares a single vector.
    weights: [OnceLock<Arc<Vec<f64>>>; 2],
}

fn cost_slot(cost: CostType) -> usize {
    match cost {
        CostType::Uniform => 0,
        CostType::Lanes => 1,
        CostType::Width => 2,
    }
}

fn weight_slot(weight: WeightType) -> usize {
    match weight {
        WeightType::Length => 0,
        WeightType::Time => 1,
    }
}

impl NetworkCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        NetworkCache::default()
    }

    /// The removal-cost table for `cost` on `net`, computing it on first
    /// use.
    pub fn costs(&self, net: &RoadNetwork, cost: CostType) -> Arc<Vec<f64>> {
        self.costs[cost_slot(cost)]
            .get_or_init(|| Arc::new(cost.compute(net)))
            .clone()
    }

    /// The per-edge weight table for `weight` on `net`, computing it on
    /// first use.
    pub fn weights(&self, net: &RoadNetwork, weight: WeightType) -> Arc<Vec<f64>> {
        self.weights[weight_slot(weight)]
            .get_or_init(|| Arc::new(weight.compute(net)))
            .clone()
    }

    /// The eigenvector-centrality table for the given power-iteration
    /// parameters, computing via `compute` on first use. Returns `None`
    /// when the slot is already taken by different parameters.
    pub fn eigenvector_with(
        &self,
        max_iter: usize,
        tol: f64,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Option<Arc<Vec<f64>>> {
        let key = (max_iter, tol.to_bits());
        if let Some((k, v)) = self.eig.get() {
            if *k == key {
                obs::inc("pathattack.reuse.centrality.hit");
                return Some(v.clone());
            }
            return None;
        }
        obs::inc("pathattack.reuse.centrality.miss");
        let (k, v) = self.eig.get_or_init(|| (key, Arc::new(compute())));
        (*k == key).then(|| v.clone())
    }

    /// The edge-betweenness table for the given sampling size and weight
    /// model, computing via `compute` on first use. Returns `None` when
    /// the slot is already taken by different parameters.
    pub fn betweenness_with(
        &self,
        sample_sources: usize,
        weight: WeightType,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Option<Arc<Vec<f64>>> {
        let key = (sample_sources, weight);
        if let Some((k, v)) = self.betweenness.get() {
            if *k == key {
                obs::inc("pathattack.reuse.centrality.hit");
                return Some(v.clone());
            }
            return None;
        }
        obs::inc("pathattack.reuse.centrality.miss");
        let (k, v) = self.betweenness.get_or_init(|| (key, Arc::new(compute())));
        (*k == key).then(|| v.clone())
    }
}

/// Shared search tables for one (network, weight, target) triple.
///
/// Building a context runs exactly one backward Dijkstra (counted as a
/// `pathattack.reuse.rev_dij.miss`); every oracle construction and Yen
/// path-rank enumeration that matches it then reuses the table (counted
/// as `pathattack.reuse.rev_dij.hit`).
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::{AttackProblem, TargetContext, WeightType, CostType};
/// use std::sync::Arc;
/// use traffic_graph::{NodeId, PoiKind};
///
/// let city = CityPreset::Chicago.build(Scale::Small, 7);
/// let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
/// let ctx = Arc::new(TargetContext::build(&city, WeightType::Time, hospital));
/// // Every problem aimed at this hospital shares the context's tables.
/// let problem = AttackProblem::with_path_rank_in(
///     &city, WeightType::Time, CostType::Uniform, NodeId::new(0), hospital, 20, &ctx,
/// ).unwrap();
/// assert!(ctx.matches(&problem));
/// ```
#[derive(Debug)]
pub struct TargetContext {
    weight_type: WeightType,
    target: NodeId,
    // Cheap network identity: contexts are keyed by reference data, not
    // by pointer, so a context never silently outlives its network and
    // gets applied to a different one of the same shape by accident.
    num_nodes: usize,
    num_edges: usize,
    net_name: String,
    weights: Arc<Vec<f64>>,
    rev: Arc<Vec<f64>>,
    rev_parent: Arc<Vec<u32>>,
    cache: Arc<NetworkCache>,
}

impl TargetContext {
    /// Builds the context for `(net, weight, target)` with a private
    /// [`NetworkCache`].
    pub fn build(net: &RoadNetwork, weight: WeightType, target: NodeId) -> Self {
        Self::build_with_cache(net, weight, target, Arc::new(NetworkCache::new()))
    }

    /// Builds the context with a caller-shared [`NetworkCache`] (one per
    /// sweep, shared across hospitals).
    pub fn build_with_cache(
        net: &RoadNetwork,
        weight: WeightType,
        target: NodeId,
        cache: Arc<NetworkCache>,
    ) -> Self {
        let weights = cache.weights(net, weight);
        // The one backward sweep every consumer then shares. The parent
        // edges come along for free and seed decremental repair tables
        // ([`routing::RepairTable`]) on attack-mutated views.
        obs::inc("pathattack.reuse.rev_dij.miss");
        let mut scratch = routing::acquire_scratch(net.num_nodes());
        let (rev, rev_parent) = scratch.dijkstra.distances_and_parents(
            &GraphView::new(net),
            |e| weights[e.index()],
            target,
            Direction::Backward,
        );
        TargetContext {
            weight_type: weight,
            target,
            num_nodes: net.num_nodes(),
            num_edges: net.num_edges(),
            net_name: net.name().to_string(),
            weights,
            rev: Arc::new(rev),
            rev_parent: Arc::new(rev_parent),
            cache,
        }
    }

    /// The victim weight model the tables were computed under.
    pub fn weight_type(&self) -> WeightType {
        self.weight_type
    }

    /// The trip destination the reverse table points at.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Exact distance from every node to the target on the intact
    /// network (a consistent A\* heuristic for every derived view).
    pub fn rev(&self) -> &Arc<Vec<f64>> {
        &self.rev
    }

    /// Shortest-path-tree parent edges of the reverse table:
    /// `rev_parent[v]` is the out-edge of `v` starting its shortest path
    /// to the target ([`routing::NO_EDGE`] for the target and
    /// disconnected nodes). Seeds [`routing::RepairTable`] baselines.
    pub fn rev_parent(&self) -> &Arc<Vec<u32>> {
        &self.rev_parent
    }

    /// Per-edge weights under [`TargetContext::weight_type`].
    pub fn weights(&self) -> &Arc<Vec<f64>> {
        &self.weights
    }

    /// The target-independent table cache shared with sibling contexts.
    pub fn cache(&self) -> &Arc<NetworkCache> {
        &self.cache
    }

    /// Distance from `node` to the target on the intact network.
    pub fn distance_to_target(&self, node: NodeId) -> f64 {
        self.rev[node.index()]
    }

    /// Whether this context was built for (a network indistinguishable
    /// from) `net`.
    pub fn matches_net(&self, net: &RoadNetwork) -> bool {
        self.num_nodes == net.num_nodes()
            && self.num_edges == net.num_edges()
            && self.net_name == net.name()
    }

    /// Whether `problem` may reuse this context's reverse table: same
    /// network, weight model and target, and an unmodified pre-attack
    /// view (a pre-modified base view would make the shared table merely
    /// admissible rather than exact, changing A\* tie-breaking — reuse
    /// must never change results, so it backs off).
    pub fn matches(&self, problem: &AttackProblem<'_>) -> bool {
        self.weight_type == problem.weight_type()
            && self.target == problem.target()
            && self.matches_net(problem.network())
            && problem.base_view().removed_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_graph::{EdgeAttrs, Point, RoadClass, RoadNetworkBuilder};

    fn diamond() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("diamond");
        let a = b.add_node(Point::new(0.0, 0.0));
        let m1 = b.add_node(Point::new(1.0, 1.0));
        let m2 = b.add_node(Point::new(1.0, -1.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, m1, 2.0);
        arc(m1, d, 2.0);
        arc(a, m2, 3.0);
        arc(m2, d, 3.0);
        b.build()
    }

    #[test]
    fn context_reverse_table_is_exact() {
        let net = diamond();
        let ctx = TargetContext::build(&net, WeightType::Length, NodeId::new(3));
        assert_eq!(ctx.distance_to_target(NodeId::new(0)), 4.0);
        assert_eq!(ctx.distance_to_target(NodeId::new(1)), 2.0);
        assert_eq!(ctx.distance_to_target(NodeId::new(3)), 0.0);
    }

    #[test]
    fn matches_rejects_other_target_or_weight() {
        let net = diamond();
        let ctx = TargetContext::build(&net, WeightType::Length, NodeId::new(3));
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            2,
        )
        .unwrap();
        assert!(ctx.matches(&p));
        let other = TargetContext::build(&net, WeightType::Time, NodeId::new(3));
        assert!(!other.matches(&p));
        let wrong_target = TargetContext::build(&net, WeightType::Length, NodeId::new(1));
        assert!(!wrong_target.matches(&p));
    }

    #[test]
    fn network_cache_is_parameter_keyed() {
        let net = diamond();
        let cache = NetworkCache::new();
        let view = GraphView::new(&net);
        let a = cache
            .eigenvector_with(50, 1e-8, || {
                traffic_graph::eigenvector_centrality_serial(&view, 50, 1e-8)
            })
            .unwrap();
        // Same parameters: the cached Arc comes back.
        let b = cache
            .eigenvector_with(50, 1e-8, || panic!("must not recompute"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Different parameters: the cache refuses rather than lies.
        assert!(cache.eigenvector_with(51, 1e-8, Vec::new).is_none());
        let c1 = cache.costs(&net, CostType::Uniform);
        let c2 = cache.costs(&net, CostType::Uniform);
        assert!(Arc::ptr_eq(&c1, &c2));
    }

    #[test]
    fn contexts_on_one_cache_share_one_weight_vector() {
        let net = diamond();
        let cache = Arc::new(NetworkCache::new());
        let a =
            TargetContext::build_with_cache(&net, WeightType::Time, NodeId::new(3), cache.clone());
        let b =
            TargetContext::build_with_cache(&net, WeightType::Time, NodeId::new(1), cache.clone());
        assert!(Arc::ptr_eq(a.weights(), b.weights()));
        assert!(Arc::ptr_eq(
            a.weights(),
            &cache.weights(&net, WeightType::Time)
        ));
        let length =
            TargetContext::build_with_cache(&net, WeightType::Length, NodeId::new(3), cache);
        assert!(!Arc::ptr_eq(a.weights(), length.weights()));
        assert_eq!(**length.weights(), WeightType::Length.compute(&net));
    }
}
