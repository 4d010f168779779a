//! Yen's k-shortest simple paths (with Lawler's optimization).
//!
//! The paper sets the attacker's chosen alternative route `p*` to the
//! *100th* shortest path between source and destination ("path rank"),
//! and Table X reports the travel-time gap between the 1st and the
//! 100th/200th shortest paths. Both need an efficient k-shortest-simple-
//! paths enumerator on city-scale graphs.
//!
//! Three implementation notes that matter at this scale:
//!
//! - **Lawler's optimization**: spur paths are only computed from the
//!   deviation index of the parent path onward, avoiding re-deriving
//!   candidates that are already in the heap.
//! - **Reverse-distance A\***: every spur search runs on a view with a
//!   handful of extra edges removed. Removal only increases distances,
//!   so exact distances-to-target on the *caller's* view (computed once
//!   by a backward Dijkstra) stay admissible, and each spur search
//!   explores a thin corridor instead of the whole city.
//! - **Spur-only candidates**: a rank-100 enumeration generates
//!   thousands of candidates but accepts only 100. A candidate stores
//!   its spur edges and shares its root with the parent path through an
//!   `Rc`; duplicates are caught by a fingerprint map with a full edge
//!   comparison on a hit (exact, not probabilistic). Nodes are built
//!   only when a candidate is accepted, so a candidate costs its spur
//!   edges plus a fixed header (the bound is stated on
//!   [`k_shortest_paths_with`]), and callers can afford to run
//!   enumerations on several threads at once.

use crate::{acquire_scratch, CancelToken, Direction, Path};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use traffic_graph::{EdgeId, GraphView, NodeId, RoadNetwork};

/// A route Yen has generated: the first `deviation` edges of `parent`
/// (an accepted path, shared) followed by the spur edges.
#[derive(Debug)]
struct Route {
    parent: Rc<Path>,
    /// Index at which this route deviates from its parent (Lawler).
    deviation: usize,
    spur: Box<[EdgeId]>,
    /// The route stored before this one under the same fingerprint.
    next: Option<Rc<Route>>,
}

impl Route {
    fn root(&self) -> &[EdgeId] {
        &self.parent.edges()[..self.deviation]
    }

    /// Edge count of root ‖ spur.
    fn len(&self) -> usize {
        self.deviation + self.spur.len()
    }

    /// The route's edges, root ‖ spur.
    fn edges(&self) -> impl Iterator<Item = &EdgeId> {
        self.root().iter().chain(self.spur.iter())
    }

    /// Whether this route's edges are exactly `root ‖ spur`.
    fn is(&self, root: &[EdgeId], spur: &[EdgeId]) -> bool {
        self.len() == root.len() + spur.len() && self.edges().eq(root.iter().chain(spur))
    }

    /// The full path (nodes and edges), built when the route is
    /// accepted. The nodes of a search path are its source followed by
    /// each edge's target, so this equals the parent's nodes up to the
    /// spur node followed by the spur path's nodes after it.
    fn to_path(&self, net: &RoadNetwork, total: f64) -> Path {
        let mut edges = Vec::with_capacity(self.len());
        edges.extend_from_slice(self.root());
        edges.extend_from_slice(&self.spur);
        let mut nodes = Vec::with_capacity(self.len() + 1);
        nodes.extend_from_slice(&self.parent.nodes()[..=self.deviation]);
        nodes.extend(self.spur.iter().map(|&e| net.edge_target(e)));
        Path::from_parts(nodes, edges, total)
    }
}

/// One step of the route fingerprint: a cheap per-id fold (FNV-1a on
/// whole ids). Fingerprints only pick the bucket; membership is decided
/// by comparing edges, so a collision costs a comparison, never a
/// wrong answer.
fn fold(h: u64, e: EdgeId) -> u64 {
    (h ^ e.index() as u64).wrapping_mul(0x100_0000_01b3)
}

const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Every route generated so far (accepted or still a candidate), keyed
/// by fingerprint; routes sharing a fingerprint chain through
/// [`Route::next`].
#[derive(Default)]
struct RouteSet {
    by_fingerprint: HashMap<u64, Rc<Route>>,
}

impl RouteSet {
    fn contains(&self, fingerprint: u64, root: &[EdgeId], spur: &[EdgeId]) -> bool {
        let mut at = self.by_fingerprint.get(&fingerprint);
        while let Some(route) = at {
            if route.is(root, spur) {
                return true;
            }
            at = route.next.as_ref();
        }
        false
    }

    /// Stores `root ‖ spur` (known absent) and returns the shared route.
    fn insert(
        &mut self,
        fingerprint: u64,
        parent: &Rc<Path>,
        deviation: usize,
        spur: &[EdgeId],
    ) -> Rc<Route> {
        let route = Rc::new(Route {
            parent: parent.clone(),
            deviation,
            spur: spur.into(),
            next: self.by_fingerprint.remove(&fingerprint),
        });
        self.by_fingerprint.insert(fingerprint, route.clone());
        route
    }
}

/// Candidate entry in Yen's B-heap, ordered cheapest-first.
struct Candidate {
    total: f64,
    route: Rc<Route>,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap; ties broken by edge count then edge ids
        // so results are deterministic. Routes are distinct, so no two
        // candidates compare equal and the pop order is fixed.
        other
            .total
            .total_cmp(&self.total)
            .then_with(|| other.route.len().cmp(&self.route.len()))
            .then_with(|| other.route.edges().cmp(self.route.edges()))
    }
}

/// Computes up to `k` shortest *simple* paths from `source` to `target`,
/// cheapest first.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// distinct simple paths, and an empty vector when `target` is
/// unreachable. Edges already removed from `view` are respected (and
/// never enumerated).
///
/// `weight` must be non-negative on live edges.
///
/// # Examples
///
/// ```
/// use traffic_graph::{RoadNetworkBuilder, GraphView, Point, RoadClass};
/// use routing::k_shortest_paths;
///
/// // a 2×2 block: two equally plausible routes around it
/// let mut b = RoadNetworkBuilder::new("block");
/// let p00 = b.add_node(Point::new(0.0, 0.0));
/// let p10 = b.add_node(Point::new(100.0, 0.0));
/// let p01 = b.add_node(Point::new(0.0, 100.0));
/// let p11 = b.add_node(Point::new(100.0, 100.0));
/// b.add_street(p00, p10, RoadClass::Residential);
/// b.add_street(p00, p01, RoadClass::Residential);
/// b.add_street(p10, p11, RoadClass::Residential);
/// b.add_street(p01, p11, RoadClass::Residential);
/// let net = b.build();
/// let view = GraphView::new(&net);
///
/// let paths = k_shortest_paths(&view, |e| net.edge_attrs(e).length_m, p00, p11, 5);
/// assert_eq!(paths.len(), 2); // the two ways around the block
/// assert_eq!(paths[0].total_weight(), 200.0);
/// ```
pub fn k_shortest_paths<F>(
    view: &GraphView<'_>,
    weight: F,
    source: NodeId,
    target: NodeId,
    k: usize,
) -> Vec<Path>
where
    F: Fn(EdgeId) -> f64,
{
    k_shortest_paths_with(view, weight, source, target, k, &YenConfig::default())
}

/// Tuning knobs for [`k_shortest_paths_with`].
///
/// Spur searches are A\* guided by exact distances-to-target: computed
/// once on the caller's view, or shared by the caller.
#[derive(Debug, Clone, Default)]
pub struct YenConfig {
    /// Precomputed exact distances-to-target, shared across calls.
    ///
    /// Must be indexed by node id, cover every node of the network, and
    /// hold exact shortest distances to `target` under the same `weight`
    /// on a view whose live-edge set is a **superset** of the search
    /// view's (removals only lengthen shortest paths, so such a table
    /// stays a consistent A\* heuristic). When set, it saves the
    /// per-call backward Dijkstra — the main cross-run reuse win for
    /// repeated enumerations toward one target.
    pub shared_reverse: Option<Arc<Vec<f64>>>,
    /// Cooperative cancellation: checked between spur searches and
    /// propagated into the inner Dijkstra/A* loops. A cancelled
    /// enumeration returns the paths accepted so far (possibly fewer
    /// than `k`); callers sharing the token must check it rather than
    /// interpret a short result as path exhaustion.
    pub cancel: Option<CancelToken>,
}

/// [`k_shortest_paths`] with explicit [`YenConfig`].
///
/// # Memory
///
/// With `V` nodes, `E` edges, `c` candidates generated (the
/// `routing.yen.candidates_per_query` histogram) and `S` spur edges
/// stored over them (the `routing.yen.candidate_edges` counter), one
/// enumeration holds at most, in heap bytes:
///
/// - **one full path per accepted route**: 4 bytes per node and per
///   edge plus a 172-byte header (the shared `Path`, its slots in the
///   accepted and returned lists and in the per-round common-prefix
///   table);
/// - **per candidate, its spur edges plus a fixed header**: `4·S` plus
///   147 bytes per candidate (the shared route, its heap slot and its
///   fingerprint-table slot, each with its container's growth slack);
/// - **the pooled O(V) scratch and per-spur working state**: 80 bytes
///   per node and 41 per edge (the pooled Dijkstra/A\* pair and
///   spur-edge buffer, the reverse table unless shared, the working
///   view, the per-round prefix tables, and one search's queue and
///   path), plus 1 KiB of fixed overhead.
///
/// `crates/routing/tests/yen_memory.rs` checks the peak against this
/// formula with a counting allocator.
pub fn k_shortest_paths_with<F>(
    view: &GraphView<'_>,
    weight: F,
    source: NodeId,
    target: NodeId,
    k: usize,
    config: &YenConfig,
) -> Vec<Path>
where
    F: Fn(EdgeId) -> f64,
{
    if k == 0 {
        return Vec::new();
    }
    let _timer = obs::span("routing.yen.shortest_path");
    let net = view.network();
    let n = net.num_nodes();

    let mut scratch = acquire_scratch(n);
    scratch.dijkstra.set_cancel(config.cancel.clone());
    let Some(first) = scratch
        .dijkstra
        .shortest_path(view, &weight, source, target)
    else {
        return Vec::new();
    };
    if source == target {
        return vec![first];
    }

    // Flushed once at the end of the enumeration.
    let mut spur_searches: u64 = 0;
    let mut candidates_generated: u64 = 0;
    let mut duplicate_candidates: u64 = 0;
    let mut candidate_edges: u64 = 0;

    // Admissible heuristic: a caller-shared distance table, or exact
    // distances to target on the caller's view.
    let owned_rev: Vec<f64>;
    let rev: &[f64] = if let Some(shared) = &config.shared_reverse {
        debug_assert!(shared.len() >= n, "shared reverse table too short");
        shared
    } else {
        owned_rev = scratch
            .dijkstra
            .distances(view, &weight, target, Direction::Backward);
        &owned_rev
    };
    scratch.astar.set_cancel(config.cancel.clone());

    // Working view: caller's removals plus temporary spur removals.
    let mut work = view.clone();

    let first = Rc::new(first);
    let mut routes = RouteSet::default();
    let first_fingerprint = first.edges().iter().fold(FOLD_SEED, |h, &e| fold(h, e));
    routes.insert(first_fingerprint, &first, first.len(), &[]);
    let mut accepted: Vec<(Rc<Path>, usize)> = vec![(first, 0)];
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();

    while accepted.len() < k {
        if let Some(token) = &config.cancel {
            if token.is_cancelled() {
                break;
            }
        }
        let (prev, dev_start) = {
            let last = accepted.last().expect("accepted non-empty");
            (last.0.clone(), last.1)
        };

        // Longest common prefix (in edges) of each accepted path with
        // `prev`, so the per-spur prefix test is O(1).
        let lcp: Vec<usize> = accepted
            .iter()
            .map(|(p, _)| {
                p.edges()
                    .iter()
                    .zip(prev.edges())
                    .take_while(|(a, b)| a == b)
                    .count()
            })
            .collect();

        // Cumulative prefix weights and prefix fingerprints of `prev`.
        let mut prefix_w = Vec::with_capacity(prev.len() + 1);
        let mut prefix_fp = Vec::with_capacity(prev.len() + 1);
        prefix_w.push(0.0);
        prefix_fp.push(FOLD_SEED);
        for &e in prev.edges() {
            prefix_w.push(prefix_w.last().unwrap() + weight(e));
            prefix_fp.push(fold(*prefix_fp.last().unwrap(), e));
        }

        #[allow(clippy::needless_range_loop)] // i indexes nodes, edges and prefix weights together
        for i in dev_start..prev.len() {
            let spur_node = prev.nodes()[i];

            // Pooled buffer instead of a per-spur allocation: taken out
            // of the scratch for the duration of the spur and put back
            // (cleared) below.
            let mut removed = std::mem::take(&mut scratch.spur_removed);
            removed.clear();
            // Block the next edge of every accepted path sharing the
            // first `i` edges with prev.
            for ((p, _), &l) in accepted.iter().zip(&lcp) {
                if l >= i && p.len() > i {
                    let e = p.edges()[i];
                    if work.remove_edge(e) {
                        removed.push(e);
                    }
                }
            }
            // Remove the root-path nodes (all their out-edges) so spur
            // paths cannot re-enter the prefix and stay simple.
            for &v in &prev.nodes()[..i] {
                for e in net.out_edges(v) {
                    if work.remove_edge(e) {
                        removed.push(e);
                    }
                }
            }

            spur_searches += 1;
            if let Some(spur) =
                scratch
                    .astar
                    .shortest_path(&work, &weight, |v| rev[v.index()], spur_node, target)
            {
                let root = &prev.edges()[..i];
                let fingerprint = spur.edges().iter().fold(prefix_fp[i], |h, &e| fold(h, e));
                if routes.contains(fingerprint, root, spur.edges()) {
                    duplicate_candidates += 1;
                } else {
                    candidates_generated += 1;
                    candidate_edges += spur.len() as u64;
                    heap.push(Candidate {
                        total: prefix_w[i] + spur.total_weight(),
                        route: routes.insert(fingerprint, &prev, i, spur.edges()),
                    });
                }
            }

            for &e in &removed {
                work.restore_edge(e);
            }
            scratch.spur_removed = removed;
        }

        match heap.pop() {
            Some(c) => {
                let path = c.route.to_path(net, c.total);
                accepted.push((Rc::new(path), c.route.deviation));
            }
            None => break,
        }
    }

    obs::add("routing.yen.queries", 1);
    obs::add("routing.yen.spur_searches", spur_searches);
    obs::add("routing.yen.duplicate_candidates", duplicate_candidates);
    obs::add("routing.yen.candidate_edges", candidate_edges);
    obs::record_value("routing.yen.candidates_per_query", candidates_generated);
    obs::record_value("routing.yen.paths_per_query", accepted.len() as u64);

    // Candidates and stored routes hold the accepted paths' `Rc`s;
    // release them so each path is handed out without a copy.
    drop((heap, routes));
    accepted
        .into_iter()
        .map(|(p, _)| Rc::try_unwrap(p).unwrap_or_else(|p| (*p).clone()))
        .collect()
}

/// Convenience wrapper returning only the `rank`-th shortest path
/// (1-based: `rank == 1` is the shortest). The paper's experiments use
/// `rank == 100` as the attacker's chosen alternative route `p*`.
///
/// Returns `None` if fewer than `rank` simple paths exist.
pub fn kth_shortest_path<F>(
    view: &GraphView<'_>,
    weight: F,
    source: NodeId,
    target: NodeId,
    rank: usize,
) -> Option<Path>
where
    F: Fn(EdgeId) -> f64,
{
    if rank == 0 {
        return None;
    }
    let mut paths = k_shortest_paths(view, weight, source, target, rank);
    if paths.len() < rank {
        return None;
    }
    Some(paths.swap_remove(rank - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_graph::{EdgeAttrs, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    fn len(net: &RoadNetwork) -> impl Fn(EdgeId) -> f64 + '_ {
        move |e| net.edge_attrs(e).length_m
    }

    /// Classic Yen example graph (directed, from the original paper).
    fn yen_example() -> (RoadNetwork, Vec<NodeId>) {
        // c → d → f → h with extra arcs; known 3 shortest paths:
        // c-e-f-h (5), c-e-g-h (7), c-d-f-h (8)
        let mut b = RoadNetworkBuilder::new("yen");
        let c = b.add_node(Point::new(0.0, 0.0));
        let d = b.add_node(Point::new(1.0, 1.0));
        let e = b.add_node(Point::new(1.0, -1.0));
        let f = b.add_node(Point::new(2.0, 1.0));
        let g = b.add_node(Point::new(2.0, -1.0));
        let h = b.add_node(Point::new(3.0, 0.0));
        let mut arc = |from, to, w: f64| {
            let mut a = EdgeAttrs::from_class(RoadClass::Primary, w);
            a.length_m = w;
            b.add_edge(from, to, a);
        };
        arc(c, d, 3.0);
        arc(c, e, 2.0);
        arc(d, f, 4.0);
        arc(e, d, 1.0);
        arc(e, f, 2.0);
        arc(e, g, 3.0);
        arc(f, g, 2.0);
        arc(f, h, 1.0);
        arc(g, h, 2.0);
        (b.build(), vec![c, d, e, f, g, h])
    }

    #[test]
    fn yen_classic_example() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].total_weight(), 5.0);
        assert_eq!(paths[1].total_weight(), 7.0);
        assert_eq!(paths[2].total_weight(), 8.0);
    }

    #[test]
    fn paths_are_sorted_simple_and_distinct() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 10);
        for w in paths.windows(2) {
            assert!(w[0].total_weight() <= w[1].total_weight() + 1e-12);
            assert_ne!(w[0].edges(), w[1].edges());
        }
        for p in &paths {
            assert!(p.is_simple(), "{p}");
            assert_eq!(p.source(), nodes[0]);
            assert_eq!(p.target(), nodes[5]);
        }
    }

    #[test]
    fn exhausts_finite_path_count() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 1000);
        // The graph has a small finite number of simple c→h paths.
        assert!(paths.len() < 20);
        assert!(paths.len() >= 3);
        // Asking for more must not change the set.
        let again = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 2000);
        assert_eq!(paths.len(), again.len());
    }

    #[test]
    fn grid_path_counts() {
        // 3×3 grid: simple monotone paths 0→8 include all 6 lattice
        // paths of length 400; more with detours.
        let mut b = RoadNetworkBuilder::new("grid3");
        let mut nodes = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                nodes.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                if x + 1 < 3 {
                    b.add_street(nodes[i], nodes[i + 1], RoadClass::Residential);
                }
                if y + 1 < 3 {
                    b.add_street(nodes[i], nodes[i + 3], RoadClass::Residential);
                }
            }
        }
        let net = b.build();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[8], 6);
        assert_eq!(paths.len(), 6);
        for p in &paths {
            assert_eq!(p.total_weight(), 400.0, "first six are monotone");
        }
    }

    #[test]
    fn respects_caller_removals() {
        let (net, nodes) = yen_example();
        let mut view = GraphView::new(&net);
        // remove e→f (the spine of the shortest path)
        let ef = net.find_edge(nodes[2], nodes[3]).unwrap();
        view.remove_edge(ef);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 5);
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(!p.contains_edge(ef));
        }
        assert_eq!(paths[0].total_weight(), 7.0); // c-e-g-h
    }

    #[test]
    fn unreachable_gives_empty() {
        let (net, nodes) = yen_example();
        let mut view = GraphView::new(&net);
        for e in net.edges() {
            view.remove_edge(e);
        }
        assert!(k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 3).is_empty());
    }

    #[test]
    fn k_zero_gives_empty() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        assert!(k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 0).is_empty());
    }

    #[test]
    fn kth_shortest_path_rank() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let p1 = kth_shortest_path(&view, len(&net), nodes[0], nodes[5], 1).unwrap();
        assert_eq!(p1.total_weight(), 5.0);
        let p3 = kth_shortest_path(&view, len(&net), nodes[0], nodes[5], 3).unwrap();
        assert_eq!(p3.total_weight(), 8.0);
        assert!(kth_shortest_path(&view, len(&net), nodes[0], nodes[5], 9999).is_none());
        assert!(kth_shortest_path(&view, len(&net), nodes[0], nodes[5], 0).is_none());
    }

    #[test]
    fn source_equals_target() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[0], 5);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].is_empty());
    }

    #[test]
    fn shared_reverse_table_matches_owned_computation() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        // The table the enumeration would compute for itself, shared.
        let mut dij = crate::Dijkstra::new(net.num_nodes());
        let rev = dij.distances(&view, len(&net), nodes[5], Direction::Backward);
        let shared = k_shortest_paths_with(
            &view,
            len(&net),
            nodes[0],
            nodes[5],
            8,
            &YenConfig {
                shared_reverse: Some(Arc::new(rev)),
                ..YenConfig::default()
            },
        );
        let owned = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 8);
        assert_eq!(shared.len(), owned.len());
        for (a, b) in shared.iter().zip(&owned) {
            assert_eq!(a.edges(), b.edges());
            assert_eq!(a.total_weight(), b.total_weight());
        }
    }

    #[test]
    fn shared_supergraph_table_stays_admissible_after_removals() {
        let (net, nodes) = yen_example();
        // Table computed on the intact graph...
        let intact = GraphView::new(&net);
        let mut dij = crate::Dijkstra::new(net.num_nodes());
        let rev = Arc::new(dij.distances(&intact, len(&net), nodes[5], Direction::Backward));
        // ...used on a view with an edge removed (distances only grew).
        let mut view = GraphView::new(&net);
        let ef = net.find_edge(nodes[2], nodes[3]).unwrap();
        view.remove_edge(ef);
        let shared = k_shortest_paths_with(
            &view,
            len(&net),
            nodes[0],
            nodes[5],
            5,
            &YenConfig {
                shared_reverse: Some(rev),
                ..YenConfig::default()
            },
        );
        let owned = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 5);
        assert_eq!(shared.len(), owned.len());
        for (a, b) in shared.iter().zip(&owned) {
            assert_eq!(a.edges(), b.edges());
        }
    }

    #[test]
    fn cancelled_enumeration_returns_prefix() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let token = CancelToken::new();
        token.cancel();
        let config = YenConfig {
            cancel: Some(token),
            ..YenConfig::default()
        };
        // The initial Dijkstra on this tiny graph completes before the
        // first stride check, so the shortest path is accepted; the
        // outer loop then sees the cancelled token and stops.
        let paths = k_shortest_paths_with(&view, len(&net), nodes[0], nodes[5], 8, &config);
        assert!(paths.len() <= 1);
    }

    #[test]
    fn working_view_restored_between_calls() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let a = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 4);
        let b = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.edges(), y.edges());
        }
        assert_eq!(view.removed_count(), 0);
    }
}
