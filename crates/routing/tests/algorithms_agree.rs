//! Cross-validation: all shortest-path implementations must agree on
//! random directed networks, including unreachable pairs.

use proptest::prelude::*;
use routing::{AStar, Dijkstra, Direction};
use traffic_graph::{
    EdgeAttrs, GraphView, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder,
};

fn network_from(n_nodes: usize, arcs: &[(usize, usize, f64)]) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new("prop");
    let nodes: Vec<NodeId> = (0..n_nodes)
        .map(|i| b.add_node(Point::new((i % 5) as f64 * 100.0, (i / 5) as f64 * 100.0)))
        .collect();
    for &(u, v, w) in arcs {
        let mut attrs = EdgeAttrs::from_class(RoadClass::Residential, 1.0 + w);
        attrs.length_m = 1.0 + w;
        b.add_edge(nodes[u % n_nodes], nodes[v % n_nodes], attrs);
    }
    b.build()
}

fn instances() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..12).prop_flat_map(|n| {
        let arcs = prop::collection::vec((0..n, 0..n, 0.0f64..500.0), 0..36);
        (Just(n), arcs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dijkstra_and_astar_agree((n, arcs) in instances()) {
        let net = network_from(n, &arcs);
        let view = GraphView::new(&net);
        let weight = |e: traffic_graph::EdgeId| net.edge_attrs(e).length_m;
        let s = NodeId::new(0);
        let t = NodeId::new(n - 1);

        let mut dij = Dijkstra::new(n);
        let d = dij.shortest_path(&view, weight, s, t);

        // A* with exact reverse distances (strongest admissible heuristic)
        let rev = dij.distances(&view, weight, t, Direction::Backward);
        let mut astar = AStar::new(n);
        let a = astar.shortest_path(&view, weight, |v| rev[v.index()], s, t);

        match (&d, &a) {
            (Some(pd), Some(pa)) => {
                prop_assert!((pd.total_weight() - pa.total_weight()).abs() < 1e-9,
                    "dijkstra {} vs astar {}", pd.total_weight(), pa.total_weight());
                // paths themselves must be valid and contiguous
                for p in [pd, pa] {
                    prop_assert_eq!(p.source(), s);
                    prop_assert_eq!(p.target(), t);
                    for (i, &e) in p.edges().iter().enumerate() {
                        prop_assert_eq!(net.edge_source(e), p.nodes()[i]);
                        prop_assert_eq!(net.edge_target(e), p.nodes()[i + 1]);
                    }
                }
            }
            (None, None) => {}
            other => {
                return Err(TestCaseError::fail(format!(
                    "reachability mismatch: dijkstra={:?} astar={:?}",
                    other.0.is_some(), other.1.is_some()
                )));
            }
        }
    }

    /// Dijkstra's distance vector is a fixed point of edge relaxation on
    /// arbitrary directed graphs (not just grids).
    #[test]
    fn distances_are_fixed_point((n, arcs) in instances()) {
        let net = network_from(n, &arcs);
        let view = GraphView::new(&net);
        let weight = |e: traffic_graph::EdgeId| net.edge_attrs(e).length_m;
        let mut dij = Dijkstra::new(n);
        let dist = dij.distances(&view, weight, NodeId::new(0), Direction::Forward);
        for e in net.edges() {
            let (u, v) = net.edge_endpoints(e);
            if dist[u.index()].is_finite() {
                prop_assert!(dist[v.index()] <= dist[u.index()] + weight(e) + 1e-9);
            }
        }
        prop_assert_eq!(dist[0], 0.0);
    }
}
