//! Property-based tests over random networks, spanning routing and
//! attack invariants.

use metro_attack::prelude::*;
use proptest::prelude::*;

/// Builds a random two-way grid with random street lengths; always
/// strongly connected.
fn random_grid(w: usize, h: usize, lengths: &[f64]) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new("prop-grid");
    let mut nodes = Vec::new();
    for y in 0..h {
        for x in 0..w {
            nodes.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
        }
    }
    let mut li = 0usize;
    let next_len = |li: &mut usize| {
        let l = lengths[*li % lengths.len()];
        *li += 1;
        100.0 + l
    };
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                let len = next_len(&mut li);
                b.add_two_way(
                    nodes[i],
                    nodes[i + 1],
                    EdgeAttrs::from_class(RoadClass::Residential, len),
                );
            }
            if y + 1 < h {
                let len = next_len(&mut li);
                b.add_two_way(
                    nodes[i],
                    nodes[i + w],
                    EdgeAttrs::from_class(RoadClass::Residential, len),
                );
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dijkstra distances satisfy the triangle inequality over edges.
    #[test]
    fn dijkstra_relaxed_edges(
        lengths in prop::collection::vec(0.0f64..400.0, 24..60),
        w in 3usize..6,
        h in 3usize..6,
    ) {
        let net = random_grid(w, h, &lengths);
        let view = GraphView::new(&net);
        let mut dij = Dijkstra::new(net.num_nodes());
        let dist = dij.distances(
            &view,
            |e| net.edge_attrs(e).length_m,
            NodeId::new(0),
            Direction::Forward,
        );
        for e in net.edges() {
            let (u, v) = net.edge_endpoints(e);
            let wuv = net.edge_attrs(e).length_m;
            prop_assert!(
                dist[v.index()] <= dist[u.index()] + wuv + 1e-9,
                "edge {u}→{v} not relaxed: {} > {} + {}",
                dist[v.index()], dist[u.index()], wuv
            );
        }
    }

    /// Yen's paths are sorted, simple, distinct, and the first one
    /// matches Dijkstra.
    #[test]
    fn yen_invariants(
        lengths in prop::collection::vec(0.0f64..400.0, 24..60),
        w in 3usize..6,
        h in 3usize..6,
        k in 2usize..12,
    ) {
        let net = random_grid(w, h, &lengths);
        let view = GraphView::new(&net);
        let s = NodeId::new(0);
        let t = NodeId::new(net.num_nodes() - 1);
        let weight = |e: EdgeId| net.edge_attrs(e).length_m;
        let paths = k_shortest_paths(&view, weight, s, t, k);
        prop_assert!(!paths.is_empty());

        let mut dij = Dijkstra::new(net.num_nodes());
        let best = dij.shortest_path(&view, weight, s, t).unwrap();
        prop_assert!((paths[0].total_weight() - best.total_weight()).abs() < 1e-9);

        for p in &paths {
            prop_assert!(p.is_simple());
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(), t);
        }
        for pair in paths.windows(2) {
            prop_assert!(pair[0].total_weight() <= pair[1].total_weight() + 1e-9);
            prop_assert_ne!(pair[0].edges(), pair[1].edges());
        }
    }

    /// Every attack algorithm succeeds on a random grid instance and the
    /// outcome passes independent verification; the intelligent
    /// algorithms never cost more than GreedyEdge.
    #[test]
    fn attacks_verify_on_random_grids(
        lengths in prop::collection::vec(0.0f64..300.0, 24..60),
        w in 4usize..6,
        h in 4usize..6,
        rank in 3usize..8,
    ) {
        let net = random_grid(w, h, &lengths);
        let s = NodeId::new(0);
        let t = NodeId::new(net.num_nodes() - 1);
        let Ok(problem) = AttackProblem::with_path_rank(
            &net, WeightType::Length, CostType::Uniform, s, t, rank,
        ) else {
            // tiny instances may not have `rank` simple paths — fine
            return Ok(());
        };
        let mut edge_cost = None;
        for alg in all_algorithms() {
            let out = alg.attack(&problem);
            prop_assert!(out.is_success(), "{} failed: {:?}", out.algorithm, out.status);
            prop_assert!(out.verify(&problem).is_ok(), "{} did not verify", out.algorithm);
            if out.algorithm == "GreedyEdge" {
                edge_cost = Some(out.total_cost);
            } else if out.algorithm == "LP-PathCover" || out.algorithm == "GreedyPathCover" {
                if let Some(ec) = edge_cost {
                    prop_assert!(out.total_cost <= ec + 1e-9);
                }
            }
        }
    }

    /// Min-cut isolation really disconnects the area, and its cost
    /// equals the max-flow value.
    #[test]
    fn isolation_cut_disconnects(
        lengths in prop::collection::vec(0.0f64..300.0, 24..60),
        w in 3usize..6,
        h in 3usize..6,
    ) {
        let net = random_grid(w, h, &lengths);
        let view = GraphView::new(&net);
        let target = NodeId::new(net.num_nodes() - 1);
        let cut = isolate_area(&view, &[target], |_| 1.0).unwrap();
        let mut attacked = GraphView::new(&net);
        for (e, _) in &cut.edges {
            attacked.remove_edge(*e);
        }
        prop_assert!(!is_reachable(&attacked, NodeId::new(0), target));
        // cost coherence
        let sum: f64 = cut.edges.iter().map(|&(_, c)| c).sum();
        prop_assert!((sum - cut.total_cost).abs() < 1e-9);
    }
}

/// LP-PathCover ordering note: the algorithms run in declaration order
/// (LP first), so the cost comparison above only fires when GreedyEdge
/// ran earlier. This deterministic test covers the reverse direction.
#[test]
fn lp_at_most_greedy_edge_cost_deterministic() {
    let lengths: Vec<f64> = (0..40).map(|i| (i * 37 % 191) as f64).collect();
    let net = random_grid(5, 5, &lengths);
    let s = NodeId::new(0);
    let t = NodeId::new(net.num_nodes() - 1);
    let problem =
        AttackProblem::with_path_rank(&net, WeightType::Length, CostType::Uniform, s, t, 6)
            .unwrap();
    let lp = LpPathCover.attack(&problem);
    let ge = GreedyEdge.attack(&problem);
    assert!(lp.is_success() && ge.is_success());
    assert!(lp.total_cost <= ge.total_cost + 1e-9);
}
