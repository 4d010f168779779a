//! End-to-end pipeline tests spanning citygen → routing → pathattack.

use metro_attack::prelude::*;

/// Runs all four algorithms on the same instance and verifies each
/// outcome independently.
fn attack_all_and_verify(city: &RoadNetwork, rank: usize, seed_source: usize) {
    let hospital = city
        .pois_of_kind(PoiKind::Hospital)
        .next()
        .expect("hospital attached");
    let source = NodeId::new(seed_source % city.num_nodes());
    if source == hospital.node {
        return;
    }
    let Ok(problem) = AttackProblem::with_path_rank(
        city,
        WeightType::Time,
        CostType::Lanes,
        source,
        hospital.node,
        rank,
    ) else {
        panic!("rank-{rank} alternative should exist on this city");
    };
    for alg in all_algorithms() {
        let out = alg.attack(&problem);
        assert!(
            out.is_success(),
            "{} must succeed on {}: {:?}",
            out.algorithm,
            city.name(),
            out.status
        );
        out.verify(&problem)
            .unwrap_or_else(|e| panic!("{} verification failed: {e}", out.algorithm));
    }
}

#[test]
fn all_algorithms_succeed_on_every_city_preset() {
    for (i, preset) in CityPreset::ALL.into_iter().enumerate() {
        let city = preset.build(Scale::Small, 1000 + i as u64);
        attack_all_and_verify(&city, 15, 37 + i);
    }
}

#[test]
fn pathcover_never_beaten_by_naive_on_cost() {
    // The paper's core comparison: the intelligent algorithms (LP /
    // GreedyPathCover) find cuts at most as expensive as the naive
    // GreedyEdge on the *same* instance, in aggregate.
    let city = CityPreset::Boston.build(Scale::Small, 5);
    let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap();
    let mut lp_total = 0.0;
    let mut cover_total = 0.0;
    let mut edge_total = 0.0;
    let mut ran = 0;
    for s in [11usize, 23, 47, 91, 135] {
        let source = NodeId::new(s % city.num_nodes());
        let Ok(problem) = AttackProblem::with_path_rank(
            &city,
            WeightType::Time,
            CostType::Width,
            source,
            hospital.node,
            20,
        ) else {
            continue;
        };
        let lp = LpPathCover.attack(&problem);
        let cover = GreedyPathCover.attack(&problem);
        let edge = GreedyEdge.attack(&problem);
        if lp.is_success() && cover.is_success() && edge.is_success() {
            lp_total += lp.total_cost;
            cover_total += cover.total_cost;
            edge_total += edge.total_cost;
            ran += 1;
        }
    }
    assert!(ran >= 3, "need several successful instances, got {ran}");
    assert!(
        lp_total <= edge_total + 1e-6,
        "LP ({lp_total}) must not exceed GreedyEdge ({edge_total}) in aggregate"
    );
    assert!(
        cover_total <= edge_total + 1e-6,
        "GreedyPathCover ({cover_total}) must not exceed GreedyEdge ({edge_total})"
    );
}

#[test]
fn removed_edges_actually_flip_the_shortest_path() {
    let city = CityPreset::Chicago.build(Scale::Small, 77);
    let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap();
    let source = NodeId::new(5);
    let problem = AttackProblem::with_path_rank(
        &city,
        WeightType::Time,
        CostType::Uniform,
        source,
        hospital.node,
        12,
    )
    .unwrap();
    let weight = WeightType::Time.compute(&city);

    // Before: shortest path differs from p*.
    let mut dij = Dijkstra::new(city.num_nodes());
    let before = dij
        .shortest_path(
            &GraphView::new(&city),
            |e| weight[e.index()],
            source,
            hospital.node,
        )
        .unwrap();
    assert_ne!(before.edges(), problem.pstar().edges());
    assert!(before.total_weight() < problem.pstar_weight());

    // After: p* is the shortest path.
    let out = GreedyPathCover.attack(&problem);
    assert!(out.is_success());
    let mut attacked = GraphView::new(&city);
    for &e in &out.removed {
        attacked.remove_edge(e);
    }
    let after = dij
        .shortest_path(&attacked, |e| weight[e.index()], source, hospital.node)
        .unwrap();
    assert_eq!(after.edges(), problem.pstar().edges());
    assert!((after.total_weight() - problem.pstar_weight()).abs() < 1e-9);
}

#[test]
fn budgeted_attack_stops_short() {
    let city = CityPreset::SanFrancisco.build(Scale::Small, 8);
    let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap();
    let problem = AttackProblem::with_path_rank(
        &city,
        WeightType::Length,
        CostType::Uniform,
        NodeId::new(3),
        hospital.node,
        15,
    )
    .unwrap();
    let unbudgeted = GreedyPathCover.attack(&problem);
    assert!(unbudgeted.is_success());
    if unbudgeted.total_cost >= 2.0 {
        let tight = problem.clone().with_budget(unbudgeted.total_cost - 1.0);
        let out = GreedyPathCover.attack(&tight);
        assert_eq!(out.status, AttackStatus::BudgetExhausted);
        assert!(out.total_cost <= unbudgeted.total_cost - 1.0 + 1e-9);
    }
}

#[test]
fn attack_does_not_disconnect_city() {
    // The attack only needs to re-rank paths, never to disconnect the
    // victim from the destination: p* must stay intact.
    let city = CityPreset::LosAngeles.build(Scale::Small, 3);
    let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap();
    let problem = AttackProblem::with_path_rank(
        &city,
        WeightType::Time,
        CostType::Lanes,
        NodeId::new(42),
        hospital.node,
        10,
    )
    .unwrap();
    let out = GreedyEdge.attack(&problem);
    assert!(out.is_success());
    let mut attacked = GraphView::new(&city);
    for &e in &out.removed {
        attacked.remove_edge(e);
    }
    assert!(is_reachable(&attacked, NodeId::new(42), hospital.node));
}
