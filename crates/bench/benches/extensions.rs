//! Benches for the workspace's extension features: coordinated
//! multi-victim attacks, reconnaissance, the path-rank sweep, and the
//! LP rounding strategies.

use citygen::{CityPreset, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::rank_sweep;
use pathattack::{
    coordinated_attack, critical_segments, AttackAlgorithm, AttackProblem, CostType,
    GreedyPathCover, LpPathCover, WeightType,
};
use std::time::Duration;
use traffic_graph::{NodeId, PoiKind, RoadNetwork};

fn city() -> RoadNetwork {
    CityPreset::Chicago.build(Scale::Custom(0.04), 11)
}

fn configure(g: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
}

fn coordinated(c: &mut Criterion) {
    let net = city();
    let hospital = net.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
    let n = net.num_nodes();
    let mut g = c.benchmark_group("extension_coordinated");
    configure(&mut g);
    for victims in [1usize, 2, 4] {
        let problems: Vec<AttackProblem<'_>> = (0..victims)
            .filter_map(|i| {
                AttackProblem::with_path_rank(
                    &net,
                    WeightType::Time,
                    CostType::Uniform,
                    NodeId::new((100 + i * 307) % n),
                    hospital,
                    8,
                )
                .ok()
            })
            .collect();
        if problems.is_empty() {
            continue;
        }
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}_victims", problems.len())),
            &problems,
            |b, probs| b.iter(|| coordinated_attack(probs)),
        );
    }
    g.finish();
}

fn recon(c: &mut Criterion) {
    let net = city();
    let mut g = c.benchmark_group("extension_recon");
    configure(&mut g);
    for sources in [8usize, 32] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{sources}_sources")),
            &sources,
            |b, &s| b.iter(|| critical_segments(&net, WeightType::Time, Some(s), 20)),
        );
    }
    g.finish();
}

fn sweep(c: &mut Criterion) {
    let net = city();
    let hospital = net.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
    let pairs: Vec<(NodeId, NodeId)> =
        vec![(NodeId::new(5), hospital), (NodeId::new(120), hospital)];
    let mut g = c.benchmark_group("extension_rank_sweep");
    configure(&mut g);
    g.bench_function("ranks_2_8_16", |b| {
        b.iter(|| {
            rank_sweep(
                &net,
                WeightType::Time,
                CostType::Uniform,
                &pairs,
                &[2, 8, 16],
                &GreedyPathCover,
            )
        })
    });
    g.finish();
}

fn lp_rounding(c: &mut Criterion) {
    let net = city();
    let hospital = net.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
    let problem = AttackProblem::with_path_rank(
        &net,
        WeightType::Time,
        CostType::Width,
        NodeId::new(100),
        hospital,
        12,
    )
    .expect("instance");
    let mut g = c.benchmark_group("extension_lp_rounding");
    configure(&mut g);
    g.bench_function("deterministic", |b| b.iter(|| LpPathCover.attack(&problem)));
    g.finish();
}

criterion_group!(extensions, coordinated, recon, sweep, lp_rounding);
criterion_main!(extensions);
