//! Microbenches for every substrate the reproduction is built on:
//! routing primitives, centrality, max-flow, the LP solver, the city
//! generators and the OSM parser.

use citygen::{CityPreset, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lp::{ConstraintOp, Problem as LpProblem};
use pathattack::WeightType;
use routing::{k_shortest_paths, AStar, Dijkstra};
use std::time::Duration;
use traffic_graph::{
    edge_betweenness, eigenvector_centrality, isolate_area, GraphView, NodeId, PoiKind, RoadNetwork,
};

fn city() -> RoadNetwork {
    CityPreset::Chicago.build(Scale::Custom(0.08), 42)
}

fn configure(g: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
}

fn routing_primitives(c: &mut Criterion) {
    let net = city();
    let weight = WeightType::Time.compute(&net);
    let view = GraphView::new(&net);
    let hospital = net.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
    let source = bench::pick_far_source(&net, hospital, WeightType::Time, 42);
    let tp = net.node_point(hospital);
    // conservative speed bound for an admissible time heuristic
    let vmax = net
        .edges()
        .map(|e| net.edge_attrs(e).speed_limit_mps)
        .fold(1.0f64, f64::max);

    let mut g = c.benchmark_group("routing");
    configure(&mut g);
    g.bench_function("dijkstra_point_to_point", |b| {
        let mut dij = Dijkstra::new(net.num_nodes());
        b.iter(|| dij.shortest_path(&view, |e| weight[e.index()], source, hospital))
    });
    g.bench_function("astar_geo_heuristic", |b| {
        let mut astar = AStar::new(net.num_nodes());
        b.iter(|| {
            astar.shortest_path(
                &view,
                |e| weight[e.index()],
                |v| net.node_point(v).distance(tp) / vmax,
                source,
                hospital,
            )
        })
    });
    for k in [10usize, 50] {
        g.bench_with_input(BenchmarkId::new("yen_k_shortest", k), &k, |b, &k| {
            b.iter(|| k_shortest_paths(&view, |e| weight[e.index()], source, hospital, k))
        });
    }
    g.finish();
}

fn centrality_and_flow(c: &mut Criterion) {
    let net = city();
    let weight = WeightType::Time.compute(&net);
    let view = GraphView::new(&net);
    let hospital = net.pois_of_kind(PoiKind::Hospital).next().unwrap();

    let mut g = c.benchmark_group("centrality_flow");
    configure(&mut g);
    g.bench_function("eigenvector_centrality", |b| {
        b.iter(|| eigenvector_centrality(&view, 100, 1e-8))
    });
    let sample: Vec<NodeId> = (0..16)
        .map(|i| NodeId::new(i * 37 % net.num_nodes()))
        .collect();
    g.bench_function("edge_betweenness_16_sources", |b| {
        b.iter(|| edge_betweenness(&view, |e| weight[e.index()], Some(&sample)))
    });
    let area: Vec<NodeId> = net
        .nodes()
        .filter(|&v| net.node_point(v).distance(hospital.point) < 400.0)
        .collect();
    g.bench_function("dinic_isolate_hospital_area", |b| {
        b.iter(|| isolate_area(&view, &area, |_| 1.0))
    });
    g.finish();
}

fn lp_solver(c: &mut Criterion) {
    // Random-ish weighted set-cover LPs of the shape LP-PathCover emits.
    let build = |vars: usize, rows: usize| {
        let mut lp = LpProblem::minimize((0..vars).map(|v| 1.0 + (v % 5) as f64).collect());
        for v in 0..vars {
            lp.bound_var(v, 1.0);
        }
        for r in 0..rows {
            let terms: Vec<(usize, f64)> = (0..vars)
                .filter(|v| (v * 7 + r * 13) % 4 == 0)
                .map(|v| (v, 1.0))
                .collect();
            lp.add_constraint(terms, ConstraintOp::Ge, 1.0);
        }
        lp
    };
    let mut g = c.benchmark_group("lp_simplex");
    configure(&mut g);
    for (vars, rows) in [(20usize, 8usize), (80, 24), (200, 40)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{vars}v_{rows}c")),
            &(vars, rows),
            |b, &(v, r)| {
                let lp = build(v, r);
                b.iter(|| lp.solve())
            },
        );
    }
    g.finish();
}

fn generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("citygen");
    configure(&mut g);
    for preset in CityPreset::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(preset.name()),
            &preset,
            |b, &p| b.iter(|| p.build(Scale::Custom(0.04), 7)),
        );
    }
    g.finish();
}

fn osm_parsing(c: &mut Criterion) {
    // Synthesize a mid-sized OSM document (grid of ways).
    let mut xml = String::from("<osm>");
    let n = 40usize;
    for y in 0..n {
        for x in 0..n {
            let id = y * n + x + 1;
            xml.push_str(&format!(
                r#"<node id="{id}" lat="{}" lon="{}"/>"#,
                42.0 + y as f64 * 1e-3,
                -71.0 + x as f64 * 1e-3
            ));
        }
    }
    let mut wid = 100_000;
    for y in 0..n {
        wid += 1;
        xml.push_str(&format!(r#"<way id="{wid}">"#));
        for x in 0..n {
            xml.push_str(&format!(r#"<nd ref="{}"/>"#, y * n + x + 1));
        }
        xml.push_str(r#"<tag k="highway" v="residential"/></way>"#);
    }
    xml.push_str("</osm>");

    let mut g = c.benchmark_group("osm");
    configure(&mut g);
    g.bench_function("parse_1600_nodes", |b| {
        b.iter(|| osm::OsmDocument::parse(&xml).unwrap())
    });
    let doc = osm::OsmDocument::parse(&xml).unwrap();
    g.bench_function("import_1600_nodes", |b| {
        b.iter(|| osm::import_document(&doc, &osm::ImportOptions::default()))
    });
    g.finish();
}

fn traffic_assignment(c: &mut Criterion) {
    use traffic_sim::{assign, AssignmentConfig, Latency, OdMatrix};
    let net = city();
    let latencies: Vec<Latency> = net
        .edges()
        .map(|e| Latency::from_attrs(net.edge_attrs(e)))
        .collect();
    let view = GraphView::new(&net);
    let mut g = c.benchmark_group("traffic_sim");
    configure(&mut g);
    for trips in [10usize, 40] {
        let demand = OdMatrix::synthetic_hospital_demand(&net, trips, 400.0, 7);
        g.bench_with_input(
            BenchmarkId::new("msa_equilibrium", format!("{trips}_trips")),
            &demand,
            |b, d| b.iter(|| assign(&view, &latencies, d, &AssignmentConfig::default())),
        );
    }
    g.finish();
}

criterion_group!(
    substrates,
    routing_primitives,
    centrality_and_flow,
    lp_solver,
    generators,
    osm_parsing,
    traffic_assignment
);
criterion_main!(substrates);
