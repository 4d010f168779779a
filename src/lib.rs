//! # metro-attack
//!
//! A production-quality Rust reproduction of *"Alternative Route-Based
//! Attacks in Metropolitan Traffic Systems"* (DSN 2022).
//!
//! Connected and autonomous vehicles route optimally — and therefore
//! predictably. An attacker who knows a victim's source and destination
//! can block a handful of road segments so that a chosen sub-optimal
//! route `p*` becomes the *exclusive* shortest path. This workspace
//! implements that attack (the Force Path Cut problem on directed road
//! networks), the four algorithms the paper evaluates, every substrate
//! they need, and a harness that regenerates the paper's tables and
//! figures.
//!
//! This crate is a facade that re-exports the workspace's public API:
//!
//! - [`graph`] — road-network storage, removal masks, centrality, flow
//!   ([`traffic_graph`]).
//! - [`routing`] — Dijkstra / A\* / Yen's k-shortest paths, plus the
//!   decremental distance repair the attack oracle prunes with.
//! - [`lp`] — the two-phase simplex solver behind `LP-PathCover`.
//! - [`osm`] — OpenStreetMap XML import.
//! - [`citygen`] — synthetic city generators with Boston / San Francisco
//!   / Chicago / Los Angeles presets.
//! - [`attack`] — the Force Path Cut algorithms ([`pathattack`]).
//! - [`experiments`] — the paper's experiment harness, tables and SVG
//!   figures.
//!
//! # Quickstart
//!
//! ```
//! use metro_attack::prelude::*;
//!
//! // A Chicago-like lattice with four hospitals attached.
//! let city = CityPreset::Chicago.build(Scale::Small, 42);
//! let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
//!
//! // Attack: make the 10th-shortest route to the hospital optimal.
//! let problem = AttackProblem::with_path_rank(
//!     &city, WeightType::Time, CostType::Uniform, NodeId::new(0), hospital, 10,
//! ).unwrap();
//! let outcome = GreedyPathCover::default().attack(&problem);
//! assert!(outcome.is_success());
//! outcome.verify(&problem).unwrap();
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use citygen;
pub use experiments;
pub use lp;
pub use obs;
pub use osm;
pub use pathattack as attack;
pub use routing;
pub use traffic_graph as graph;
pub use traffic_sim as sim;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use citygen::{
        generate_coastal, generate_grid, generate_organic, generate_sprawl, summarize, CityPreset,
        CoastalConfig, GridConfig, OrganicConfig, Scale, SprawlConfig,
    };
    pub use experiments::{
        aggregate, aggregate_perturb, city_average, perturb_records_to_csv, rank_sweep,
        records_to_csv, render_experiment_table, render_rank_sweep, render_svg, render_table1,
        render_table10, render_table9, run_instances_resumable, run_perturb_instances,
        run_perturb_instances_resumable, run_plan, sample_instances, threshold_row, write_atomic,
        CheckpointJournal, ExperimentPlan, FigureSpec, JournalRecord, PerturbAggregateRow,
        PerturbOptions, PerturbRecord, RankSweepPoint,
    };
    pub use pathattack::{
        algorithm_by_name, all_algorithms, all_algorithms_extended, coordinated_attack,
        critical_segments, minimal_hardening, AttackAlgorithm, AttackOutcome, AttackProblem,
        AttackStatus, CoordinatedError, CoordinatedOutcome, CostType, CriticalSegment, Degradation,
        FaultPlan, GreedyBetweenness, GreedyEdge, GreedyEig, GreedyPathCover, HardeningPlan,
        LpPathCover, LpPerturb, Oracle, PerturbProblem, PerturbResult, RunLimits, WeightType,
    };
    pub use routing::{
        k_shortest_paths, k_shortest_paths_with, kth_shortest_path, AStar, Dijkstra, Direction,
        Path, YenConfig,
    };
    pub use traffic_graph::{
        average_circuity, edge_betweenness, eigenvector_centrality, is_reachable,
        is_strongly_connected, isolate_area, orientation_order, EdgeAttrs, EdgeId, GraphView,
        NodeId, PoiKind, Point, RoadClass, RoadNetwork, RoadNetworkBuilder,
    };
    pub use traffic_sim::{
        assign, attack_impact, AssignmentConfig, AssignmentResult, ImpactReport, Latency, OdMatrix,
        OdPair,
    };
}
