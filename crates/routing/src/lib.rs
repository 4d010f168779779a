//! Shortest-path algorithms for metropolitan road networks.
//!
//! This crate provides the routing substrate used by the `pathattack`
//! attack algorithms and the experiment harness of the `metro-attack`
//! workspace (a reproduction of *"Alternative Route-Based Attacks in
//! Metropolitan Traffic Systems"*, DSN 2022):
//!
//! - [`Dijkstra`] — reusable single-source searcher with generation-
//!   stamped buffers (the attack inner loop).
//! - [`AStar`] — heuristic-guided point-to-point search; paired with
//!   exact reverse distances it accelerates Yen's spur searches.
//! - [`RepairTable`] — exact distances to the target on a view with
//!   edges removed, repaired decrementally after each cut. It is the
//!   one distance table the attack oracle prunes its searches with.
//! - [`k_shortest_paths`] / [`kth_shortest_path`] — Yen's algorithm with
//!   Lawler's optimization, used to pick the paper's alternative route
//!   `p*` (the 100th shortest path) and the Table X thresholds.
//! - [`Path`] — immutable path values with weight accounting.
//! - [`Cch`] — a customizable contraction hierarchy. No attack, sweep
//!   or serve path uses it; it stays only for the `perf_ch` bench and
//!   the benchmark's set-up side measurement.
//!
//! # Examples
//!
//! ```
//! use traffic_graph::{RoadNetworkBuilder, GraphView, Point, RoadClass};
//! use routing::{Dijkstra, k_shortest_paths};
//!
//! let mut b = RoadNetworkBuilder::new("block");
//! let p00 = b.add_node(Point::new(0.0, 0.0));
//! let p10 = b.add_node(Point::new(100.0, 0.0));
//! let p11 = b.add_node(Point::new(100.0, 100.0));
//! let p01 = b.add_node(Point::new(0.0, 100.0));
//! b.add_street(p00, p10, RoadClass::Residential);
//! b.add_street(p10, p11, RoadClass::Residential);
//! b.add_street(p00, p01, RoadClass::Residential);
//! b.add_street(p01, p11, RoadClass::Residential);
//! let net = b.build();
//! let view = GraphView::new(&net);
//!
//! let weight = |e| net.edge_attrs(e).travel_time_s();
//! let mut dij = Dijkstra::new(net.num_nodes());
//! let best = dij.shortest_path(&view, weight, p00, p11).unwrap();
//! let all = k_shortest_paths(&view, weight, p00, p11, 10);
//! assert_eq!(best.total_weight(), all[0].total_weight());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod astar;
mod cancel;
mod cch;
mod dijkstra;
mod heap;
mod overlay;
mod path;
mod repair;
mod scratch;
mod yen;

pub use astar::AStar;
pub use cancel::{CancelToken, CHECK_STRIDE};
pub use cch::{Cch, CchMetric, CchSearch};
pub use dijkstra::{Dijkstra, Direction};
pub use heap::{HeapEntry, NO_EDGE};
pub use overlay::WeightOverlay;
pub use path::{BrokenPathError, Path};
pub use repair::{RepairOutcome, RepairTable};
pub use scratch::{acquire_scratch, ScratchGuard, SearchScratch};
pub use yen::{k_shortest_paths, k_shortest_paths_with, kth_shortest_path, YenConfig};
