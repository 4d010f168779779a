//! Experiment harness for the DSN 2022 reproduction.
//!
//! Reproduces the paper's experimental methodology (§III-A): hospitals
//! as destinations, random source intersections, the 100th shortest path
//! as the attacker's alternative route, and the Avg. Runtime / ANER /
//! ACRE metrics — plus the Table X path-rank thresholds and the
//! Figures 1–4 SVG renderings.
//!
//! - [`ExperimentPlan`] / [`run_plan`] — run one (city, weight) set
//!   across all cost types and algorithms, in parallel.
//! - [`aggregate`] / [`city_average`] — the paper's table cells.
//! - [`threshold_row`] — Table X.
//! - [`render_svg`] — Figures 1–4.
//! - `render_table*` — ASCII tables matching the paper's layout.
//! - [`PaperRecord`] — every table and figure of one configuration,
//!   building each city and sweeping each (city, weight) set once.
//!
//! # Examples
//!
//! ```no_run
//! use citygen::CityPreset;
//! use experiments::{ExperimentPlan, run_plan, aggregate, render_experiment_table};
//! use pathattack::WeightType;
//!
//! let plan = ExperimentPlan::smoke(CityPreset::Chicago, WeightType::Time, 1);
//! let records = run_plan(&plan);
//! let rows = aggregate(&records);
//! println!("{}", render_experiment_table("TABLE VII", "Chicago", WeightType::Time, &rows));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod harness;
mod lattice_sweep;
mod metrics;
mod perturb_sweep;
mod record;
mod sweep;
mod tables;
mod threshold;
mod viz;

/// Minimum shortest-path edge count for a sampled (source, hospital)
/// pair. At the paper's full city scale random trips are long; shrunk
/// cities need this guard so metrics are not dominated by doorstep
/// trips with degenerate path-rank statistics.
pub const MIN_TRIP_EDGES: usize = 10;

pub use checkpoint::{run_key, write_atomic, CheckpointJournal, JournalRecord};
pub use harness::{
    run_instances, run_instances_resumable, run_plan, sample_instances, ExperimentInstance,
    ExperimentPlan,
};
pub use lattice_sweep::{disorder_city, lattice_sweep, render_lattice_sweep, LatticePoint};
pub use metrics::{
    aggregate, city_average, records_to_csv, AggregateRow, CityAverage, ExperimentRecord,
};
pub use perturb_sweep::{
    aggregate_perturb, perturb_records_to_csv, run_perturb_instances,
    run_perturb_instances_resumable, PerturbAggregateRow, PerturbOptions, PerturbRecord,
};
pub use record::{Figure, PaperRecord, RecordConfig, EXPERIMENT_TABLES, FIGURES, TABLES};
pub use sweep::{rank_sweep, render_rank_sweep, RankSweepPoint};
pub use tables::{render_experiment_table, render_table1, render_table10, render_table9};
pub use threshold::{threshold_for_plan, threshold_row, ThresholdRow};
pub use viz::{render_svg, FigureSpec};
