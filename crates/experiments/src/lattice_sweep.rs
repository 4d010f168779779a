//! Controlled latticeness sweep.
//!
//! The paper *compares* four fixed cities and attributes the attack-cost
//! differences to how "lattice" each street network is. This extension
//! experiment tests that claim causally: generate a family of grids with
//! a single *disorder* knob (0 = perfect lattice → 1 = heavily jittered,
//! gap-ridden, one-way-converted), and measure, per level:
//!
//! - street-orientation order φ (does the knob actually destroy
//!   latticeness?),
//! - the Table X-style path-rank threshold (does disorder widen the
//!   1st→kth gap?), and
//! - the naive-vs-optimal attack-cost ratio (does the gap make naive
//!   attacks relatively worse, as §III-B argues?).

use citygen::{generate_grid, GridConfig};
use pathattack::{AttackAlgorithm, AttackProblem, CostType, GreedyEdge, LpPathCover, WeightType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use traffic_graph::{orientation_order, NodeId, PoiKind, RoadNetwork};

/// Measurements at one disorder level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatticePoint {
    /// Disorder knob in `[0, 1]`.
    pub disorder: f64,
    /// Street-orientation order φ of the generated network.
    pub phi: f64,
    /// Average % increase from the shortest to the rank-`k` path.
    pub threshold_pct: f64,
    /// Mean GreedyEdge cost ÷ mean LP-PathCover cost over the sampled
    /// instances (≥ 1 ⇒ naive is worse).
    pub naive_to_lp_cost_ratio: f64,
    /// Instances that contributed.
    pub instances: usize,
}

/// Generates the disorder-level city.
pub fn disorder_city(disorder: f64, side: usize, seed: u64) -> RoadNetwork {
    let d = disorder.clamp(0.0, 1.0);
    let cfg = GridConfig {
        width: side,
        height: side,
        pos_jitter: 0.25 * d,
        length_noise: 0.4 * d,
        block_removal_prob: 0.10 * d,
        oneway_fraction: 0.4 * d,
        ..GridConfig::default()
    };
    let base = generate_grid(&format!("disorder-{d:.2}"), &cfg, seed);
    // one hospital at the center so instances exist
    let bb = base.bounding_box();
    citygen::util::attach_hospitals(&base, &[("Central Hospital".to_string(), bb.center())])
}

/// Runs the sweep: for each disorder level, builds a city and samples
/// `instances` (source → central hospital) attacks at rank `rank`.
pub fn lattice_sweep(
    levels: &[f64],
    side: usize,
    rank: usize,
    instances: usize,
    seed: u64,
) -> Vec<LatticePoint> {
    levels
        .iter()
        .map(|&d| {
            let city = disorder_city(d, side, seed);
            let phi = orientation_order(&city);
            let hospital = city
                .pois_of_kind(PoiKind::Hospital)
                .next()
                .expect("hospital attached")
                .node;
            let mut rng = SmallRng::seed_from_u64(seed ^ (d * 1e4) as u64);
            let w = WeightType::Time.compute(&city);
            let view = traffic_graph::GraphView::new(&city);
            let mut dij = routing::Dijkstra::new(city.num_nodes());
            let mut lp_cost = Vec::new();
            let mut edge_cost = Vec::new();
            let mut thresholds = Vec::new();
            let mut attempts = 0;
            while lp_cost.len() < instances && attempts < instances * 100 {
                attempts += 1;
                let source = NodeId::new(rng.gen_range(0..city.num_nodes()));
                if source == hospital {
                    continue;
                }
                let Ok(problem) = AttackProblem::with_path_rank(
                    &city,
                    WeightType::Time,
                    CostType::Uniform,
                    source,
                    hospital,
                    rank,
                ) else {
                    continue;
                };
                // Same doorstep-trip guard as the harness: measure the
                // SHORTEST path's hop count, not p*'s.
                let Some(best) = dij.shortest_path(&view, |e| w[e.index()], source, hospital)
                else {
                    continue;
                };
                if best.len() < crate::MIN_TRIP_EDGES {
                    continue;
                }
                let lp = LpPathCover.attack(&problem);
                let ge = GreedyEdge.attack(&problem);
                if !(lp.is_success() && ge.is_success()) {
                    continue;
                }
                if best.total_weight() > 0.0 {
                    thresholds.push(
                        (problem.pstar_weight() - best.total_weight()) / best.total_weight()
                            * 100.0,
                    );
                }
                lp_cost.push(lp.total_cost);
                edge_cost.push(ge.total_cost);
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            LatticePoint {
                disorder: d,
                phi,
                threshold_pct: mean(&thresholds),
                naive_to_lp_cost_ratio: if lp_cost.is_empty() {
                    f64::NAN
                } else {
                    mean(&edge_cost) / mean(&lp_cost).max(1e-9)
                },
                instances: lp_cost.len(),
            }
        })
        .collect()
}

/// Renders the sweep as an ASCII table.
pub fn render_lattice_sweep(points: &[LatticePoint]) -> String {
    let mut s = String::from("Latticeness sweep (disorder → φ, path-rank gap, naive/LP cost)\n");
    let _ = writeln!(
        s,
        "{:>9} {:>7} {:>14} {:>14} {:>10}",
        "disorder", "φ", "gap to kth (%)", "naive/LP cost", "instances"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>9.2} {:>7.3} {:>14.2} {:>14.2} {:>10}",
            p.disorder, p.phi, p.threshold_pct, p.naive_to_lp_cost_ratio, p.instances
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disorder_destroys_latticeness() {
        let points = lattice_sweep(&[0.0, 1.0], 16, 8, 2, 3);
        assert_eq!(points.len(), 2);
        assert!(
            points[0].phi > points[1].phi + 0.1,
            "φ must fall with disorder: {:.3} vs {:.3}",
            points[0].phi,
            points[1].phi
        );
        assert!(points[0].phi > 0.95);
    }

    #[test]
    fn disorder_widens_threshold_gap() {
        // Single seeds are noisy at this tiny scale; average three, as
        // the paper averages 40 experiments per set.
        let mut flat = 0.0;
        let mut wild = 0.0;
        for seed in [3u64, 5, 7] {
            let a = lattice_sweep(&[0.0], 16, 8, 5, seed);
            let b = lattice_sweep(&[1.0], 16, 8, 5, seed);
            assert!(a[0].instances > 0 && b[0].instances > 0);
            flat += a[0].threshold_pct / 3.0;
            wild += b[0].threshold_pct / 3.0;
        }
        assert!(
            wild > flat,
            "mean gap must widen with disorder: {flat:.2}% vs {wild:.2}%"
        );
    }

    #[test]
    fn render_outputs_rows() {
        let points = vec![LatticePoint {
            disorder: 0.5,
            phi: 0.42,
            threshold_pct: 3.3,
            naive_to_lp_cost_ratio: 1.2,
            instances: 4,
        }];
        let s = render_lattice_sweep(&points);
        assert!(s.contains("0.50"));
        assert!(s.contains("0.420"));
    }
}
