//! Cut-vs-perturb comparison sweeps (the PATHPERTURB modality).
//!
//! Runs [`pathattack::LpPerturb`] next to the [`pathattack::LpPathCover`]
//! cut baseline on the *same* sampled instances, producing one
//! comparison record per (instance × cost type) with both modalities'
//! cost and runtime side by side. Only the per-(instance, cost) body
//! lives here: the worker pool, per-hospital contexts, fault arming,
//! panic isolation, journal and deterministic ordering are the cut
//! sweep's, and [`PerturbRecord`] journals through the same
//! [`crate::CheckpointJournal`], so a resumed sweep emits byte-identical
//! CSVs.

use crate::checkpoint::{run_key, CheckpointJournal, JournalRecord, JsonFields, JsonLine};
use crate::harness::{isolated, run_sweep, ExperimentInstance, ExperimentPlan};
use pathattack::{
    faults, AttackAlgorithm, AttackStatus, CostType, Degradation, LpPathCover, LpPerturb,
    PerturbProblem, WeightType,
};
use serde::{Deserialize, Serialize};
use traffic_graph::RoadNetwork;

/// Perturbation-specific sweep knobs (the cut baseline ignores them).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PerturbOptions {
    /// Per-edge cap on the weight increase (`None` = uncapped).
    pub edge_cap: Option<f64>,
    /// Enable the integer-rounding post-pass.
    pub integer_rounding: bool,
}

/// One cut-vs-perturb comparison: both modalities attacking the same
/// (hospital, source, cost) instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerturbRecord {
    /// City display name.
    pub city: String,
    /// Victim weight model.
    pub weight: WeightType,
    /// Attacker cost model (removal cost for the cut side, cost per
    /// unit of added weight for the perturb side).
    pub cost: CostType,
    /// Destination hospital name.
    pub hospital: String,
    /// Source intersection (dense node index).
    pub source: usize,
    /// Perturbation attack runtime in seconds.
    pub perturb_runtime_s: f64,
    /// Constraint-generation rounds the perturbation attack spent.
    pub rounds: usize,
    /// Number of perturbed road segments.
    pub edges_perturbed: usize,
    /// Total added weight.
    pub total_delta: f64,
    /// Total perturbation cost.
    pub perturb_cost: f64,
    /// Terminal status of the perturbation attack.
    pub perturb_status: AttackStatus,
    /// Degraded-mode step the perturbation run took, if any.
    pub degraded: Degradation,
    /// Cut baseline (LP-PathCover) runtime in seconds.
    pub cut_runtime_s: f64,
    /// Cut baseline removed-edge count.
    pub edges_removed: usize,
    /// Cut baseline total removal cost.
    pub cut_cost: f64,
    /// Terminal status of the cut baseline.
    pub cut_status: AttackStatus,
}

/// The algorithm coordinate of every comparison record: its journal
/// key is the cut sweep's key format with this name, so perturb and cut
/// journals can never collide on keys.
const PERTURB_ALGORITHM: &str = "LP-Perturb";

/// Serializes comparison records to CSV (header + one row per
/// instance × cost), cut and perturb columns side by side.
pub fn perturb_records_to_csv(records: &[PerturbRecord]) -> String {
    let mut s = String::from(
        "city,weight,cost,hospital,source,perturb_runtime_s,rounds,edges_perturbed,total_delta,perturb_cost,perturb_status,degraded,cut_runtime_s,edges_removed,cut_cost,cut_status\n",
    );
    for r in records {
        s.push_str(&format!(
            "{},{},{},\"{}\",{},{:.6},{},{},{:.6},{:.6},{},{},{:.6},{},{:.6},{}\n",
            r.city,
            r.weight.name(),
            r.cost.name(),
            r.hospital.replace('"', "\"\""),
            r.source,
            r.perturb_runtime_s,
            r.rounds,
            r.edges_perturbed,
            r.total_delta,
            r.perturb_cost,
            r.perturb_status.name(),
            r.degraded.name(),
            r.cut_runtime_s,
            r.edges_removed,
            r.cut_cost,
            r.cut_status.name(),
        ));
    }
    s
}

/// Aggregated cut-vs-perturb comparison for one cost type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerturbAggregateRow {
    /// Attacker cost model.
    pub cost: CostType,
    /// Average perturbation cost over the group.
    pub avg_perturb_cost: f64,
    /// Average cut cost over the group.
    pub avg_cut_cost: f64,
    /// Average perturbation runtime in seconds.
    pub avg_perturb_runtime_s: f64,
    /// Average cut runtime in seconds.
    pub avg_cut_runtime_s: f64,
    /// Number of comparisons aggregated.
    pub n: usize,
    /// Comparisons where both modalities succeeded.
    pub both_succeeded: usize,
}

/// Aggregates comparison records into one row per cost type, in
/// [`CostType::ALL`] order.
pub fn aggregate_perturb(records: &[PerturbRecord]) -> Vec<PerturbAggregateRow> {
    CostType::ALL
        .iter()
        .filter_map(|&cost| {
            let group: Vec<&PerturbRecord> = records.iter().filter(|r| r.cost == cost).collect();
            if group.is_empty() {
                return None;
            }
            let n = group.len() as f64;
            Some(PerturbAggregateRow {
                cost,
                avg_perturb_cost: group.iter().map(|r| r.perturb_cost).sum::<f64>() / n,
                avg_cut_cost: group.iter().map(|r| r.cut_cost).sum::<f64>() / n,
                avg_perturb_runtime_s: group.iter().map(|r| r.perturb_runtime_s).sum::<f64>() / n,
                avg_cut_runtime_s: group.iter().map(|r| r.cut_runtime_s).sum::<f64>() / n,
                n: group.len(),
                both_succeeded: group
                    .iter()
                    .filter(|r| {
                        r.perturb_status == AttackStatus::Success
                            && r.cut_status == AttackStatus::Success
                    })
                    .count(),
            })
        })
        .collect()
}

impl JournalRecord for PerturbRecord {
    fn coords(&self) -> (&str, usize, CostType, &str) {
        (&self.hospital, self.source, self.cost, PERTURB_ALGORITHM)
    }

    fn write_line(&self, out: &mut String) {
        JsonLine::new(out)
            .str("city", &self.city)
            .str("weight", self.weight.name())
            .str("cost", self.cost.name())
            .str("hospital", &self.hospital)
            .num("source", self.source)
            .num("perturb_runtime_s", self.perturb_runtime_s)
            .num("rounds", self.rounds)
            .num("edges_perturbed", self.edges_perturbed)
            .num("total_delta", self.total_delta)
            .num("perturb_cost", self.perturb_cost)
            .str("perturb_status", self.perturb_status.name())
            .str("degraded", self.degraded.name())
            .num("cut_runtime_s", self.cut_runtime_s)
            .num("edges_removed", self.edges_removed)
            .num("cut_cost", self.cut_cost)
            .str("cut_status", self.cut_status.name());
    }

    fn parse_line(line: &str) -> Result<Self, String> {
        let f = JsonFields::parse(line)?;
        Ok(PerturbRecord {
            city: f.str("city")?,
            weight: f.named("weight", WeightType::from_name)?,
            cost: f.named("cost", CostType::from_name)?,
            hospital: f.str("hospital")?,
            source: f.num("source")? as usize,
            perturb_runtime_s: f.num("perturb_runtime_s")?,
            rounds: f.num("rounds")? as usize,
            edges_perturbed: f.num("edges_perturbed")? as usize,
            total_delta: f.num("total_delta")?,
            perturb_cost: f.num("perturb_cost")?,
            perturb_status: f.named("perturb_status", AttackStatus::from_name)?,
            degraded: f.named("degraded", Degradation::from_name)?,
            cut_runtime_s: f.num("cut_runtime_s")?,
            edges_removed: f.num("edges_removed")? as usize,
            cut_cost: f.num("cut_cost")?,
            cut_status: f.named("cut_status", AttackStatus::from_name)?,
        })
    }
}

/// Runs the cut-vs-perturb comparison over pre-sampled instances, with
/// an optional checkpoint journal.
///
/// Per (instance × cost type), [`LpPerturb`] and the [`LpPathCover`]
/// cut baseline each attack a freshly built problem sharing the same
/// `p*`, limits, repair flag and (when `plan.reuse`) per-hospital
/// [`pathattack::TargetContext`]. The worker pool, journal and resume
/// are the cut sweep's ([`crate::run_instances_resumable`]): journaled
/// keys are skipped and their records emitted verbatim, and each attack
/// is isolated with `catch_unwind` (a panic yields a
/// [`AttackStatus::Failed`] half of the record). Records are sorted
/// deterministically, so thread count, resume, and repair on/off never
/// change any byte outside the runtime columns.
pub fn run_perturb_instances_resumable(
    net: &RoadNetwork,
    plan: &ExperimentPlan,
    instances: &[ExperimentInstance],
    options: PerturbOptions,
    journal: Option<&mut CheckpointJournal<PerturbRecord>>,
) -> Vec<PerturbRecord> {
    run_sweep(net, plan, instances, journal, |sweep, inst, cost, _| {
        let key = run_key(&inst.hospital, inst.source.index(), cost, PERTURB_ALGORITHM);
        if sweep.is_done(&key) {
            return;
        }
        faults::set_run_key(&key);
        let mut record = PerturbRecord {
            city: net.name().to_string(),
            weight: plan.weight,
            cost,
            hospital: inst.hospital.clone(),
            source: inst.source.index(),
            perturb_runtime_s: 0.0,
            rounds: 0,
            edges_perturbed: 0,
            total_delta: 0.0,
            perturb_cost: 0.0,
            perturb_status: AttackStatus::Failed,
            degraded: Degradation::None,
            cut_runtime_s: 0.0,
            edges_removed: 0,
            cut_cost: 0.0,
            cut_status: AttackStatus::Failed,
        };
        // Perturb side.
        if let Some(problem) = sweep.problem(inst, cost) {
            let mut p =
                PerturbProblem::new(problem).with_integer_rounding(options.integer_rounding);
            if let Some(cap) = options.edge_cap {
                p = p.with_edge_cap(cap);
            }
            match isolated(|| LpPerturb::default().attack(&p)) {
                Ok(r) => {
                    record.perturb_runtime_s = r.runtime.as_secs_f64();
                    record.rounds = r.rounds;
                    record.edges_perturbed = r.num_perturbed();
                    record.total_delta = r.total_delta;
                    record.perturb_cost = r.total_cost;
                    record.perturb_status = r.status;
                    record.degraded = r.degraded;
                }
                Err(runtime_s) => record.perturb_runtime_s = runtime_s,
            }
        }
        // Cut baseline on an identically built problem.
        if let Some(problem) = sweep.problem(inst, cost) {
            match isolated(|| LpPathCover.attack(&problem)) {
                Ok(r) => {
                    record.cut_runtime_s = r.runtime.as_secs_f64();
                    record.edges_removed = r.num_removed();
                    record.cut_cost = r.total_cost;
                    record.cut_status = r.status;
                }
                Err(runtime_s) => record.cut_runtime_s = runtime_s,
            }
        }
        faults::clear_run_key();
        sweep.emit(record);
    })
}

/// [`run_perturb_instances_resumable`] without a journal.
pub fn run_perturb_instances(
    net: &RoadNetwork,
    plan: &ExperimentPlan,
    instances: &[ExperimentInstance],
    options: PerturbOptions,
) -> Vec<PerturbRecord> {
    run_perturb_instances_resumable(net, plan, instances, options, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(hospital: &str, source: usize, cost: CostType) -> PerturbRecord {
        PerturbRecord {
            city: "Testville".into(),
            weight: WeightType::Time,
            cost,
            hospital: hospital.into(),
            source,
            perturb_runtime_s: 0.000123456789,
            rounds: 3,
            edges_perturbed: 2,
            total_delta: 4.5,
            perturb_cost: 4.5,
            perturb_status: AttackStatus::Success,
            degraded: Degradation::None,
            cut_runtime_s: 1.5e-7,
            edges_removed: 3,
            cut_cost: 3.0,
            cut_status: AttackStatus::Success,
        }
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("metro-perturb-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn journal_round_trips_records_exactly() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = CheckpointJournal::open(&path).unwrap();
        let a = record("St. \"Mary's\"\nAnnex", 12, CostType::Uniform);
        let b = record("General", 7, CostType::Lanes);
        j.append(&a).unwrap();
        j.append(&b).unwrap();

        let reopened = CheckpointJournal::<PerturbRecord>::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        let ra = &reopened.records()[0];
        assert_eq!(ra.hospital, a.hospital);
        assert_eq!(
            ra.perturb_runtime_s.to_bits(),
            a.perturb_runtime_s.to_bits()
        );
        assert_eq!(ra.total_delta.to_bits(), a.total_delta.to_bits());
        assert_eq!(ra.cut_runtime_s.to_bits(), a.cut_runtime_s.to_bits());
        assert_eq!(ra.perturb_status, a.perturb_status);
        assert!(reopened.contains(&crate::checkpoint::record_key(&a)));
        assert!(reopened.contains(&run_key(&a.hospital, a.source, a.cost, "LP-Perturb")));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_journal_line_is_an_error() {
        let path = tmp_path("malformed");
        std::fs::write(&path, "{\"city\":\n").unwrap();
        assert!(CheckpointJournal::<PerturbRecord>::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn csv_has_comparison_columns() {
        let csv = perturb_records_to_csv(&[record("H", 1, CostType::Uniform)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("perturb_cost"));
        assert!(lines[0].contains("cut_cost"));
        assert!(lines[1].contains("success"));
    }

    #[test]
    fn aggregate_groups_by_cost() {
        let records = vec![
            record("H", 1, CostType::Uniform),
            record("H", 2, CostType::Uniform),
            record("H", 1, CostType::Lanes),
        ];
        let rows = aggregate_perturb(&records);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cost, CostType::Uniform);
        assert_eq!(rows[0].n, 2);
        assert_eq!(rows[0].both_succeeded, 2);
        assert!((rows[0].avg_perturb_cost - 4.5).abs() < 1e-12);
        assert!((rows[0].avg_cut_cost - 3.0).abs() < 1e-12);
    }
}
