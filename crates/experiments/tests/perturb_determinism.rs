//! Pipeline-level determinism proofs for the perturb sweep: records
//! must be byte-identical across checkpoint/resume and with decremental
//! repair on or off (with repair on, the oracle prunes its perturbed
//! searches; the pruning must never show in a record).

use citygen::CityPreset;
use experiments::{
    perturb_records_to_csv, run_perturb_instances, run_perturb_instances_resumable,
    sample_instances, CheckpointJournal, ExperimentPlan, PerturbOptions,
};
use pathattack::{AttackStatus, WeightType};
use std::path::PathBuf;

fn smoke_plan(seed: u64) -> ExperimentPlan {
    ExperimentPlan::smoke(CityPreset::Chicago, WeightType::Time, seed)
}

fn tmp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "metro-perturb-det-{name}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Blanks the two runtime columns (the only legitimately
/// nondeterministic fields) so the rest of the CSV can be compared
/// byte-for-byte.
fn mask_runtimes(csv: &str) -> String {
    csv.lines()
        .map(|line| {
            let mut cols: Vec<&str> = line.split(',').collect();
            if cols.len() > 12 {
                cols[5] = "-";
                cols[12] = "-";
            }
            cols.join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn smoke_sweep_succeeds_and_compares_both_modalities() {
    let plan = smoke_plan(7);
    let net = plan.city.build(plan.scale, plan.seed);
    let instances = sample_instances(&net, &plan);
    let records = run_perturb_instances(&net, &plan, &instances, PerturbOptions::default());
    // 4 hospitals × 2 sources × 1 cost = 8 comparison records
    assert_eq!(records.len(), 8, "{}", records.len());
    for r in &records {
        assert_eq!(r.perturb_status, AttackStatus::Success, "{r:?}");
        assert_eq!(r.cut_status, AttackStatus::Success, "{r:?}");
        assert!(r.edges_perturbed > 0);
        assert!(r.total_delta > 0.0);
        assert!(r.perturb_cost > 0.0);
        assert!(r.edges_removed > 0);
    }
}

#[test]
fn resumed_sweep_emits_journaled_records_verbatim() {
    let plan = smoke_plan(11);
    let net = plan.city.build(plan.scale, plan.seed);
    let instances = sample_instances(&net, &plan);
    let path = tmp_journal("verbatim");

    let mut journal = CheckpointJournal::open(&path).unwrap();
    let full = run_perturb_instances_resumable(
        &net,
        &plan,
        &instances,
        PerturbOptions::default(),
        Some(&mut journal),
    );

    // Re-running against the completed journal skips every key and
    // emits the journaled records — byte-identical CSV, runtimes
    // included (journal floats round-trip exactly).
    let mut journal = CheckpointJournal::open(&path).unwrap();
    assert_eq!(journal.len(), full.len());
    let resumed = run_perturb_instances_resumable(
        &net,
        &plan,
        &instances,
        PerturbOptions::default(),
        Some(&mut journal),
    );
    assert_eq!(
        perturb_records_to_csv(&full),
        perturb_records_to_csv(&resumed)
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn sweep_killed_midway_resumes_to_the_same_csv() {
    let plan = smoke_plan(13);
    let net = plan.city.build(plan.scale, plan.seed);
    let instances = sample_instances(&net, &plan);

    let uninterrupted = run_perturb_instances(&net, &plan, &instances, PerturbOptions::default());

    // Simulate a kill: journal only the first half of the records, then
    // resume against that journal.
    let path = tmp_journal("midway");
    let mut partial = CheckpointJournal::open(&path).unwrap();
    for r in uninterrupted.iter().take(uninterrupted.len() / 2) {
        partial.append(r).unwrap();
    }
    let mut journal = CheckpointJournal::open(&path).unwrap();
    let resumed = run_perturb_instances_resumable(
        &net,
        &plan,
        &instances,
        PerturbOptions::default(),
        Some(&mut journal),
    );
    assert_eq!(
        mask_runtimes(&perturb_records_to_csv(&uninterrupted)),
        mask_runtimes(&perturb_records_to_csv(&resumed)),
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn repair_on_and_off_produce_byte_identical_records() {
    let mut on = smoke_plan(17);
    on.repair = true;
    let mut off = smoke_plan(17);
    off.repair = false;
    let net = on.city.build(on.scale, on.seed);
    let instances = sample_instances(&net, &on);
    let a = run_perturb_instances(&net, &on, &instances, PerturbOptions::default());
    let b = run_perturb_instances(&net, &off, &instances, PerturbOptions::default());
    assert!(!a.is_empty());
    assert_eq!(
        mask_runtimes(&perturb_records_to_csv(&a)),
        mask_runtimes(&perturb_records_to_csv(&b)),
    );
}

#[test]
fn thread_count_does_not_change_results() {
    let mut plan = smoke_plan(19);
    let net = plan.city.build(plan.scale, plan.seed);
    let instances = sample_instances(&net, &plan);
    plan.threads = 1;
    let a = run_perturb_instances(&net, &plan, &instances, PerturbOptions::default());
    plan.threads = 4;
    let b = run_perturb_instances(&net, &plan, &instances, PerturbOptions::default());
    assert_eq!(
        mask_runtimes(&perturb_records_to_csv(&a)),
        mask_runtimes(&perturb_records_to_csv(&b)),
    );
}
