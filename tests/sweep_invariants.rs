//! Fast end-to-end checks of the invariants both attack modalities
//! share: a cut sweep and a cut-vs-perturb sweep on a small city must
//! produce the same CSV, runtime columns masked, with decremental
//! repair on or off and when resumed from a half-written journal.

use metro_attack::experiments::JournalRecord;
use metro_attack::prelude::*;

fn plan(repair: bool) -> ExperimentPlan {
    let mut plan = ExperimentPlan::smoke(CityPreset::Boston, WeightType::Time, 7);
    plan.path_rank = 8;
    plan.sources_per_hospital = 1;
    plan.cost_types = CostType::ALL.to_vec();
    plan.repair = repair;
    plan
}

/// Splits one CSV line into fields; quoted fields may hold commas.
fn fields(line: &str) -> Vec<&str> {
    let (mut out, mut start, mut quoted) = (Vec::new(), 0, false);
    for (i, c) in line.char_indices() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => {
                out.push(&line[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&line[start..]);
    out
}

/// Replaces every `*runtime*` column with `-`: the only wall-clock
/// figures in either CSV.
fn mask_runtime(csv: &str) -> String {
    let header = fields(csv.lines().next().unwrap_or_default());
    let mut out = String::new();
    for line in csv.lines() {
        let masked: Vec<&str> = fields(line)
            .into_iter()
            .zip(&header)
            .map(|(f, h)| if h.contains("runtime") { "-" } else { f })
            .collect();
        out.push_str(&masked.join(","));
        out.push('\n');
    }
    out
}

fn journal_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "metro-sweep-invariants-{name}-{}.jsonl",
        std::process::id()
    ))
}

/// Runs `sweep` with repair off as the reference, then checks repair on
/// and a resume from the first half of a journal reproduce its masked
/// CSV.
fn check_invariants<R: JournalRecord>(
    name: &str,
    sweep: impl Fn(&ExperimentPlan, Option<&mut CheckpointJournal<R>>) -> Vec<R>,
    to_csv: fn(&[R]) -> String,
) {
    let off = plan(false);
    let reference = to_csv(&sweep(&off, None));
    assert!(reference.lines().count() > 4, "{name}: too few records");
    let reference = mask_runtime(&reference);

    let path = journal_path(name);
    let _ = std::fs::remove_file(&path);
    let mut journal = CheckpointJournal::open(&path).unwrap();
    let repaired = to_csv(&sweep(&plan(true), Some(&mut journal)));
    assert_eq!(mask_runtime(&repaired), reference, "{name}: repair on/off");

    // Kill the sweep half-way: keep the first half of the journal.
    let body = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    let half = lines.len() / 2;
    assert!(half > 0);
    std::fs::write(&path, format!("{}\n", lines[..half].join("\n"))).unwrap();
    let mut partial = CheckpointJournal::open(&path).unwrap();
    assert_eq!(partial.len(), half);
    let resumed = to_csv(&sweep(&plan(true), Some(&mut partial)));
    assert_eq!(
        partial.len(),
        lines.len(),
        "{name}: resume journals the rest"
    );
    assert_eq!(mask_runtime(&resumed), reference, "{name}: resume");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cut_and_perturb_sweeps_are_repair_and_resume_invariant() {
    let base = plan(true);
    let net = base.city.build(base.scale, base.seed);
    let instances = sample_instances(&net, &base);
    assert!(!instances.is_empty());

    check_invariants(
        "cut",
        |plan, journal| run_instances_resumable(&net, plan, &instances, journal),
        records_to_csv,
    );
    let options = PerturbOptions {
        integer_rounding: true,
        ..PerturbOptions::default()
    };
    check_invariants(
        "perturb",
        |plan, journal| run_perturb_instances_resumable(&net, plan, &instances, options, journal),
        perturb_records_to_csv,
    );
}
