//! Measures `obs` instrumentation overhead on the attack hot path and
//! writes `BENCH_obs.json`.
//!
//! ```text
//! obs_overhead [--iters N] [--out FILE]
//! ```
//!
//! Runs the same GreedyPathCover instance on small-scale Boston and
//! Chicago, interleaving telemetry-disabled and telemetry-enabled
//! attacks so both populations see the same thermal/cache conditions,
//! and reports median wall-clock per attack. The disabled path is the
//! shipping default — every instrumented scope costs one relaxed atomic
//! load — so `disabled_ms` doubles as the uninstrumented baseline.

use citygen::{CityPreset, Scale};
use experiments::pick_far_source;
use pathattack::{AttackAlgorithm, AttackProblem, CostType, GreedyPathCover, WeightType};
use std::time::Instant;

struct CityRow {
    city: &'static str,
    disabled_ms: f64,
    enabled_ms: f64,
    overhead_pct: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

fn time_city(preset: CityPreset, iters: usize) -> CityRow {
    let city = preset.build(Scale::Small, 42);
    let hospital = city
        .pois_of_kind(traffic_graph::PoiKind::Hospital)
        .next()
        .expect("hospital attached")
        .node;
    let source = pick_far_source(&city, hospital, WeightType::Time, 42);
    let problem = AttackProblem::with_path_rank(
        &city,
        WeightType::Time,
        CostType::Uniform,
        source,
        hospital,
        20,
    )
    .expect("bench instance solvable");
    let alg = GreedyPathCover;

    // Warm-up: fault in the city, heap allocations, branch predictors.
    for _ in 0..3 {
        assert!(alg.attack(&problem).is_success());
    }

    let attack_ms = |enabled: bool| {
        obs::set_enabled(enabled);
        let t = Instant::now();
        let out = alg.attack(&problem);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        obs::set_enabled(false);
        assert!(out.is_success());
        ms
    };
    let mut disabled = Vec::with_capacity(iters);
    let mut enabled = Vec::with_capacity(iters);
    for _ in 0..iters {
        disabled.push(attack_ms(false));
        enabled.push(attack_ms(true));
    }
    let disabled_ms = median(&mut disabled);
    let enabled_ms = median(&mut enabled);
    CityRow {
        city: preset.name(),
        disabled_ms,
        enabled_ms,
        overhead_pct: (enabled_ms / disabled_ms - 1.0) * 100.0,
    }
}

fn main() {
    let mut iters = 40usize;
    let mut out_path = "BENCH_obs.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" => iters = args.next().and_then(|v| v.parse().ok()).expect("--iters N"),
            "--out" => out_path = args.next().expect("--out FILE"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let rows: Vec<CityRow> = [CityPreset::Boston, CityPreset::Chicago]
        .into_iter()
        .map(|preset| {
            let row = time_city(preset, iters);
            println!(
                "{:<9} disabled {:.3} ms  enabled {:.3} ms  overhead {:+.2}%",
                row.city, row.disabled_ms, row.enabled_ms, row.overhead_pct
            );
            row
        })
        .collect();

    let max_overhead = rows.iter().map(|r| r.overhead_pct).fold(f64::MIN, f64::max);
    let pass = max_overhead < 5.0;

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"obs_overhead\",\n");
    json.push_str("  \"algorithm\": \"GreedyPathCover\",\n");
    json.push_str("  \"scale\": \"small\",\n");
    json.push_str("  \"path_rank\": 20,\n");
    json.push_str(&format!("  \"iters_per_mode\": {iters},\n"));
    json.push_str("  \"cities\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"city\": \"{}\", \"disabled_ms\": {:.4}, \"enabled_ms\": {:.4}, \"overhead_pct\": {:.2}}}{}\n",
            r.city,
            r.disabled_ms,
            r.enabled_ms,
            r.overhead_pct,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"max_overhead_pct\": {max_overhead:.2},\n"));
    json.push_str("  \"threshold_pct\": 5.0,\n");
    json.push_str(&format!("  \"pass\": {pass}\n"));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_obs.json");
    println!("wrote {out_path} (max overhead {max_overhead:+.2}%, threshold 5%)");
    if !pass {
        std::process::exit(1);
    }
}
