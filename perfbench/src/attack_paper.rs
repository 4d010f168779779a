//! `attack-paper`: closed-loop attack serving.
//!
//! Boston and Chicago resident at paper scale. Two clients, each
//! sending its next request only when the previous one is answered.
//! The mix is `attack` with each of lp / greedy-pathcover /
//! greedy-edge / greedy-eig plus `perturb`, at rank 20, over the 16
//! (city, weight, hospital) keys, all hot. Exec takes tens to hundreds
//! of milliseconds, so the oracle, the hierarchy/CCH provider and LP
//! dominate. Models analysts waiting on each answer.

use crate::report::Run;
use crate::serving::{self, Answer, City, Op, ServePass};
use crate::stats::{self, Rng};
use crate::{check_digest, child_setups, peak_rss_mb, trace, Opts};
use citygen::{CityPreset, Scale};
use serve::{Request, RequestKind};

const CITIES: [City; 2] = [
    City {
        spec: "boston",
        preset: CityPreset::Boston,
    },
    City {
        spec: "chicago",
        preset: CityPreset::Chicago,
    },
];
const SCALE: Scale = Scale::Paper;
const RANK: usize = 20;
const SOURCES_PER_KEY: usize = 8;
const SETUP_REPS: usize = 3;
const TAIL_Q: f64 = 0.95;
/// The closed loop runs past `--seconds` until this many answers, so
/// the tail percentile keeps ten samples beyond it.
const MIN_ANSWERS: usize = 200;
/// Upper bound on requests generated for one run.
const MAX_REQUESTS: usize = 20_000;
const ALGORITHMS: [&str; 4] = ["lp", "greedy-pathcover", "greedy-edge", "greedy-eig"];
const WARMUP_ID: u64 = 1 << 40;

/// Request `i` of the seeded sequence: a uniform key, a source from the
/// key's pool, and one of the five kinds, uniformly.
fn sequence(keys: &[serving::Key], pools: &[Vec<usize>], seed: u64) -> (Vec<Op>, Vec<Request>) {
    let mut rng = Rng::new(seed, 0x6174_6b00);
    let mut ops = Vec::new();
    let mut reqs = Vec::new();
    for i in 0..MAX_REQUESTS {
        let key = rng.below(keys.len());
        let kind = rng.below(ALGORITHMS.len() + 1);
        let op = Op {
            key,
            source: pools[key][rng.below(pools[key].len())],
            kind: if kind < ALGORITHMS.len() {
                RequestKind::Attack
            } else {
                RequestKind::Perturb
            },
            algorithm: ALGORITHMS.get(kind).copied().unwrap_or("greedy-pathcover"),
            rank: RANK,
        };
        reqs.push(op.request(i as u64 + 1, keys, &CITIES));
        ops.push(op);
    }
    (ops, reqs)
}

/// One attack per key (cycling the algorithms, so each city computes
/// its centrality and every key customizes the hierarchy) plus one
/// perturb per city.
fn warmup(keys: &[serving::Key], pools: &[Vec<usize>]) -> Vec<Request> {
    let mut ops: Vec<Op> = (0..keys.len())
        .map(|k| Op {
            key: k,
            source: pools[k][0],
            kind: RequestKind::Attack,
            algorithm: ALGORITHMS[k % ALGORITHMS.len()],
            rank: RANK,
        })
        .collect();
    for c in 0..CITIES.len() {
        let k = keys
            .iter()
            .position(|key| key.city == c)
            .expect("city has keys");
        ops.push(Op {
            key: k,
            source: pools[k][0],
            kind: RequestKind::Perturb,
            algorithm: "greedy-pathcover",
            rank: RANK,
        });
    }
    ops.iter()
        .enumerate()
        .map(|(i, op)| op.request(WARMUP_ID + i as u64, keys, &CITIES))
        .collect()
}

struct Pass {
    setup_s: Vec<f64>,
    answers: Vec<Option<Answer>>,
    wall_s: f64,
    before: obs::Snapshot,
    after: obs::Snapshot,
    customizations: f64,
    hierarchy_mb: f64,
}

fn pass(
    cfg: &serve::ServerConfig,
    warm: &[Request],
    reqs: &[Request],
    seconds: f64,
) -> Result<Pass, String> {
    let (server, secs) = serving::start_and_warm(cfg, warm)?;
    let before = obs::global().snapshot();
    let timed = serving::closed_loop(server.local_addr(), reqs, Some((seconds, MIN_ANSWERS)));
    let after = obs::global().snapshot();
    let hier = serving::hierarchy_stats(server.local_addr());
    server.shutdown();
    let (answers, wall_s) = timed?;
    let (customizations, hierarchy_mb) = hier?;
    Ok(Pass {
        setup_s: vec![secs],
        answers,
        wall_s,
        before,
        after,
        customizations,
        hierarchy_mb,
    })
}

/// One set-up (server start + warm-up) on the workload's inputs; the
/// body of a set-up child process.
pub fn setup_once(opts: &Opts) -> Result<f64, String> {
    let (keys, pools) = serving::keys_and_sources(&CITIES, SCALE, SOURCES_PER_KEY, opts.seed);
    let cfg = serving::server_config(&CITIES, SCALE, None);
    let (server, secs) = serving::start_and_warm(&cfg, &warmup(&keys, &pools))?;
    server.shutdown();
    Ok(secs)
}

pub fn run(opts: &Opts) -> Result<Run, String> {
    let mut run = Run::default();
    run.param("cities", "boston,chicago");
    run.param("scale", "paper");
    run.param(
        "kinds",
        "attack lp|greedy-pathcover|greedy-edge|greedy-eig, perturb; uniform",
    );
    run.param("rank", RANK);
    run.param("loop", "closed");
    run.param("clients", serving::CONNECTIONS);
    run.param("keys", "16, uniform");
    run.param("sources_per_key", SOURCES_PER_KEY);
    run.param("min_answers", MIN_ANSWERS);
    run.param("setup_reps", SETUP_REPS);
    run.param("tail_percentile", TAIL_Q * 100.0);

    let (keys, pools) = serving::keys_and_sources(&CITIES, SCALE, SOURCES_PER_KEY, opts.seed);
    let (ops, reqs) = sequence(&keys, &pools, opts.seed);
    let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
    let warm = warmup(&keys, &pools);
    let cfg = serving::server_config(&CITIES, SCALE, None);
    serving::describe_server(&cfg, &mut run);

    let mut setup_s = child_setups("attack-paper", opts, SETUP_REPS - 1)?;
    let p = pass(&cfg, &warm, &reqs, opts.seconds)?;
    setup_s.extend(&p.setup_s);
    let peak = peak_rss_mb();
    let sent = p.answers.iter().filter(|a| a.is_some()).count();
    run.attempted = sent as u64;
    run.failed = serving::verify_answers(&CITIES, SCALE, &keys, &ops, &p.answers, &ids, &mut run);
    // The closed loop stops on time, so runs of one seed answer a
    // prefix of the same sequence: the digest covers the first
    // MIN_ANSWERS answers, which every run has.
    let prefix: Vec<Option<Answer>> = p.answers.iter().take(MIN_ANSWERS).cloned().collect();
    let digest = serving::answers_digest(&prefix, &ids);
    check_digest(
        opts,
        &format!("attack-paper-seed{}", opts.seed),
        digest,
        &mut run,
    );

    let answered: Vec<&Answer> = p.answers.iter().flatten().collect();
    let lat = stats::sorted(&answered.iter().map(|a| a.latency_ms).collect::<Vec<_>>());
    let rps = answered.len() as f64 / p.wall_s;
    if stats::samples_beyond(lat.len(), TAIL_Q) < stats::MIN_BEYOND {
        run.problem(format!(
            "{} answers cannot support p{}",
            lat.len(),
            TAIL_Q * 100.0
        ));
    }
    let (p50, tail) = (stats::quantile(&lat, 0.5), stats::quantile(&lat, TAIL_Q));
    run.e2e.put("setup_s", stats::median(&setup_s), "s");
    run.e2e.put("peak_rss_mb", peak, "MB");
    run.e2e.put("ops_per_s", rps, "1/s");
    run.e2e.put("latency_ms", p50, "ms");
    run.e2e.put("tail_ms", tail, "ms");
    let d = &mut run.detail;
    d.put("rps", rps, "1/s");
    d.put("p50_ms", p50, "ms");
    d.put("p95_ms", tail, "ms");
    d.put("latency_samples", lat.len() as f64, "count");
    d.put(
        "tail_supported_percentile",
        stats::highest_supported(lat.len(), &[0.5, 0.9, 0.95, 0.99, 0.999]).unwrap_or(0.0) * 100.0,
        "%",
    );
    d.put(
        "failed_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
        "ratio",
    );
    d.put("timed_wall_s", p.wall_s, "s");
    d.put("setup_runs", setup_s.len() as f64, "count");

    if opts.trace {
        traced(
            opts, &keys, &ops, &ids, &warm, &reqs, &p, &setup_s, digest, &mut run,
        )?;
    }
    Ok(run)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    keys: &[serving::Key],
    ops: &[Op],
    ids: &[u64],
    warm: &[Request],
    reqs: &[Request],
    untraced: &Pass,
    untraced_setup: &[f64],
    untraced_digest: u64,
    run: &mut Run,
) -> Result<(), String> {
    trace::set_enabled(true);
    let side = serving::side_measurements(&CITIES, SCALE, keys, true);
    let log = opts
        .out_dir
        .join(format!("slow-attack-paper-seed{}.jsonl", opts.seed));
    let _ = std::fs::remove_file(&log);
    let cfg = serving::server_config(&CITIES, SCALE, Some(&log));
    let p = pass(&cfg, warm, reqs, opts.seconds)?;
    let prefix: Vec<Option<Answer>> = p.answers.iter().take(MIN_ANSWERS).cloned().collect();
    if serving::answers_digest(&prefix, ids) != untraced_digest {
        run.problem("traced pass answers differ from the untraced pass");
        run.failed += 1;
    }
    let n = p.answers.iter().filter(|a| a.is_some()).count();
    let mut all_ids: Vec<u64> = ids[..n.min(ids.len())].to_vec();
    all_ids.extend(warm.iter().map(|r| r.id));
    let traces = serving::read_slow_log(&log, &all_ids)?;
    serving::put_setup_layers(&mut run.layers, &side, p.customizations, p.hierarchy_mb);
    let untraced_mean = stats::mean(
        &untraced
            .answers
            .iter()
            .flatten()
            .map(|a| a.latency_ms)
            .collect::<Vec<_>>(),
    );
    let acc = serving::serve_layers(
        &ServePass {
            ops,
            ids,
            answers: &p.answers,
            traces: &traces,
            before: &p.before,
            after: &p.after,
            tail_q: TAIL_Q,
        },
        &mut run.layers,
        untraced_mean,
    );
    run.accounting.push(acc);
    run.accounting.push(serving::setup_accounting(
        stats::median(untraced_setup),
        &side,
    ));
    Ok(())
}
