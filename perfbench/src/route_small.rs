//! `route-small`: open-loop route serving.
//!
//! All four cities resident at small scale. Seeded Poisson arrivals at
//! one fixed rate, alternated over two pipelined connections; each
//! latency is timed from the request's due time. Every request is a
//! low-rank `route`; keys follow a Zipf skew over the 32 (city, weight,
//! hospital) contexts, with a seeded hot-key order. Server exec is
//! sub-millisecond, so transport, admission/queue and batching
//! dominate. Models independent navigation users.

use crate::report::Run;
use crate::serving::{self, Answer, City, Conn, Op, ServePass};
use crate::stats::{self, Rng};
use crate::{check_digest, child_setups, peak_rss_mb, trace, Opts};
use citygen::{CityPreset, Scale};
use serve::{Request, RequestKind};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CITIES: [City; 4] = [
    City {
        spec: "boston",
        preset: CityPreset::Boston,
    },
    City {
        spec: "sf",
        preset: CityPreset::SanFrancisco,
    },
    City {
        spec: "chicago",
        preset: CityPreset::Chicago,
    },
    City {
        spec: "la",
        preset: CityPreset::LosAngeles,
    },
];
const SCALE: Scale = Scale::Small;
const RANK: usize = 4;
/// Offered load, requests per second over both connections.
const RATE: f64 = 250.0;
const ZIPF_S: f64 = 1.0;
const SOURCES_PER_KEY: usize = 16;
const SETUP_REPS: usize = 5;
const TAIL_Q: f64 = 0.99;
/// The generator has fallen behind when its median lateness exceeds
/// this (it cannot keep the schedule)...
const MAX_LATENESS_P50_MS: f64 = 2.0;
/// ...or when any request went out this late (it stalled).
const MAX_LATENESS_MS: f64 = 1000.0;
/// Requests per window of the windowed tail.
const WINDOW: usize = 1000;
/// How long answers may still arrive after the send window closes.
const DRAIN_S: f64 = 10.0;
const WARMUP_ID: u64 = 1 << 40;

struct Schedule {
    ops: Vec<Op>,
    reqs: Vec<Request>,
    ids: Vec<u64>,
    due_s: Vec<f64>,
}

fn schedule(keys: &[serving::Key], pools: &[Vec<usize>], seed: u64, seconds: f64) -> Schedule {
    let mut rng = Rng::new(seed, 0x726f_7574);
    let hot = rng.permutation(keys.len());
    let cdf = stats::zipf_cdf(keys.len(), ZIPF_S);
    let mut s = Schedule {
        ops: Vec::new(),
        reqs: Vec::new(),
        ids: Vec::new(),
        due_s: Vec::new(),
    };
    let mut t = rng.exp_gap(RATE);
    while t < seconds {
        let key = hot[stats::zipf_draw(&mut rng, &cdf)];
        let op = Op {
            key,
            source: pools[key][rng.below(pools[key].len())],
            kind: RequestKind::Route,
            algorithm: "greedy-pathcover",
            rank: RANK,
        };
        let id = s.ops.len() as u64 + 1;
        s.reqs.push(op.request(id, keys, &CITIES));
        s.ops.push(op);
        s.ids.push(id);
        s.due_s.push(t);
        t += rng.exp_gap(RATE);
    }
    s
}

fn warmup(keys: &[serving::Key], pools: &[Vec<usize>]) -> Vec<Request> {
    (0..keys.len())
        .map(|k| {
            Op {
                key: k,
                source: pools[k][0],
                kind: RequestKind::Route,
                algorithm: "greedy-pathcover",
                rank: RANK,
            }
            .request(WARMUP_ID + k as u64, keys, &CITIES)
        })
        .collect()
}

/// Sends each request at its due time over [`serving::CONNECTIONS`]
/// pipelined connections (request `i` on connection `i % 2`). Each
/// connection has one generator thread, which sleeps until the next
/// due time and sends, and one reader thread, which timestamps answers
/// as they arrive. Returns the answers by request index.
fn open_loop(addr: SocketAddr, s: &Schedule, seconds: f64) -> Result<Vec<Option<Answer>>, String> {
    let conns = serving::CONNECTIONS;
    let start = Instant::now() + Duration::from_millis(50);
    let index_of: HashMap<u64, usize> = s.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    type Sent = Vec<(usize, f64, f64)>;
    type Got = Vec<(usize, f64, Vec<u8>)>;
    let mut links = Vec::new();
    for _ in 0..conns {
        let tx = Conn::connect(addr)?;
        let rx = tx.try_clone()?;
        links.push((tx, rx));
    }
    let per_conn: Vec<Result<(Sent, Got), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(c, (mut tx, mut rx))| {
                let mine: Vec<usize> = (c..s.reqs.len()).step_by(conns).collect();
                let expected = mine.len();
                let index_of = &index_of;
                let reader = scope.spawn(move || -> Result<Got, String> {
                    let mut got = Vec::with_capacity(expected);
                    while got.len() < expected && start.elapsed().as_secs_f64() < seconds + DRAIN_S
                    {
                        if let Some(raw) = rx.poll(Duration::from_millis(100))? {
                            let at_s = start.elapsed().as_secs_f64();
                            let id = serving::response_id(&raw).ok_or("response without an id")?;
                            let i = *index_of
                                .get(&id)
                                .ok_or_else(|| format!("unexpected response id {id}"))?;
                            got.push((i, at_s, raw));
                        }
                    }
                    Ok(got)
                });
                let sender = scope.spawn(move || -> Result<Sent, String> {
                    let mut sent = Vec::with_capacity(mine.len());
                    for &i in &mine {
                        let due = start + Duration::from_secs_f64(s.due_s[i]);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let lateness_ms = (start.elapsed().as_secs_f64() - s.due_s[i]) * 1e3;
                        let write_ms = tx.send(&s.reqs[i])?;
                        sent.push((i, lateness_ms, write_ms));
                    }
                    Ok(sent)
                });
                (sender, reader)
            })
            .collect();
        handles
            .into_iter()
            .map(|(sender, reader)| {
                let sent = sender.join().expect("generator thread");
                let got = reader.join().expect("reader thread");
                Ok((sent?, got?))
            })
            .collect()
    });
    let mut answers = vec![None; s.reqs.len()];
    for conn in per_conn {
        let (sent, got) = conn?;
        let mut by_index: HashMap<usize, (f64, f64)> =
            sent.into_iter().map(|(i, l, w)| (i, (l, w))).collect();
        for (i, at_s, raw) in got {
            let (lateness_ms, write_ms) = by_index.remove(&i).unwrap_or((0.0, 0.0));
            answers[i] = Some(Answer {
                latency_ms: (at_s - s.due_s[i]) * 1e3,
                lateness_ms,
                write_ms,
                at_s,
                raw,
            });
        }
    }
    Ok(answers)
}

struct Pass {
    setup_s: Vec<f64>,
    answers: Vec<Option<Answer>>,
    before: obs::Snapshot,
    after: obs::Snapshot,
    customizations: f64,
    hierarchy_mb: f64,
}

fn pass(
    cfg: &serve::ServerConfig,
    warm: &[Request],
    s: &Schedule,
    seconds: f64,
) -> Result<Pass, String> {
    let (server, secs) = serving::start_and_warm(cfg, warm)?;
    let before = obs::global().snapshot();
    let answers = open_loop(server.local_addr(), s, seconds);
    let after = obs::global().snapshot();
    let hier = serving::hierarchy_stats(server.local_addr());
    server.shutdown();
    let (customizations, hierarchy_mb) = hier?;
    Ok(Pass {
        setup_s: vec![secs],
        answers: answers?,
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

/// The tail of the run: the median over consecutive windows of
/// [`WINDOW`] requests (in schedule order) of each window's p99, so a
/// single stall of a shared host does not decide the run. The plain
/// whole-run p99 is reported beside it.
fn windowed_tail(answers: &[Option<Answer>]) -> Option<f64> {
    let windows = answers.len() / WINDOW;
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                answers.len()
            } else {
                (w + 1) * WINDOW
            };
            let lat = stats::sorted(
                &answers[w * WINDOW..end]
                    .iter()
                    .flatten()
                    .map(|a| a.latency_ms)
                    .collect::<Vec<_>>(),
            );
            (stats::samples_beyond(lat.len(), TAIL_Q) >= stats::MIN_BEYOND)
                .then(|| stats::quantile(&lat, TAIL_Q))
        })
        .collect::<Option<Vec<f64>>>()?;
    (!tails.is_empty()).then(|| stats::median(&tails))
}

pub fn run(opts: &Opts) -> Result<Run, String> {
    let mut run = Run::default();
    run.param("cities", "boston,sf,chicago,la");
    run.param("scale", "small");
    run.param("kind", "route");
    run.param("rank", RANK);
    run.param("loop", "open");
    run.param("rate_rps", RATE);
    run.param("arrivals", "poisson");
    run.param(
        "key_skew",
        format!("zipf s={ZIPF_S} over 32 keys, seeded hot order"),
    );
    run.param("sources_per_key", SOURCES_PER_KEY);
    run.param("setup_reps", SETUP_REPS);
    run.param("tail_percentile", TAIL_Q * 100.0);
    run.param("tail_window_requests", WINDOW);
    run.param("max_lateness_p50_ms", MAX_LATENESS_P50_MS);
    run.param("max_lateness_ms", MAX_LATENESS_MS);

    let (keys, pools) = serving::keys_and_sources(&CITIES, SCALE, SOURCES_PER_KEY, opts.seed);
    let s = schedule(&keys, &pools, opts.seed, opts.seconds);
    let warm = warmup(&keys, &pools);
    let cfg = serving::server_config(&CITIES, SCALE, None);
    serving::describe_server(&cfg, &mut run);

    let mut setup_s = child_setups("route-small", opts, SETUP_REPS - 1)?;
    let p = pass(&cfg, &warm, &s, opts.seconds)?;
    setup_s.extend(&p.setup_s);
    let peak = peak_rss_mb();
    run.attempted = s.reqs.len() as u64;
    let unanswered = p.answers.iter().filter(|a| a.is_none()).count() as u64;
    run.failed = unanswered
        + serving::verify_answers(&CITIES, SCALE, &keys, &s.ops, &p.answers, &s.ids, &mut run);
    let digest = serving::answers_digest(&p.answers, &s.ids);
    check_digest(
        opts,
        &format!("route-small-seed{}-n{}", opts.seed, s.reqs.len()),
        digest,
        &mut run,
    );

    let answered: Vec<&Answer> = p.answers.iter().flatten().collect();
    let lat = stats::sorted(&answered.iter().map(|a| a.latency_ms).collect::<Vec<_>>());
    let late = stats::sorted(&answered.iter().map(|a| a.lateness_ms).collect::<Vec<_>>());
    let last_s = answered.iter().map(|a| a.at_s).fold(0.0, f64::max);
    let backlog = answered.iter().filter(|a| a.at_s > opts.seconds).count() as u64 + unanswered;
    let rps = answered.len() as f64 / last_s.max(opts.seconds);
    let tail = windowed_tail(&p.answers).unwrap_or_else(|| {
        run.problem(format!(
            "{} answers cannot support p{} in windows of {WINDOW}",
            lat.len(),
            TAIL_Q * 100.0
        ));
        0.0
    });
    let (late_p50, late_max) = (
        stats::quantile(&late, 0.5),
        late.last().copied().unwrap_or(0.0),
    );
    if late_p50 > MAX_LATENESS_P50_MS || late_max > MAX_LATENESS_MS {
        run.problem(format!(
            "generator fell behind: lateness p50 {late_p50:.3} ms (max {MAX_LATENESS_P50_MS}), \
             max {late_max:.1} ms (max {MAX_LATENESS_MS})"
        ));
    }
    if unanswered > 0 {
        run.problem(format!(
            "{unanswered} requests unanswered {DRAIN_S} s after the send window"
        ));
    }
    let p50 = stats::quantile(&lat, 0.5);
    run.e2e.put("setup_s", stats::median(&setup_s), "s");
    run.e2e.put("peak_rss_mb", peak, "MB");
    run.e2e.put("ops_per_s", rps, "1/s");
    run.e2e.put("latency_ms", p50, "ms");
    run.e2e.put("tail_ms", tail, "ms");
    let d = &mut run.detail;
    d.put("rps", rps, "1/s");
    d.put("p50_ms", p50, "ms");
    d.put("p99_ms", stats::quantile(&lat, TAIL_Q), "ms");
    d.put("p99_ms.window_median", tail, "ms");
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
    d.put("generator.lateness_p50_ms", late_p50, "ms");
    d.put(
        "generator.lateness_p99_ms",
        stats::quantile(&late, 0.99),
        "ms",
    );
    d.put("generator.lateness_max_ms", late_max, "ms");
    d.put("backlog_at_end", backlog as f64, "count");
    d.put(
        "drain_after_window_ms",
        (last_s - opts.seconds).max(0.0) * 1e3,
        "ms",
    );
    d.put("setup_runs", setup_s.len() as f64, "count");

    if opts.trace {
        let untraced_mean = stats::mean(&lat);
        traced(
            opts,
            &keys,
            &warm,
            &s,
            &setup_s,
            untraced_mean,
            digest,
            &mut run,
        )?;
    }
    Ok(run)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    keys: &[serving::Key],
    warm: &[Request],
    s: &Schedule,
    untraced_setup: &[f64],
    untraced_mean_ms: f64,
    untraced_digest: u64,
    run: &mut Run,
) -> Result<(), String> {
    trace::set_enabled(true);
    let side = serving::side_measurements(&CITIES, SCALE, keys, false);
    let log = opts
        .out_dir
        .join(format!("slow-route-small-seed{}.jsonl", opts.seed));
    let _ = std::fs::remove_file(&log);
    let cfg = serving::server_config(&CITIES, SCALE, Some(&log));
    let p = pass(&cfg, warm, s, opts.seconds)?;
    let mut ids: Vec<u64> = s.ids.clone();
    ids.extend(warm.iter().map(|r| r.id));
    let traces = serving::read_slow_log(&log, &ids)?;
    if serving::answers_digest(&p.answers, &s.ids) != untraced_digest {
        run.problem("traced pass answers differ from the untraced pass");
        run.failed += 1;
    }
    let missing = s.ids.iter().filter(|id| !traces.contains_key(id)).count();
    if missing > 0 {
        run.problem(format!("{missing} requests have no server trace"));
    }
    serving::put_setup_layers(&mut run.layers, &side, p.customizations, p.hierarchy_mb);
    let acc = serving::serve_layers(
        &ServePass {
            ops: &s.ops,
            ids: &s.ids,
            answers: &p.answers,
            traces: &traces,
            before: &p.before,
            after: &p.after,
            tail_q: TAIL_Q,
        },
        &mut run.layers,
        untraced_mean_ms,
    );
    run.accounting.push(acc);
    run.accounting.push(serving::setup_accounting(
        stats::median(untraced_setup),
        &side,
    ));
    Ok(())
}
