//! One benchmark for the attack engine and its query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-chicago|route-small|attack-paper> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in
//! its own process, prints a report block, stores it as
//! `.bench_out/<workload>-seed<N>-trace<T>.json`, and ends standard
//! output with one JSON line holding exactly the metrics
//! `BENCHMARK.json` lists (`end_to_end` untraced, `per_layer` traced).
//! It exits non-zero on any wrong answer, stalled generator or missing
//! metric. See `perfbench/README.md` for the workloads and metrics.

mod attack_paper;
mod report;
mod route_small;
mod serving;
mod stats;
mod sweep;
mod trace;

use obs::JsonValue;
use report::Run;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: picks sources, keys and arrival times.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced invocation.
    pub trace: bool,
    /// Where result files, digests and the slow-query log go.
    pub out_dir: PathBuf,
    /// Internal: run one set-up in this (child) process, print its
    /// time and exit. The parent measures repeated set-ups this way so
    /// they do not inflate its own memory high-water mark.
    pub setup_only: bool,
    /// Digest of the sources under test (see [`source_digest`]).
    pub source_digest: String,
}

const WORKLOADS: [&str; 3] = ["sweep-chicago", "route-small", "attack-paper"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Opts) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--setup-only" => setup_only = value == "1",
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let opts = Opts {
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(".bench_out"),
        setup_only,
        source_digest: source_digest(Path::new(".")),
    };
    (workload, opts)
}

/// Metric names `BENCHMARK.json` lists under `key`.
fn benchmark_metrics(doc: &JsonValue, key: &str) -> Result<Vec<String>, String> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key:?} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("a {key:?} entry has no name"))
        })
        .collect()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Digest of the program's sources: the checkout is not a git
/// repository, so this identifies the commit under test.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "vendor", "src", "perfbench/src"] {
        walk(&root.join(top), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = stats::FNV_BASIS;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h = stats::fnv1a(h, f.to_string_lossy().as_bytes());
            h = stats::fnv1a(h, &bytes);
        }
    }
    format!("{h:016x}")
}

fn commit() -> String {
    // Never report the commit of a repository that merely encloses the
    // checkout.
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout; see source_digest)".to_string())
}

fn header(workload: &str, opts: &Opts) -> BTreeMap<String, JsonValue> {
    let mut h = BTreeMap::new();
    let s = |v: &str| JsonValue::Str(v.to_string());
    h.insert("workload".into(), s(workload));
    h.insert("commit".into(), JsonValue::Str(commit()));
    h.insert(
        "source_digest".into(),
        JsonValue::Str(opts.source_digest.clone()),
    );
    h.insert(
        "nproc".into(),
        JsonValue::Num(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1) as f64,
        ),
    );
    h.insert(
        "profile".into(),
        s(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    h.insert("seed".into(), JsonValue::Num(opts.seed as f64));
    h.insert("seconds".into(), JsonValue::Num(opts.seconds));
    h.insert("trace".into(), JsonValue::Bool(opts.trace));
    h
}

/// Compares `digest` with the one stored for the same `key` by an
/// earlier run in this checkout, storing it when it is the first.
pub fn check_digest(opts: &Opts, key: &str, digest: u64, run: &mut Run) {
    let dir = opts.out_dir.join("digests");
    let path = dir.join(format!("{key}.txt"));
    let text = format!("{digest:016x}\n");
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == text => {}
        Ok(prev) => run.problem(format!(
            "output digest {} differs from {} stored by an earlier run of the same seed ({key})",
            text.trim(),
            prev.trim()
        )),
        Err(_) => {
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text))
            {
                run.problem(format!("cannot store digest {}: {e}", path.display()));
            }
        }
    }
    run.param("output_digest", format!("{digest:016x}"));
}

/// Runs `n` set-ups of `workload`, each in a child process of this
/// binary, and returns their times in seconds.
pub fn child_setups(workload: &str, opts: &Opts, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string(), "--trace", "0"])
                .args(["--setup-only", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let secs = text
                .lines()
                .rev()
                .find_map(|l| l.strip_prefix("setup_s="))
                .and_then(|v| v.trim().parse::<f64>().ok());
            match (out.status.success(), secs) {
                (true, Some(s)) => Ok(s),
                _ => Err(format!("set-up child failed ({}): {text}", out.status)),
            }
        })
        .collect()
}

fn main() {
    let (workload, opts) = parse_args();
    if opts.setup_only {
        let secs = match workload.as_str() {
            "route-small" => route_small::setup_once(&opts),
            "attack-paper" => attack_paper::setup_once(&opts),
            _ => Err("this workload sets up in process".to_string()),
        };
        match secs {
            Ok(s) => println!("setup_s={s}"),
            Err(e) => {
                eprintln!("perfbench: {workload} set-up: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|t| JsonValue::parse(&t).map_err(|e| format!("BENCHMARK.json: {e:?}")));
    let wanted = bench.and_then(|doc| {
        benchmark_metrics(
            &doc,
            if opts.trace {
                "per_layer"
            } else {
                "end_to_end"
            },
        )
    });
    let wanted = wanted.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out_dir.display());
        std::process::exit(2);
    }
    let header = header(&workload, &opts);
    let result = match workload.as_str() {
        "sweep-chicago" => sweep::run(&opts),
        "route-small" => route_small::run(&opts),
        "attack-paper" => attack_paper::run(&opts),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut run = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    });
    if run.failed > 0 {
        run.problem(format!(
            "{} of {} operations failed",
            run.failed, run.attempted
        ));
    }
    if run.attempted == 0 {
        run.problem("no operation was attempted");
    }
    let correct = run.problems.is_empty();
    report::print_report(&header, &run);
    let file = opts.out_dir.join(format!(
        "{workload}-seed{}-trace{}.json",
        opts.seed,
        u8::from(opts.trace)
    ));
    let doc = report::result_json(&header, &run, correct).to_json();
    if let Err(e) = std::fs::write(&file, doc + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
        std::process::exit(1);
    }
    println!("result file: {}", file.display());
    let from = if opts.trace { &run.layers } else { &run.e2e };
    match report::summary_line(&run, &wanted, from, correct) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
