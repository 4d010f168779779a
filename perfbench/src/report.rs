//! What a workload run produced, and how it is printed and stored.
//!
//! Every run prints a report block (metadata header, every metric by
//! name and unit, the traced accounting), writes the same content as
//! one JSON result file, and ends its standard output with the one-line
//! summary whose metric set `BENCHMARK.json` fixes.

use obs::JsonValue;
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`p50_ms`, `routing.astar.pops`, ...).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

/// Collects metrics in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.0
                .iter()
                .map(|m| (m.name.clone(), metric_json(m)))
                .collect(),
        )
    }
}

fn metric_json(m: &Metric) -> JsonValue {
    let mut o = BTreeMap::new();
    o.insert("value".to_string(), JsonValue::Num(m.value));
    o.insert("unit".to_string(), JsonValue::Str(m.unit.to_string()));
    JsonValue::Obj(o)
}

/// One line of the traced accounting: a layer's share of the untraced
/// end-to-end time it is compared against.
#[derive(Debug, Clone)]
pub struct Line {
    /// Layer or span name.
    pub name: String,
    /// Milliseconds per unit of the accounted quantity.
    pub ms: f64,
}

/// The traced breakdown of one end-to-end quantity.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// What is being accounted (`mean rep wall`, `mean client latency`).
    pub quantity: String,
    /// The quantity in the untraced pass, milliseconds.
    pub untraced_ms: f64,
    /// The same quantity in the traced pass, milliseconds.
    pub traced_ms: f64,
    /// Layer self times (and explicit waits) from the traced pass.
    pub lines: Vec<Line>,
}

impl Accounting {
    /// Adds a line.
    pub fn line(&mut self, name: impl Into<String>, ms: f64) {
        self.lines.push(Line {
            name: name.into(),
            ms,
        });
    }

    /// The part of the untraced time the lines do not account for.
    pub fn residual_ms(&self) -> f64 {
        self.untraced_ms - self.lines.iter().map(|l| l.ms).sum::<f64>()
    }

    fn to_json(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("quantity".into(), JsonValue::Str(self.quantity.clone()));
        o.insert("untraced_ms".into(), JsonValue::Num(self.untraced_ms));
        o.insert("traced_ms".into(), JsonValue::Num(self.traced_ms));
        o.insert(
            "lines".into(),
            JsonValue::Obj(
                self.lines
                    .iter()
                    .map(|l| (l.name.clone(), JsonValue::Num(l.ms)))
                    .collect(),
            ),
        );
        o.insert("residual_ms".into(), JsonValue::Num(self.residual_ms()));
        JsonValue::Obj(o)
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Workload parameters and server configuration (metadata header).
    pub params: BTreeMap<String, JsonValue>,
    /// End-to-end metrics (the `BENCHMARK.json` `end_to_end` names).
    pub e2e: Metrics,
    /// The workload's own names for its user-facing figures
    /// (`runs_per_s`, `rps`, `p99_ms`, `failed_frac`, ...) and
    /// validity figures (generator lateness, backlog, sample counts).
    pub detail: Metrics,
    /// Per-layer metrics; filled by the traced pass only.
    pub layers: Metrics,
    /// Traced breakdowns; filled by the traced pass only.
    pub accounting: Vec<Accounting>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Attempted operations that errored, were shed, timed out, or
    /// failed verification.
    pub failed: u64,
    /// Correctness failures and validity violations, one line each.
    pub problems: Vec<String>,
}

impl Run {
    /// Records a correctness or validity problem.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Sets a metadata parameter.
    pub fn param(&mut self, key: &str, value: impl Into<ParamValue>) {
        self.params.insert(key.to_string(), value.into().0);
    }
}

/// A metadata value.
pub struct ParamValue(JsonValue);

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue(JsonValue::Str(v.to_string()))
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue(JsonValue::Str(v))
    }
}
impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue(JsonValue::Num(v))
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue(JsonValue::Num(v as f64))
    }
}
impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue(JsonValue::Num(v as f64))
    }
}
impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue(JsonValue::Bool(v))
    }
}

/// Prints the human-readable report block.
pub fn print_report(header: &BTreeMap<String, JsonValue>, run: &Run) {
    println!("== perfbench {}", JsonValue::Obj(header.clone()).to_json());
    println!("== params {}", JsonValue::Obj(run.params.clone()).to_json());
    for (title, ms) in [
        ("end-to-end", &run.e2e),
        ("workload", &run.detail),
        ("per-layer", &run.layers),
    ] {
        for m in &ms.0 {
            println!("{title:<10} {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    for acc in &run.accounting {
        println!(
            "accounting {}: untraced {:.4} ms, traced {:.4} ms",
            acc.quantity, acc.untraced_ms, acc.traced_ms
        );
        for l in &acc.lines {
            println!("  {:<50} {:>12.4} ms", l.name, l.ms);
        }
        println!(
            "  {:<50} {:>12.4} ms",
            "residual (unaccounted)",
            acc.residual_ms()
        );
    }
    println!(
        "operations: {} attempted, {} failed",
        run.attempted, run.failed
    );
    for p in &run.problems {
        println!("FAIL: {p}");
    }
}

/// The full result document stored in the result file.
pub fn result_json(header: &BTreeMap<String, JsonValue>, run: &Run, correct: bool) -> JsonValue {
    let mut o = BTreeMap::new();
    o.insert("header".into(), JsonValue::Obj(header.clone()));
    o.insert("params".into(), JsonValue::Obj(run.params.clone()));
    o.insert("end_to_end".into(), run.e2e.to_json());
    o.insert("workload".into(), run.detail.to_json());
    o.insert("per_layer".into(), run.layers.to_json());
    o.insert(
        "accounting".into(),
        JsonValue::Arr(run.accounting.iter().map(Accounting::to_json).collect()),
    );
    o.insert("attempted".into(), JsonValue::Num(run.attempted as f64));
    o.insert("failed".into(), JsonValue::Num(run.failed as f64));
    o.insert("correct".into(), JsonValue::Bool(correct));
    o.insert(
        "problems".into(),
        JsonValue::Arr(
            run.problems
                .iter()
                .map(|p| JsonValue::Str(p.clone()))
                .collect(),
        ),
    );
    JsonValue::Obj(o)
}

/// The one-line summary: exactly the metric names `wanted` lists.
///
/// # Errors
///
/// Names a wanted metric the run did not produce.
pub fn summary_line(
    run: &Run,
    wanted: &[String],
    from: &Metrics,
    correct: bool,
) -> Result<String, String> {
    let mut metrics = BTreeMap::new();
    for name in wanted {
        let m = from
            .get(name)
            .ok_or_else(|| format!("workload produced no metric {name:?}"))?;
        metrics.insert(name.clone(), metric_json(m));
    }
    let mut o = BTreeMap::new();
    o.insert("correct".to_string(), JsonValue::Bool(correct));
    o.insert(
        "attempted".to_string(),
        JsonValue::Num(run.attempted as f64),
    );
    o.insert("failed".to_string(), JsonValue::Num(run.failed as f64));
    o.insert("metrics".to_string(), JsonValue::Obj(metrics));
    Ok(JsonValue::Obj(o).to_json())
}
