//! Checkpoint journal for killable experiment sweeps.
//!
//! Both sweeps ([`run_instances_resumable`](crate::run_instances_resumable)
//! and [`run_perturb_instances_resumable`](crate::run_perturb_instances_resumable))
//! append one JSONL line per completed (hospital, source, cost,
//! algorithm) run to one journal type, generic over the
//! [`JournalRecord`] that encodes each sweep's records.
//! Every append rewrites the journal through a sibling tmp file and an
//! atomic rename, so a sweep killed at any instant leaves either the
//! previous journal or the new one — never a torn line. `--resume PATH`
//! reloads the journal and skips the already-recorded keys; because the
//! harness sorts records deterministically, a resumed sweep emits the
//! journaled records verbatim and the final CSV is what the
//! uninterrupted sweep would have produced.
//!
//! The format is hand-rolled JSON (the workspace builds offline with a
//! no-op serde shim). Floats are written with Rust's shortest
//! round-trip formatting, so `runtime_s`/`cost_removed` survive the
//! journal byte-exactly.

use crate::metrics::ExperimentRecord;
use pathattack::{AttackStatus, CostType, Degradation, WeightType};
use std::io;
use std::path::{Path, PathBuf};

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// `<name>.tmp` first, then replace `path` via `rename`. Readers (and
/// crashes) observe either the old file or the new one, never a prefix.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Journal key of one attack run. The four components identify a run
/// uniquely within a plan; `|` never appears in cost/algorithm names and
/// hospitals don't contain it either (and even if one did, the key is
/// only ever compared for equality).
pub fn run_key(hospital: &str, source: usize, cost: CostType, algorithm: &str) -> String {
    format!("{hospital}|{source}|{}|{algorithm}", cost.name())
}

/// A record a [`CheckpointJournal`] can hold: the cut sweep's
/// [`ExperimentRecord`] and the perturb sweep's
/// [`PerturbRecord`](crate::PerturbRecord).
pub trait JournalRecord: Clone + Send {
    /// The run's `(hospital, source, cost, algorithm)`: its journal key
    /// (see [`run_key`]) and its place in the sorted sweep output.
    fn coords(&self) -> (&str, usize, CostType, &str);

    /// Appends the record as one JSONL line, floats in shortest
    /// round-trip form so a resumed CSV is byte-identical.
    fn write_line(&self, out: &mut String);

    /// Parses one journal line written by [`JournalRecord::write_line`].
    fn parse_line(line: &str) -> Result<Self, String>;
}

/// The [`run_key`] of a journaled record.
pub(crate) fn record_key<R: JournalRecord>(r: &R) -> String {
    let (hospital, source, cost, algorithm) = r.coords();
    run_key(hospital, source, cost, algorithm)
}

/// A JSONL journal of completed sweep records, one per run.
///
/// # Examples
///
/// ```no_run
/// use experiments::{CheckpointJournal, ExperimentRecord};
///
/// let journal = CheckpointJournal::<ExperimentRecord>::open("sweep.ckpt.jsonl").unwrap();
/// println!("{} runs already recorded", journal.len());
/// ```
#[derive(Debug)]
pub struct CheckpointJournal<R = ExperimentRecord> {
    path: PathBuf,
    /// Serialized journal body, mirrored to disk on every append.
    text: String,
    records: Vec<R>,
}

impl<R: JournalRecord> CheckpointJournal<R> {
    /// Opens (or creates the in-memory state for) a journal at `path`.
    /// A missing file yields an empty journal; a malformed line is an
    /// error — better to stop than to silently redo half a sweep.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut journal = CheckpointJournal {
            path,
            text: String::new(),
            records: Vec::new(),
        };
        match std::fs::read_to_string(&journal.path) {
            Ok(body) => {
                for (lineno, line) in body.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let record = R::parse_line(line).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{} line {}: {e}", journal.path.display(), lineno + 1),
                        )
                    })?;
                    journal.push(record);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(journal)
    }

    fn push(&mut self, record: R) {
        record.write_line(&mut self.text);
        self.records.push(record);
    }

    /// Appends one completed record and syncs the journal to disk
    /// atomically.
    pub fn append(&mut self, record: &R) -> io::Result<()> {
        self.push(record.clone());
        write_atomic(&self.path, self.text.as_bytes())
    }

    /// Whether a run with this [`run_key`] is already journaled.
    pub fn contains(&self, key: &str) -> bool {
        self.records.iter().any(|r| record_key(r) == key)
    }

    /// The journaled records, in journal (completion) order.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Number of journaled records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Writes one journal line: a flat JSON object whose fields are added in
/// order, closed (with its newline) on drop.
pub(crate) struct JsonLine<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonLine<'a> {
    pub(crate) fn new(out: &'a mut String) -> Self {
        out.push('{');
        JsonLine { out, empty: true }
    }

    fn key(&mut self, key: &str) {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    /// A string field, JSON-escaped.
    pub(crate) fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        for c in value.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// A numeric field. `{}` on f64 is shortest-round-trip: parsing the
    /// journal recovers the exact bits.
    pub(crate) fn num(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }
}

impl Drop for JsonLine<'_> {
    fn drop(&mut self) {
        self.out.push_str("}\n");
    }
}

/// The fields of one parsed journal line.
pub(crate) struct JsonFields(obs::JsonValue);

impl JsonFields {
    pub(crate) fn parse(line: &str) -> Result<Self, String> {
        obs::JsonValue::parse(line)
            .map(JsonFields)
            .map_err(|e| e.to_string())
    }

    pub(crate) fn str(&self, key: &str) -> Result<String, String> {
        self.0
            .get(key)
            .and_then(obs::JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string field `{key}`"))
    }

    pub(crate) fn num(&self, key: &str) -> Result<f64, String> {
        self.0
            .get(key)
            .and_then(obs::JsonValue::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
    }

    /// A string field naming an enum value (weight, cost, status,
    /// degradation), resolved through its `from_name`.
    pub(crate) fn named<T>(
        &self,
        key: &str,
        from_name: fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        let name = self.str(key)?;
        from_name(&name).ok_or_else(|| format!("unknown {key} `{name}`"))
    }
}

impl JournalRecord for ExperimentRecord {
    fn coords(&self) -> (&str, usize, CostType, &str) {
        (&self.hospital, self.source, self.cost, &self.algorithm)
    }

    fn write_line(&self, out: &mut String) {
        JsonLine::new(out)
            .str("city", &self.city)
            .str("weight", self.weight.name())
            .str("cost", self.cost.name())
            .str("algorithm", &self.algorithm)
            .str("hospital", &self.hospital)
            .num("source", self.source)
            .num("runtime_s", self.runtime_s)
            .num("iterations", self.iterations)
            .num("edges_removed", self.edges_removed)
            .num("cost_removed", self.cost_removed)
            .str("status", self.status.name())
            .str("degraded", self.degraded.name());
    }

    fn parse_line(line: &str) -> Result<Self, String> {
        let f = JsonFields::parse(line)?;
        Ok(ExperimentRecord {
            city: f.str("city")?,
            weight: f.named("weight", WeightType::from_name)?,
            cost: f.named("cost", CostType::from_name)?,
            algorithm: f.str("algorithm")?,
            hospital: f.str("hospital")?,
            source: f.num("source")? as usize,
            runtime_s: f.num("runtime_s")?,
            iterations: f.num("iterations")? as usize,
            edges_removed: f.num("edges_removed")? as usize,
            cost_removed: f.num("cost_removed")?,
            status: f.named("status", AttackStatus::from_name)?,
            degraded: f.named("degraded", Degradation::from_name)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(hospital: &str, source: usize, runtime_s: f64) -> ExperimentRecord {
        ExperimentRecord {
            city: "Testville".into(),
            weight: WeightType::Time,
            cost: CostType::Lanes,
            algorithm: "LP-PathCover".into(),
            hospital: hospital.into(),
            source,
            runtime_s,
            iterations: 4,
            edges_removed: 3,
            cost_removed: 3.5,
            status: AttackStatus::Success,
            degraded: Degradation::LpGreedyRounding,
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("metro-ckpt-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_records_exactly() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = CheckpointJournal::open(&path).unwrap();
        let a = record("St. \"Mary's\"\nAnnex", 12, 0.000123456789);
        let b = record("General", 7, 1.5e-7);
        j.append(&a).unwrap();
        j.append(&b).unwrap();

        let reopened = CheckpointJournal::<ExperimentRecord>::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        let ra = &reopened.records()[0];
        assert_eq!(ra.hospital, a.hospital);
        assert_eq!(ra.runtime_s.to_bits(), a.runtime_s.to_bits());
        assert_eq!(ra.status, a.status);
        assert_eq!(ra.degraded, a.degraded);
        assert_eq!(
            reopened.records()[1].runtime_s.to_bits(),
            b.runtime_s.to_bits()
        );
        assert!(reopened.contains(&record_key(&a)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_opens_empty() {
        let path = tmp_path("missing");
        let _ = std::fs::remove_file(&path);
        let j = CheckpointJournal::<ExperimentRecord>::open(&path).unwrap();
        assert!(j.is_empty());
        assert!(!path.exists(), "open must not create the file");
    }

    #[test]
    fn malformed_line_is_an_error() {
        let path = tmp_path("malformed");
        std::fs::write(&path, "{\"city\":\n").unwrap();
        assert!(CheckpointJournal::<ExperimentRecord>::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_leaves_no_tmp_file() {
        let path = tmp_path("notmp");
        let _ = std::fs::remove_file(&path);
        let mut j = CheckpointJournal::open(&path).unwrap();
        j.append(&record("H", 1, 0.5)).unwrap();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let path = tmp_path("atomic");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_file(&path).unwrap();
    }
}
