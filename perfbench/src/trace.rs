//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions
//! (`CityPreset::build`, `sample_instances`, `AttackAlgorithm::attack`,
//! frame write/read, ...). They are kept in memory and summarized when
//! the run ends. A span's parent is the innermost span open on the same
//! thread, so self time is its duration minus its children's. Spans
//! opened on worker threads are roots; the workloads add their busy
//! time up per phase instead of nesting it under the phase span.
//!
//! Recording is off unless the run was started with `--trace 1`; a
//! disabled span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);

struct Recorder {
    epoch: Instant,
    closed: Mutex<Vec<Closed>>,
}

/// One finished span.
struct Closed {
    name: &'static str,
    dur_ns: u64,
    child_ns: u64,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        closed: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Child time accumulated by each span open on this thread,
    /// innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    if on {
        recorder();
    }
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    name: &'static str,
    start_ns: Option<u64>,
}

/// Opens a span named `name` on the current thread.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            start_ns: None,
        };
    }
    OPEN.with(|o| o.borrow_mut().push(0));
    Span {
        name,
        start_ns: Some(now_ns()),
    }
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start_ns else { return };
        let dur_ns = now_ns().saturating_sub(start);
        let child_ns = OPEN.with(|o| {
            let mut open = o.borrow_mut();
            let child = open.pop().unwrap_or(0);
            if let Some(parent) = open.last_mut() {
                *parent += dur_ns;
            }
            child
        });
        recorder()
            .closed
            .lock()
            .expect("span list lock")
            .push(Closed {
                name: self.name,
                dur_ns,
                child_ns,
            });
    }
}

/// Aggregate of every closed span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Summed duration minus child spans, milliseconds.
    pub self_ms: f64,
}

/// Per-name aggregates of every span closed so far.
pub fn summary() -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    if !enabled() {
        return out;
    }
    for s in recorder().closed.lock().expect("span list lock").iter() {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ms += s.dur_ns as f64 / 1e6;
        a.self_ms += s.dur_ns.saturating_sub(s.child_ns) as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_children() {
        set_enabled(true);
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(6));
            }
        }
        let s = summary();
        let (outer, inner) = (s["test.outer"], s["test.inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ms >= inner.total_ms + 4.0);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-6);
        assert!((inner.self_ms - inner.total_ms).abs() < 1e-6);
    }
}
