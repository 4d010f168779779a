//! Rolling-window metrics: a ring of fixed-interval slots so `stats`
//! can answer "p99 over the last 10 seconds", not just since startup.
//!
//! Both [`WindowedHistogram`] and [`WindowedCounter`] share the same
//! mechanism: time is divided into fixed intervals (1s by default) and
//! each interval maps to slot `epoch % slots`. A slot stores the epoch
//! it currently represents; the first recorder to touch a stale slot
//! wins a CAS on that epoch and resets the slot before recording.
//! Every path is lock-free.
//!
//! Races are possible — a reader may merge a slot that a writer is
//! concurrently resetting, and a late writer may drop a sample into an
//! interval boundary — and are deliberately tolerated: these are
//! telemetry aggregates, and losing (or double-seeing) a handful of
//! samples at slot turnover is invisible next to the 2x bucket
//! resolution of the histogram itself. Nothing load-bearing reads
//! these values.
//!
//! All record/snapshot entry points have `_at_ms` variants taking an
//! explicit timestamp (milliseconds since an arbitrary origin), which
//! the tests use to replay request logs deterministically; the
//! wall-clock variants just feed in elapsed time since construction.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Slot-epoch sentinel meaning "never used". Real epochs start at 1.
const EMPTY: u64 = 0;

/// Default slot width: one second.
pub const DEFAULT_INTERVAL_MS: u64 = 1_000;

/// Default ring length: 128 one-second slots, comfortably covering the
/// 10s and 60s windows `stats` reports with slack for clock skew
/// between recorders and readers.
pub const DEFAULT_SLOTS: usize = 128;

fn epoch_for(at_ms: u64, interval_ms: u64) -> u64 {
    at_ms / interval_ms + 1 // + 1 keeps EMPTY distinct from epoch 0
}

/// Claims `slot_epoch`'s slot for `target` if it is stale. Returns
/// true when the caller won the claim and must reset the slot's
/// payload before recording.
fn claim(slot_epoch: &AtomicU64, target: u64) -> bool {
    let mut cur = slot_epoch.load(Ordering::Acquire);
    loop {
        if cur >= target {
            return false; // current (or newer — a racing clock); just record
        }
        match slot_epoch.compare_exchange_weak(cur, target, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
}

struct HistSlot {
    epoch: AtomicU64,
    hist: Histogram,
}

/// A histogram over the trailing time window: a ring of fixed-interval
/// [`Histogram`] slots with a lock-free record path.
pub struct WindowedHistogram {
    origin: Instant,
    interval_ms: u64,
    slots: Vec<HistSlot>,
}

impl std::fmt::Debug for WindowedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedHistogram")
            .field("interval_ms", &self.interval_ms)
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedHistogram {
    /// A ring of `DEFAULT_SLOTS` (128) slots of `DEFAULT_INTERVAL_MS` (1 s).
    pub fn new() -> Self {
        Self::with_layout(DEFAULT_INTERVAL_MS, DEFAULT_SLOTS)
    }

    /// A ring with explicit slot width and count. The covered span is
    /// `interval_ms * slots`; snapshots of wider windows silently
    /// truncate to what the ring holds.
    pub fn with_layout(interval_ms: u64, slots: usize) -> Self {
        WindowedHistogram {
            origin: Instant::now(),
            interval_ms: interval_ms.max(1),
            slots: (0..slots.max(2))
                .map(|_| HistSlot {
                    epoch: AtomicU64::new(EMPTY),
                    hist: Histogram::new(),
                })
                .collect(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// Records one sample at the current wall-clock time. Lock-free.
    pub fn record(&self, value: u64) {
        self.record_at_ms(self.now_ms(), value);
    }

    /// Records one sample at an explicit timestamp (test hook; also
    /// the implementation of [`WindowedHistogram::record`]).
    pub fn record_at_ms(&self, at_ms: u64, value: u64) {
        let target = epoch_for(at_ms, self.interval_ms);
        let slot = &self.slots[(target % self.slots.len() as u64) as usize];
        if claim(&slot.epoch, target) {
            slot.hist.reset();
        }
        slot.hist.record(value);
    }

    /// Merged snapshot of the last `window_ms` of samples, ending now.
    pub fn snapshot_window(&self, window_ms: u64) -> HistogramSnapshot {
        self.snapshot_window_at_ms(self.now_ms(), window_ms)
    }

    /// Merged snapshot of the `window_ms` ending at `at_ms` (test
    /// hook). The current (partial) interval is included.
    pub fn snapshot_window_at_ms(&self, at_ms: u64, window_ms: u64) -> HistogramSnapshot {
        let cur = epoch_for(at_ms, self.interval_ms);
        let span = (window_ms / self.interval_ms)
            .max(1)
            .min(self.slots.len() as u64);
        let oldest = cur.saturating_sub(span - 1);
        let merged = Histogram::new();
        for slot in &self.slots {
            let e = slot.epoch.load(Ordering::Acquire);
            if e != EMPTY && e >= oldest && e <= cur {
                merged.merge_from(&slot.hist);
            }
        }
        merged.snapshot()
    }
}

struct CountSlot {
    epoch: AtomicU64,
    value: AtomicU64,
}

/// A counter over the trailing time window, for rates (rps, shed/s).
pub struct WindowedCounter {
    origin: Instant,
    interval_ms: u64,
    slots: Vec<CountSlot>,
}

impl std::fmt::Debug for WindowedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedCounter")
            .field("interval_ms", &self.interval_ms)
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl Default for WindowedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedCounter {
    /// A ring of `DEFAULT_SLOTS` (128) slots of `DEFAULT_INTERVAL_MS` (1 s).
    pub fn new() -> Self {
        Self::with_layout(DEFAULT_INTERVAL_MS, DEFAULT_SLOTS)
    }

    /// A ring with explicit slot width and count.
    pub fn with_layout(interval_ms: u64, slots: usize) -> Self {
        WindowedCounter {
            origin: Instant::now(),
            interval_ms: interval_ms.max(1),
            slots: (0..slots.max(2))
                .map(|_| CountSlot {
                    epoch: AtomicU64::new(EMPTY),
                    value: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// Adds `n` at the current wall-clock time. Lock-free.
    pub fn add(&self, n: u64) {
        self.add_at_ms(self.now_ms(), n);
    }

    /// Adds `n` at an explicit timestamp (test hook).
    pub fn add_at_ms(&self, at_ms: u64, n: u64) {
        let target = epoch_for(at_ms, self.interval_ms);
        let slot = &self.slots[(target % self.slots.len() as u64) as usize];
        if claim(&slot.epoch, target) {
            slot.value.store(0, Ordering::Relaxed);
        }
        slot.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Total over the last `window_ms`, ending now.
    pub fn sum_window(&self, window_ms: u64) -> u64 {
        self.sum_window_at_ms(self.now_ms(), window_ms)
    }

    /// Total over the `window_ms` ending at `at_ms` (test hook).
    pub fn sum_window_at_ms(&self, at_ms: u64, window_ms: u64) -> u64 {
        let cur = epoch_for(at_ms, self.interval_ms);
        let span = (window_ms / self.interval_ms)
            .max(1)
            .min(self.slots.len() as u64);
        let oldest = cur.saturating_sub(span - 1);
        let mut total = 0u64;
        for slot in &self.slots {
            let e = slot.epoch.load(Ordering::Acquire);
            if e != EMPTY && e >= oldest && e <= cur {
                total += slot.value.load(Ordering::Relaxed);
            }
        }
        total
    }

    /// Average events per second over the last `window_ms`, ending now.
    pub fn rate_per_sec(&self, window_ms: u64) -> f64 {
        self.sum_window(window_ms) as f64 / (window_ms.max(1) as f64 / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_expire_as_the_window_slides() {
        let w = WindowedHistogram::with_layout(1_000, 8);
        w.record_at_ms(0, 10);
        w.record_at_ms(500, 20);
        w.record_at_ms(2_500, 40);
        // 3s window at t=2.9s sees everything.
        assert_eq!(w.snapshot_window_at_ms(2_900, 3_000).count, 3);
        // 1s window at t=2.9s sees only the last sample.
        let last = w.snapshot_window_at_ms(2_900, 1_000);
        assert_eq!(last.count, 1);
        assert_eq!(last.max, 40);
        // Far in the future everything has expired.
        assert_eq!(w.snapshot_window_at_ms(60_000, 3_000).count, 0);
    }

    #[test]
    fn slots_are_recycled_after_wraparound() {
        let w = WindowedHistogram::with_layout(1_000, 4);
        w.record_at_ms(0, 1);
        // 4-slot ring: t=4s maps onto t=0s's slot and must evict it.
        w.record_at_ms(4_000, 99);
        let s = w.snapshot_window_at_ms(4_000, 1_000);
        assert_eq!((s.count, s.min, s.max), (1, 99, 99));
        // The stale sample is gone even from the widest window.
        assert_eq!(w.snapshot_window_at_ms(4_000, 10_000).count, 1);
    }

    #[test]
    fn counter_sums_and_rates() {
        let c = WindowedCounter::with_layout(1_000, 16);
        for t in 0..10u64 {
            c.add_at_ms(t * 1_000, 5);
        }
        assert_eq!(c.sum_window_at_ms(9_500, 10_000), 50);
        assert_eq!(c.sum_window_at_ms(9_500, 1_000), 5);
        // Window wider than the ring truncates, not panics.
        assert_eq!(c.sum_window_at_ms(9_500, 1_000_000), 50);
    }

    #[test]
    fn windowed_quantiles_match_plain_histogram_within_window() {
        // Replay a synthetic request log into both a windowed and an
        // exact (plain) histogram restricted to the same window; the
        // quantiles must agree exactly, because the window merge is
        // bucket-precise — only the window *edges* are quantized.
        let w = WindowedHistogram::with_layout(1_000, 64);
        let exact = Histogram::new();
        let now = 45_000u64;
        let window = 10_000u64;
        for i in 0..4_000u64 {
            let at = i * 11; // 0..44s, well past the 10s window
            let v = 100 + (i * 37) % 9_000;
            w.record_at_ms(at, v);
            // Same included-interval rule as snapshot_window_at_ms.
            if at / 1_000 + 1 + (window / 1_000) > now / 1_000 + 1 {
                exact.record(v);
            }
        }
        let ws = w.snapshot_window_at_ms(now, window);
        let es = exact.snapshot();
        assert_eq!(ws.count, es.count);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(ws.quantile(q), es.quantile(q), "q{q}");
        }
    }

    #[test]
    fn wall_clock_paths_do_not_panic() {
        let w = WindowedHistogram::new();
        w.record(42);
        assert!(w.snapshot_window(10_000).count >= 1);
        let c = WindowedCounter::new();
        c.add(3);
        assert!(c.sum_window(10_000) >= 3);
        assert!(c.rate_per_sec(10_000) > 0.0);
    }
}
