//! Process-wide wall-clock timing spans.
//!
//! The parallel experiment harness wraps each experiment and each leaf
//! simulation job in a span; `repro --telemetry` drains them into
//! `spans.json` so per-experiment wall-clock sits next to the harness
//! total. Recording is off by default: creating a span while
//! disabled is one relaxed atomic load and the label closure is never
//! invoked.
//!
//! Worker attribution: the pool in `ehs_sim::parallel` tags each worker
//! thread with a slot number (1-based; 0 = the caller's thread / inline
//! execution), which every span records.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde_json::Value;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static WORKER_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// Turns span recording on or off process-wide.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch(); // pin t=0 before the first span
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags the current thread with a worker-pool slot (1-based; 0 means
/// "not a pool worker").
pub fn set_worker_slot(slot: usize) {
    WORKER_SLOT.with(|w| w.set(slot));
}

/// The current thread's worker slot.
pub fn worker_slot() -> usize {
    WORKER_SLOT.with(|w| w.get())
}

/// Process start reference for span timestamps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn records() -> &'static Mutex<Vec<SpanRecord>> {
    static RECORDS: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Coarse grouping: `"experiment"`, `"sim"`, `"harness"`, …
    pub category: &'static str,
    /// Span-specific label (experiment id, `app:governor`, …).
    pub label: String,
    /// Start time relative to the span epoch (µs).
    pub start_us: f64,
    /// Duration (µs).
    pub dur_us: f64,
    /// Worker slot of the recording thread (0 = inline).
    pub worker: usize,
}

/// An in-flight span; records itself on drop. Inert when recording was
/// disabled at creation.
#[derive(Debug)]
#[must_use = "a span measures until dropped"]
pub struct Span {
    inner: Option<(&'static str, String, Instant)>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((category, label, start)) = self.inner.take() else {
            return;
        };
        let record = SpanRecord {
            category,
            label,
            start_us: start.duration_since(epoch()).as_secs_f64() * 1e6,
            dur_us: start.elapsed().as_secs_f64() * 1e6,
            worker: worker_slot(),
        };
        records().lock().unwrap_or_else(|e| e.into_inner()).push(record);
    }
}

/// Starts a span. `label` is only invoked when recording is enabled.
pub fn span(category: &'static str, label: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span { inner: Some((category, label(), Instant::now())) }
}

/// Removes and returns every finished span recorded so far.
pub fn drain() -> Vec<SpanRecord> {
    std::mem::take(&mut *records().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Serializes span records (one object per span, seconds for
/// readability alongside the µs fields).
pub fn to_json(spans: &[SpanRecord]) -> Value {
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "category": s.category,
                "label": s.label.clone(),
                "start_us": s.start_us,
                "dur_us": s.dur_us,
                "seconds": s.dur_us / 1e6,
                "worker": s.worker,
            })
        })
        .collect();
    Value::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_while_enabled() {
        // Serialize against other tests of this module via the records
        // lock: drain to start clean.
        let _ = drain();
        set_enabled(false);
        {
            let _s = span("test", || unreachable!("label must not be built while disabled"));
        }
        assert!(drain().iter().all(|s| s.category != "test"));

        set_enabled(true);
        {
            let _s = span("test", || "one".to_string());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_enabled(false);
        let spans: Vec<SpanRecord> = drain().into_iter().filter(|s| s.category == "test").collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label, "one");
        assert!(spans[0].dur_us >= 1000.0, "slept 2ms, recorded {}", spans[0].dur_us);
    }

    #[test]
    fn worker_slot_is_per_thread() {
        set_worker_slot(3);
        assert_eq!(worker_slot(), 3);
        let other = std::thread::spawn(worker_slot).join().unwrap();
        assert_eq!(other, 0, "fresh threads start at slot 0");
        set_worker_slot(0);
    }
}
