//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Recording is off in untraced runs (one relaxed load per span). A
//! traced run keeps every span in memory and writes them once at exit;
//! each layer's self time is its spans' durations minus the part covered
//! by their children.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde_json::{json, Value};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One finished span. `parent` is 0 for a root.
#[derive(Debug, Clone)]
pub struct Record {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Cell or query the span belongs to.
    pub unit: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn records() -> &'static Mutex<Vec<Record>> {
    static RECORDS: OnceLock<Mutex<Vec<Record>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

pub fn set_enabled(on: bool) {
    let _ = epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped. Inert while disabled.
pub struct Span {
    id: u64,
    open: Option<(u64, &'static str, String, u64)>,
}

impl Span {
    /// This span's id, to pass as the parent of nested spans (0 when
    /// recording is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((parent, name, unit, start_ns)) = self.open.take() {
            let rec = Record { id: self.id, parent, name, unit, start_ns, end_ns: now_ns() };
            records().lock().expect("span store poisoned").push(rec);
        }
    }
}

/// Opens a span named after the layer it enters.
pub fn span(name: &'static str, parent: u64, unit: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { id: 0, open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    Span { id, open: Some((parent, name, unit(), now_ns())) }
}

/// Records an already-measured interval (e.g. a pool job timed inside
/// the program) as a child of `parent`.
pub fn record(name: &'static str, parent: u64, unit: String, start_ns: u64, end_ns: u64) {
    if enabled() {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let rec = Record { id, parent, name, unit, start_ns, end_ns };
        records().lock().expect("span store poisoned").push(rec);
    }
}

/// Nanoseconds since the span epoch of an `Instant` (for [`record`]).
pub fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn take() -> Vec<Record> {
    std::mem::take(&mut *records().lock().expect("span store poisoned"))
}

/// Self time per span name, in seconds: duration minus the union of
/// child intervals (children are clipped to their parent).
pub fn self_times(spans: &[Record]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

pub fn to_json(spans: &[Record]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id, "parent": s.parent, "name": s.name, "unit": s.unit.clone(),
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = |id, parent, name, a, b| Record {
            id,
            parent,
            name,
            unit: String::new(),
            start_ns: a,
            end_ns: b,
        };
        let spans = vec![
            rec(1, 0, "batch", 0, 1_000),
            rec(2, 1, "cell", 100, 400),
            rec(3, 1, "cell", 300, 600),
        ];
        let st = self_times(&spans);
        assert!((st["batch"] - 500e-9).abs() < 1e-15);
        assert!((st["cell"] - 600e-9).abs() < 1e-15);
    }
}
