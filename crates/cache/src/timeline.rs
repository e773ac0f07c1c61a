//! Attacker-visible per-access timing timeline.
//!
//! [`AccessTimeline`] is a [`CacheProbe`] that records, for every data-cache
//! access, the tuple a co-resident attacker could observe with a cycle
//! counter: which set the access landed in, the latency the access paid,
//! whether it hit, and how the set's compressed occupancy changed. It is
//! the per-access counterpart to cachescope's aggregates — cachescope says
//! "misses cost X on average", the timeline says "*this* probe load missed,
//! so the victim's block did not fit in two segments".
//!
//! The probe is bounded: past `capacity` records it counts drops instead of
//! growing, so a runaway program cannot balloon host memory. Like every
//! [`CacheProbe`], it is zero-cost when detached and purely event-driven —
//! no per-instruction state — so an attached timeline keeps the
//! fast-forward loop engaged and observes the identical record stream under
//! either execution loop (the fastpath differential suite pins this).
//!
//! Latency is reconstructed from a [`LatencyModel`] of architectural
//! constants rather than read back from the simulator's ledger: the model
//! is exactly what a real attacker calibrates offline (tag-hit time,
//! decompression stall, memory round-trip), and keeping it inside the probe
//! means the timeline needs no hot-loop cooperation from the simulator.

use crate::probe::{CacheProbe, EvictionReason, ProbeEviction, ProbeFill, ProbeHit};

/// Architectural latency constants (in core cycles) from which the
/// timeline reconstructs attacker-visible access times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cache hit latency (tag + data array).
    pub hit: u64,
    /// Extra stall when a hit must decompress the line.
    pub decompress: u64,
    /// Extra stall when a fill stores the line compressed.
    pub compress: u64,
    /// Miss penalty: memory block read on top of the tag check.
    pub miss: u64,
}

/// One attacker-visible access record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineRecord {
    /// Set index the access mapped to.
    pub set: u32,
    /// Reconstructed access latency in cycles (see [`LatencyModel`]).
    pub latency: u64,
    /// `true` for a hit, `false` for a miss (fill).
    pub hit: bool,
    /// Net change in the set's occupied data-array segments caused by this
    /// access, evictions included (0 for hits; a fill that displaced a
    /// two-segment block to admit a three-segment one reads +1).
    pub occ_delta: i64,
}

/// Bounded per-access timeline probe; see the module docs.
#[derive(Debug, Clone)]
pub struct AccessTimeline {
    model: LatencyModel,
    capacity: usize,
    records: Vec<TimelineRecord>,
    dropped: u64,
    /// Occupied segments per set as of each set's last *recorded* access;
    /// capacity/forced evictions between records fold into the next fill's
    /// delta (they are part of that miss), power-loss evictions apply
    /// immediately (they belong to no access).
    used: Vec<i64>,
}

impl AccessTimeline {
    /// Creates a timeline over `num_sets` sets holding at most `capacity`
    /// records.
    pub fn new(model: LatencyModel, num_sets: u32, capacity: usize) -> Self {
        AccessTimeline {
            model,
            capacity,
            records: Vec::new(),
            dropped: 0,
            used: vec![0; num_sets as usize],
        }
    }

    /// The recorded accesses, oldest first.
    pub fn records(&self) -> &[TimelineRecord] {
        &self.records
    }

    /// Records dropped after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The model the latencies were reconstructed with.
    pub fn model(&self) -> LatencyModel {
        self.model
    }

    /// The last record in `set`, if any — the attacker's classification
    /// primitive (its probe load is the final access it issues to the
    /// target set).
    pub fn last_in_set(&self, set: u32) -> Option<TimelineRecord> {
        self.records.iter().rev().find(|r| r.set == set).copied()
    }

    fn push(&mut self, r: TimelineRecord) {
        if self.records.len() >= self.capacity {
            self.dropped += 1;
        } else {
            self.records.push(r);
        }
    }
}

impl CacheProbe for AccessTimeline {
    fn on_hit(&mut self, hit: ProbeHit) {
        let latency = self.model.hit + if hit.was_compressed { self.model.decompress } else { 0 };
        self.push(TimelineRecord { set: hit.set, latency, hit: true, occ_delta: 0 });
    }

    fn on_fill(&mut self, fill: ProbeFill) {
        let latency =
            self.model.miss + if fill.stored_compressed { self.model.compress } else { 0 };
        let delta = fill.used_after as i64 - self.used[fill.set as usize];
        self.used[fill.set as usize] = fill.used_after as i64;
        self.push(TimelineRecord { set: fill.set, latency, hit: false, occ_delta: delta });
    }

    fn on_evict(&mut self, evt: ProbeEviction) {
        if evt.reason == EvictionReason::PowerLoss {
            // Not attributable to any access; apply now so the next fill's
            // delta is measured against the post-outage set state.
            self.used[evt.set as usize] -= evt.segments as i64;
        }
        // Capacity/forced evictions stay pending: the fill that triggered
        // them reports used_after, which already accounts for them.
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: LatencyModel = LatencyModel { hit: 1, decompress: 4, compress: 3, miss: 11 };

    fn fill(set: u32, segments: u32, compressed: bool, used_after: u32) -> ProbeFill {
        ProbeFill {
            set,
            segments,
            full_segments: 4,
            stored_compressed: compressed,
            used_after,
            blocks_after: 1,
        }
    }

    #[test]
    fn latencies_follow_the_model() {
        let mut t = AccessTimeline::new(MODEL, 4, 16);
        t.on_fill(fill(0, 2, true, 2));
        t.on_hit(ProbeHit { set: 0, was_compressed: true, segments: 2, reuse: 1 });
        t.on_hit(ProbeHit { set: 1, was_compressed: false, segments: 4, reuse: 1 });
        let r = t.records();
        assert_eq!(r[0], TimelineRecord { set: 0, latency: 14, hit: false, occ_delta: 2 });
        assert_eq!(r[1], TimelineRecord { set: 0, latency: 5, hit: true, occ_delta: 0 });
        assert_eq!(r[2], TimelineRecord { set: 1, latency: 1, hit: true, occ_delta: 0 });
    }

    #[test]
    fn occupancy_deltas_fold_capacity_evictions_into_the_fill() {
        let mut t = AccessTimeline::new(MODEL, 4, 16);
        t.on_fill(fill(0, 2, true, 2));
        t.on_fill(fill(0, 2, true, 4));
        // A capacity eviction (−2) then a 3-segment fill: net +1.
        t.on_evict(ProbeEviction {
            set: 0,
            reason: EvictionReason::Capacity,
            segments: 2,
            was_compressed: true,
            lifetime: 5,
            idle: 2,
        });
        t.on_fill(fill(0, 3, true, 5));
        assert_eq!(t.records()[2].occ_delta, 1);
        // Power loss empties the set outside any access; the next fill's
        // delta is measured from the emptied state.
        t.on_evict(ProbeEviction {
            set: 0,
            reason: EvictionReason::PowerLoss,
            segments: 3,
            was_compressed: true,
            lifetime: 1,
            idle: 1,
        });
        t.on_evict(ProbeEviction {
            set: 0,
            reason: EvictionReason::PowerLoss,
            segments: 2,
            was_compressed: true,
            lifetime: 9,
            idle: 4,
        });
        t.on_fill(fill(0, 2, true, 2));
        assert_eq!(t.records()[3].occ_delta, 2);
    }

    #[test]
    fn capacity_bounds_the_record_count() {
        let mut t = AccessTimeline::new(MODEL, 1, 2);
        for _ in 0..5 {
            t.on_hit(ProbeHit { set: 0, was_compressed: false, segments: 4, reuse: 1 });
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.last_in_set(0).unwrap().set, 0);
        assert_eq!(t.last_in_set(5), None);
    }
}
