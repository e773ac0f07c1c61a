//! Zero-cost-when-detached cache introspection.
//!
//! A [`CacheProbe`] is the cache-microarchitecture twin of the simulator's
//! flight recorder: the cache holds `Option<Box<dyn CacheProbe>>` and every
//! report site is one untaken branch when detached, so the default
//! configuration pays nothing (the simbench throughput gate pins this).
//! When attached, the cache reports every hit, fill and eviction with the
//! segment-level detail — compressed footprint, set index, reuse and
//! lifetime in recency ticks — that end-of-run [`CacheStats`] totals
//! cannot reconstruct.
//!
//! The trait lives in `ehs-cache` so the cache stays free of telemetry
//! dependencies; the aggregating implementation (`cachescope`) lives in
//! `ehs-sim`, which recovers its concrete type after a run through
//! [`CacheProbe::into_any`].
//!
//! # Determinism contract
//!
//! Probe callbacks describe *architectural* events only, with arguments
//! derived from cache state that the fast-forward and reference execution
//! loops maintain identically. A shallow hit that the fast path commits
//! through `try_commit_shallow_read`/`_write` reports the same
//! [`CacheProbe::on_hit`] that the full read or write would — so an
//! attached probe observes the same stream under either loop (the
//! fastpath differential suite asserts this end to end).
//!
//! [`CacheStats`]: crate::CacheStats

/// Why a block left the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionReason {
    /// LRU replacement to make room in the data or tag array.
    Capacity,
    /// Explicit invalidation by a policy (e.g. EDBP dead-block
    /// retirement).
    Forced,
    /// SRAM contents lost at a power failure.
    PowerLoss,
}

impl EvictionReason {
    /// Stable lower-case label (`"capacity"`, `"forced"`, `"power_loss"`).
    pub fn label(self) -> &'static str {
        match self {
            EvictionReason::Capacity => "capacity",
            EvictionReason::Forced => "forced",
            EvictionReason::PowerLoss => "power_loss",
        }
    }
}

/// One hit report: where it landed and how the block sat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHit {
    /// Set index.
    pub set: u32,
    /// Whether the block was stored compressed (the hit paid a
    /// decompression).
    pub was_compressed: bool,
    /// Data-array footprint of the block in segments.
    pub segments: u32,
    /// Recency-tick distance since the block's previous access (1 for a
    /// back-to-back re-reference) — the cache-level reuse distance.
    pub reuse: u64,
}

/// One fill report: the incoming block's footprint and the set's
/// occupancy after insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeFill {
    /// Set index.
    pub set: u32,
    /// Data-array footprint of the stored block in segments.
    pub segments: u32,
    /// Segments of an uncompressed block (for ratio bookkeeping).
    pub full_segments: u32,
    /// Whether the block was stored compressed.
    pub stored_compressed: bool,
    /// Data-array segments in use in the set after the fill.
    pub used_after: u32,
    /// Resident blocks in the set after the fill.
    pub blocks_after: u32,
}

/// One eviction report: why the block left and how long it lived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeEviction {
    /// Set index.
    pub set: u32,
    /// Why the block left.
    pub reason: EvictionReason,
    /// Data-array footprint in segments at eviction.
    pub segments: u32,
    /// Whether the block sat compressed.
    pub was_compressed: bool,
    /// Recency ticks between fill and eviction (block lifetime).
    pub lifetime: u64,
    /// Recency ticks since the block's last access (dead time).
    pub idle: u64,
}

/// Observer for per-access cache events; see the module docs for the
/// zero-cost and determinism contracts.
///
/// All methods default to no-ops so implementations subscribe only to
/// what they fold. `Debug` is a supertrait so instrumented caches keep
/// their derived `Debug`.
pub trait CacheProbe: std::fmt::Debug {
    /// A read or write hit (shallow fused commits included).
    fn on_hit(&mut self, _hit: ProbeHit) {}

    /// A block was inserted.
    fn on_fill(&mut self, _fill: ProbeFill) {}

    /// A block left the cache.
    fn on_evict(&mut self, _evt: ProbeEviction) {}

    /// Mid-run access to the concrete aggregator (power-cycle boundary
    /// snapshots read the attached probe in place through
    /// `CompressedCache::probe_mut` and downcast).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Recovers the concrete aggregator after a run (the simulator takes
    /// the probe back and downcasts).
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}
