//! Compressed set-associative cache simulator.
//!
//! This crate is the *mechanism* half of cache compression: a write-back,
//! LRU, set-associative SRAM cache whose data array is organised in
//! fixed-size **segments** (8 B by default), so compressed blocks occupy
//! fewer segments and a set can hold more blocks than its nominal
//! associativity (up to a doubled tag array, as in compressed-cache
//! designs since Alameldeen & Wood). The *policy* half — deciding when to
//! compress — lives in `kagura-core`; the simulator asks the policy for a
//! [`FillMode`] and passes it to [`CompressedCache::fill`].
//!
//! Faithfulness notes (paper §II–§IV):
//!
//! * On a fill in compressing mode, the incoming block is compressed and,
//!   if the set still lacks room, resident *uncompressed* blocks are
//!   compressed too (paper: "compressors should compress both the incoming
//!   block and some of the existing uncompressed blocks to make room").
//!   Only then are LRU victims evicted.
//! * Every access to a compressed block pays a decompression (the `a·N`
//!   term in Eq. 2), and evicting a dirty compressed block pays one more
//!   (the `L` term).
//! * A write hit on a compressed block decompresses and *re-compresses*
//!   the line (the `M` term of Eq. 2). If the modified contents no longer
//!   compress, the line expands (a "fat write"), which can force evictions.
//!
//! # Examples
//!
//! ```
//! use ehs_cache::{CacheConfig, CompressedCache, FillMode};
//! use ehs_compress::Algorithm;
//! use ehs_model::{Address, BlockData, CacheParams};
//!
//! let mut cache = CompressedCache::new(CacheConfig::new(
//!     CacheParams::table1(),
//!     Algorithm::Bdi,
//! ));
//! let addr = Address::new(0x100);
//! assert!(cache.read(addr).is_none()); // cold miss
//! cache.fill(addr, BlockData::zeroed(32), FillMode::Compress, None);
//! assert!(cache.read(addr).is_some());
//! ```

mod cache;
mod memo;
pub mod probe;
mod set;
pub mod timeline;

pub use cache::{
    CompressedCache, DirtyBlock, Evicted, FillOutcome, HitInfo, ResidentBlock, SetOccupancy,
};
pub use probe::{CacheProbe, EvictionReason, ProbeEviction, ProbeFill, ProbeHit};
pub use timeline::{AccessTimeline, LatencyModel, TimelineRecord};

use ehs_compress::Algorithm;
use ehs_model::CacheParams;

/// Data-array segment granularity in bytes.
pub const SEGMENT_BYTES: u32 = 8;

/// How many times the nominal associativity the tag array can address when
/// blocks are compressed (doubled tags, as in the paper's Fig 4/5 examples
/// where each entry holds up to two compressed blocks).
pub const TAG_FACTOR: u32 = 2;

/// Per-fill policy decision made by the compression governor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillMode {
    /// Compress the incoming block (and resident uncompressed blocks if
    /// room is still needed).
    Compress,
    /// Store uncompressed; fall back to plain LRU replacement.
    Bypass,
}

/// Static configuration of one compressed cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Geometry and energy parameters.
    pub params: CacheParams,
    /// Which compression algorithm the data array uses.
    pub algorithm: Algorithm,
}

impl CacheConfig {
    /// Creates a configuration.
    pub fn new(params: CacheParams, algorithm: Algorithm) -> Self {
        CacheConfig { params, algorithm }
    }

    /// Segments per uncompressed block.
    ///
    /// # Panics
    ///
    /// Panics if the block size is not a multiple of [`SEGMENT_BYTES`].
    pub fn segments_per_block(&self) -> u32 {
        assert!(
            self.params.block_size.is_multiple_of(SEGMENT_BYTES),
            "block size must be a multiple of {SEGMENT_BYTES}"
        );
        self.params.block_size / SEGMENT_BYTES
    }

    /// Data-array segments per set.
    pub fn segments_per_set(&self) -> u32 {
        self.params.ways * self.segments_per_block()
    }

    /// Maximum resident blocks per set (tag-array limit).
    pub fn max_blocks_per_set(&self) -> u32 {
        self.params.ways * TAG_FACTOR
    }
}

/// Cumulative hit/miss/traffic counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Blocks filled.
    pub fills: u64,
    /// Blocks evicted (for capacity or tags).
    pub evictions: u64,
    /// Evictions forced by LRU replacement — data-array or tag-array
    /// pressure on a fill, write expansion. A subset of `evictions`.
    pub capacity_evictions: u64,
    /// Evictions forced by explicit invalidation (EDBP dead-block
    /// retirement). A subset of `evictions`; together with
    /// `capacity_evictions` it partitions them.
    pub forced_evictions: u64,
    /// Evictions of blocks stored compressed.
    pub compressed_evictions: u64,
    /// Compression operations performed (incoming or resident).
    pub compressions: u64,
    /// Decompression operations performed (hits on compressed blocks,
    /// fat writes, dirty compressed evictions).
    pub decompressions: u64,
    /// Write hits that expanded a compressed block back to full size.
    pub fat_writes: u64,
    /// Write hits that re-packed a compressed block (decompress + modify +
    /// compress), a subset of `compressions`.
    pub recompressions: u64,
    /// Fills stored compressed.
    pub compressed_fills: u64,
    /// Fills that bypassed compression.
    pub bypassed_fills: u64,
}

impl CacheStats {
    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss rate over all accesses (0 when there were none).
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses() as f64 / total as f64
        }
    }

    /// Hit rate over all accesses (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_helpers() {
        let cfg = CacheConfig::new(CacheParams::table1(), Algorithm::Bdi);
        assert_eq!(cfg.segments_per_block(), 4);
        assert_eq!(cfg.segments_per_set(), 8);
        assert_eq!(cfg.max_blocks_per_set(), 4);
    }

    #[test]
    fn stats_rates() {
        let stats = CacheStats {
            read_hits: 6,
            read_misses: 2,
            write_hits: 1,
            write_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(stats.accesses(), 10);
        assert_eq!(stats.miss_rate(), 0.3);
        assert_eq!(stats.hit_rate(), 0.7);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
