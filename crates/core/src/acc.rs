//! ACC — Adaptive Cache Compression (Alameldeen & Wood, ISCA 2004).
//!
//! ACC maintains a **Global Compression Predictor (GCP)**: a saturating
//! counter updated from the LRU stack depth of each hit.
//!
//! * A hit whose stack depth is at or beyond the nominal associativity
//!   could only happen because compression stretched the set — compression
//!   *avoided a miss*, so the GCP is credited with the miss penalty.
//! * A hit on a *compressed* block within the nominal ways would have hit
//!   anyway — the decompression was avoidable overhead, so the GCP is
//!   debited the (much smaller) decompression penalty.
//!
//! Compression is enabled while the GCP is non-negative. Following the
//! original design, credit and debit are weighted by their relative cost —
//! a miss costs roughly an order of magnitude more than a decompression —
//! so a few avoided misses outweigh many wasted decompressions.

use ehs_cache::{FillMode, HitInfo};

use crate::governor::CompressionGovernor;

/// GCP credit for a hit that only compression made possible, scaled by
/// the ratio of miss penalty to decompression cost (the original ACC
/// weighs the counter by L2-miss vs decompression cycles, roughly two
/// orders of magnitude apart; our energy ratio E_miss/E_decomp ≈ 230 is
/// clipped to keep the counter responsive).
const BENEFIT_WEIGHT: i32 = 64;

/// GCP debit for an avoidable decompression.
const PENALTY_WEIGHT: i32 = 1;

/// GCP debit for a compression attempt that saved nothing: full compression
/// energy spent, zero capacity gained. Weighted by the energy ratio
/// E_comp/E_decomp (≈ 6).
const FAILED_FILL_PENALTY: i32 = 8;

/// Saturation bounds of the GCP (a 16-bit counter in the original design;
/// narrower here to adapt within EHS-scale power cycles).
const GCP_MIN: i32 = -2048;
const GCP_MAX: i32 = 2047;

/// Post-reboot bias. The predictor must start optimistic: a fresh (empty)
/// cache produces no deep hits for a while, so starting at zero would let
/// the first avoidable decompression disable compression before any
/// benefit could possibly have been observed.
const GCP_RESET: i32 = 512;

/// The ACC governor.
///
/// # Examples
///
/// ```
/// use ehs_cache::{FillMode, HitInfo};
/// use kagura_core::{Acc, CompressionGovernor};
///
/// let mut acc = Acc::new();
/// assert_eq!(acc.fill_mode(), FillMode::Compress);
/// // Enough avoidable decompressions turn the predictor off…
/// for _ in 0..1000 {
///     acc.on_hit(&HitInfo { was_compressed: true, lru_rank: 0, word: 0 }, 2);
/// }
/// assert_eq!(acc.fill_mode(), FillMode::Bypass);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acc {
    gcp: i32,
}

impl Acc {
    /// Creates an ACC with an optimistic predictor (compression enabled).
    pub fn new() -> Self {
        Acc { gcp: GCP_RESET }
    }

    /// Current predictor value (for inspection/tests).
    pub fn gcp(&self) -> i32 {
        self.gcp
    }

    fn bump(&mut self, delta: i32) {
        self.gcp = (self.gcp + delta).clamp(GCP_MIN, GCP_MAX);
    }
}

impl Default for Acc {
    fn default() -> Self {
        Self::new()
    }
}

impl CompressionGovernor for Acc {
    fn fill_mode(&mut self) -> FillMode {
        if self.gcp >= 0 {
            FillMode::Compress
        } else {
            FillMode::Bypass
        }
    }

    fn compression_enabled(&self) -> bool {
        self.gcp >= 0
    }

    fn on_hit(&mut self, info: &HitInfo, ways: u32) {
        if info.lru_rank >= ways {
            // Only compression kept this block resident: an avoided miss.
            self.bump(BENEFIT_WEIGHT);
        } else if info.was_compressed {
            // Would have hit anyway: the decompression was pure overhead.
            self.bump(-PENALTY_WEIGHT);
        }
    }

    fn on_fill(&mut self, stored_compressed: bool) {
        if !stored_compressed {
            self.bump(-FAILED_FILL_PENALTY);
        }
    }

    fn on_reboot(&mut self) {
        // The GCP is volatile and not worth a dedicated NVFF: it restarts
        // at the optimistic bias each power cycle (compression enabled, as
        // Kagura's CM default assumes).
        self.gcp = GCP_RESET;
    }

    fn name(&self) -> &'static str {
        "ACC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(compressed: bool, rank: u32) -> HitInfo {
        HitInfo { was_compressed: compressed, lru_rank: rank, word: 0 }
    }

    #[test]
    fn starts_compressing() {
        assert_eq!(Acc::new().fill_mode(), FillMode::Compress);
    }

    #[test]
    fn deep_hits_reward_compression() {
        let mut acc = Acc::new();
        acc.on_hit(&hit(true, 2), 2);
        assert_eq!(acc.gcp(), GCP_RESET + BENEFIT_WEIGHT);
        assert_eq!(acc.fill_mode(), FillMode::Compress);
    }

    #[test]
    fn shallow_compressed_hits_punish() {
        let mut acc = Acc::new();
        acc.on_hit(&hit(true, 0), 2);
        assert_eq!(acc.gcp(), GCP_RESET - PENALTY_WEIGHT);
        // Still optimistic until the bias is consumed.
        assert_eq!(acc.fill_mode(), FillMode::Compress);
        for _ in 0..GCP_RESET {
            acc.on_hit(&hit(true, 0), 2);
        }
        assert_eq!(acc.fill_mode(), FillMode::Bypass);
    }

    #[test]
    fn shallow_uncompressed_hits_are_neutral() {
        let mut acc = Acc::new();
        acc.on_hit(&hit(false, 1), 2);
        assert_eq!(acc.gcp(), GCP_RESET);
    }

    #[test]
    fn benefit_outweighs_penalty() {
        let mut acc = Acc::new();
        // One avoided miss buys several wasted decompressions.
        acc.on_hit(&hit(true, 3), 2);
        for _ in 0..BENEFIT_WEIGHT as usize {
            acc.on_hit(&hit(true, 0), 2);
        }
        assert_eq!(acc.gcp(), GCP_RESET);
        assert_eq!(acc.fill_mode(), FillMode::Compress);
    }

    #[test]
    fn failed_compressions_disable_quickly() {
        let mut acc = Acc::new();
        // A stream of incompressible fills must turn the compressor off.
        let mut fills = 0;
        while acc.fill_mode() == FillMode::Compress {
            acc.on_fill(false);
            fills += 1;
            assert!(fills < 200, "ACC never gave up on incompressible data");
        }
        // Successful fills are not punished.
        let mut acc = Acc::new();
        acc.on_fill(true);
        assert_eq!(acc.gcp(), GCP_RESET);
    }

    #[test]
    fn counter_saturates() {
        let mut acc = Acc::new();
        for _ in 0..10_000 {
            acc.on_hit(&hit(true, 2), 2);
        }
        assert_eq!(acc.gcp(), GCP_MAX);
        for _ in 0..100_000 {
            acc.on_hit(&hit(true, 0), 2);
        }
        assert_eq!(acc.gcp(), GCP_MIN);
    }

    #[test]
    fn reboot_resets_to_optimistic() {
        let mut acc = Acc::new();
        for _ in 0..10_000 {
            acc.on_hit(&hit(true, 0), 2);
        }
        assert_eq!(acc.fill_mode(), FillMode::Bypass);
        acc.on_reboot();
        assert_eq!(acc.gcp(), GCP_RESET);
        assert_eq!(acc.fill_mode(), FillMode::Compress);
    }
}
