//! Hardware-overhead accounting (paper §VIII-A).
//!
//! Kagura's control hardware is five 32-bit registers plus one small
//! saturating counter — 162 bits in the default configuration. At 45 nm
//! (CACTI), those registers occupy at most 0.000796 mm², i.e. 0.14 % of the
//! 0.538 mm² core (caches included) reported by McPAT.

/// Register-file area per bit at 45 nm, derived from the paper's CACTI
/// figure (0.000796 mm² for 162 bits).
pub const MM2_PER_BIT: f64 = 0.000796 / 162.0;

/// Core area (including caches) at 45 nm from McPAT, mm².
pub const CORE_AREA_MM2: f64 = 0.538;

/// The hardware inventory of one Kagura instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareOverhead {
    /// Number of 32-bit registers (`R_mem`, `R_thres`, `R_prev`,
    /// `R_adjust`, `R_evict`).
    pub registers: u32,
    /// Saturating-counter width in bits.
    pub counter_bits: u32,
}

impl HardwareOverhead {
    /// The paper's default: five registers and a 2-bit counter.
    pub fn kagura_default() -> Self {
        HardwareOverhead { registers: 5, counter_bits: 2 }
    }

    /// Configuration with a different counter width (Table IV ablation).
    pub fn with_counter_bits(counter_bits: u32) -> Self {
        HardwareOverhead { registers: 5, counter_bits }
    }

    /// Total state bits.
    pub fn total_bits(&self) -> u32 {
        self.registers * 32 + self.counter_bits
    }

    /// Estimated area in mm² at 45 nm.
    pub fn area_mm2(&self) -> f64 {
        self.total_bits() as f64 * MM2_PER_BIT
    }

    /// Area as a fraction of the 0.538 mm² core.
    pub fn core_fraction(&self) -> f64 {
        self.area_mm2() / CORE_AREA_MM2
    }
}

impl Default for HardwareOverhead {
    fn default() -> Self {
        Self::kagura_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_162_bits() {
        let hw = HardwareOverhead::kagura_default();
        assert_eq!(hw.total_bits(), 162);
    }

    #[test]
    fn area_matches_paper() {
        let hw = HardwareOverhead::kagura_default();
        assert!((hw.area_mm2() - 0.000796).abs() < 1e-9);
        // 0.000796 / 0.538 = 0.00148 -> the paper rounds to 0.14 %.
        let pct = hw.core_fraction() * 100.0;
        assert!((0.10..0.20).contains(&pct), "core fraction = {pct}%");
    }

    #[test]
    fn counter_width_changes_bit_count_only_slightly() {
        assert_eq!(HardwareOverhead::with_counter_bits(1).total_bits(), 161);
        assert_eq!(HardwareOverhead::with_counter_bits(3).total_bits(), 163);
    }
}
