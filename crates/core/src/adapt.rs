//! Adaptive tuning of the compression-disabling threshold `R_thres`.
//!
//! At every reboot Kagura inspects `R_evict` — how many blocks were evicted
//! after the decision point in the previous power cycle — and moves
//! `R_thres` (paper §VI-B):
//!
//! * many evictions ⇒ the uncompressed cache was too small near the end of
//!   the cycle ⇒ **lower** the threshold (disable compression later);
//! * few evictions ⇒ room to spare ⇒ **raise** the threshold (disable
//!   earlier and save more energy).
//!
//! The paper selects **AIMD** (additive 10 % increase, halving decrease)
//! and evaluates MIAD, AIAD and MIMD as ablations (Fig 21), plus increase
//! steps of 5–20 % (Fig 22). This module implements all four schemes.

use std::fmt;

/// How `R_thres` moves up (few evictions) and down (many evictions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdaptScheme {
    /// Additive increase, multiplicative decrease — the paper's choice.
    Aimd,
    /// Multiplicative increase, additive decrease.
    Miad,
    /// Additive increase, additive decrease.
    Aiad,
    /// Multiplicative increase, multiplicative decrease.
    Mimd,
}

impl AdaptScheme {
    /// All schemes in the paper's Fig 21 order.
    pub const ALL: [AdaptScheme; 4] =
        [AdaptScheme::Aimd, AdaptScheme::Miad, AdaptScheme::Aiad, AdaptScheme::Mimd];

    /// Scheme name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            AdaptScheme::Aimd => "AIMD",
            AdaptScheme::Miad => "MIAD",
            AdaptScheme::Aiad => "AIAD",
            AdaptScheme::Mimd => "MIMD",
        }
    }
}

impl fmt::Display for AdaptScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Applies one scheme with a configurable additive step.
///
/// # Examples
///
/// ```
/// use kagura_core::{AdaptScheme, ThresholdAdapter};
///
/// let aimd = ThresholdAdapter::new(AdaptScheme::Aimd, 0.10);
/// // Few evictions: +10 % (at least +1).
/// assert_eq!(aimd.adjust(8, 1), 9);
/// // Many evictions: halve.
/// assert_eq!(aimd.adjust(8, 6), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdAdapter {
    scheme: AdaptScheme,
    /// Additive step as a fraction of the current threshold (default 0.10).
    step: f64,
}

impl ThresholdAdapter {
    /// Creates an adapter.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not in `(0, 1)`.
    pub fn new(scheme: AdaptScheme, step: f64) -> Self {
        assert!(step > 0.0 && step < 1.0, "step must be a fraction in (0,1), got {step}");
        ThresholdAdapter { scheme, step }
    }

    /// The scheme.
    pub fn scheme(&self) -> AdaptScheme {
        self.scheme
    }

    /// The additive step fraction.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// One reboot-time adjustment: raise `thres` when `evicted` was at most
    /// half of it, lower it otherwise. Never returns 0.
    pub fn adjust(&self, thres: u64, evicted: u64) -> u64 {
        let raise = evicted <= thres / 2;
        let additive = ((thres as f64 * self.step).round() as u64).max(1);
        let next = match (self.scheme, raise) {
            (AdaptScheme::Aimd, true) | (AdaptScheme::Aiad, true) => thres + additive,
            (AdaptScheme::Aimd, false) | (AdaptScheme::Mimd, false) => thres / 2,
            (AdaptScheme::Miad, true) | (AdaptScheme::Mimd, true) => thres * 2,
            (AdaptScheme::Miad, false) | (AdaptScheme::Aiad, false) => {
                thres.saturating_sub(additive)
            }
        };
        next.max(1)
    }
}

impl Default for ThresholdAdapter {
    /// The paper's default: AIMD with a 10 % step.
    fn default() -> Self {
        Self::new(AdaptScheme::Aimd, 0.10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aimd_matches_paper_fig9() {
        // Fig 9: thres 8, 6 evictions (> 4) -> halve to 4;
        // then 1 eviction (<= 2) -> raise 4 -> 4 + max(1, 0.4) = 5.
        let aimd = ThresholdAdapter::default();
        assert_eq!(aimd.adjust(8, 6), 4);
        assert_eq!(aimd.adjust(4, 1), 5);
    }

    #[test]
    fn boundary_is_half_of_thres() {
        let aimd = ThresholdAdapter::default();
        // evicted == thres/2 counts as "few" (paper: "larger than half").
        assert_eq!(aimd.adjust(8, 4), 9);
        assert_eq!(aimd.adjust(8, 5), 4);
    }

    #[test]
    fn miad_and_mimd_double_on_raise() {
        assert_eq!(ThresholdAdapter::new(AdaptScheme::Miad, 0.1).adjust(8, 0), 16);
        assert_eq!(ThresholdAdapter::new(AdaptScheme::Mimd, 0.1).adjust(8, 0), 16);
    }

    #[test]
    fn additive_decrease_subtracts_step() {
        assert_eq!(ThresholdAdapter::new(AdaptScheme::Miad, 0.1).adjust(20, 15), 18);
        assert_eq!(ThresholdAdapter::new(AdaptScheme::Aiad, 0.1).adjust(20, 15), 18);
    }

    #[test]
    fn threshold_never_reaches_zero() {
        for scheme in AdaptScheme::ALL {
            let a = ThresholdAdapter::new(scheme, 0.2);
            assert!(a.adjust(1, 100) >= 1, "{scheme} drove thres to 0");
            assert!(a.adjust(2, 100) >= 1);
        }
    }

    #[test]
    fn step_sizes_scale_increase() {
        let small = ThresholdAdapter::new(AdaptScheme::Aimd, 0.05);
        let large = ThresholdAdapter::new(AdaptScheme::Aimd, 0.20);
        assert!(large.adjust(100, 0) > small.adjust(100, 0));
        assert_eq!(small.adjust(100, 0), 105);
        assert_eq!(large.adjust(100, 0), 120);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_step_rejected() {
        let _ = ThresholdAdapter::new(AdaptScheme::Aimd, 1.5);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(AdaptScheme::Aimd.to_string(), "AIMD");
        assert_eq!(AdaptScheme::ALL.len(), 4);
    }
}
