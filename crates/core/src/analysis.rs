//! The closed-form break-even model of paper §III (Eq. 1–4, Fig 3).
//!
//! Cache compression benefits an EHS only when the hit-rate improvement it
//! buys exceeds a threshold set by the compression machinery's own energy
//! costs:
//!
//! ```text
//! E_benefit = ΔR_hit · N · E_miss                       (Eq. 1)
//! E_waste   = (a·N + L)·E_decomp + M·E_comp             (Eq. 2)
//! net > 0  ⇔  ΔR_hit > ((a + e)·E_decomp + f·E_comp) / E_miss   (Eq. 4)
//! ```
//!
//! with `e = L/N` (compressed evictions per memory op) and `f = M/N`
//! (compressions per memory op).

use ehs_model::Energy;

/// Workload/compression mix parameters of §III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionMix {
    /// Fraction of memory operations that access compressed blocks.
    pub a: f64,
    /// Compressed-block evictions per memory operation (`L/N`).
    pub e: f64,
    /// Blocks compressed per memory operation (`M/N`).
    pub f: f64,
}

impl CompressionMix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not in `[0,1]` or `e`/`f` are negative.
    pub fn new(a: f64, e: f64, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&a), "a must be a fraction, got {a}");
        assert!(e >= 0.0 && f >= 0.0, "e and f must be non-negative");
        CompressionMix { a, e, f }
    }
}

/// Eq. 1: total energy benefit of improving the hit rate by `delta_rhit`
/// over `n` memory operations.
pub fn energy_benefit(delta_rhit: f64, n: u64, e_miss: Energy) -> Energy {
    e_miss * (delta_rhit * n as f64)
}

/// Eq. 2: total energy waste of compression over `n` memory operations.
pub fn energy_waste(mix: CompressionMix, n: u64, e_comp: Energy, e_decomp: Energy) -> Energy {
    let n = n as f64;
    let l = mix.e * n;
    let m = mix.f * n;
    e_decomp * (mix.a * n + l) + e_comp * m
}

/// Eq. 4: the minimum hit-rate improvement for compression to pay off.
///
/// # Examples
///
/// ```
/// use ehs_model::Energy;
/// use kagura_core::analysis::{min_delta_rhit, CompressionMix};
///
/// let mix = CompressionMix::new(0.5, 0.25, 0.25);
/// let t = min_delta_rhit(
///     mix,
///     Energy::from_picojoules(3.84),
///     Energy::from_picojoules(0.65),
///     Energy::from_picojoules(150.0),
/// );
/// assert!(t > 0.0 && t < 0.05);
/// ```
///
/// # Panics
///
/// Panics if `e_miss` is zero.
pub fn min_delta_rhit(
    mix: CompressionMix,
    e_comp: Energy,
    e_decomp: Energy,
    e_miss: Energy,
) -> f64 {
    assert!(!e_miss.is_zero(), "miss energy must be nonzero");
    ((mix.a + mix.e) * e_decomp.picojoules() + mix.f * e_comp.picojoules()) / e_miss.picojoules()
}

/// Net energy effect (Eq. 3): positive means compression helps.
pub fn net_energy(
    delta_rhit: f64,
    mix: CompressionMix,
    n: u64,
    e_comp: Energy,
    e_decomp: Energy,
    e_miss: Energy,
) -> Energy {
    energy_benefit(delta_rhit, n, e_miss) - energy_waste(mix, n, e_comp, e_decomp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pj(v: f64) -> Energy {
        Energy::from_picojoules(v)
    }

    #[test]
    fn benefit_scales_linearly() {
        assert_eq!(energy_benefit(0.1, 1000, pj(150.0)).picojoules(), 15_000.0);
        assert_eq!(energy_benefit(0.0, 1000, pj(150.0)), Energy::ZERO);
    }

    #[test]
    fn waste_matches_equation_two() {
        // a=0.5, e=0.1, f=0.2 over N=1000: decomp on 0.5*1000+100 = 600 ops,
        // comp on 200 blocks.
        let mix = CompressionMix::new(0.5, 0.1, 0.2);
        let w = energy_waste(mix, 1000, pj(4.0), pj(1.0));
        assert_eq!(w.picojoules(), 600.0 + 800.0);
    }

    #[test]
    fn threshold_is_break_even() {
        let mix = CompressionMix::new(0.75, 0.5, 0.5);
        let (ec, ed, em) = (pj(3.84), pj(0.65), pj(150.0));
        let t = min_delta_rhit(mix, ec, ed, em);
        // Exactly at the threshold the net effect is ~zero.
        let n = 1_000_000;
        let net = net_energy(t, mix, n, ec, ed, em);
        assert!(net.picojoules().abs() < 1e-3, "net at threshold = {net}");
        // Slightly above: positive; slightly below: negative.
        assert!(net_energy(t + 1e-4, mix, n, ec, ed, em).picojoules() > 0.0);
        assert!(net_energy(t - 1e-4, mix, n, ec, ed, em).picojoules() < 0.0);
    }

    #[test]
    fn threshold_monotonic_in_mix_parameters() {
        let (ec, ed, em) = (pj(3.84), pj(0.65), pj(150.0));
        let base = min_delta_rhit(CompressionMix::new(0.5, 0.25, 0.25), ec, ed, em);
        // Raising a, e, or f raises the bar (Fig 3 trend).
        assert!(min_delta_rhit(CompressionMix::new(0.75, 0.25, 0.25), ec, ed, em) > base);
        assert!(min_delta_rhit(CompressionMix::new(0.5, 0.5, 0.25), ec, ed, em) > base);
        assert!(min_delta_rhit(CompressionMix::new(0.5, 0.25, 0.5), ec, ed, em) > base);
    }

    #[test]
    fn threshold_falls_with_larger_miss_penalty() {
        // More expensive misses make compression easier to justify (Fig 3).
        let mix = CompressionMix::new(0.5, 0.25, 0.25);
        let cheap = min_delta_rhit(mix, pj(3.84), pj(0.65), pj(50.0));
        let costly = min_delta_rhit(mix, pj(3.84), pj(0.65), pj(600.0));
        assert!(costly < cheap);
    }

    #[test]
    fn threshold_rises_with_compression_cost() {
        let mix = CompressionMix::new(0.5, 0.25, 0.25);
        let cheap = min_delta_rhit(mix, pj(1.0), pj(0.3), pj(150.0));
        let costly = min_delta_rhit(mix, pj(8.0), pj(2.0), pj(150.0));
        assert!(costly > cheap);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_mix_rejected() {
        let _ = CompressionMix::new(1.5, 0.0, 0.0);
    }
}
