//! Energy and power quantities.
//!
//! Everything in the simulator is accounted in **picojoules** — the natural
//! unit at this scale (a cache access is 9 pJ, a power cycle holds ~150 nJ).
//! [`Energy`] and [`Power`] are thin `f64` newtypes so arithmetic stays cheap
//! while the type system keeps joules and watts from being mixed up
//! (C-NEWTYPE).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::time::SimTime;

/// An amount of energy, stored internally in picojoules.
///
/// `Energy` forms a vector space over `f64`: values add, subtract and scale.
/// Negative energies are representable (they appear transiently in
/// capacitor-balance arithmetic) but most APIs expect non-negative values.
///
/// # Examples
///
/// ```
/// use ehs_model::Energy;
///
/// let miss = Energy::from_picojoules(150.0);
/// let four_misses = miss * 4.0;
/// assert_eq!(four_misses.picojoules(), 600.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from picojoules.
    pub const fn from_picojoules(pj: f64) -> Self {
        Energy(pj)
    }

    /// Creates an energy from nanojoules.
    pub const fn from_nanojoules(nj: f64) -> Self {
        Energy(nj * 1e3)
    }

    /// Creates an energy from microjoules.
    pub const fn from_microjoules(uj: f64) -> Self {
        Energy(uj * 1e6)
    }

    /// Creates an energy from joules.
    pub const fn from_joules(j: f64) -> Self {
        Energy(j * 1e12)
    }

    /// Returns the value in picojoules.
    pub const fn picojoules(self) -> f64 {
        self.0
    }

    /// Returns the value in nanojoules.
    pub fn nanojoules(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the value in microjoules.
    pub fn microjoules(self) -> f64 {
        self.0 * 1e-6
    }

    /// Returns the value in joules.
    pub fn joules(self) -> f64 {
        self.0 * 1e-12
    }

    /// Returns `true` if this energy is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Clamps a (possibly negative) balance to zero from below.
    pub fn clamp_non_negative(self) -> Energy {
        Energy(self.0.max(0.0))
    }

    /// Absolute value of a signed energy difference.
    pub fn abs(self) -> Energy {
        Energy(self.0.abs())
    }

    /// Returns the smaller of two energies.
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// Returns the larger of two energies.
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pj = self.0;
        if pj.abs() >= 1e6 {
            write!(f, "{:.3} uJ", pj * 1e-6)
        } else if pj.abs() >= 1e3 {
            write!(f, "{:.3} nJ", pj * 1e-3)
        } else {
            write!(f, "{:.3} pJ", pj)
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Neg for Energy {
    type Output = Energy;
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    /// Ratio of two energies (dimensionless).
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<SimTime> for Energy {
    type Output = Power;
    fn div(self, rhs: SimTime) -> Power {
        Power::from_watts(self.joules() / rhs.seconds())
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

/// An amount of power, stored internally in watts.
///
/// Ambient harvesting sources in this stack are tens of microwatts; active
/// processor draw is milliwatts. Multiplying a `Power` by a [`SimTime`]
/// yields an [`Energy`].
///
/// # Examples
///
/// ```
/// use ehs_model::{Power, SimTime};
///
/// let leak = Power::from_microwatts(3.0);
/// assert_eq!((leak * SimTime::from_micros(2.0)).picojoules(), 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    pub const fn from_watts(w: f64) -> Self {
        Power(w)
    }

    /// Creates a power from milliwatts.
    pub const fn from_milliwatts(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// Creates a power from microwatts.
    pub const fn from_microwatts(uw: f64) -> Self {
        Power(uw * 1e-6)
    }

    /// Creates a power from nanowatts.
    pub const fn from_nanowatts(nw: f64) -> Self {
        Power(nw * 1e-9)
    }

    /// Returns the value in watts.
    pub const fn watts(self) -> f64 {
        self.0
    }

    /// Returns the value in milliwatts.
    pub fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the value in microwatts.
    pub fn microwatts(self) -> f64 {
        self.0 * 1e6
    }

    /// Clamps a (possibly negative) net power to zero from below.
    pub fn clamp_non_negative(self) -> Power {
        Power(self.0.max(0.0))
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        if w.abs() >= 1e-3 {
            write!(f, "{:.3} mW", w * 1e3)
        } else if w.abs() >= 1e-6 {
            write!(f, "{:.3} uW", w * 1e6)
        } else {
            write!(f, "{:.3} nW", w * 1e9)
        }
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<SimTime> for Power {
    type Output = Energy;
    fn mul(self, rhs: SimTime) -> Energy {
        Energy::from_joules(self.0 * rhs.seconds())
    }
}

impl Mul<Power> for SimTime {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        let e = Energy::from_nanojoules(1.5);
        assert!((e.picojoules() - 1500.0).abs() < 1e-9);
        assert!((e.nanojoules() - 1.5).abs() < 1e-12);
        assert!((Energy::from_joules(1.0).microjoules() - 1e6).abs() < 1e-3);
    }

    #[test]
    fn power_times_time_is_energy() {
        let p = Power::from_milliwatts(2.0);
        let e = p * SimTime::from_micros(5.0);
        assert!((e.nanojoules() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_nanojoules(10.0) / SimTime::from_micros(5.0);
        assert!((p.milliwatts() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_behaves_like_vector_space() {
        let a = Energy::from_picojoules(9.0);
        let b = Energy::from_picojoules(3.0);
        assert_eq!((a + b).picojoules(), 12.0);
        assert_eq!((a - b).picojoules(), 6.0);
        assert_eq!((a * 2.0).picojoules(), 18.0);
        assert_eq!((a / 3.0).picojoules(), 3.0);
        assert_eq!(a / b, 3.0);
        assert_eq!((-a).picojoules(), -9.0);
    }

    #[test]
    fn clamp_non_negative_floors_at_zero() {
        assert_eq!((-Energy::from_picojoules(5.0)).clamp_non_negative(), Energy::ZERO);
        assert_eq!(Energy::from_picojoules(5.0).clamp_non_negative().picojoules(), 5.0);
    }

    #[test]
    fn sums_accumulate() {
        let total: Energy = (0..4).map(|i| Energy::from_picojoules(i as f64)).sum();
        assert_eq!(total.picojoules(), 6.0);
        let p: Power = vec![Power::from_microwatts(1.0); 3].into_iter().sum();
        assert!((p.microwatts() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Energy::from_picojoules(9.0).to_string(), "9.000 pJ");
        assert_eq!(Energy::from_nanojoules(2.0).to_string(), "2.000 nJ");
        assert_eq!(Energy::from_microjoules(1.5).to_string(), "1.500 uJ");
        assert_eq!(Power::from_microwatts(50.0).to_string(), "50.000 uW");
        assert_eq!(Power::from_milliwatts(2.0).to_string(), "2.000 mW");
    }

    #[test]
    fn min_max_select_correct_operand() {
        let a = Energy::from_picojoules(1.0);
        let b = Energy::from_picojoules(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
