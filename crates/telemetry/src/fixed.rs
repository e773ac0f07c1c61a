//! Exact, order-insensitive summation of `f64` streams.
//!
//! Floating-point addition is not associative, so an aggregate carrying
//! a plain `f64` running sum produces *different bits* depending on how
//! a stream was sharded — fatal for the fleet engine's contract that
//! reports are byte-identical at any shard count and that a merge of N
//! shard aggregates equals single-stream aggregation. [`FixedSum`]
//! restores associativity by accumulating in integer fixed point:
//! every observation is converted once (deterministically) to units of
//! 2⁻⁶⁴, and from then on only i128 additions happen, which commute and
//! associate exactly.

/// An exact fixed-point accumulator: the running sum in units of 2⁻⁶⁴.
///
/// Conversion truncates each observation toward zero at 2⁻⁶⁴ absolute
/// resolution; magnitudes at or above 2⁶³ saturate, as does the
/// accumulator itself (via saturating adds), and NaN contributes zero.
/// All of these edges are deterministic per observation, so the folded
/// total is a pure function of the multiset of observations — never of
/// their order or grouping. Campaign metrics (speedups, fractions,
/// counts) sit far inside both resolution edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FixedSum(i128);

/// One `f64` in 2⁻⁶⁴ units, truncated toward zero, saturating at ±2¹²⁷.
fn to_fixed(v: f64) -> i128 {
    let bits = v.to_bits();
    let negative = bits >> 63 == 1;
    let exp = ((bits >> 52) & 0x7FF) as i64;
    let frac = (bits & ((1u64 << 52) - 1)) as i128;
    let magnitude = if exp == 0x7FF {
        // Infinity saturates; NaN contributes nothing.
        if frac == 0 {
            i128::MAX
        } else {
            0
        }
    } else {
        let (m, e) = if exp == 0 { (frac, -1074i64) } else { (frac | (1 << 52), exp - 1075) };
        // Shift the 53-bit mantissa into 2⁻⁶⁴ units.
        match e + 64 {
            s if s >= 75 => i128::MAX, // ≥ 2⁶³: saturate
            s if s >= 0 => m << s,
            s if s > -53 => m >> -s, // truncate sub-resolution bits
            _ => 0,
        }
    };
    if negative {
        magnitude.checked_neg().unwrap_or(i128::MIN)
    } else {
        magnitude
    }
}

impl FixedSum {
    /// The zero accumulator.
    pub fn zero() -> Self {
        FixedSum(0)
    }

    /// Adds one observation.
    pub fn add(&mut self, v: f64) {
        self.0 = self.0.saturating_add(to_fixed(v));
    }

    /// Folds another accumulator in. Integer addition, hence exactly
    /// associative and commutative.
    pub fn merge(&mut self, other: &FixedSum) {
        self.0 = self.0.saturating_add(other.0);
    }

    /// The sum as an `f64` (correctly rounded from the exact total).
    pub fn value(&self) -> f64 {
        // i128→f64 rounds correctly; the 2⁻⁶⁴ rescale is a power of
        // two, exact for every non-subnormal result.
        (self.0 as f64) / 18_446_744_073_709_551_616.0
    }

    /// Decimal string of the raw fixed-point total, for lossless
    /// journaling (JSON numbers cannot carry 128 bits).
    pub fn to_decimal(&self) -> String {
        self.0.to_string()
    }

    /// Parses [`FixedSum::to_decimal`] output.
    ///
    /// # Errors
    ///
    /// Returns `Err` when `s` is not a decimal i128.
    pub fn from_decimal(s: &str) -> Result<Self, String> {
        s.parse::<i128>().map(FixedSum).map_err(|e| format!("bad fixed-point sum `{s}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_and_dyadics_accumulate_exactly() {
        let mut s = FixedSum::zero();
        for v in [5.0, 7.0, 50.0, 5000.0, 0.25, -12.75] {
            s.add(v);
        }
        assert_eq!(s.value(), 5049.5);
    }

    #[test]
    fn sharded_folds_match_any_grouping_bit_for_bit() {
        let values: Vec<f64> = (0..1000).map(|k| (k as f64).sin() * 1e6).collect();
        let mut whole = FixedSum::zero();
        for &v in &values {
            whole.add(v);
        }
        // Three shards, interleaved assignment, merged in reverse order.
        let mut shards = [FixedSum::zero(), FixedSum::zero(), FixedSum::zero()];
        for (k, &v) in values.iter().enumerate() {
            shards[k % 3].add(v);
        }
        let mut folded = FixedSum::zero();
        for s in shards.iter().rev() {
            folded.merge(s);
        }
        assert_eq!(folded, whole);
    }

    #[test]
    fn nan_is_ignored_and_infinity_saturates() {
        let mut s = FixedSum::zero();
        s.add(f64::NAN);
        assert_eq!(s, FixedSum::zero());
        s.add(f64::INFINITY);
        assert!(s.value() > 1e18);
    }

    #[test]
    fn decimal_round_trip() {
        let mut s = FixedSum::zero();
        s.add(-123.456);
        let back = FixedSum::from_decimal(&s.to_decimal()).unwrap();
        assert_eq!(s, back);
        assert!(FixedSum::from_decimal("not a number").is_err());
    }
}
