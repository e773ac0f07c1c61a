//! Per-category energy accounting, matching the six portions of the
//! paper's Fig 16: *Compress*, *Decompress*, *Cache (other)*, *Memory*,
//! *Checkpoint/Restoration* and *Others*.

use std::fmt;
use std::ops::{Add, AddAssign, Index, Sub, SubAssign};

use ehs_model::Energy;
use serde_json::Value;

/// The Fig 16 energy categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyCategory {
    /// Block compression on cache fill.
    Compress,
    /// Block decompression on access or eviction.
    Decompress,
    /// All other cache energy (hit/fill accesses, SRAM leakage).
    CacheOther,
    /// NVM main-memory reads and writes (demand traffic).
    Memory,
    /// JIT checkpoint and restoration traffic.
    CheckpointRestore,
    /// Everything else: pipeline energy, capacitor leakage, monitor draw.
    Other,
}

impl EnergyCategory {
    /// All categories in the paper's legend order.
    pub const ALL: [EnergyCategory; 6] = [
        EnergyCategory::Compress,
        EnergyCategory::Decompress,
        EnergyCategory::CacheOther,
        EnergyCategory::Memory,
        EnergyCategory::CheckpointRestore,
        EnergyCategory::Other,
    ];

    /// Legend label as printed in Fig 16.
    pub fn label(self) -> &'static str {
        match self {
            EnergyCategory::Compress => "Compress",
            EnergyCategory::Decompress => "Decompress",
            EnergyCategory::CacheOther => "Cache (other)",
            EnergyCategory::Memory => "Memory",
            EnergyCategory::CheckpointRestore => "Checkpoint/Restoration",
            EnergyCategory::Other => "Others",
        }
    }

    /// Stable machine-readable key (snake_case), used by the JSON wire
    /// format and the flight-record field names (`<key>_pj`).
    pub fn key(self) -> &'static str {
        match self {
            EnergyCategory::Compress => "compress",
            EnergyCategory::Decompress => "decompress",
            EnergyCategory::CacheOther => "cache_other",
            EnergyCategory::Memory => "memory",
            EnergyCategory::CheckpointRestore => "checkpoint_restore",
            EnergyCategory::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            EnergyCategory::Compress => 0,
            EnergyCategory::Decompress => 1,
            EnergyCategory::CacheOther => 2,
            EnergyCategory::Memory => 3,
            EnergyCategory::CheckpointRestore => 4,
            EnergyCategory::Other => 5,
        }
    }
}

impl fmt::Display for EnergyCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated energy per category.
///
/// # Examples
///
/// ```
/// use ehs_energy::{EnergyBreakdown, EnergyCategory};
/// use ehs_model::Energy;
///
/// let mut b = EnergyBreakdown::default();
/// b.record(EnergyCategory::Compress, Energy::from_picojoules(3.84));
/// b.record(EnergyCategory::Memory, Energy::from_picojoules(150.0));
/// assert_eq!(b.total().picojoules(), 153.84);
/// assert_eq!(b[EnergyCategory::Compress].picojoules(), 3.84);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    buckets: [Energy; 6],
}

impl EnergyBreakdown {
    /// Adds `amount` to `category`.
    pub fn record(&mut self, category: EnergyCategory, amount: Energy) {
        self.buckets[category.index()] += amount;
    }

    /// Total across all categories.
    pub fn total(&self) -> Energy {
        self.buckets.iter().copied().sum()
    }

    /// Fraction of the total in `category` (0 when the total is zero).
    pub fn fraction(&self, category: EnergyCategory) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.buckets[category.index()] / total
        }
    }

    /// Per-category values normalised to an external reference total
    /// (Fig 16 normalises each configuration to the *baseline's* total).
    ///
    /// # Panics
    ///
    /// Panics if `reference_total` is zero.
    pub fn normalized_to(&self, reference_total: Energy) -> [(EnergyCategory, f64); 6] {
        assert!(!reference_total.is_zero(), "reference total must be nonzero");
        EnergyCategory::ALL.map(|c| (c, self.buckets[c.index()] / reference_total))
    }

    /// Iterates `(category, energy)` pairs in legend order.
    pub fn iter(&self) -> impl Iterator<Item = (EnergyCategory, Energy)> + '_ {
        EnergyCategory::ALL.into_iter().map(|c| (c, self.buckets[c.index()]))
    }

    /// Flat JSON object keyed by [`EnergyCategory::key`], values in
    /// picojoules — the breakdown's wire format (JSON transport is
    /// hand-rolled, as for the telemetry events).
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.iter().map(|(c, e)| (format!("{}_pj", c.key()), e.picojoules().into())).collect(),
        )
    }

    /// Inverse of [`EnergyBreakdown::to_json`]; `None` when any category
    /// key is missing or not a number.
    pub fn from_json(v: &Value) -> Option<EnergyBreakdown> {
        let mut out = EnergyBreakdown::default();
        for c in EnergyCategory::ALL {
            let pj = v.get(&format!("{}_pj", c.key()))?.as_f64()?;
            out.record(c, Energy::from_picojoules(pj));
        }
        Some(out)
    }
}

impl Index<EnergyCategory> for EnergyBreakdown {
    type Output = Energy;
    fn index(&self, category: EnergyCategory) -> &Energy {
        &self.buckets[category.index()]
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        for (b, r) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *b += *r;
        }
    }
}

impl Sub for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn sub(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        let mut out = self;
        out -= rhs;
        out
    }
}

impl SubAssign for EnergyBreakdown {
    fn sub_assign(&mut self, rhs: EnergyBreakdown) {
        for (b, r) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *b -= *r;
        }
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        write!(f, "total {total}")?;
        for (c, e) in self.iter() {
            write!(f, "; {c}: {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let mut b = EnergyBreakdown::default();
        b.record(EnergyCategory::Compress, Energy::from_picojoules(25.0));
        b.record(EnergyCategory::Memory, Energy::from_picojoules(75.0));
        assert_eq!(b.total().picojoules(), 100.0);
        assert_eq!(b.fraction(EnergyCategory::Compress), 0.25);
        assert_eq!(b.fraction(EnergyCategory::Decompress), 0.0);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let b = EnergyBreakdown::default();
        assert_eq!(b.total(), Energy::ZERO);
        assert_eq!(b.fraction(EnergyCategory::Other), 0.0);
    }

    #[test]
    fn normalization_against_external_reference() {
        let mut b = EnergyBreakdown::default();
        b.record(EnergyCategory::Memory, Energy::from_picojoules(50.0));
        let rows = b.normalized_to(Energy::from_picojoules(200.0));
        let mem = rows.iter().find(|(c, _)| *c == EnergyCategory::Memory).unwrap();
        assert_eq!(mem.1, 0.25);
    }

    #[test]
    fn breakdowns_add_componentwise() {
        let mut a = EnergyBreakdown::default();
        a.record(EnergyCategory::Compress, Energy::from_picojoules(1.0));
        let mut b = EnergyBreakdown::default();
        b.record(EnergyCategory::Compress, Energy::from_picojoules(2.0));
        b.record(EnergyCategory::Other, Energy::from_picojoules(3.0));
        let c = a + b;
        assert_eq!(c[EnergyCategory::Compress].picojoules(), 3.0);
        assert_eq!(c[EnergyCategory::Other].picojoules(), 3.0);
    }

    #[test]
    fn breakdowns_subtract_componentwise() {
        let mut a = EnergyBreakdown::default();
        a.record(EnergyCategory::Compress, Energy::from_picojoules(5.0));
        a.record(EnergyCategory::Memory, Energy::from_picojoules(8.0));
        let mut b = EnergyBreakdown::default();
        b.record(EnergyCategory::Compress, Energy::from_picojoules(2.0));
        let c = a - b;
        assert_eq!(c[EnergyCategory::Compress].picojoules(), 3.0);
        assert_eq!(c[EnergyCategory::Memory].picojoules(), 8.0);
        let mut d = a;
        d -= b;
        assert_eq!(d, c);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let mut b = EnergyBreakdown::default();
        b.record(EnergyCategory::Compress, Energy::from_picojoules(3.84));
        b.record(EnergyCategory::Other, Energy::from_picojoules(0.1));
        let v = b.to_json();
        assert_eq!(v.get("compress_pj").and_then(Value::as_f64), Some(3.84));
        let back = EnergyBreakdown::from_json(&v).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn json_missing_key_rejected() {
        let mut v = EnergyBreakdown::default().to_json();
        if let Value::Object(map) = &mut v {
            map.retain(|(k, _)| k != "memory_pj");
        }
        assert!(EnergyBreakdown::from_json(&v).is_none());
    }

    #[test]
    fn labels_match_fig16_legend() {
        assert_eq!(EnergyCategory::CacheOther.label(), "Cache (other)");
        assert_eq!(EnergyCategory::CheckpointRestore.to_string(), "Checkpoint/Restoration");
        assert_eq!(EnergyCategory::ALL.len(), 6);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_reference_rejected() {
        let _ = EnergyBreakdown::default().normalized_to(Energy::ZERO);
    }
}
