//! The voltage-monitor hardware.
//!
//! JIT-checkpointing EHSs (NVSRAMCache) need an always-on comparator that
//! watches the capacitor and fires the checkpoint when `V` crosses
//! `V_ckpt`. The monitor itself costs energy: a standby draw proportional
//! to how many thresholds it tracks, plus a fixed initialisation overhead
//! at every reboot (paper §VIII: "we model the voltage monitor's
//! initialization overhead, propagation latency, and energy consumption").
//!
//! This matters for Kagura's trigger-strategy study (Fig 19): the
//! *voltage-based* trigger needs a third threshold — and on EHS designs
//! that otherwise avoid a monitor entirely (NvMR, SweepCache), it forces
//! the whole monitor into existence, whose standby draw erases the
//! technique's gains.

use ehs_model::{Cycles, Energy, Power};

/// Standby draw per tracked threshold (comparator + reference).
const PER_THRESHOLD_STANDBY: Power = Power::from_watts(0.45e-6);

/// Energy to (re)initialise the monitor at reboot.
const INIT_ENERGY: Energy = Energy::from_picojoules(400.0);

/// Reboot initialisation latency.
const INIT_LATENCY: Cycles = Cycles::new(20);

/// An always-on voltage monitor tracking 0–3 thresholds.
///
/// # Examples
///
/// ```
/// use ehs_energy::VoltageMonitor;
///
/// let jit = VoltageMonitor::jit_checkpoint();     // backup + restore
/// let kagura = jit.with_trigger_threshold();      // + Kagura's trigger
/// assert!(kagura.standby_power() > jit.standby_power());
/// assert_eq!(VoltageMonitor::none().standby_power().watts(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoltageMonitor {
    thresholds: u8,
}

impl VoltageMonitor {
    /// No monitor at all (monitor-free EHS designs: NvMR, SweepCache).
    pub fn none() -> Self {
        VoltageMonitor { thresholds: 0 }
    }

    /// The standard JIT-checkpoint monitor: backup (`V_ckpt`) and
    /// restoration (`V_rst`) thresholds.
    pub fn jit_checkpoint() -> Self {
        VoltageMonitor { thresholds: 2 }
    }

    /// Adds Kagura's voltage-trigger threshold on top of whatever exists.
    pub fn with_trigger_threshold(self) -> Self {
        // A trigger on a monitor-free design still needs backup+restore
        // comparators to know where the trigger sits relative to failure.
        VoltageMonitor { thresholds: self.thresholds.max(2) + 1 }
    }

    /// Number of tracked thresholds.
    pub fn thresholds(&self) -> u8 {
        self.thresholds
    }

    /// `true` if any comparator hardware exists.
    pub fn is_present(&self) -> bool {
        self.thresholds > 0
    }

    /// Continuous standby draw while the system is powered (running *or*
    /// charging — the monitor must watch the capacitor at all times).
    pub fn standby_power(&self) -> Power {
        PER_THRESHOLD_STANDBY * self.thresholds as f64
    }

    /// One-time energy cost at each reboot.
    pub fn init_energy(&self) -> Energy {
        if self.is_present() {
            INIT_ENERGY
        } else {
            Energy::ZERO
        }
    }

    /// One-time latency at each reboot.
    pub fn init_latency(&self) -> Cycles {
        if self.is_present() {
            INIT_LATENCY
        } else {
            Cycles::ZERO
        }
    }

    /// Edge-triggered comparator semantics: `true` only on the step where
    /// the capacitor fell from at-or-above `threshold` volts to below it.
    /// Staying below does not re-fire, rising through the threshold never
    /// fires, and a monitor-free design (no comparator hardware) can never
    /// observe a crossing.
    pub fn crossed_below(&self, prev_v: f64, now_v: f64, threshold: f64) -> bool {
        self.is_present() && prev_v >= threshold && now_v < threshold
    }
}

impl Default for VoltageMonitor {
    fn default() -> Self {
        Self::jit_checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_counts() {
        assert_eq!(VoltageMonitor::none().thresholds(), 0);
        assert_eq!(VoltageMonitor::jit_checkpoint().thresholds(), 2);
        assert_eq!(VoltageMonitor::jit_checkpoint().with_trigger_threshold().thresholds(), 3);
        // Adding a trigger to a monitor-free design instantiates the full
        // three-threshold monitor.
        assert_eq!(VoltageMonitor::none().with_trigger_threshold().thresholds(), 3);
    }

    #[test]
    fn standby_power_scales_with_thresholds() {
        let none = VoltageMonitor::none();
        let jit = VoltageMonitor::jit_checkpoint();
        let trig = jit.with_trigger_threshold();
        assert_eq!(none.standby_power().watts(), 0.0);
        assert!(trig.standby_power().watts() > jit.standby_power().watts());
        assert!((jit.standby_power().microwatts() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn crossing_fires_once_on_the_falling_edge() {
        let jit = VoltageMonitor::jit_checkpoint();
        let v_ckpt = 2.0;
        // Discharge path 2.2 → 2.05 → 1.95 → 1.80: exactly one crossing,
        // on the step that passes through the threshold.
        assert!(!jit.crossed_below(2.2, 2.05, v_ckpt));
        assert!(jit.crossed_below(2.05, 1.95, v_ckpt));
        assert!(!jit.crossed_below(1.95, 1.80, v_ckpt));
        // Recharge through the threshold is not a (downward) crossing.
        assert!(!jit.crossed_below(1.95, 2.10, v_ckpt));
        // Sitting exactly on the threshold then dipping below fires.
        assert!(jit.crossed_below(2.0, 1.999, v_ckpt));
        // No comparator hardware, no crossings — however the voltage moves.
        assert!(!VoltageMonitor::none().crossed_below(2.05, 1.95, v_ckpt));
    }

    #[test]
    fn absent_monitor_has_no_reboot_costs() {
        let none = VoltageMonitor::none();
        assert_eq!(none.init_energy(), Energy::ZERO);
        assert_eq!(none.init_latency(), Cycles::ZERO);
        let jit = VoltageMonitor::jit_checkpoint();
        assert!(jit.init_energy().picojoules() > 0.0);
        assert!(jit.init_latency().get() > 0);
    }
}
