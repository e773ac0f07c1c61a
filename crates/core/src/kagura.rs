//! The Kagura controller (paper §V–§VI).
//!
//! Kagura wraps an inner compression governor (typically [`crate::Acc`])
//! and overrides it with **Regular Mode** (compression off) when the
//! predicted number of memory operations remaining in the current power
//! cycle falls to the threshold `R_thres`. All state fits in five 32-bit
//! registers plus a small saturating counter:
//!
//! | register   | role                                                        |
//! |------------|-------------------------------------------------------------|
//! | `R_prev`   | predicted memory-op count of the current power cycle        |
//! | `R_mem`    | memory ops committed so far in this cycle                   |
//! | `R_adjust` | last cycle's prediction error `R_mem − R_prev` (Eq. 6)      |
//! | `R_thres`  | compression-disabling threshold, tuned by AIMD              |
//! | `R_evict`  | blocks evicted since the decision point (RM mode)           |
//!
//! `R_mem`, `R_adjust`, `R_thres`, `R_evict` and the counter are JIT
//! checkpointed to NVFFs on power failure; `R_prev` is rebuilt at reboot
//! from the restored `R_mem` (§VI-A, Fig 8).

use std::collections::VecDeque;

use ehs_cache::{FillMode, HitInfo};
use ehs_telemetry::{Event, Registers};

use crate::adapt::ThresholdAdapter;
use crate::governor::CompressionGovernor;

/// Which of the two §VI-A estimators refines `R_prev`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Use the raw previous-cycle count (Eq. 5 only).
    Simple,
    /// Reward/punishment counter plus `R_adjust` correction (Eq. 6).
    Sophisticated,
}

/// How Kagura detects the approaching end of a power cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggerKind {
    /// Memory-operation countdown (the paper's default; needs no voltage
    /// monitor).
    Memory,
    /// Voltage comparator: enter RM when the capacitor drops below
    /// `v_ckpt + fraction * (v_rst − v_ckpt)`.
    Voltage {
        /// Position of the trigger threshold inside the operating window.
        fraction: f64,
    },
}

/// Kagura's operating mode (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Compression Mode: the inner governor decides.
    Compression,
    /// Regular Mode: compression disabled until the next reboot.
    Regular,
}

/// Configuration of the controller; defaults are the paper's choices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KaguraConfig {
    /// Initial `R_thres` on the very first boot.
    pub initial_thres: u64,
    /// Width of the reward/punishment saturating counter (1–3 bits;
    /// Table IV).
    pub counter_bits: u8,
    /// Simple vs sophisticated `R_prev` estimation.
    pub estimator: EstimatorKind,
    /// Threshold adaptation scheme and step (Fig 21/22).
    pub adapter: ThresholdAdapter,
    /// How many past power cycles the estimator averages over, most recent
    /// weighted highest (Table II).
    pub history_depth: usize,
    /// Trigger strategy (Fig 19).
    pub trigger: TriggerKind,
    /// Relative prediction error below which the counter is rewarded
    /// (matches the <20 % consistency window of Fig 12).
    pub reward_tolerance: f64,
}

impl KaguraConfig {
    /// Validates field ranges.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of its documented range.
    pub fn validate(&self) {
        assert!(self.initial_thres >= 1, "initial threshold must be at least 1");
        assert!((1..=3).contains(&self.counter_bits), "counter width must be 1-3 bits");
        assert!((1..=8).contains(&self.history_depth), "history depth must be 1-8");
        assert!(
            self.reward_tolerance > 0.0 && self.reward_tolerance < 1.0,
            "reward tolerance must be a fraction"
        );
        if let TriggerKind::Voltage { fraction } = self.trigger {
            assert!((0.0..=1.0).contains(&fraction), "trigger fraction must be in [0,1]");
        }
    }
}

impl Default for KaguraConfig {
    fn default() -> Self {
        KaguraConfig {
            initial_thres: 32,
            counter_bits: 2,
            estimator: EstimatorKind::Sophisticated,
            adapter: ThresholdAdapter::default(),
            history_depth: 1,
            trigger: TriggerKind::Memory,
            reward_tolerance: 0.20,
        }
    }
}

/// The Kagura controller wrapping an inner governor.
///
/// See the crate-level docs for a usage example.
#[derive(Debug, Clone)]
pub struct Kagura<G> {
    config: KaguraConfig,
    inner: G,
    mode: Mode,
    r_prev: u64,
    r_mem: u64,
    r_adjust: i64,
    r_thres: u64,
    r_evict: u64,
    counter: u8,
    /// Most-recent-first committed memory-op counts of past cycles.
    history: VecDeque<u64>,
    /// Cumulative number of CM→RM switches (for reports).
    rm_entries: u64,
    /// Controller events pending drainage; only filled when
    /// [`Kagura::enable_event_log`] has been called.
    events: Vec<Event>,
    log_events: bool,
}

impl<G: CompressionGovernor> Kagura<G> {
    /// Creates a controller around `inner`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of range (see
    /// [`KaguraConfig::validate`]).
    pub fn new(config: KaguraConfig, inner: G) -> Self {
        config.validate();
        Kagura {
            config,
            inner,
            mode: Mode::Compression,
            r_prev: 0,
            r_mem: 0,
            r_adjust: 0,
            r_thres: config.initial_thres,
            r_evict: 0,
            counter: 0,
            history: VecDeque::with_capacity(config.history_depth + 1),
            rm_entries: 0,
            events: Vec::new(),
            log_events: false,
        }
    }

    /// Starts collecting controller events ([`Event::ModeSwitch`],
    /// [`Event::ThresholdAdjust`], [`Event::EstimatorSample`]) for
    /// drainage via [`Kagura::drain_events`]. Off by default: with the
    /// log disabled every would-be emission is a single untaken branch.
    pub fn enable_event_log(&mut self) {
        self.log_events = true;
    }

    /// `true` when no logged events are pending.
    pub fn events_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Hands every pending logged event to `f`, in emission order.
    pub fn drain_events(&mut self, mut f: impl FnMut(Event)) {
        for ev in self.events.drain(..) {
            f(ev);
        }
    }

    fn register_snapshot(&self) -> Registers {
        Registers {
            r_prev: self.r_prev,
            r_mem: self.r_mem,
            r_adjust: self.r_adjust,
            r_thres: self.r_thres,
            r_evict: self.r_evict,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The configuration this controller runs with.
    pub fn config(&self) -> &KaguraConfig {
        &self.config
    }

    /// The inner governor.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Register snapshot `(R_prev, R_mem, R_adjust, R_thres, R_evict)`.
    pub fn registers(&self) -> (u64, u64, i64, u64, u64) {
        (self.r_prev, self.r_mem, self.r_adjust, self.r_thres, self.r_evict)
    }

    /// The reward/punishment counter value.
    pub fn counter(&self) -> u8 {
        self.counter
    }

    /// How many times Kagura has switched into RM so far.
    pub fn rm_entries(&self) -> u64 {
        self.rm_entries
    }

    fn counter_max(&self) -> u8 {
        (1u8 << self.config.counter_bits) - 1
    }

    fn enter_rm(&mut self) {
        if self.mode == Mode::Compression {
            self.mode = Mode::Regular;
            self.rm_entries += 1;
            if self.log_events {
                self.events.push(Event::ModeSwitch {
                    cm_to_rm: true,
                    registers: self.register_snapshot(),
                });
            }
        }
    }

    /// Weighted average of the history, most recent weighted highest:
    /// `N_prev = Σ wᵢ·Cᵢ / Σ wᵢ` with `wᵢ = i+1` for the i-th most recent
    /// being weighted `depth − i` … matching the paper's example
    /// `N_prev = (C₁ + 2·C₂) / (1 + 2)`.
    fn predicted_prev(&self) -> u64 {
        if self.history.is_empty() {
            return 0;
        }
        let depth = self.history.len();
        let mut num = 0u64;
        let mut den = 0u64;
        for (i, &c) in self.history.iter().enumerate() {
            // history[0] is the most recent cycle: weight = depth - i.
            let w = (depth - i) as u64;
            num += w * c;
            den += w;
        }
        num / den
    }
}

impl<G: CompressionGovernor> CompressionGovernor for Kagura<G> {
    fn fill_mode(&mut self) -> FillMode {
        match self.mode {
            Mode::Compression => self.inner.fill_mode(),
            Mode::Regular => FillMode::Bypass,
        }
    }

    fn compression_enabled(&self) -> bool {
        self.mode == Mode::Compression && self.inner.compression_enabled()
    }

    fn on_hit(&mut self, info: &HitInfo, ways: u32) {
        self.inner.on_hit(info, ways);
    }

    fn on_fill(&mut self, stored_compressed: bool) {
        self.inner.on_fill(stored_compressed);
    }

    fn on_mem_commit(&mut self) {
        self.inner.on_mem_commit();
        self.r_mem += 1;
        if self.mode == Mode::Compression
            && matches!(self.config.trigger, TriggerKind::Memory)
            && !self.history.is_empty()
        {
            let n_remain = self.r_prev.saturating_sub(self.r_mem);
            if n_remain <= self.r_thres {
                self.enter_rm();
            }
        }
    }

    fn on_evictions(&mut self, count: u32) {
        self.inner.on_evictions(count);
        if self.mode == Mode::Regular {
            self.r_evict += count as u64;
        }
    }

    fn on_voltage(&mut self, v: f64, v_ckpt: f64, v_rst: f64) {
        self.inner.on_voltage(v, v_ckpt, v_rst);
        if let TriggerKind::Voltage { fraction } = self.config.trigger {
            if self.mode == Mode::Compression && v < v_ckpt + fraction * (v_rst - v_ckpt) {
                self.enter_rm();
            }
        }
    }

    fn on_power_failure(&mut self) {
        self.inner.on_power_failure();
        // Eq. 6: record the prediction error of the cycle that just ended.
        if !self.history.is_empty() {
            if self.log_events {
                // The estimator's prediction for this cycle vs the oracle
                // (what the cycle actually committed).
                self.events.push(Event::EstimatorSample {
                    predicted_remaining: self.r_prev,
                    actual_remaining: self.r_mem,
                });
            }
            self.r_adjust = self.r_mem as i64 - self.r_prev as i64;
            let tolerance =
                (self.config.reward_tolerance * self.r_prev.max(1) as f64).ceil() as i64;
            if self.r_adjust.abs() <= tolerance {
                self.counter = (self.counter + 1).min(self.counter_max());
            } else {
                self.counter = self.counter.saturating_sub(1);
            }
        }
        // R_mem, R_adjust, R_thres, R_evict and the counter are JIT
        // checkpointed here (modelled as simply surviving in this struct).
        self.history.push_front(self.r_mem);
        self.history.truncate(self.config.history_depth);
    }

    fn on_reboot(&mut self) {
        self.inner.on_reboot();
        let was_regular = self.mode == Mode::Regular;
        // Restore: R_prev is rebuilt from the checkpointed history.
        self.r_prev = self.predicted_prev();
        self.r_mem = 0;
        // Sophisticated estimator: when the counter sits in its lower half
        // (poor recent predictions), apply the learned correction (Fig 8).
        if self.config.estimator == EstimatorKind::Sophisticated
            && self.counter < (1u8 << (self.config.counter_bits - 1))
        {
            self.r_prev = (self.r_prev as i64 + self.r_adjust).max(0) as u64;
        }
        // Threshold adaptation on the restored eviction count (§VI-B).
        let old_thres = self.r_thres;
        let evicted = self.r_evict;
        self.r_thres = self.config.adapter.adjust(self.r_thres, self.r_evict);
        self.r_evict = 0;
        self.mode = Mode::Compression;
        if self.log_events {
            self.events.push(Event::ThresholdAdjust { old: old_thres, new: self.r_thres, evicted });
            if was_regular {
                self.events.push(Event::ModeSwitch {
                    cm_to_rm: false,
                    registers: self.register_snapshot(),
                });
            }
        }
    }

    fn name(&self) -> &'static str {
        "Kagura"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::AlwaysCompress;

    fn controller() -> Kagura<AlwaysCompress> {
        Kagura::new(KaguraConfig::default(), AlwaysCompress)
    }

    fn run_cycle(k: &mut Kagura<AlwaysCompress>, mem_ops: u64) {
        for _ in 0..mem_ops {
            k.on_mem_commit();
        }
        k.on_power_failure();
        k.on_reboot();
    }

    #[test]
    fn first_cycle_never_leaves_cm() {
        let mut k = controller();
        for _ in 0..10_000 {
            k.on_mem_commit();
            assert_eq!(k.mode(), Mode::Compression);
        }
    }

    #[test]
    fn second_cycle_disables_near_predicted_end() {
        let mut k = controller();
        run_cycle(&mut k, 1000);
        // Second cycle: prediction = 1000, thres adapted from 32 -> 35.
        let (r_prev, _, _, r_thres, _) = k.registers();
        assert_eq!(r_prev, 1000);
        let switch_at = r_prev - r_thres;
        for i in 0..1000 {
            k.on_mem_commit();
            let expect_rm = (i + 1) >= switch_at;
            assert_eq!(
                k.mode() == Mode::Regular,
                expect_rm,
                "mode wrong after {} commits (switch_at={switch_at})",
                i + 1
            );
        }
        assert_eq!(k.fill_mode(), FillMode::Bypass);
        assert_eq!(k.rm_entries(), 1);
    }

    #[test]
    fn reboot_returns_to_cm() {
        let mut k = controller();
        run_cycle(&mut k, 100);
        run_cycle(&mut k, 100);
        assert_eq!(k.mode(), Mode::Compression);
        assert_eq!(k.fill_mode(), FillMode::Compress);
    }

    #[test]
    fn evictions_counted_only_in_rm() {
        let mut k = controller();
        run_cycle(&mut k, 100);
        k.on_evictions(5); // CM: not counted
        assert_eq!(k.registers().4, 0);
        for _ in 0..100 {
            k.on_mem_commit();
        }
        assert_eq!(k.mode(), Mode::Regular);
        k.on_evictions(7);
        assert_eq!(k.registers().4, 7);
    }

    #[test]
    fn aimd_threshold_reacts_to_evictions() {
        let mut k = controller();
        run_cycle(&mut k, 100);
        let thres_before = k.registers().3;
        // Drive into RM and evict heavily.
        for _ in 0..100 {
            k.on_mem_commit();
        }
        k.on_evictions(1000);
        k.on_power_failure();
        k.on_reboot();
        assert_eq!(k.registers().3, (thres_before / 2).max(1));
    }

    #[test]
    fn sophisticated_estimator_applies_adjustment_on_low_counter() {
        let mut k = controller();
        run_cycle(&mut k, 1000);
        // Wildly different cycle: prediction error punishes the counter and
        // records R_adjust = 200 - 1000 = -800.
        run_cycle(&mut k, 200);
        let (r_prev, _, r_adjust, _, _) = k.registers();
        assert_eq!(r_adjust, -800);
        assert_eq!(k.counter(), 0);
        // Counter is low (< 2 for 2-bit) so r_prev = 200 + (-800) clamped = 0.
        assert_eq!(r_prev, 0);
    }

    #[test]
    fn simple_estimator_ignores_adjustment() {
        let cfg = KaguraConfig { estimator: EstimatorKind::Simple, ..KaguraConfig::default() };
        let mut k = Kagura::new(cfg, AlwaysCompress);
        run_cycle(&mut k, 1000);
        run_cycle(&mut k, 200);
        assert_eq!(k.registers().0, 200);
    }

    #[test]
    fn counter_rewards_consistent_cycles() {
        let mut k = controller();
        run_cycle(&mut k, 1000);
        run_cycle(&mut k, 1050); // within 20%
        run_cycle(&mut k, 980);
        assert_eq!(k.counter(), 2);
        run_cycle(&mut k, 1000);
        assert_eq!(k.counter(), 3, "2-bit counter saturates at 3");
        run_cycle(&mut k, 1010);
        assert_eq!(k.counter(), 3);
    }

    #[test]
    fn history_depth_weights_recent_cycles() {
        let cfg = KaguraConfig {
            history_depth: 2,
            estimator: EstimatorKind::Simple,
            ..KaguraConfig::default()
        };
        let mut k = Kagura::new(cfg, AlwaysCompress);
        run_cycle(&mut k, 300); // older
        run_cycle(&mut k, 600); // newer
                                // N_prev = (300 + 2*600) / 3 = 500.
        assert_eq!(k.registers().0, 500);
    }

    #[test]
    fn voltage_trigger_fires_on_low_voltage() {
        let cfg = KaguraConfig {
            trigger: TriggerKind::Voltage { fraction: 0.25 },
            ..KaguraConfig::default()
        };
        let mut k = Kagura::new(cfg, AlwaysCompress);
        k.on_voltage(2.010, 2.0, 2.016); // above 2.0 + 0.25*0.016 = 2.004
        assert_eq!(k.mode(), Mode::Compression);
        k.on_voltage(2.002, 2.0, 2.016);
        assert_eq!(k.mode(), Mode::Regular);
        // Memory commits no longer matter for the trigger.
        assert_eq!(k.fill_mode(), FillMode::Bypass);
    }

    #[test]
    fn memory_trigger_ignores_voltage() {
        let mut k = controller();
        run_cycle(&mut k, 100);
        k.on_voltage(2.0001, 2.0, 2.016);
        assert_eq!(k.mode(), Mode::Compression);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn invalid_config_rejected() {
        let cfg = KaguraConfig { counter_bits: 4, ..KaguraConfig::default() };
        let _ = Kagura::new(cfg, AlwaysCompress);
    }

    fn drained(k: &mut Kagura<AlwaysCompress>) -> Vec<Event> {
        let mut events = Vec::new();
        k.drain_events(|e| events.push(e));
        events
    }

    #[test]
    fn event_log_is_off_by_default() {
        let mut k = controller();
        run_cycle(&mut k, 100);
        run_cycle(&mut k, 100);
        assert!(k.events_empty());
        assert!(drained(&mut k).is_empty());
    }

    #[test]
    fn memory_trigger_logs_exact_transition_sequence() {
        let mut k = controller();
        k.enable_event_log();

        // Cycle 0: no history, so no trigger and no estimator sample —
        // only the reboot-time AIMD step (32 → 35, zero evictions).
        run_cycle(&mut k, 100);
        assert_eq!(drained(&mut k), vec![Event::ThresholdAdjust { old: 32, new: 35, evicted: 0 }]);

        // Cycle 1: prediction 100, thres 35 ⇒ CM→RM at the 65th commit,
        // with 5 RM-mode evictions before the failure.
        for i in 0..100u64 {
            k.on_mem_commit();
            if i + 1 == 65 {
                assert_eq!(k.mode(), Mode::Regular);
                k.on_evictions(5);
            }
        }
        k.on_power_failure();
        k.on_reboot();
        assert_eq!(
            drained(&mut k),
            vec![
                Event::ModeSwitch {
                    cm_to_rm: true,
                    registers: Registers {
                        r_prev: 100,
                        r_mem: 65,
                        r_adjust: 0,
                        r_thres: 35,
                        r_evict: 0,
                    },
                },
                Event::EstimatorSample { predicted_remaining: 100, actual_remaining: 100 },
                // 5 evictions ≤ 35/2 ⇒ additive raise 35 → 39.
                Event::ThresholdAdjust { old: 35, new: 39, evicted: 5 },
                Event::ModeSwitch {
                    cm_to_rm: false,
                    registers: Registers {
                        r_prev: 100,
                        r_mem: 0,
                        r_adjust: 0,
                        r_thres: 39,
                        r_evict: 0,
                    },
                },
            ]
        );
        assert!(k.events_empty());
    }

    #[test]
    fn voltage_trigger_logs_exact_transition_sequence() {
        let cfg = KaguraConfig {
            trigger: TriggerKind::Voltage { fraction: 0.25 },
            ..KaguraConfig::default()
        };
        let mut k = Kagura::new(cfg, AlwaysCompress);
        k.enable_event_log();

        // Above the trigger threshold 2.0 + 0.25·0.016 = 2.004: no event.
        k.on_voltage(2.010, 2.0, 2.016);
        assert!(k.events_empty());

        // Crossing below it switches CM→RM exactly once.
        k.on_voltage(2.002, 2.0, 2.016);
        k.on_voltage(2.001, 2.0, 2.016); // already in RM: no second switch
        k.on_power_failure(); // empty history: no estimator sample
        k.on_reboot();
        assert_eq!(
            drained(&mut k),
            vec![
                Event::ModeSwitch {
                    cm_to_rm: true,
                    registers: Registers {
                        r_prev: 0,
                        r_mem: 0,
                        r_adjust: 0,
                        r_thres: 32,
                        r_evict: 0,
                    },
                },
                Event::ThresholdAdjust { old: 32, new: 35, evicted: 0 },
                Event::ModeSwitch {
                    cm_to_rm: false,
                    registers: Registers {
                        r_prev: 0,
                        r_mem: 0,
                        r_adjust: 0,
                        r_thres: 35,
                        r_evict: 0,
                    },
                },
            ]
        );
    }

    #[test]
    fn estimator_samples_pair_prediction_with_oracle() {
        let mut k = controller();
        k.enable_event_log();
        run_cycle(&mut k, 1000);
        let _ = drained(&mut k);
        run_cycle(&mut k, 200);
        let samples: Vec<Event> = drained(&mut k)
            .into_iter()
            .filter(|e| matches!(e, Event::EstimatorSample { .. }))
            .collect();
        // Prediction for the second cycle was 1000 (history), the cycle
        // actually committed 200 — the r_adjust = -800 case of
        // `sophisticated_estimator_applies_adjustment_on_low_counter`.
        assert_eq!(
            samples,
            vec![Event::EstimatorSample { predicted_remaining: 1000, actual_remaining: 200 }]
        );
    }
}
