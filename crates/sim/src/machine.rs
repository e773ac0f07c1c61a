//! The instruction-granular EHS simulator.

use std::collections::HashMap;

use ehs_cache::{CacheConfig, CompressedCache, Evicted, FillOutcome};
use ehs_compress::Compressor as _;
use ehs_energy::{
    Capacitor, EnergyBreakdown, EnergyCategory, LedgerRow, PowerTrace, VoltageMonitor,
};
use ehs_mem::Nvm;
use ehs_model::inst::InstKind;
use ehs_model::{Address, CompressorCost, Energy, Power, SimTime};
use ehs_telemetry::{Counter, Event, Gauge, HistogramId, MetricsRegistry, Sink, Telemetry};
use ehs_workloads::{InstCursor, KernelProgram};
use kagura_core::{CompressionGovernor, Mode};

use crate::cachescope::{
    CachescopeAggregator, CachescopeConfig, CachescopeReport, CycleScope, LatencyAttribution,
    OccupancySnapshot, ScopeState,
};
use crate::config::{EhsDesign, ExecMode, Extension, SimConfig};
use crate::governor::Governor;
use crate::stats::{CycleRecord, SimStats};

/// Trace-stepping granularity while hibernating (one trace window).
const CHARGE_STEP: SimTime = SimTime::from_micros(10.0);

/// Loop iterations between host wall-clock watchdog checks. The
/// instruction budget is compared every step (one u64 compare); reading
/// the host clock is amortised over this many iterations so an armed
/// wall budget costs next to nothing on the hot path.
const WALL_CHECK_PERIOD: u32 = 4096;

/// Oracle attribution bookkeeping for one cache: which live compressed
/// blocks were created by which recorded fills, grouped by set.
///
/// A compression is "useful" when a *deep* hit (LRU rank beyond the nominal
/// ways) lands in a set while the compressed block is resident: the
/// capacity saved by every compressed block in that set is what made the
/// deep residency possible, so all of them are credited. This makes the
/// replayed ideal an optimistic upper bound, as the paper's ideal is.
#[derive(Debug, Default)]
struct OracleMap {
    /// block index -> (set index, fill id)
    by_block: HashMap<u64, (u32, usize)>,
    /// set index -> live (block index, fill id) pairs
    by_set: HashMap<u32, Vec<(u64, usize)>>,
}

impl OracleMap {
    fn insert(&mut self, set: u32, block: u64, id: usize) {
        self.by_block.insert(block, (set, id));
        self.by_set.entry(set).or_default().push((block, id));
    }

    fn remove(&mut self, block: u64) {
        // Non-recording governors never insert, so every eviction would
        // otherwise pay a hash of `block` just to probe an empty table.
        if self.by_block.is_empty() {
            return;
        }
        if let Some((set, _)) = self.by_block.remove(&block) {
            if let Some(v) = self.by_set.get_mut(&set) {
                v.retain(|&(b, _)| b != block);
            }
        }
    }

    fn ids_in_set(&self, set: u32) -> impl Iterator<Item = usize> + '_ {
        self.by_set.get(&set).into_iter().flatten().map(|&(_, id)| id)
    }

    fn clear(&mut self) {
        self.by_block.clear();
        self.by_set.clear();
    }
}

/// How often (committed instructions) the EDBP decay scan runs.
const EDBP_SCAN_PERIOD: u64 = 128;

/// Largest per-instruction cycle count with a precomputed `dt` on the
/// fast path (miss + fill stalls stay well under this; larger counts fall
/// back to the division).
const DT_TABLE_CYCLES: u64 = 256;

/// Smallest raw stored-energy value (in picojoules, [`Energy`]'s internal
/// unit) at which [`Capacitor::voltage`] reaches `v_ckpt`, found by
/// bisecting f64 bit patterns.
///
/// `voltage = sqrt(2 · (pJ · 1e-12) / C)` is monotone non-decreasing in
/// the raw f64 (each step — two positive-constant multiplies, a divide by
/// a positive constant, a square root — is monotone under IEEE
/// round-to-nearest), and non-negative f64 bit patterns order identically
/// to their values, so the exact boundary is reachable by binary search
/// over the bit patterns. `stored.picojoules() < cutoff` then reproduces
/// `below_checkpoint()` bit-for-bit without the per-instruction sqrt.
fn checkpoint_cutoff_pj(capacitance: f64, v_ckpt: f64) -> f64 {
    // Must mirror `Capacitor::voltage()` ∘ `Energy::joules()` exactly.
    let volt = |pj: f64| (2.0 * (pj * 1e-12) / capacitance).sqrt();
    if volt(0.0) >= v_ckpt {
        return 0.0;
    }
    let mut hi = 1.0f64;
    while volt(hi) < v_ckpt {
        hi *= 2.0;
        if !hi.is_finite() {
            return f64::INFINITY;
        }
    }
    let mut lo_bits = 0u64; // invariant: volt(lo) < v_ckpt
    let mut hi_bits = hi.to_bits(); // invariant: volt(hi) >= v_ckpt
    while hi_bits - lo_bits > 1 {
        let mid = lo_bits + (hi_bits - lo_bits) / 2;
        if volt(f64::from_bits(mid)) < v_ckpt {
            lo_bits = mid;
        } else {
            hi_bits = mid;
        }
    }
    f64::from_bits(hi_bits)
}

/// Per-run loop state: the loop invariants hoisted out of the step, and
/// the skip mask that decides which provably unobservable work the one
/// [`Simulator::step`] leaves out.
///
/// [`ExecMode::FastForward`] derives the mask from the governor and the
/// config. [`ExecMode::Reference`] turns every skip off — shadow tags,
/// deep-hit credit and the full cache read/write paths always;
/// `on_voltage` every step; `below_checkpoint()` instead of the
/// precomputed cutoff — which keeps it the oracle the fast path's proofs
/// are checked against.
struct FastCtx {
    i_ways: u32,
    d_ways: u32,
    block_size: u32,
    i_sets: u32,
    i_access: Energy,
    inst_energy: Energy,
    clock_hz: f64,
    /// `dt` per small cycle count, built with the division's exact
    /// expression so table lookups are bit-identical to it.
    dt_table: Vec<SimTime>,
    /// Stored-energy threshold equivalent to `below_checkpoint()`; `None`
    /// under Reference, which asks the capacitor every step.
    cutoff_pj: Option<f64>,
    /// Shadow tags, oracle deep-hit credit and the full cache read/write
    /// paths run (recording governors, and every Reference run). For all
    /// other governors the shadow and credit work is unobservable:
    /// `record_fill` returns `None`, so the oracle maps stay empty and
    /// `mark_useful` is a no-op.
    track_oracle: bool,
    /// The per-instruction voltage sample runs (voltage-triggered Kagura,
    /// and every Reference run); for every other governor `on_voltage` is
    /// a no-op.
    voltage_sensitive: bool,
    /// Combined SRAM leakage `icache + dcache`, hoisted for `advance`.
    /// `None` under EDBP, whose dcache leakage scales with the live line
    /// fraction and so changes between instructions.
    sram_leak: Option<Power>,
    /// Voltage-monitor standby draw (constant per run: the threshold
    /// count is fixed at construction).
    mon_power: Power,
}

impl FastCtx {
    fn new(sim: &Simulator<'_>) -> Self {
        let cfg = &sim.cfg;
        let reference = cfg.exec == ExecMode::Reference;
        let clock_hz = cfg.system.core.clock_hz;
        let cap_cfg = cfg.capacitor;
        let sram_leak = cfg.system.icache.leakage() + cfg.system.dcache.leakage();
        FastCtx {
            i_ways: cfg.system.icache.ways,
            d_ways: cfg.system.dcache.ways,
            block_size: cfg.system.dcache.block_size,
            i_sets: cfg.system.icache.num_sets(),
            i_access: cfg.system.icache.access_energy,
            inst_energy: cfg.system.core.inst_energy,
            clock_hz,
            dt_table: (0..=DT_TABLE_CYCLES)
                .map(|c| SimTime::from_seconds(c as f64 / clock_hz))
                .collect(),
            cutoff_pj: (!reference)
                .then(|| checkpoint_cutoff_pj(cap_cfg.capacitance, cap_cfg.v_ckpt)),
            track_oracle: reference || sim.gov.is_recorder(),
            voltage_sensitive: reference || sim.gov.voltage_sensitive(),
            sram_leak: (!matches!(cfg.extension, Extension::Edbp { .. })).then_some(sram_leak),
            mon_power: sim.monitor.standby_power(),
        }
    }

    fn dt(&self, cycles: u64) -> SimTime {
        match self.dt_table.get(cycles as usize) {
            Some(&dt) => dt,
            None => SimTime::from_seconds(cycles as f64 / self.clock_hz),
        }
    }
}

/// What a forced fault does when it fires (see [`Simulator::arm_fault`]).
///
/// The first variant models the supply browning out at an instruction
/// boundary; the other two additionally mutate the checkpoint datapath
/// itself, for differential testing of the recovery machinery (they only
/// have extra effect under [`EhsDesign::NvsramCache`], the one design
/// with an explicit checkpoint — the others degrade to `PowerFailure`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A clean forced power failure: the normal wind-down runs to
    /// completion, exactly as if the voltage monitor had fired.
    PowerFailure,
    /// Power dies *mid*-checkpoint: only the first `persist_blocks` dirty
    /// blocks reach NVM, the rest are lost. A correct recovery path must
    /// either tolerate or detect this; the harness uses it as its
    /// built-in mutation test (a silently-torn checkpoint must show up as
    /// a divergent memory image).
    TornCheckpoint {
        /// Dirty blocks persisted before the cut.
        persist_blocks: u32,
    },
    /// The checkpoint datapath flips bit `bit mod payload_bits` of the
    /// first *compressed* dirty block's encoded payload. A decode failure
    /// is surfaced as a detected violation ([`SimStats::decode_faults`],
    /// [`Event::DecodeFault`]) and the block is dropped from the
    /// checkpoint; a flip that still decodes persists the mangled bytes
    /// (silent corruption, caught by the harness's image diff).
    CorruptPayload {
        /// Which payload bit to flip (taken modulo the payload size).
        bit: u32,
    },
}

impl FaultKind {
    /// Every spelling [`FaultKind::from_name`] accepts.
    pub const NAMES: &'static [&'static str] = &["power", "torn", "corrupt"];

    /// Parses a fault name, case-insensitively, into the harness's
    /// configuration of that fault: a torn checkpoint persists no block,
    /// a corrupt payload flips bit 5.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "power" => FaultKind::PowerFailure,
            "torn" => FaultKind::TornCheckpoint { persist_blocks: 0 },
            "corrupt" => FaultKind::CorruptPayload { bit: 5 },
            _ => return None,
        })
    }
}

/// What to attach to one run; everything is off by default. Apply with
/// [`Simulator::attach`], or hand to [`crate::runner::run_program_with`].
/// Attachments observe and never perturb: stats are identical with or
/// without them, and the run stays on the same loop.
#[derive(Default)]
pub struct Attach<'s> {
    /// Event sink and metrics registry ([`Simulator::attach_telemetry`]).
    pub telemetry: Option<&'s mut dyn Sink>,
    /// Cache-microarchitecture report ([`RunOutput::cachescope`]).
    pub cachescope: Option<CachescopeConfig>,
    /// Leakscope per-access data-cache timeline of this many records
    /// ([`RunOutput::leak_timeline`]).
    pub leak_timeline: Option<usize>,
    /// One-shot forced fault `(at_executed_inst, kind)`
    /// ([`Simulator::arm_fault`]).
    pub fault: Option<(u64, FaultKind)>,
}

/// Everything one run produced ([`Simulator::execute`]).
#[derive(Debug)]
pub struct RunOutput {
    /// The run's statistics.
    pub stats: SimStats,
    /// Final NVM with all dirty cache state flushed: the program's
    /// architectural memory image.
    pub nvm: Nvm,
    /// Metrics of an attached telemetry sink.
    pub metrics: Option<MetricsRegistry>,
    /// Report of an attached cachescope.
    pub cachescope: Option<CachescopeReport>,
    /// Timeline of an attached leak-timeline probe.
    pub leak_timeline: Option<ehs_cache::AccessTimeline>,
    /// The oracle trace, when the governor is a recorder.
    pub oracle: Option<kagura_core::OracleTrace>,
}

/// Pre-registered metric handles for an instrumented run, resolved once
/// at attach time so the hot path never looks anything up by name.
#[derive(Debug, Clone, Copy)]
struct TelemetryHandles {
    compressed_fills: Counter,
    bypassed_fills: Counter,
    evictions: Counter,
    checkpoint_blocks: Counter,
    power_failures: Counter,
    reboots: Counter,
    voltage: Gauge,
    cycle_insts: HistogramId,
    charge_us: HistogramId,
}

impl TelemetryHandles {
    fn register(m: &mut MetricsRegistry) -> Self {
        TelemetryHandles {
            compressed_fills: m.counter("fills_compressed"),
            bypassed_fills: m.counter("fills_bypassed"),
            evictions: m.counter("evictions"),
            checkpoint_blocks: m.counter("checkpoint_blocks"),
            power_failures: m.counter("power_failures"),
            reboots: m.counter("reboots"),
            voltage: m.gauge("voltage_v"),
            cycle_insts: m.histogram("cycle_insts", &[1e2, 5e2, 1e3, 5e3, 1e4, 5e4, 1e5]),
            charge_us: m.histogram("charge_us", &[1e2, 1e3, 1e4, 1e5, 1e6]),
        }
    }
}

/// Per-cycle flight-recorder bookkeeping, live only while telemetry is
/// attached (the detached path never touches it beyond one `is_some`
/// branch per instrumented site).
///
/// Tracks which compressed fills of the current power cycle were
/// re-referenced by a hit before the outage. A fill never re-referenced
/// is *wasted* — its compression energy bought nothing (the paper's Fig 3
/// argument); fills after the last useful one are *late* — an ideal
/// switch-off point would have skipped them.
#[derive(Debug, Default)]
struct FlightTracker {
    /// One entry per compressed fill this cycle, in fill order: was the
    /// block re-referenced by a hit before the outage?
    comps: Vec<bool>,
    /// `(block index, dcache)` → index into `comps` of the live fill.
    by_block: HashMap<(u64, bool), usize>,
    /// Checkpoint blocks persisted this cycle (sweep boundaries; the JIT
    /// checkpoint at failure is added at emission time).
    ckpt_blocks: u64,
}

impl FlightTracker {
    fn on_compressed_fill(&mut self, block: u64, dcache: bool) {
        self.by_block.insert((block, dcache), self.comps.len());
        self.comps.push(false);
    }

    fn on_hit(&mut self, block: u64, dcache: bool) {
        if let Some(&id) = self.by_block.get(&(block, dcache)) {
            self.comps[id] = true;
        }
    }

    fn wasted_fills(&self) -> u64 {
        self.comps.iter().filter(|&&used| !used).count() as u64
    }

    fn late_compressions(&self) -> u64 {
        match self.comps.iter().rposition(|&used| used) {
            Some(last_useful) => (self.comps.len() - 1 - last_useful) as u64,
            None => self.comps.len() as u64,
        }
    }

    fn reset(&mut self) {
        self.comps.clear();
        self.by_block.clear();
        self.ckpt_blocks = 0;
    }
}

/// A shadow tag directory simulating the *uncompressed* baseline cache's
/// contents (LRU, nominal associativity). A real-cache hit that misses in
/// the shadow is a hit that only compression made possible — the precise
/// "would it have missed without compression" test the oracle needs.
#[derive(Debug, Clone)]
struct ShadowTags {
    /// Per set: resident tags in LRU order (front = MRU).
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl ShadowTags {
    fn new(num_sets: u32, ways: u32) -> Self {
        ShadowTags {
            sets: vec![Vec::with_capacity(ways as usize); num_sets as usize],
            ways: ways as usize,
        }
    }

    /// Simulates one access; returns whether the baseline would have hit.
    fn access(&mut self, set: u32, tag: u64) -> bool {
        let lines = &mut self.sets[set as usize];
        match lines.iter().position(|&t| t == tag) {
            Some(i) => {
                let t = lines.remove(i);
                lines.insert(0, t);
                true
            }
            None => {
                lines.insert(0, tag);
                lines.truncate(self.ways);
                false
            }
        }
    }

    fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

/// One full-system simulation: program + power trace + configuration.
///
/// Construct with [`Simulator::new`], optionally [`Simulator::attach`]
/// observers, then execute with [`Simulator::execute`] (or its
/// projection [`Simulator::run`]). A simulator is single-use: the run
/// consumes it.
#[derive(Debug)]
pub struct Simulator<'p> {
    cfg: SimConfig,
    program: &'p KernelProgram,
    trace: &'p PowerTrace,
    gov: Governor,

    icache: CompressedCache,
    dcache: CompressedCache,
    nvm: Nvm,
    cap: Capacitor,
    monitor: VoltageMonitor,
    comp_cost: CompressorCost,

    now: SimTime,
    inst_index: u64,
    last_persist: u64,
    /// SweepCache's *live* region size. Regions adapt to energy conditions
    /// (paper §VII-C): a cycle that dies before reaching any boundary would
    /// otherwise livelock (rollback to the same point forever), so the
    /// region halves; cycles that comfortably fit several regions let it
    /// grow back toward the configured size.
    sweep_region_live: u64,
    sweeps_this_cycle: u32,
    running: bool,
    /// One-shot forced fault: fires when `stats.executed_insts` reaches
    /// the threshold. Keyed on *executed* (not committed) instructions so
    /// an injection point stays meaningful under SweepCache rollback,
    /// where `inst_index` moves backwards.
    fault: Option<(u64, FaultKind)>,
    /// Host clock at the start of `run_loop`, sampled only when the
    /// config arms a wall-clock budget (`cfg.step_budget.max_wall`).
    wall_start: Option<std::time::Instant>,
    /// Iterations until the next (amortised) wall-clock budget check.
    wall_countdown: u32,
    /// `cfg.step_budget` has at least one armed limit; un-budgeted runs
    /// skip the watchdog entirely.
    budget_armed: bool,

    breakdown: EnergyBreakdown,
    stats: SimStats,
    cycle: CycleRecord,
    /// Completed power cycles so far — the cycle numbering for
    /// telemetry/flight records. Kept separately from
    /// `stats.power_cycles.len()` so numbering survives
    /// `record_cycles: false`.
    cycles_done: u64,

    /// Run-total accumulator values at the start of the current power
    /// cycle; diffing against them at the cycle boundary yields the
    /// cycle's energy-ledger row. All `Copy` — the always-on ledger costs
    /// four snapshot assignments per power cycle, nothing per step.
    ledger_start_breakdown: EnergyBreakdown,
    ledger_start_harvested: Energy,
    ledger_start_leak: Energy,
    ledger_start_stored: Energy,
    /// Flight-recorder bookkeeping; only fed while telemetry is attached.
    flight: FlightTracker,

    /// Recently missed DCache block indices, for IPEX's stream detector.
    recent_misses: Vec<u64>,
    /// Oracle attribution per cache (I, D).
    oracle_i: OracleMap,
    oracle_d: OracleMap,
    /// Shadow baseline tag directories per cache (I, D).
    shadow_i: ShadowTags,
    shadow_d: ShadowTags,
    edbp_countdown: u64,

    /// Event/metrics recording; `None` (the default) keeps every
    /// instrumented site down to a single untaken branch, so uninstrumented
    /// runs produce byte-identical results at unchanged speed.
    telemetry: Option<(Telemetry<'p>, TelemetryHandles)>,
    /// Cachescope latency attribution and snapshot state; `None` (the
    /// default) keeps every attribution site down to a single untaken
    /// branch.
    cachescope: Option<Box<ScopeState>>,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator over `program` and `trace`.
    ///
    /// The governor is instantiated from `cfg.governor`; oracle variants
    /// must be driven through [`crate::runner::run_ideal_app`] /
    /// [`Simulator::with_governor`] instead of used directly here.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.governor` is an ideal (two-phase) spec — the runner
    /// decomposes those into record and replay phases.
    pub fn new(cfg: SimConfig, program: &'p KernelProgram, trace: &'p PowerTrace) -> Self {
        use crate::config::GovernorSpec as GS;
        let gov = match cfg.governor {
            GS::NoCompression => Governor::none(),
            GS::AlwaysCompress => Governor::always(),
            GS::Acc => Governor::acc(),
            GS::AccKagura(kcfg) => Governor::kagura(kcfg),
            GS::RandThreshold(rcfg) => Governor::rand_threshold(rcfg),
            GS::IdealAcc | GS::IdealAccKagura(_) => {
                panic!("ideal governors are two-phase: use run_ideal_app")
            }
        };
        Self::with_governor(cfg, program, trace, gov)
    }

    /// Builds a simulator with an explicit governor instance (used by the
    /// oracle runner for its record and replay phases).
    pub fn with_governor(
        cfg: SimConfig,
        program: &'p KernelProgram,
        trace: &'p PowerTrace,
        gov: Governor,
    ) -> Self {
        let mut monitor = match cfg.design {
            EhsDesign::NvsramCache => VoltageMonitor::jit_checkpoint(),
            EhsDesign::Nvmr | EhsDesign::SweepCache => VoltageMonitor::none(),
        };
        if gov.uses_voltage_trigger() {
            monitor = monitor.with_trigger_threshold();
        }
        let icache = CompressedCache::new(CacheConfig::new(cfg.system.icache, cfg.algorithm));
        let dcache = CompressedCache::new(CacheConfig::new(cfg.system.dcache, cfg.algorithm));
        let nvm = Nvm::new(cfg.system.nvm, cfg.system.dcache.block_size, program.image().clone());
        let mut cap = Capacitor::new(cfg.capacitor);
        // Boot condition: the EHS starts executing the moment the capacitor
        // first crosses the restoration threshold (charging from v_rst to
        // v_max would take far longer than the hysteresis window refill, so
        // steady state begins immediately).
        cap.set_voltage(cfg.capacitor.v_rst);
        let comp_cost = cfg.algorithm.default_cost();
        let shadow_i = ShadowTags::new(cfg.system.icache.num_sets(), cfg.system.icache.ways);
        let shadow_d = ShadowTags::new(cfg.system.dcache.num_sets(), cfg.system.dcache.ways);
        let sweep_region = cfg.costs.sweep_region;
        let initial_stored = cap.stored();
        let budget_armed = !cfg.step_budget.is_unlimited();
        Simulator {
            cfg,
            program,
            trace,
            gov,
            icache,
            dcache,
            nvm,
            cap,
            monitor,
            comp_cost,
            now: SimTime::ZERO,
            inst_index: 0,
            last_persist: 0,
            sweep_region_live: sweep_region,
            sweeps_this_cycle: 0,
            running: true,
            fault: None,
            wall_start: None,
            wall_countdown: WALL_CHECK_PERIOD,
            budget_armed,
            breakdown: EnergyBreakdown::default(),
            stats: SimStats::default(),
            cycle: CycleRecord::default(),
            cycles_done: 0,
            ledger_start_breakdown: EnergyBreakdown::default(),
            ledger_start_harvested: Energy::ZERO,
            ledger_start_leak: Energy::ZERO,
            ledger_start_stored: initial_stored,
            flight: FlightTracker::default(),
            recent_misses: Vec::new(),
            oracle_i: OracleMap::default(),
            oracle_d: OracleMap::default(),
            shadow_i,
            shadow_d,
            edbp_countdown: EDBP_SCAN_PERIOD,
            telemetry: None,
            cachescope: None,
        }
    }

    /// Arms a one-shot forced fault that fires immediately after the
    /// `at_executed_inst`-th executed instruction (1-based), regardless of
    /// the capacitor's state. Used by the fault-injection harness
    /// ([`crate::faultinject`]) to place a power failure at an exact
    /// instruction boundary under a steady power trace, so the injected
    /// failure is the only one in the run and the experiment is
    /// deterministic and replayable.
    pub fn arm_fault(&mut self, at_executed_inst: u64, kind: FaultKind) {
        self.fault = Some((at_executed_inst, kind));
    }

    /// Consumes the armed fault if its trigger point has been reached.
    fn take_due_fault(&mut self) -> Option<FaultKind> {
        match self.fault {
            Some((at, kind)) if self.stats.executed_insts >= at => {
                self.fault = None;
                Some(kind)
            }
            _ => None,
        }
    }

    /// Applies every attachment in `attach` (see [`Attach`]).
    ///
    /// # Panics
    ///
    /// Panics if both a cachescope and a leak timeline are requested:
    /// each needs the data cache's single probe slot.
    pub fn attach(&mut self, attach: Attach<'p>) {
        assert!(
            attach.cachescope.is_none() || attach.leak_timeline.is_none(),
            "a cachescope and a leak timeline cannot share the data-cache probe"
        );
        if let Some(sink) = attach.telemetry {
            self.attach_telemetry(sink);
        }
        if let Some(scope) = attach.cachescope {
            self.attach_cachescope(scope);
        }
        if let Some(capacity) = attach.leak_timeline {
            self.attach_leak_timeline(capacity);
        }
        if let Some((at, kind)) = attach.fault {
            self.arm_fault(at, kind);
        }
    }

    /// Attaches an event sink and metrics registry for the whole run and
    /// turns on the governor's internal event log. The run stays on the
    /// same loop as a detached one; [`RunOutput::metrics`] carries the
    /// registry back.
    pub fn attach_telemetry(&mut self, sink: &'p mut dyn Sink) {
        let mut t = Telemetry::new(sink);
        let handles = TelemetryHandles::register(&mut t.metrics);
        self.gov.enable_event_log();
        self.telemetry = Some((t, handles));
    }

    /// Attaches a cachescope: a [`CachescopeAggregator`] probe on each
    /// cache plus simulator-side latency attribution, power-cycle
    /// boundary rows, and (if configured) periodic occupancy snapshots.
    fn attach_cachescope(&mut self, scope: CachescopeConfig) {
        let i = CachescopeAggregator::new(self.icache.config());
        let d = CachescopeAggregator::new(self.dcache.config());
        self.icache.attach_probe(Box::new(i));
        self.dcache.attach_probe(Box::new(d));
        self.cachescope = Some(Box::new(ScopeState::new(scope)));
    }

    /// Attaches a leakscope access timeline to the data cache: a bounded
    /// [`AccessTimeline`](ehs_cache::AccessTimeline) probe recording the
    /// (set, latency, hit/miss, occupancy-delta) tuple of every access,
    /// as a co-resident attacker would observe it.
    fn attach_leak_timeline(&mut self, capacity: usize) {
        let model = ehs_cache::LatencyModel {
            hit: self.cfg.system.dcache.hit_latency.get(),
            decompress: self.comp_cost.decompress_latency.get(),
            compress: self.comp_cost.compress_latency.get(),
            miss: self.cfg.system.dcache.hit_latency.get() + self.cfg.system.nvm.read_latency.get(),
        };
        let probe =
            ehs_cache::AccessTimeline::new(model, self.cfg.system.dcache.num_sets(), capacity);
        self.dcache.attach_probe(Box::new(probe));
    }

    /// Runs to program completion (or the simulated-time guard) and
    /// returns the statistics.
    pub fn run(self) -> SimStats {
        self.execute().stats
    }

    /// [`Simulator::run`] plus the metrics of an attached telemetry sink
    /// (empty without [`Simulator::attach_telemetry`]).
    pub fn run_instrumented(self) -> (SimStats, MetricsRegistry) {
        let out = self.execute();
        (out.stats, out.metrics.unwrap_or_default())
    }

    /// The one run body: runs the machine loop to completion (or the
    /// simulated-time guard, or an exhausted budget), flushes residual
    /// dirty cache state to NVM, and collects whatever was attached.
    ///
    /// The flush is an observation, not a simulated event (no energy, no
    /// time), so the returned NVM is the program's *architectural*
    /// memory image; `for_each_dirty` counts the flush's decompressions,
    /// and every run ends with it, so stats agree whatever is attached.
    pub fn execute(mut self) -> RunOutput {
        self.run_loop();
        let nvm = &mut self.nvm;
        self.dcache.for_each_dirty(|addr, data, _| nvm.store_silent_from(addr, data));
        // A final snapshot captures the last (possibly unfinished) power
        // cycle's totals. Taken before the cachescope's end-of-run row,
        // which would otherwise mirror into it.
        let metrics = self.telemetry.take().map(|(mut t, _)| {
            t.metrics.snapshot(self.cycles_done, self.now.micros());
            t.into_metrics()
        });
        let cachescope = self.cachescope.is_some().then(|| self.take_cachescope_report());
        let leak_timeline = self.dcache.take_probe().map(|probe| {
            *probe
                .into_any()
                .downcast::<ehs_cache::AccessTimeline>()
                .expect("the only remaining data-cache probe is a leak timeline")
        });
        self.finish();
        let Simulator { stats, nvm, gov, .. } = self;
        RunOutput {
            stats,
            nvm,
            metrics,
            cachescope,
            leak_timeline,
            oracle: gov.into_oracle_trace().ok(),
        }
    }

    /// Records the end-of-run boundary row, detaches the probes and
    /// assembles the [`CachescopeReport`].
    fn take_cachescope_report(&mut self) -> CachescopeReport {
        self.cachescope_cycle_boundary();
        let state = self.cachescope.take().expect("cachescope attached");
        fn recover(probe: Option<Box<dyn ehs_cache::CacheProbe>>) -> CachescopeAggregator {
            *probe
                .expect("cachescope probe attached")
                .into_any()
                .downcast::<CachescopeAggregator>()
                .expect("cachescope probe is the aggregator")
        }
        CachescopeReport {
            algorithm: self.cfg.algorithm.to_string(),
            icache: recover(self.icache.take_probe()),
            dcache: recover(self.dcache.take_probe()),
            latency: state.attr,
            cycles: state.cycles,
            snapshots: state.snapshots,
        }
    }

    /// Records one cachescope boundary row — cumulative per-cache
    /// counters and latency attribution as of this power-cycle boundary
    /// (or end of run) — and, when telemetry is also attached, mirrors
    /// the headline values into the metrics registry so they ride the
    /// per-cycle metric snapshots. No-op while detached.
    fn cachescope_cycle_boundary(&mut self) {
        if self.cachescope.is_none() {
            return;
        }
        let counters = |c: &mut CompressedCache| {
            c.probe_downcast_mut::<CachescopeAggregator>().map(|a| a.counters()).unwrap_or_default()
        };
        let ic = counters(&mut self.icache);
        let dc = counters(&mut self.dcache);
        let cycle = self.cycles_done;
        let state = self.cachescope.as_deref_mut().expect("checked above");
        let latency = state.attr;
        state.cycles.push(CycleScope { cycle, icache: ic, dcache: dc, latency });
        if let Some((t, _)) = self.telemetry.as_mut() {
            let m = &mut t.metrics;
            for (name, v) in [
                ("cachescope_dcache_hits", dc.hits as f64),
                ("cachescope_dcache_fills", dc.fills as f64),
                ("cachescope_dcache_capacity_evictions", dc.capacity_evictions as f64),
                ("cachescope_dcache_forced_evictions", dc.forced_evictions as f64),
                ("cachescope_dcache_power_loss_evictions", dc.power_loss_evictions as f64),
                ("cachescope_icache_hits", ic.hits as f64),
                ("cachescope_tag_cycles", latency.tag_cycles as f64),
                ("cachescope_decompress_cycles", latency.decompress_cycles as f64),
                ("cachescope_nvm_cycles", latency.nvm_cycles as f64),
                ("cachescope_writeback_cycles", latency.writeback_cycles as f64),
            ] {
                let g = m.gauge(name);
                m.set(g, v);
            }
        }
    }

    /// Counts down to the next periodic occupancy snapshot and fires it.
    /// Called once per committed instruction at the end of `step`.
    fn cachescope_tick(&mut self) {
        let fire = match self.cachescope.as_deref_mut() {
            Some(cs) if cs.period != 0 => {
                cs.snap_countdown -= 1;
                if cs.snap_countdown == 0 {
                    cs.snap_countdown = cs.period;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if fire {
            let snap = OccupancySnapshot {
                inst_index: self.inst_index,
                cycle: self.cycles_done,
                icache: self.icache.occupancy_map(),
                dcache: self.dcache.occupancy_map(),
            };
            self.cachescope.as_deref_mut().expect("fired above").snapshots.push(snap);
        }
    }

    /// Adds to the latency attribution when a cachescope is attached —
    /// one untaken branch otherwise.
    #[inline]
    fn scope_attr(&mut self, f: impl FnOnce(&mut LatencyAttribution)) {
        if let Some(cs) = self.cachescope.as_deref_mut() {
            f(&mut cs.attr);
        }
    }

    /// The machine loop: step while powered, checkpoint on the failure
    /// threshold, hibernate until the restore threshold, stop on
    /// completion, the simulated-time guard, or an exhausted watchdog
    /// budget ([`StepBudget`](crate::config::StepBudget)).
    ///
    /// Instructions decode through an incremental [`InstCursor`] and
    /// execute one [`Simulator::step`] at a time. Telemetry never changes
    /// the loop. [`ExecMode::Reference`] runs the same loop with every
    /// skip in [`FastCtx`] turned off; the `tests/fastpath.rs`
    /// differentials assert the two are bit-identical.
    fn run_loop(&mut self) {
        if self.cfg.step_budget.max_wall.is_some() {
            self.wall_start = Some(std::time::Instant::now());
        }
        let len = self.program.len();
        if self.inst_index >= len {
            return;
        }
        let ctx = FastCtx::new(self);
        let mut cursor = self.program.cursor(self.inst_index);
        while self.inst_index < len {
            if self.now >= self.cfg.max_sim_time {
                break;
            }
            if self.budget_armed {
                if let Some(reason) = self.budget_exceeded() {
                    self.stats.budget_exhausted = Some(reason);
                    break;
                }
            }
            if !self.running {
                if !self.hibernate_and_reboot() {
                    break; // charge timeout
                }
                continue;
            }
            if cursor.index() != self.inst_index {
                cursor.seek(self.inst_index); // SweepCache rollback
            }
            self.step(&mut cursor, &ctx);
            if let Some(kind) = self.take_due_fault() {
                self.power_failure(Some(kind));
            } else if self.below_checkpoint(&ctx) {
                self.power_failure(None);
            }
        }
    }

    /// The capacitor has fallen below the checkpoint threshold: one f64
    /// compare against the bit-exact precomputed cutoff, or the
    /// capacitor's own square-root test under Reference.
    fn below_checkpoint(&self, ctx: &FastCtx) -> bool {
        match ctx.cutoff_pj {
            Some(cutoff) => self.cap.stored().picojoules() < cutoff,
            None => self.cap.below_checkpoint(),
        }
    }

    /// Cooperative watchdog check: the instruction budget is compared
    /// every call; the host clock is read only every
    /// [`WALL_CHECK_PERIOD`] calls. Returns the cancellation reason once
    /// either armed limit is exceeded. No-op unless the config armed a
    /// budget (callers additionally skip the call via `budget_armed`).
    fn budget_exceeded(&mut self) -> Option<String> {
        if !self.budget_armed {
            return None;
        }
        let budget = self.cfg.step_budget;
        if let Some(max) = budget.max_executed_insts {
            if self.stats.executed_insts >= max {
                return Some(format!("instruction budget exhausted ({max} executed)"));
            }
        }
        if let Some(max) = budget.max_wall {
            self.wall_countdown -= 1;
            if self.wall_countdown == 0 {
                self.wall_countdown = WALL_CHECK_PERIOD;
                let elapsed = self.wall_start.map(|s| s.elapsed()).unwrap_or_default();
                if elapsed >= max {
                    return Some(format!(
                        "wall-clock budget exhausted ({:.1}s >= {:.1}s)",
                        elapsed.as_secs_f64(),
                        max.as_secs_f64()
                    ));
                }
            }
        }
        None
    }

    /// Closes the run's statistics.
    fn finish(&mut self) {
        // Close and audit the final (partial) cycle's ledger row — flows
        // since the last boundary must balance too. `execute` detaches
        // telemetry before finishing, so a violation here only ticks the
        // counter (no FlightRecord is emitted for the partial cycle: it
        // has no power-failure boundary).
        let row = self.close_ledger_row();
        self.audit_ledger(&row);
        if self.cycle.insts > 0 {
            if self.cfg.record_cycles {
                self.stats.power_cycles.push(self.cycle);
            }
            self.cycles_done += 1;
        }
        self.stats.power_cycle_count = self.cycles_done;
        if let Some(k) = self.gov.as_kagura() {
            self.stats.kagura_state = Some((k.registers(), k.rm_entries()));
        }
        self.stats.completed = self.inst_index >= self.program.len();
        self.stats.committed_insts = self.inst_index.min(self.program.len());
        self.stats.sim_time = self.now;
        self.stats.icache = self.icache.stats();
        self.stats.dcache = self.dcache.stats();
        self.stats.nvm = self.nvm.stats();
        self.stats.breakdown = self.breakdown;
    }

    /// Spends `amount` from the capacitor and books it to `category`.
    fn spend(&mut self, category: EnergyCategory, amount: Energy) {
        self.cap.drain(amount);
        self.breakdown.record(category, amount);
    }

    /// Closes the current power cycle's energy-ledger row by diffing the
    /// run-total accumulators against their cycle-start snapshots, then
    /// re-arms the snapshots for the next cycle. Call *before* pushing
    /// the cycle record (the row's index is the cycle being closed).
    fn close_ledger_row(&mut self) -> LedgerRow {
        let stored = self.cap.stored();
        let row = LedgerRow {
            cycle: self.cycles_done,
            harvested: self.stats.harvested - self.ledger_start_harvested,
            consumed: self.breakdown - self.ledger_start_breakdown,
            cap_leak: self.stats.cap_leak - self.ledger_start_leak,
            delta_stored: stored - self.ledger_start_stored,
        };
        self.ledger_start_breakdown = self.breakdown;
        self.ledger_start_harvested = self.stats.harvested;
        self.ledger_start_leak = self.stats.cap_leak;
        self.ledger_start_stored = stored;
        row
    }

    /// Audits a closed ledger row: an imbalance bumps
    /// [`SimStats::ledger_violations`], emits [`Event::LedgerImbalance`]
    /// when telemetry is attached, and aborts the run when the config
    /// demands strict auditing (`--audit-strict`; the panic is contained
    /// by the parallel pool's fault machinery in batch runs).
    fn audit_ledger(&mut self, row: &LedgerRow) {
        if let Err(imbalance) = row.audit(ehs_energy::ledger::DEFAULT_EPSILON) {
            self.stats.ledger_violations += 1;
            if let Some((t, _)) = self.telemetry.as_mut() {
                t.emit(
                    self.now.micros(),
                    row.cycle,
                    Event::LedgerImbalance {
                        imbalance_pj: imbalance.imbalance.picojoules(),
                        tolerance_pj: imbalance.tolerance.picojoules(),
                    },
                );
            }
            if self.cfg.audit_strict {
                panic!("{imbalance} (strict ledger audit)");
            }
        }
    }

    /// Advances simulated time by `dt` while running, integrating harvest
    /// and the standby draws.
    ///
    /// The standby powers are hoisted into [`FastCtx`]: `icache.leakage()`
    /// and `dcache.leakage()` are pure functions of the immutable config,
    /// and `(i_leak + d_leak) * dt` is the unscaled form of EDBP's
    /// `(i_leak + d_leak * scale) * dt` — multiplying by `1.0` is an IEEE
    /// identity, so both round identically. Under EDBP (`sram_leak ==
    /// None`) the dcache term scales with the live line fraction
    /// (cache-decay power-gates decayed lines) and is recomputed.
    fn advance(&mut self, dt: SimTime, ctx: &FastCtx) {
        self.harvest(dt);
        let sram_leak = ctx.sram_leak.unwrap_or_else(|| {
            let total =
                (self.cfg.system.dcache.size_bytes / self.cfg.system.dcache.block_size) as f64;
            let live = (self.dcache.resident_count() as f64 / total).min(1.0);
            self.cfg.system.icache.leakage() + self.cfg.system.dcache.leakage() * live
        });
        self.spend(EnergyCategory::CacheOther, sram_leak * dt);
        self.spend(EnergyCategory::Other, ctx.mon_power * dt);
        self.now += dt;
    }

    /// Integrates the trace's harvest over `dt` into the capacitor,
    /// booking the gain and the capacitor's own leakage.
    fn harvest(&mut self, dt: SimTime) {
        let harvest = self.trace.power_at(self.now);
        let before = self.cap.stored();
        let cap_leak = self.cap.charge(harvest, dt);
        let gained = (self.cap.stored() - before + cap_leak).clamp_non_negative();
        self.stats.harvested += gained;
        self.stats.cap_leak += cap_leak;
        self.breakdown.record(EnergyCategory::Other, cap_leak);
    }

    /// Handles the side effects of a fill: compression energy/latency,
    /// victim write-backs, oracle bookkeeping. Returns extra stall cycles.
    fn absorb_fill(&mut self, outcome: &FillOutcome, addr: Address, is_dcache: bool) -> u64 {
        let mut extra = 0u64;
        if outcome.compressions > 0 {
            self.spend(
                EnergyCategory::Compress,
                self.comp_cost.compress_energy * outcome.compressions as f64,
            );
            extra += self.comp_cost.compress_latency.get();
        }
        if outcome.compressions > 0 || outcome.stored_compressed {
            self.gov.on_fill(outcome.stored_compressed);
        }
        if let Some((t, h)) = self.telemetry.as_mut() {
            let t_us = self.now.micros();
            if outcome.stored_compressed {
                t.metrics.inc(h.compressed_fills, 1);
                t.emit(t_us, self.cycles_done, Event::CompressedFill { dcache: is_dcache });
            } else {
                t.metrics.inc(h.bypassed_fills, 1);
                t.emit(t_us, self.cycles_done, Event::BypassedFill { dcache: is_dcache });
            }
        }
        self.evict(&outcome.evicted, is_dcache);
        let block_size = self.cfg.system.dcache.block_size;
        // Oracle attribution for the incoming block.
        if outcome.stored_compressed {
            if self.telemetry.is_some() {
                self.flight.on_compressed_fill(addr.block_index(block_size), is_dcache);
            }
            if let Some(id) = self.gov.record_fill() {
                let params =
                    if is_dcache { self.cfg.system.dcache } else { self.cfg.system.icache };
                let set = addr.set_index(block_size, params.num_sets());
                let idx = addr.block_index(block_size);
                if is_dcache {
                    self.oracle_d.insert(set, idx, id);
                } else {
                    self.oracle_i.insert(set, idx, id);
                }
            }
        }
        // Kagura RM accounting: a bypassed fill while in RM is an averted
        // compression.
        if !outcome.stored_compressed && outcome.compressions == 0 && self.in_rm() {
            self.stats.rm_bypassed_fills += 1;
        }
        extra
    }

    fn in_rm(&self) -> bool {
        self.gov.as_kagura().is_some_and(|k| k.mode() == Mode::Regular)
    }

    fn forget_fill(&mut self, addr: Address, is_dcache: bool) {
        let idx = addr.block_index(self.cfg.system.dcache.block_size);
        if is_dcache {
            self.oracle_d.remove(idx);
        } else {
            self.oracle_i.remove(idx);
        }
    }

    /// A deep hit (rank beyond the nominal ways) landed at `addr`: credit
    /// every live compressed fill in that set.
    fn credit_deep_hit(&mut self, addr: Address, is_dcache: bool) {
        let params = if is_dcache { self.cfg.system.dcache } else { self.cfg.system.icache };
        let set = addr.set_index(params.block_size, params.num_sets());
        let map = if is_dcache { &self.oracle_d } else { &self.oracle_i };
        let ids: Vec<usize> = map.ids_in_set(set).collect();
        for id in ids {
            self.gov.mark_useful(id);
        }
    }

    /// A fill or a repacking store displaced `evicted`: tell the governor
    /// and telemetry, then retire each block.
    fn evict(&mut self, evicted: &[Evicted], is_dcache: bool) {
        if evicted.is_empty() {
            return;
        }
        self.gov.on_evictions(evicted.len() as u32);
        if let Some((t, h)) = self.telemetry.as_mut() {
            t.metrics.inc(h.evictions, evicted.len() as u64);
            let ev = Event::Eviction { count: evicted.len() as u32, dcache: is_dcache };
            t.emit(self.now.micros(), self.cycles_done, ev);
        }
        for e in evicted {
            self.retire(e, is_dcache);
        }
    }

    /// A block left the cache: drop its oracle attribution and, if dirty,
    /// write it back (paying the decompression the cache already counted
    /// for a compressed line).
    fn retire(&mut self, e: &Evicted, is_dcache: bool) {
        self.forget_fill(e.addr, is_dcache);
        if e.dirty {
            if e.was_compressed {
                self.spend(EnergyCategory::Decompress, self.comp_cost.decompress_energy);
            }
            self.writeback(e);
        }
    }

    /// Writes an evicted dirty block back to NVM (demand traffic).
    fn writeback(&mut self, e: &Evicted) {
        match self.cfg.design {
            EhsDesign::Nvmr => {
                // Already persisted incrementally by the renaming buffer.
                self.nvm.store_silent_from(e.addr, &e.data);
            }
            _ => {
                let w = self.nvm.write_block_from(e.addr, &e.data);
                self.spend(EnergyCategory::Memory, w.energy);
            }
        }
    }

    /// One committed instruction. The skips in `ctx` leave out only work
    /// that is unobservable for this run (see [`FastCtx`]):
    ///
    /// * a shallow uncompressed ICache/DCache hit commits without the full
    ///   read/write path — no decompression, repack or eviction can
    ///   follow, and `on_hit` ignores shallow uncompressed hits — unless
    ///   shadow tags and oracle credit must see every access;
    /// * the per-instruction voltage sample runs only for policies that
    ///   consume it.
    ///
    /// With telemetry attached the flight tracker still credits every hit
    /// (shallow commits included: a compressed fill that an un-repacked
    /// store expanded can later be hit shallowly) and governor events are
    /// pumped at the end of the step.
    fn step(&mut self, cursor: &mut InstCursor<'_>, ctx: &FastCtx) {
        let inst = cursor.next_inst();
        let mut cycles = 1u64; // base CPI of the in-order pipeline
        self.scope_attr(|a| a.tag_cycles += 1);

        // --- Fetch through the ICache. ---
        self.spend(EnergyCategory::CacheOther, ctx.i_access);
        if ctx.track_oracle || !self.icache.try_commit_shallow_read(inst.pc) {
            cycles += self.fetch(inst.pc, ctx);
        } else if self.telemetry.is_some() {
            self.flight.on_hit(inst.pc.block_index(ctx.block_size), false);
        }

        // --- Execute / data access. ---
        match inst.kind {
            InstKind::Alu => {}
            InstKind::Load { addr } => {
                cycles += self.data_access(addr, None, ctx);
                self.cycle.loads += 1;
                self.gov.on_mem_commit();
            }
            InstKind::Store { addr, value } => {
                cycles += self.data_access(addr, Some(value), ctx);
                self.cycle.stores += 1;
                self.gov.on_mem_commit();
                if self.cfg.design == EhsDesign::Nvmr {
                    // Renaming buffer persists the store incrementally.
                    let e = self.cfg.system.nvm.write_energy * self.cfg.costs.nvmr_store_factor;
                    self.spend(EnergyCategory::Memory, e);
                }
            }
        }

        // --- Pipeline energy, time, harvest. ---
        self.spend(EnergyCategory::Other, ctx.inst_energy);
        self.advance(ctx.dt(cycles), ctx);

        self.cycle.insts += 1;
        self.cycle.cycles += cycles;
        self.stats.total_cycles += cycles;
        self.stats.executed_insts += 1;
        self.inst_index += 1;

        // --- Voltage sample for voltage-triggered policies. ---
        if ctx.voltage_sensitive {
            self.gov.on_voltage(
                self.cap.voltage(),
                self.cfg.capacitor.v_ckpt,
                self.cfg.capacitor.v_rst,
            );
        }

        // --- Extensions and region sweeping. ---
        if let Extension::Edbp { decay_ticks } = self.cfg.extension {
            self.edbp_countdown -= 1;
            if self.edbp_countdown == 0 {
                self.edbp_countdown = EDBP_SCAN_PERIOD;
                self.edbp_scan(decay_ticks);
            }
        }
        // SweepCache persists at a region boundary once the live region
        // size has been committed since the last one.
        if self.cfg.design == EhsDesign::SweepCache
            && self.inst_index - self.last_persist >= self.sweep_region_live
        {
            self.sweep();
        }
        self.cachescope_tick();

        self.pump_gov_events();
    }

    /// The full ICache fetch path — taken when the fetch is not a shallow
    /// uncompressed hit, or when every access must reach the shadow tags.
    /// Returns the extra stall cycles (decompression or fill).
    fn fetch(&mut self, pc: Address, ctx: &FastCtx) -> u64 {
        let mut extra = 0u64;
        let shadow_hit = ctx.track_oracle
            && self.shadow_i.access(
                pc.set_index(ctx.block_size, ctx.i_sets),
                pc.tag(ctx.block_size, ctx.i_sets),
            );
        match self.icache.read(pc) {
            Some(hit) => {
                if self.telemetry.is_some() {
                    self.flight.on_hit(pc.block_index(ctx.block_size), false);
                }
                if hit.was_compressed {
                    self.spend(EnergyCategory::Decompress, self.comp_cost.decompress_energy);
                    let stall = self.comp_cost.decompress_latency.get();
                    extra += stall;
                    self.scope_attr(|a| a.decompress_cycles += stall);
                }
                if ctx.track_oracle && (!shadow_hit || hit.lru_rank >= ctx.i_ways) {
                    // The uncompressed baseline would have missed here (or
                    // the block sat beyond the nominal ways): compression
                    // earned this hit.
                    self.credit_deep_hit(pc, false);
                }
                self.gov.on_hit(&hit, ctx.i_ways);
            }
            None => {
                let read = self.nvm.read_block(pc);
                self.spend(EnergyCategory::Memory, read.energy);
                let stall = read.latency.get();
                extra += stall;
                self.scope_attr(|a| a.nvm_cycles += stall);
                let mode = self.gov.fill_mode();
                let base = pc.block_base(ctx.block_size);
                let out = self.icache.fill(base, read.data, mode, None);
                self.spend(EnergyCategory::CacheOther, ctx.i_access);
                let fill_stall = self.absorb_fill(&out, base, false);
                extra += fill_stall;
                self.scope_attr(|a| a.writeback_cycles += fill_stall);
            }
        }
        extra
    }

    /// Stamps and forwards any controller events the governor logged
    /// during the work just performed (mode switches fire inside
    /// `on_mem_commit`/`on_voltage`, mid-step). One untaken branch when
    /// telemetry is detached; one cheap emptiness check per step when it
    /// is attached.
    fn pump_gov_events(&mut self) {
        if let Some((t, _)) = self.telemetry.as_mut() {
            if self.gov.events_pending() {
                let t_us = self.now.micros();
                let cycle = self.cycles_done;
                self.gov.drain_events(|ev| t.emit(t_us, cycle, ev));
            }
        }
    }

    /// A load or store through the DCache; returns extra stall cycles.
    fn data_access(&mut self, addr: Address, store: Option<u32>, ctx: &FastCtx) -> u64 {
        let block_size = ctx.block_size;
        let mut cycles = self.cfg.system.dcache.hit_latency.get();
        self.scope_attr(|a| a.tag_cycles += cycles);
        self.spend(EnergyCategory::CacheOther, self.cfg.system.dcache.access_energy);
        // Shallow commit: an access hitting a *shallow uncompressed* line
        // (one an uncompressed cache would also serve) with shadow
        // tracking off reduces to the LRU stamp, the hit counter, and (for
        // stores) the word write + dirty bit. Bit-exact versus the full
        // path below: `read()`/`write()` on such a line do exactly the
        // commit's state changes, and every consumer of the `HitInfo` is
        // provably inert — `on_hit` only reacts to deep or compressed
        // hits, and there is no decompression, repack, eviction, or
        // deep-hit credit. The flight tracker's hit credit is the one
        // observer left.
        if !ctx.track_oracle {
            let fast = match store {
                None => self.dcache.try_commit_shallow_read(addr),
                Some(v) => self.dcache.try_commit_shallow_write(addr, v),
            };
            if fast {
                if self.telemetry.is_some() {
                    self.flight.on_hit(addr.block_index(block_size), true);
                }
                return cycles;
            }
        }
        let shadow_hit = ctx.track_oracle && {
            let d_sets = self.cfg.system.dcache.num_sets();
            self.shadow_d.access(addr.set_index(block_size, d_sets), addr.tag(block_size, d_sets))
        };

        let repack = self.gov.compression_enabled();
        let hit = match store {
            None => self.dcache.read(addr).map(|h| (h, Vec::new())),
            Some(v) => self.dcache.write(addr, v, repack),
        };
        match hit {
            Some((info, evicted)) => {
                if self.telemetry.is_some() {
                    self.flight.on_hit(addr.block_index(block_size), true);
                }
                if info.was_compressed {
                    self.spend(EnergyCategory::Decompress, self.comp_cost.decompress_energy);
                    let stall = self.comp_cost.decompress_latency.get();
                    cycles += stall;
                    self.scope_attr(|a| a.decompress_cycles += stall);
                    if store.is_some() && repack {
                        // A store to a compressed line repacks it.
                        self.spend(EnergyCategory::Compress, self.comp_cost.compress_energy);
                        let repack_stall = self.comp_cost.compress_latency.get();
                        cycles += repack_stall;
                        self.scope_attr(|a| a.writeback_cycles += repack_stall);
                    }
                    if store.is_some() && !repack {
                        // The line just expanded: it is no longer a live
                        // compressed fill for oracle purposes.
                        self.forget_fill(addr.block_base(block_size), true);
                    }
                }
                if ctx.track_oracle && (!shadow_hit || info.lru_rank >= ctx.d_ways) {
                    self.credit_deep_hit(addr, true);
                }
                self.gov.on_hit(&info, ctx.d_ways);
                self.evict(&evicted, true);
            }
            None => {
                // Miss: fetch from NVM, write-allocate with pending store.
                let read = self.nvm.read_block(addr);
                self.spend(EnergyCategory::Memory, read.energy);
                let stall = read.latency.get();
                cycles += stall;
                self.scope_attr(|a| a.nvm_cycles += stall);
                let mode = self.gov.fill_mode();
                let base = addr.block_base(block_size);
                let apply = store.map(|v| (addr.block_offset(block_size), v));
                let out = self.dcache.fill(base, read.data, mode, apply);
                self.spend(EnergyCategory::CacheOther, self.cfg.system.dcache.access_energy);
                let fill_stall = self.absorb_fill(&out, base, true);
                cycles += fill_stall;
                self.scope_attr(|a| a.writeback_cycles += fill_stall);

                // IPEX: on a detected sequential stream, prefetch the next
                // block when energy-rich.
                if let Extension::Ipex { min_energy_fraction } = self.cfg.extension {
                    let idx = base.block_index(block_size);
                    // A tight window keeps the detector from firing on
                    // random access patterns that happen to touch adjacent
                    // blocks occasionally.
                    let streaming = self.recent_misses.contains(&idx.wrapping_sub(1));
                    self.recent_misses.push(idx);
                    if self.recent_misses.len() > 4 {
                        self.recent_misses.remove(0);
                    }
                    if store.is_none() && streaming {
                        self.maybe_prefetch(base, block_size, min_energy_fraction);
                    }
                }
            }
        }
        cycles
    }

    fn maybe_prefetch(&mut self, base: Address, block_size: u32, min_fraction: f64) {
        let cfg = &self.cfg.capacitor;
        let window = cfg.energy_at(cfg.v_rst) - cfg.energy_at(cfg.v_ckpt);
        let above = (self.cap.stored() - cfg.energy_at(cfg.v_ckpt)).clamp_non_negative();
        if window.is_zero() || above / window < min_fraction {
            return;
        }
        let Some(next) = base.checked_add(block_size as u64) else {
            return;
        };
        if self.dcache.contains(next) {
            return;
        }
        let read = self.nvm.read_block(next);
        self.spend(EnergyCategory::Memory, read.energy);
        let mode = self.gov.fill_mode();
        let out = self.dcache.fill(next.block_base(block_size), read.data, mode, None);
        self.spend(EnergyCategory::CacheOther, self.cfg.system.dcache.access_energy);
        // Prefetch overlaps execution: energy paid, no stall cycles.
        let _ = self.absorb_fill(&out, next.block_base(block_size), true);
    }

    /// EDBP: retire blocks idle longer than the decay window.
    fn edbp_scan(&mut self, decay_ticks: u64) {
        let now = self.dcache.now();
        let dead: Vec<Address> = self
            .dcache
            .resident_blocks()
            .into_iter()
            .filter(|b| now.saturating_sub(b.last_tick) > decay_ticks)
            .map(|b| b.addr)
            .collect();
        for addr in dead {
            if let Some(e) = self.dcache.invalidate_block(addr) {
                self.retire(&e, true);
            }
        }
    }

    /// SweepCache: persist dirty blocks at a region boundary.
    fn sweep(&mut self) {
        // The drain visits blocks in place; energy is spent inline (the
        // closure captures the capacitor and breakdown disjointly from the
        // cache) so the accounting order matches a block-by-block drain.
        let cap = &mut self.cap;
        let breakdown = &mut self.breakdown;
        let nvm = &mut self.nvm;
        let decompress_energy = self.comp_cost.decompress_energy;
        let mut blocks = 0u32;
        self.dcache.for_each_dirty(|addr, data, was_compressed| {
            if was_compressed {
                cap.drain(decompress_energy);
                breakdown.record(EnergyCategory::Decompress, decompress_energy);
            }
            let w = nvm.write_block_from(addr, data);
            cap.drain(w.energy);
            breakdown.record(EnergyCategory::CheckpointRestore, w.energy);
            blocks += 1;
        });
        self.spend(EnergyCategory::CheckpointRestore, self.cfg.costs.sweep_boundary);
        if let Some((t, h)) = self.telemetry.as_mut() {
            self.flight.ckpt_blocks += blocks as u64;
            t.metrics.inc(h.checkpoint_blocks, blocks as u64);
            t.emit(self.now.micros(), self.cycles_done, Event::Checkpoint { blocks });
        }
        self.last_persist = self.inst_index;
        self.sweeps_this_cycle += 1;
    }

    /// The voltage monitor fired (or the supply browned out), or a forced
    /// fault is firing (`injected`): wind down.
    fn power_failure(&mut self, injected: Option<FaultKind>) {
        let mut ckpt_blocks = 0u32;
        let mut decode_faults = 0u32;
        match self.cfg.design {
            EhsDesign::NvsramCache => {
                // JIT checkpoint: dirty blocks + registers to NVM/NVFF.
                // Blocks are visited in place and energy spent inline (see
                // `sweep` for the capture pattern) — the checkpoint path
                // copies nothing per block.
                let cap = &mut self.cap;
                let breakdown = &mut self.breakdown;
                let nvm = &mut self.nvm;
                let comp = self.dcache.compressor().clone();
                let decompress_energy = self.comp_cost.decompress_energy;
                let clock_hz = self.cfg.system.core.clock_hz;
                let mut ckpt_time = SimTime::ZERO;
                let blocks = &mut ckpt_blocks;
                let faults = &mut decode_faults;
                // Injected checkpoint-path mutations (None in real runs).
                let torn_limit = match injected {
                    Some(FaultKind::TornCheckpoint { persist_blocks }) => Some(persist_blocks),
                    _ => None,
                };
                let mut corrupt_bit = match injected {
                    Some(FaultKind::CorruptPayload { bit }) => Some(bit),
                    _ => None,
                };
                self.dcache.for_each_dirty(|addr, data, was_compressed| {
                    if torn_limit.is_some_and(|limit| *blocks >= limit) {
                        return; // power died mid-checkpoint: block lost
                    }
                    if was_compressed {
                        cap.drain(decompress_energy);
                        breakdown.record(EnergyCategory::Decompress, decompress_energy);
                    }
                    if was_compressed && corrupt_bit.is_some() {
                        // The injected datapath fault mangles this block's
                        // encoded form on its way out. A decode failure is
                        // *detected* (the block is dropped, not persisted);
                        // a flip that still decodes writes mangled bytes.
                        let bit = corrupt_bit.take().expect("checked is_some");
                        let enc = comp.compress(data.as_slice());
                        let mut payload = enc.payload().to_vec();
                        let b = bit as usize % (payload.len() * 8);
                        payload[b / 8] ^= 1 << (b % 8);
                        let mangled = ehs_compress::CompressedBlock::new(
                            enc.algorithm(),
                            enc.original_bytes(),
                            payload,
                            enc.encoded_bits(),
                        );
                        let mut scratch = vec![0u8; data.len()];
                        match comp.try_decompress_into(&mangled, &mut scratch) {
                            Ok(()) => {
                                let block = ehs_model::BlockData::from_bytes(scratch);
                                let w = nvm.write_block_from(addr, &block);
                                cap.drain(w.energy);
                                breakdown.record(EnergyCategory::CheckpointRestore, w.energy);
                                ckpt_time +=
                                    SimTime::from_seconds(w.latency.get() as f64 / clock_hz);
                                *blocks += 1;
                            }
                            Err(_) => *faults += 1,
                        }
                        return;
                    }
                    let w = nvm.write_block_from(addr, data);
                    cap.drain(w.energy);
                    breakdown.record(EnergyCategory::CheckpointRestore, w.energy);
                    ckpt_time += SimTime::from_seconds(w.latency.get() as f64 / clock_hz);
                    *blocks += 1;
                });
                self.spend(EnergyCategory::CheckpointRestore, self.cfg.costs.checkpoint_fixed);
                self.now += ckpt_time;
            }
            EhsDesign::Nvmr => {
                // Stores are already persistent; write back silently for
                // functional coherence only.
                let nvm = &mut self.nvm;
                self.dcache.for_each_dirty(|addr, data, _| nvm.store_silent_from(addr, data));
            }
            EhsDesign::SweepCache => {
                // Work since the last boundary is lost; dirty blocks are
                // dropped and those instructions re-execute after reboot.
                self.inst_index = self.last_persist;
                // Adaptive region sizing (§VII-C): never persisting within
                // a cycle means zero forward progress — shrink; several
                // boundaries per cycle means headroom — grow back.
                if self.sweeps_this_cycle == 0 {
                    self.sweep_region_live = (self.sweep_region_live / 2).max(32);
                } else if self.sweeps_this_cycle >= 4
                    && self.sweep_region_live < self.cfg.costs.sweep_region
                {
                    self.sweep_region_live =
                        (self.sweep_region_live + self.sweep_region_live / 4 + 1)
                            .min(self.cfg.costs.sweep_region);
                }
                self.sweeps_this_cycle = 0;
            }
        }
        self.icache.invalidate_all();
        self.dcache.invalidate_all();
        // After the invalidations so the cycle's power-loss evictions are
        // already folded into the probe counters; before the telemetry
        // block so mirrored gauges ride this cycle's metric snapshot.
        self.cachescope_cycle_boundary();
        self.oracle_i.clear();
        self.oracle_d.clear();
        self.shadow_i.clear();
        self.shadow_d.clear();
        // Kagura's registers and mode must be read before the governor's
        // own failure handling rolls them into the next cycle.
        let kagura = self.gov.as_kagura().map(|k| (k.registers(), k.mode()));
        self.gov.on_power_failure();
        self.stats.decode_faults += decode_faults as u64;
        // All of the cycle's energy is spent by this point: close and
        // audit the ledger row (always on; the audit is a handful of
        // f64 compares per power cycle).
        let row = self.close_ledger_row();
        if let Some((t, h)) = self.telemetry.as_mut() {
            let t_us = self.now.micros();
            // The cycle being closed: its index is the number already
            // recorded (pushed just below).
            let cycle = self.cycles_done;
            if self.cfg.design == EhsDesign::NvsramCache {
                t.metrics.inc(h.checkpoint_blocks, ckpt_blocks as u64);
                t.emit(t_us, cycle, Event::Checkpoint { blocks: ckpt_blocks });
            }
            if decode_faults > 0 {
                t.emit(t_us, cycle, Event::DecodeFault { blocks: decode_faults });
            }
            self.gov.drain_events(|ev| t.emit(t_us, cycle, ev));
            let wasted_fills = self.flight.wasted_fills();
            let block_size = self.cfg.system.dcache.block_size as u64;
            let ckpt_total = self.flight.ckpt_blocks + ckpt_blocks as u64;
            let (registers, mode) = match kagura {
                Some((regs, Mode::Compression)) => (regs, "CM"),
                Some((regs, Mode::Regular)) => (regs, "RM"),
                None => ((0, 0, 0, 0, 0), "-"),
            };
            t.emit(
                t_us,
                cycle,
                Event::FlightRecord(ehs_telemetry::FlightRecord {
                    insts: self.cycle.insts,
                    mem_ops: self.cycle.loads + self.cycle.stores,
                    predicted_remaining: registers.0,
                    actual_remaining: registers.1,
                    mode,
                    late_compressions: self.flight.late_compressions(),
                    wasted_fills,
                    wasted_pj: (self.comp_cost.compress_energy * wasted_fills as f64).picojoules(),
                    checkpoint_bytes: ckpt_total * block_size,
                    harvested_pj: row.harvested.picojoules(),
                    compress_pj: row.consumed[EnergyCategory::Compress].picojoules(),
                    decompress_pj: row.consumed[EnergyCategory::Decompress].picojoules(),
                    cache_other_pj: row.consumed[EnergyCategory::CacheOther].picojoules(),
                    memory_pj: row.consumed[EnergyCategory::Memory].picojoules(),
                    checkpoint_restore_pj: row.consumed[EnergyCategory::CheckpointRestore]
                        .picojoules(),
                    other_pj: row.consumed[EnergyCategory::Other].picojoules(),
                    cap_leak_pj: row.cap_leak.picojoules(),
                    delta_stored_pj: row.delta_stored.picojoules(),
                }),
            );
            let voltage = self.cap.voltage();
            t.emit(t_us, cycle, Event::PowerFailure { insts: self.cycle.insts, voltage });
            t.metrics.inc(h.power_failures, 1);
            t.metrics.set(h.voltage, voltage);
            t.metrics.observe(h.cycle_insts, self.cycle.insts as f64);
            t.metrics.snapshot(cycle, t_us);
        }
        self.audit_ledger(&row);
        self.flight.reset();
        self.stats.checkpoints += 1;
        if self.cfg.record_cycles {
            self.stats.power_cycles.push(self.cycle);
        }
        self.cycles_done += 1;
        self.cycle = CycleRecord::default();
        self.running = false;
    }

    /// Charges until `V_rst`, then performs the reboot sequence. Returns
    /// `false` on charge timeout.
    fn hibernate_and_reboot(&mut self) -> bool {
        let hibernate_start = self.now;
        while !self.cap.above_restore() {
            if self.now >= self.cfg.max_sim_time {
                return false;
            }
            // A wall-clock budget also covers hibernation: a near-dead
            // trace with a generous simulated-time guard would otherwise
            // spin here for a long host time before giving up.
            if self.budget_armed {
                if let Some(reason) = self.budget_exceeded() {
                    self.stats.budget_exhausted = Some(reason);
                    return false;
                }
            }
            self.harvest(CHARGE_STEP);
            // The monitor keeps watching the capacitor while hibernating.
            let mon = self.monitor.standby_power() * CHARGE_STEP;
            self.cap.drain(mon);
            self.breakdown.record(EnergyCategory::Other, mon);
            self.now += CHARGE_STEP;
        }
        // Reboot: restore checkpointed state, re-init the monitor.
        self.spend(EnergyCategory::CheckpointRestore, self.cfg.costs.restore_fixed);
        self.spend(EnergyCategory::Other, self.monitor.init_energy());
        let latency = self.cfg.costs.restore_latency + self.monitor.init_latency();
        self.now += SimTime::from_seconds(latency.get() as f64 / self.cfg.system.core.clock_hz);
        self.gov.on_reboot();
        if let Some((t, h)) = self.telemetry.as_mut() {
            let t_us = self.now.micros();
            let cycle = self.cycles_done;
            let voltage = self.cap.voltage();
            let charge_us = (self.now - hibernate_start).micros();
            t.emit(t_us, cycle, Event::Reboot { charge_us, voltage });
            self.gov.drain_events(|ev| t.emit(t_us, cycle, ev));
            t.metrics.inc(h.reboots, 1);
            t.metrics.set(h.voltage, voltage);
            t.metrics.observe(h.charge_us, charge_us);
        }
        self.running = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GovernorSpec;
    use ehs_energy::{CapacitorConfig, TraceKind};
    use ehs_workloads::App;

    fn run_small(app: App, governor: GovernorSpec) -> SimStats {
        let cfg = SimConfig::table1().with_governor(governor);
        let program = app.build(0.02);
        let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
        Simulator::new(cfg, &program, &trace).run()
    }

    #[test]
    fn cachescope_boundary_rows_mirror_into_metrics_when_telemetry_attached() {
        use ehs_telemetry::NullSink;

        let cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
        let program = App::Sha.build(0.02);
        let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
        let mut sink = NullSink;
        let mut sim = Simulator::new(cfg, &program, &trace);
        sim.attach(Attach {
            telemetry: Some(&mut sink),
            cachescope: Some(CachescopeConfig::default()),
            ..Attach::default()
        });
        let out = sim.execute();
        let mut metrics = out.metrics.expect("telemetry attached");
        let report = out.cachescope.expect("cachescope attached");
        assert!(out.stats.checkpoints >= 2, "run too short to cross a boundary");
        // One row per power-cycle boundary plus the end-of-run row.
        assert_eq!(report.cycles.len() as u64, out.stats.checkpoints + 1);
        // Mirrored gauges hold the last boundary's cumulative values
        // (`gauge` is get-or-register by name, so this finds the existing
        // ids; a fresh registration would read 0.0 and fail below).
        let hits = metrics.gauge("cachescope_dcache_hits");
        let last_boundary = report.cycles[report.cycles.len() - 2];
        assert_eq!(metrics.gauge_value(hits), last_boundary.dcache.hits as f64);
        assert!(metrics.gauge_value(hits) > 0.0);
        for name in ["cachescope_tag_cycles", "cachescope_nvm_cycles"] {
            let g = metrics.gauge(name);
            assert!(metrics.gauge_value(g) > 0.0, "gauge {name} never mirrored");
        }
    }

    #[test]
    fn checkpoint_cutoff_matches_below_checkpoint_bit_for_bit() {
        // Table I and every capacitor the sensitivity experiments sweep
        // (Fig 29, Table III); no experiment sweeps `v_ckpt`.
        let swept = [0.47, 1.0, 4.7, 10.0, 100.0, 1000.0].map(CapacitorConfig::with_capacitance_uf);
        for cfg in std::iter::once(SimConfig::table1().capacitor).chain(swept) {
            let cutoff = checkpoint_cutoff_pj(cfg.capacitance, cfg.v_ckpt);
            assert!(cutoff.is_finite() && cutoff > 0.0, "cutoff {cutoff}");
            let mut cap = Capacitor::new(cfg);
            let bits = cutoff.to_bits();
            for pj in [f64::from_bits(bits - 1), cutoff, f64::from_bits(bits + 1)] {
                cap.set_stored(Energy::from_picojoules(pj));
                assert_eq!(
                    pj < cutoff,
                    cap.below_checkpoint(),
                    "C = {} F, v_ckpt = {} V, stored = {pj:e} pJ",
                    cfg.capacitance,
                    cfg.v_ckpt
                );
            }
        }
    }

    #[test]
    fn baseline_completes_with_power_cycles() {
        let stats = run_small(App::Sha, GovernorSpec::NoCompression);
        assert!(stats.completed, "did not finish: {} insts", stats.committed_insts);
        assert!(stats.power_cycles.len() >= 2, "cycles: {}", stats.power_cycles.len());
        assert_eq!(stats.power_cycle_count, stats.power_cycles.len() as u64);
        assert!(stats.checkpoints >= 1);
        assert!(stats.total_energy().picojoules() > 0.0);
        assert_eq!(stats.dcache.compressions, 0, "baseline must not compress");
    }

    #[test]
    fn disabling_cycle_records_changes_nothing_but_the_vector() {
        let recorded = run_small(App::Sha, GovernorSpec::AccKagura(Default::default()));
        let mut cfg =
            SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
        cfg.record_cycles = false;
        let program = App::Sha.build(0.02);
        let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
        let unrecorded = Simulator::new(cfg, &program, &trace).run();

        assert!(unrecorded.power_cycles.is_empty());
        assert_eq!(unrecorded.power_cycle_count, recorded.power_cycle_count);
        assert!(unrecorded.power_cycle_count >= 2);
        // Everything except the record vector must be byte-identical —
        // the flag is observability-only, never behavioural.
        let mut stripped = recorded;
        stripped.power_cycles.clear();
        assert_eq!(stripped, unrecorded);
    }

    #[test]
    fn acc_compresses_and_completes() {
        let stats = run_small(App::Jpegd, GovernorSpec::Acc);
        assert!(stats.completed);
        assert!(stats.compression_ops() > 0, "ACC should compress sometimes");
        assert!(stats.breakdown[EnergyCategory::Compress].picojoules() > 0.0);
    }

    #[test]
    fn kagura_averts_compressions() {
        // g721d keeps ACC's predictor positive all cycle (table reuse), so
        // end-of-cycle compressions exist for Kagura's RM mode to avert.
        let acc = run_small(App::G721d, GovernorSpec::Acc);
        let kag = run_small(App::G721d, GovernorSpec::AccKagura(Default::default()));
        assert!(kag.completed);
        assert!(
            kag.compression_ops() < acc.compression_ops(),
            "Kagura ({}) should compress less than ACC ({})",
            kag.compression_ops(),
            acc.compression_ops()
        );
    }

    #[test]
    fn energy_conservation_within_budget() {
        // Total consumed energy cannot exceed harvested + initial charge.
        let stats = run_small(App::Gsm, GovernorSpec::Acc);
        let initial = {
            let c = SimConfig::table1().capacitor;
            c.energy_at(c.v_max)
        };
        let budget = stats.harvested + initial;
        assert!(
            stats.total_energy().picojoules() <= budget.picojoules() * 1.001,
            "consumed {} > budget {}",
            stats.total_energy(),
            budget
        );
    }

    #[test]
    fn cap_leak_is_counted_once_inside_other() {
        // Strict per-cycle conservation auditing: double-counting the
        // capacitor leakage inside the `Other` bucket would inflate
        // consumed beyond harvested − Δstored by the leak amount every
        // cycle and abort the run here.
        let cfg = SimConfig::table1().with_audit_strict(true);
        let program = App::Sha.build(0.02);
        let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
        let stats = Simulator::new(cfg, &program, &trace).run();
        assert!(stats.completed);
        assert_eq!(stats.ledger_violations, 0);
        assert!(stats.cap_leak.picojoules() > 0.0, "leakage must be modelled");
        // Leakage sits inside `Other` (Table III reports it as a share of
        // the total) — once, alongside pipeline and monitor energy.
        assert!(stats.breakdown[EnergyCategory::Other] >= stats.cap_leak);
    }

    #[test]
    fn ledger_balances_across_designs_and_governors() {
        for design in EhsDesign::ALL {
            for governor in [
                GovernorSpec::NoCompression,
                GovernorSpec::Acc,
                GovernorSpec::AccKagura(Default::default()),
            ] {
                let cfg = SimConfig::table1()
                    .with_design(design)
                    .with_governor(governor)
                    .with_audit_strict(true);
                let program = App::Crc32.build(0.02);
                let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
                let stats = Simulator::new(cfg, &program, &trace).run();
                assert!(stats.completed, "{design}/{} did not complete", governor.label());
                assert_eq!(stats.ledger_violations, 0, "{design}/{}", governor.label());
            }
        }
    }

    #[test]
    fn power_cycles_are_in_the_paper_regime() {
        let stats = run_small(App::Sha, GovernorSpec::NoCompression);
        let avg = stats.avg_insts_per_cycle();
        assert!((500.0..50_000.0).contains(&avg), "avg insts/cycle = {avg}");
    }

    #[test]
    fn nvmr_and_sweepcache_complete() {
        for design in [EhsDesign::Nvmr, EhsDesign::SweepCache] {
            let cfg = SimConfig::table1().with_design(design).with_governor(GovernorSpec::Acc);
            let program = App::Gsm.build(0.02);
            let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
            let stats = Simulator::new(cfg, &program, &trace).run();
            assert!(stats.completed, "{design} did not complete");
        }
    }

    #[test]
    fn sweepcache_reexecutes_lost_work() {
        let cfg = SimConfig::table1().with_design(EhsDesign::SweepCache);
        let program = App::Gsm.build(0.02);
        let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
        let stats = Simulator::new(cfg, &program, &trace).run();
        assert!(stats.completed);
        assert!(
            stats.executed_insts > stats.committed_insts,
            "rollback must cause re-execution ({} executed vs {} committed)",
            stats.executed_insts,
            stats.committed_insts
        );
    }

    #[test]
    fn extensions_run_to_completion() {
        for ext in [Extension::edbp(), Extension::ipex()] {
            let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
            cfg.extension = ext;
            let program = App::Jpegd.build(0.02);
            let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
            let stats = Simulator::new(cfg, &program, &trace).run();
            assert!(stats.completed, "{ext:?} did not complete");
        }
    }

    #[test]
    fn dead_trace_hits_time_guard() {
        let mut cfg = SimConfig::table1();
        cfg.max_sim_time = SimTime::from_seconds(0.5);
        let program = App::Sha.build(1.0);
        let trace = PowerTrace::constant(ehs_model::Power::from_microwatts(0.001), 100);
        let stats = Simulator::new(cfg, &program, &trace).run();
        assert!(!stats.completed);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_small(App::Dijkstra, GovernorSpec::AccKagura(Default::default()));
        let b = run_small(App::Dijkstra, GovernorSpec::AccKagura(Default::default()));
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.committed_insts, b.committed_insts);
        assert_eq!(a.compression_ops(), b.compression_ops());
    }

    #[test]
    fn instrumented_run_matches_plain_run_and_records_events() {
        use ehs_telemetry::VecSink;

        let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
        let program = App::G721d.build(0.02);
        let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);

        let plain = Simulator::new(cfg.clone(), &program, &trace).run();

        let mut sink = VecSink::new();
        let mut sim = Simulator::new(cfg, &program, &trace);
        sim.attach_telemetry(&mut sink);
        let (stats, metrics) = sim.run_instrumented();

        // Telemetry must observe, never perturb.
        assert_eq!(stats.sim_time, plain.sim_time);
        assert_eq!(stats.committed_insts, plain.committed_insts);
        assert_eq!(stats.compression_ops(), plain.compression_ops());
        assert_eq!(stats.power_cycles.len(), plain.power_cycles.len());

        let events = sink.into_events();
        let failures =
            events.iter().filter(|e| matches!(e.event, Event::PowerFailure { .. })).count();
        let reboots = events.iter().filter(|e| matches!(e.event, Event::Reboot { .. })).count();
        let samples =
            events.iter().filter(|e| matches!(e.event, Event::EstimatorSample { .. })).count();
        assert_eq!(failures, stats.checkpoints as usize);
        assert_eq!(reboots + 1, failures + if stats.completed { 1 } else { 0 });
        // One estimator sample per failure once history exists.
        assert_eq!(samples, failures - 1);
        assert!(events.iter().any(|e| matches!(e.event, Event::CompressedFill { .. })));
        assert!(events.iter().any(|e| matches!(e.event, Event::ModeSwitch { cm_to_rm: true, .. })));

        // One flight record per power-cycle boundary, none spurious, and
        // its ledger row balances (the audit also ran in-sim: zero
        // violations on a healthy trace).
        let flights: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                Event::FlightRecord(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(flights.len(), failures);
        assert_eq!(stats.ledger_violations, 0);
        assert!(!events.iter().any(|e| matches!(e.event, Event::LedgerImbalance { .. })));
        for r in &flights {
            assert_eq!(r.mem_ops, r.actual_remaining, "Kagura's R_mem counts the cycle's mem ops");
            assert!(r.mode == "CM" || r.mode == "RM");
            let consumed = r.compress_pj
                + r.decompress_pj
                + r.cache_other_pj
                + r.memory_pj
                + r.checkpoint_restore_pj
                + r.other_pj;
            let residual = (r.harvested_pj - consumed - r.delta_stored_pj).abs();
            assert!(residual < 1.0, "flight-record ledger row out of balance by {residual} pJ");
            // Late fills (after the last useful one) are never
            // re-referenced, so they are a subset of the wasted ones.
            assert!(r.wasted_fills >= r.late_compressions);
        }
        // Compression happened, so some cycles must show wasted fills
        // (blocks compressed and never re-referenced before the outage).
        assert!(flights.iter().any(|r| r.wasted_fills > 0 && r.wasted_pj > 0.0));

        // Stamps are monotone and cycle indices agree with the stats.
        for w in events.windows(2) {
            assert!(w[1].t_us >= w[0].t_us, "time went backwards");
            assert!(w[1].cycle >= w[0].cycle, "cycle index went backwards");
        }
        // One metrics snapshot per closed cycle plus the end-of-run one.
        assert_eq!(metrics.snapshots().len(), stats.checkpoints as usize + 1);
    }

    #[test]
    fn trace_kinds_all_work() {
        for kind in TraceKind::ALL {
            let mut cfg = SimConfig::table1();
            cfg.trace_kind = kind;
            let program = App::Crc32.build(0.01);
            let trace = PowerTrace::generate(kind, 1, 400_000);
            let stats = Simulator::new(cfg, &program, &trace).run();
            assert!(stats.completed, "{kind} failed");
        }
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use crate::config::GovernorSpec;
    use ehs_workloads::App;

    #[test]
    #[ignore]
    fn dump_stats() {
        let app = App::from_name(&std::env::var("DUMP_APP").unwrap_or("jpeg".into())).unwrap();
        let scale: f64 =
            std::env::var("DUMP_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.1);
        for gov in [
            GovernorSpec::NoCompression,
            GovernorSpec::Acc,
            GovernorSpec::AccKagura(Default::default()),
        ] {
            let mut cfg = SimConfig::table1().with_governor(gov);
            if let Ok(sweep) = std::env::var("DUMP_SWEEP") {
                cfg.design = EhsDesign::SweepCache;
                cfg.costs.sweep_region = sweep.parse().unwrap_or(512);
            }
            let program = app.build(scale);
            let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 4_000_000);
            let stats = Simulator::new(cfg, &program, &trace).run();
            println!("== {:?}", gov.label());
            println!(
                "completed={} insts={} cycles={} time={} ckpts={}",
                stats.completed,
                stats.committed_insts,
                stats.power_cycles.len(),
                stats.sim_time,
                stats.checkpoints
            );
            println!("dcache: {:?}", stats.dcache);
            println!("icache hits/misses: {}/{}", stats.icache.hits(), stats.icache.misses());
            println!(
                "rm_bypassed={} comp_ops={} kagura={:?}",
                stats.rm_bypassed_fills,
                stats.compression_ops(),
                stats.kagura_state
            );
            println!("breakdown: {}", stats.breakdown);
        }
    }
}
