//! Power-failure fault-injection with differential crash-consistency
//! checking.
//!
//! The harness answers one question per (workload, design, governor)
//! point: *does recovery converge to the failure-free execution, no
//! matter where power dies?* It runs the workload once uninterrupted
//! under a steady power trace to capture the **golden** final NVM image,
//! then re-runs it injecting a forced power failure at chosen executed-
//! instruction boundaries ([`InjectionPlan`]) and byte-compares the
//! post-recovery NVM against the golden image over the union of blocks
//! either run materialised.
//!
//! Fault flavours beyond a clean failure ([`FaultKind::TornCheckpoint`],
//! [`FaultKind::CorruptPayload`]) deliberately break the checkpoint
//! path; the harness must *detect* them — as a divergent image, or as a
//! [`SimStats::decode_faults`] count when a mangled compressed payload
//! fails to decode. A torn checkpoint that slips through unnoticed means
//! the differential check itself is broken, which is why the campaign
//! doubles as the harness's built-in mutation test.
//!
//! The steady trace never crosses the checkpoint threshold on its own,
//! so the injected failure is the only one in the run and every campaign
//! point is deterministic and independently replayable.

use ehs_energy::PowerTrace;
use ehs_mem::Nvm;
use ehs_model::Power;
use ehs_workloads::{AddrGen, KernelProgram, KernelSpec, Op, Phase, ValGen};

use crate::config::SimConfig;
use crate::machine::{FaultKind, RunOutput, Simulator};
use crate::parallel;
use crate::stats::SimStats;

/// SplitMix64: the same deterministic mixer the kernel IR uses, inlined
/// so sampled plans need no RNG dependency and replay bit-identically.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where to place the injected failures within a run of `total`
/// dynamic instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPlan {
    /// After every instruction: `1..=total`. Tractable only for the
    /// short synthetic kernels ([`short_kernels`]).
    Exhaustive,
    /// Every `step`-th boundary, starting at 1. Deterministic coarse
    /// coverage for medium-length programs.
    Stride {
        /// Instructions between injection points (≥ 1).
        step: u64,
    },
    /// `count` distinct points drawn uniformly (without replacement)
    /// from `1..=total` by a seeded SplitMix64 stream. The paper-scale
    /// apps are millions of instructions; sampling keeps a campaign
    /// minutes-sized while still probing arbitrary phases.
    Sampled {
        /// How many distinct injection points to draw.
        count: u64,
        /// Stream seed; same seed + same `total` = same points.
        seed: u64,
    },
}

impl InjectionPlan {
    /// The sorted, deduplicated injection points for a `total`-instruction
    /// run. Points are 1-based executed-instruction counts (see
    /// [`Simulator::arm_fault`]).
    pub fn points(&self, total: u64) -> Vec<u64> {
        match *self {
            InjectionPlan::Exhaustive => (1..=total).collect(),
            InjectionPlan::Stride { step } => (1..=total).step_by(step.max(1) as usize).collect(),
            InjectionPlan::Sampled { count, seed } => {
                if count >= total {
                    return (1..=total).collect();
                }
                let mut state = seed;
                let mut points = std::collections::BTreeSet::new();
                while (points.len() as u64) < count {
                    points.insert(1 + splitmix64(&mut state) % total);
                }
                points.into_iter().collect()
            }
        }
    }
}

/// One injection point whose post-recovery NVM did not match the golden
/// image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The executed-instruction boundary the failure was injected at.
    pub at_inst: u64,
    /// Block indices whose bytes differ (capped at
    /// [`Divergence::MAX_BLOCKS`] per point; the count of a mismatch
    /// matters, an exhaustive block list does not).
    pub blocks: Vec<u64>,
}

impl Divergence {
    /// Cap on recorded mismatching block indices per injection point.
    pub const MAX_BLOCKS: usize = 8;
}

/// Outcome of one fault-injection campaign: a program × config point
/// probed at every planned injection boundary.
///
/// Named distinctly from [`crate::stats::ConsistencyReport`], which is
/// the paper's Fig-12 *power-cycle stability* metric — unrelated to
/// crash consistency.
#[derive(Debug, Clone)]
pub struct FaultCampaignReport {
    /// Workload name.
    pub kernel: String,
    /// EHS design label.
    pub design: &'static str,
    /// Governor label.
    pub governor: &'static str,
    /// Injection points actually probed.
    pub injections: usize,
    /// Points whose recovery converged to the golden image.
    pub converged: usize,
    /// Points that hit the simulated-time guard instead of finishing
    /// (harness misconfiguration, counted separately from divergence).
    pub incomplete: usize,
    /// Total decode failures surfaced across all probed runs — injected
    /// payload corruption the checkpoint path *detected* and dropped.
    pub detected_decode_faults: u64,
    /// Points whose final image diverged from golden.
    pub divergences: Vec<Divergence>,
}

impl FaultCampaignReport {
    /// `true` when every probed failure point recovered to the golden
    /// image: the design × governor point is crash-consistent under
    /// this plan.
    pub fn is_consistent(&self) -> bool {
        self.divergences.is_empty() && self.incomplete == 0
    }

    /// `true` when at least one injected corruption was caught — either
    /// as a decode failure or as an image divergence. This is what a
    /// *deliberately broken* checkpoint path must satisfy: silence is
    /// the only failing grade.
    pub fn detected_violation(&self) -> bool {
        self.detected_decode_faults > 0 || !self.divergences.is_empty()
    }

    /// One-line summary for logs and experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{} / {} / {}: {}/{} converged, {} divergent, {} incomplete, {} decode faults",
            self.kernel,
            self.design,
            self.governor,
            self.converged,
            self.injections,
            self.divergences.len(),
            self.incomplete,
            self.detected_decode_faults
        )
    }
}

/// The steady power trace campaigns run under: ample constant power, so
/// the capacitor never crosses the checkpoint threshold on its own and
/// the injected failure is the run's only one.
pub fn steady_trace() -> PowerTrace {
    PowerTrace::constant(Power::from_milliwatts(50.0), 1_000)
}

/// The failure-free reference: final architectural NVM image and stats
/// of one uninterrupted run.
#[derive(Debug, Clone)]
pub struct GoldenState {
    /// Stats of the reference run (always `completed`).
    pub stats: SimStats,
    /// Final NVM with all dirty cache state flushed.
    pub nvm: Nvm,
}

/// Captures the golden state for `program` under `cfg` on the steady
/// trace.
///
/// # Panics
///
/// Panics if the reference run does not complete (the steady trace makes
/// that a configuration error, not an energy outcome), or if
/// `cfg.governor` is an ideal two-phase spec — oracle replay realigns
/// work across power cycles, so a mid-run injection point has no
/// meaning there.
pub fn golden_state(program: &KernelProgram, cfg: &SimConfig) -> GoldenState {
    assert!(
        !cfg.governor.is_ideal(),
        "fault campaigns drive the simulator directly; ideal two-phase specs are not injectable"
    );
    let trace = steady_trace();
    let RunOutput { stats, nvm, .. } = Simulator::new(cfg.clone(), program, &trace).execute();
    assert!(
        stats.completed,
        "golden run of {} under {}/{} hit the time guard — raise cfg.max_sim_time",
        program.name(),
        cfg.design,
        cfg.governor.label()
    );
    GoldenState { stats, nvm }
}

/// Byte-compares two final NVM images over the union of blocks either
/// run materialised, returning the mismatching block indices (capped at
/// [`Divergence::MAX_BLOCKS`]).
///
/// Blocks neither run touched are backed by the same deterministic
/// image, so the union is the complete set of addresses that can
/// possibly differ.
pub fn diff_nvm(golden: &mut Nvm, other: &mut Nvm) -> Vec<u64> {
    let mut indices: std::collections::BTreeSet<u64> =
        golden.resident_indices().into_iter().collect();
    indices.extend(other.resident_indices());
    let mut mismatched = Vec::new();
    for idx in indices {
        let addr = golden.block_addr(idx);
        let reference = golden.peek_block(addr).clone();
        if other.peek_block(addr) != &reference {
            mismatched.push(idx);
            if mismatched.len() >= Divergence::MAX_BLOCKS {
                break;
            }
        }
    }
    mismatched
}

/// Runs one fault-injection campaign: golden capture, then one injected
/// run per plan point (in parallel on the shared worker pool), each
/// diffed against the golden image.
///
/// `kind` is the fault injected at every point; use
/// [`FaultKind::PowerFailure`] to certify crash consistency and the
/// corrupting kinds to certify *detection*.
///
/// # Panics
///
/// Panics under the same conditions as [`golden_state`].
pub fn run_campaign(
    program: &KernelProgram,
    cfg: &SimConfig,
    plan: InjectionPlan,
    kind: FaultKind,
) -> FaultCampaignReport {
    let golden = golden_state(program, cfg);
    let points = plan.points(program.len());
    let trace = steady_trace();

    // Each worker clones the golden NVM: `peek_block` materialises
    // lazily and needs `&mut`, and images here are at most a few
    // thousand small blocks.
    let outcomes = parallel::map(points, |at_inst| {
        let mut sim = Simulator::new(cfg.clone(), program, &trace);
        sim.arm_fault(at_inst, kind);
        let RunOutput { stats, mut nvm, .. } = sim.execute();
        let blocks =
            if stats.completed { diff_nvm(&mut golden.nvm.clone(), &mut nvm) } else { Vec::new() };
        (at_inst, stats.completed, stats.decode_faults, blocks)
    });

    let mut report = FaultCampaignReport {
        kernel: program.name().to_string(),
        design: cfg.design.name(),
        governor: cfg.governor.label(),
        injections: outcomes.len(),
        converged: 0,
        incomplete: 0,
        detected_decode_faults: 0,
        divergences: Vec::new(),
    };
    for (at_inst, completed, decode_faults, blocks) in outcomes {
        report.detected_decode_faults += decode_faults;
        if !completed {
            report.incomplete += 1;
        } else if blocks.is_empty() {
            report.converged += 1;
        } else {
            report.divergences.push(Divergence { at_inst, blocks });
        }
    }
    report
}

/// Store-heavy streaming kernel: `Tiled` stores never revisit a tile,
/// so every written block is written exactly once — a checkpoint that
/// drops one can never be healed by a later store. This is the campaign
/// kernel of choice for torn-checkpoint *detection*.
pub fn fi_stream() -> KernelProgram {
    KernelProgram::new(KernelSpec {
        name: "fi-stream",
        phases: vec![Phase {
            body: vec![
                Op::Store(
                    AddrGen::Tiled { base: 0x1000, tile_span: 64, iters_per_tile: 16, stride: 4 },
                    ValGen::Iter,
                ),
                Op::Alu,
            ],
            iterations: 300,
            code_base: 0x100,
            code_paths: 2,
        }],
        repeats: 1,
        image: ehs_mem::MemoryImage::zeros(),
    })
}

/// Mixed kernel: random loads, wrapping sequential stores (later
/// iterations overwrite earlier ones) and ALU work — exercises recovery
/// when dirty state is both re-read and re-written across the failure.
pub fn fi_mixed() -> KernelProgram {
    KernelProgram::new(KernelSpec {
        name: "fi-mixed",
        phases: vec![Phase {
            body: vec![
                Op::Load(AddrGen::Rand { base: 0x8000, span: 512, salt: 11 }),
                Op::Alu,
                Op::Store(
                    AddrGen::Seq { base: 0x4000, stride: 4, span: 256 },
                    ValGen::Small { magnitude: 200, salt: 7 },
                ),
                Op::Alu,
            ],
            iterations: 200,
            code_base: 0x400,
            code_paths: 2,
        }],
        repeats: 1,
        image: ehs_mem::MemoryImage::zeros(),
    })
}

/// The short synthetic kernels (≲ 1000 dynamic instructions) for which
/// exhaustive per-instruction injection is tractable.
pub fn short_kernels() -> Vec<KernelProgram> {
    vec![fi_stream(), fi_mixed()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EhsDesign, GovernorSpec};

    fn base(design: EhsDesign, gov: GovernorSpec) -> SimConfig {
        SimConfig::table1().with_design(design).with_governor(gov)
    }

    #[test]
    fn plans_generate_expected_points() {
        assert_eq!(InjectionPlan::Exhaustive.points(4), vec![1, 2, 3, 4]);
        assert_eq!(InjectionPlan::Stride { step: 3 }.points(8), vec![1, 4, 7]);
        let sampled = InjectionPlan::Sampled { count: 50, seed: 9 }.points(10_000);
        assert_eq!(sampled.len(), 50);
        assert!(sampled.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(sampled.iter().all(|&p| (1..=10_000).contains(&p)));
        // Deterministic per seed.
        assert_eq!(sampled, InjectionPlan::Sampled { count: 50, seed: 9 }.points(10_000));
        // Saturating: more samples than boundaries degrades to exhaustive.
        assert_eq!(InjectionPlan::Sampled { count: 99, seed: 1 }.points(5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn golden_runs_are_reproducible() {
        let cfg = base(EhsDesign::NvsramCache, GovernorSpec::Acc);
        let program = fi_stream();
        let mut a = golden_state(&program, &cfg);
        let mut b = golden_state(&program, &cfg);
        assert_eq!(a.stats.committed_insts, b.stats.committed_insts);
        assert!(diff_nvm(&mut a.nvm, &mut b.nvm).is_empty());
    }

    #[test]
    fn diff_reports_planted_mismatch() {
        let cfg = base(EhsDesign::NvsramCache, GovernorSpec::NoCompression);
        let program = fi_stream();
        let golden = golden_state(&program, &cfg);
        let mut a = golden.nvm.clone();
        let mut b = golden.nvm.clone();
        let idx = *golden.nvm.resident_indices().first().expect("stores landed in NVM");
        let addr = b.block_addr(idx);
        let mut block = b.peek_block(addr).clone();
        block.as_mut_slice()[0] ^= 0xFF;
        b.store_silent(addr, block);
        assert_eq!(diff_nvm(&mut a, &mut b), vec![idx]);
    }

    #[test]
    fn clean_injection_converges_on_every_design() {
        parallel::set_max_workers(4);
        let program = fi_stream();
        for design in EhsDesign::ALL {
            let report = run_campaign(
                &program,
                &base(design, GovernorSpec::AccKagura(Default::default())),
                InjectionPlan::Stride { step: 37 },
                FaultKind::PowerFailure,
            );
            assert!(report.is_consistent(), "{}", report.summary());
            assert_eq!(report.detected_decode_faults, 0, "{}", report.summary());
        }
    }

    #[test]
    fn torn_checkpoint_is_detected_as_divergence() {
        // The built-in mutation test: a checkpoint that silently drops
        // dirty blocks MUST show up as a divergent image. fi-stream
        // never rewrites a block, so the loss cannot be healed.
        parallel::set_max_workers(4);
        let report = run_campaign(
            &fi_stream(),
            &base(EhsDesign::NvsramCache, GovernorSpec::NoCompression),
            InjectionPlan::Stride { step: 97 },
            FaultKind::TornCheckpoint { persist_blocks: 0 },
        );
        assert!(
            report.detected_violation(),
            "torn checkpoint slipped through: {}",
            report.summary()
        );
        assert!(!report.divergences.is_empty(), "{}", report.summary());
        for d in &report.divergences {
            assert!(!d.blocks.is_empty());
        }
    }

    #[test]
    fn corrupt_payload_is_detected_not_fatal() {
        // A flipped payload bit must surface as a decode fault or an
        // image diff — never as a panic. AlwaysCompress guarantees the
        // checkpoint actually carries compressed blocks.
        parallel::set_max_workers(4);
        let report = run_campaign(
            &fi_stream(),
            &base(EhsDesign::NvsramCache, GovernorSpec::AlwaysCompress),
            InjectionPlan::Stride { step: 61 },
            FaultKind::CorruptPayload { bit: 3 },
        );
        assert!(report.detected_violation(), "corruption went unnoticed: {}", report.summary());
    }

    #[test]
    fn short_kernels_are_exhaustively_tractable() {
        for program in short_kernels() {
            assert!(program.len() <= 1_000, "{} too long for exhaustive injection", program.name());
            let (mem, _) = program.op_mix();
            assert!(mem > 0, "{} must touch memory", program.name());
        }
    }
}
