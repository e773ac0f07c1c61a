//! Telemetry-attached differential: an observed run follows the same
//! machine step as a detached one, so attaching a sink under the default
//! FastForward mode must produce exactly what the all-skips-off Reference
//! mode produces — the same event stream (flight records included), the
//! same metric snapshots, and the same stats — and the stats must match
//! a detached run too.
//!
//! The cases cross the places where the fast path skips work an observer
//! could see: shallow cache-hit commits (Jpegd's stores expand compressed
//! lines in regular mode that are later hit shallowly; ICache blocks
//! refilled uncompressed after an unused compressed fill), voltage
//! samples, every EHS design, EDBP's scan boundary, a
//! checkpoint-corrupting fault, and the ideal governor's replay phase.

use ehs_telemetry::{Event, MetricsRegistry, Stamped, VecSink};
use kagura::core::{KaguraConfig, TriggerKind};
use kagura::mem::MemoryImage;
use kagura::sim::runner::default_trace;
use kagura::sim::{
    run_program, run_program_with, Attach, EhsDesign, ExecMode, Extension, FaultKind, GovernorSpec,
    SimConfig, SimStats,
};
use kagura::workloads::{AddrGen, App, KernelProgram, KernelSpec, Op, Phase};

const SCALE: f64 = 0.004;

/// One attached run under `exec`.
fn attached(
    program: &KernelProgram,
    cfg: &SimConfig,
    exec: ExecMode,
    fault: Option<(u64, FaultKind)>,
) -> (SimStats, MetricsRegistry, Vec<Stamped>) {
    let trace = default_trace(cfg);
    let mut sink = VecSink::new();
    let attach = Attach { telemetry: Some(&mut sink), fault, ..Attach::default() };
    let out = run_program_with(program, &trace, &cfg.clone().with_exec(exec), attach);
    (out.stats, out.metrics.expect("telemetry attached"), sink.into_events())
}

/// Asserts FastForward and Reference agree byte for byte with telemetry
/// attached, and that attaching perturbs nothing. Returns the events.
fn assert_attached_loops_match(
    program: &KernelProgram,
    cfg: &SimConfig,
    fault: Option<(u64, FaultKind)>,
) -> Vec<Stamped> {
    let label = format!(
        "{} design={:?} gov={:?} ext={:?}",
        program.name(),
        cfg.design,
        cfg.governor,
        cfg.extension
    );
    let (fast, fast_metrics, fast_events) = attached(program, cfg, ExecMode::FastForward, fault);
    let (reference, ref_metrics, ref_events) = attached(program, cfg, ExecMode::Reference, fault);
    assert_eq!(fast_events.len(), ref_events.len(), "event count diverged: {label}");
    for (i, (f, r)) in fast_events.iter().zip(&ref_events).enumerate() {
        assert_eq!(format!("{f:?}"), format!("{r:?}"), "event {i} diverged: {label}");
    }
    assert_eq!(
        format!("{fast_metrics:?}"),
        format!("{ref_metrics:?}"),
        "metric snapshots diverged: {label}"
    );
    assert_eq!(fast, reference, "stats diverged: {label}");
    if fault.is_none() {
        let detached = run_program(program, &default_trace(cfg), cfg);
        assert_eq!(fast, detached, "telemetry perturbed the run: {label}");
    }
    let flights = fast_events.iter().filter(|s| matches!(s.event, Event::FlightRecord(_))).count();
    assert_eq!(flights as u64, fast.checkpoints, "one flight record per power failure: {label}");
    assert!(flights > 0, "{label}: no power failure observed");
    fast_events
}

fn kagura() -> GovernorSpec {
    GovernorSpec::AccKagura(KaguraConfig::default())
}

#[test]
fn kagura_on_jpegd_credits_shallow_hits_on_expanded_fills() {
    let events = assert_attached_loops_match(
        &App::Jpegd.build(SCALE),
        &SimConfig::table1().with_governor(kagura()),
        None,
    );
    let wasted: u64 = events
        .iter()
        .filter_map(|s| match &s.event {
            Event::FlightRecord(r) => Some(r.wasted_fills),
            _ => None,
        })
        .sum();
    let compressed =
        events.iter().filter(|s| matches!(s.event, Event::CompressedFill { .. })).count() as u64;
    assert!(wasted < compressed, "some compressed fills must be re-referenced");
}

/// One loop of a Load and eight ALU ops over 16 code paths of all-zero
/// (maximally compressible) code. Each path's body ends one instruction
/// into a second ICache block, and the paths thrash the 4-set ICache, so
/// a tail block that Kagura's compression mode fills compressed is often
/// evicted before its next fetch. Once Kagura switches to regular mode in
/// the same power cycle, the block is refilled uncompressed and then hit
/// shallowly — the only hit that ever re-references the compressed fill.
fn thrashing_tail_blocks() -> KernelProgram {
    let mut body = vec![Op::Load(AddrGen::Seq { base: 0x20_0000, stride: 4, span: 128 })];
    body.extend([Op::Alu; 8]);
    KernelProgram::new(KernelSpec {
        name: "tail-blocks",
        phases: vec![Phase { body, iterations: 4000, code_base: 0x10_0000, code_paths: 16 }],
        repeats: 1,
        image: MemoryImage::zeros(),
    })
}

#[test]
fn kagura_credits_shallow_icache_hits_on_refilled_blocks() {
    let cfg = SimConfig::table1().with_governor(kagura());
    let program = thrashing_tail_blocks();
    let icache = run_program(&program, &default_trace(&cfg), &cfg).icache;
    assert!(icache.compressed_evictions > 0, "no compressed ICache block evicted: {icache:?}");
    assert!(icache.bypassed_fills > 0, "no ICache refill in regular mode: {icache:?}");
    assert_attached_loops_match(&program, &cfg, None);
}

#[test]
fn voltage_triggered_kagura() {
    let kcfg =
        KaguraConfig { trigger: TriggerKind::Voltage { fraction: 0.5 }, ..Default::default() };
    let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(kcfg));
    assert_attached_loops_match(&App::G721d.build(SCALE), &cfg, None);
}

#[test]
fn every_design() {
    for design in EhsDesign::ALL {
        let cfg = SimConfig::table1().with_design(design).with_governor(kagura());
        assert_attached_loops_match(&App::Sha.build(SCALE), &cfg, None);
    }
}

#[test]
fn edbp_scan_boundaries() {
    let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
    cfg.extension = Extension::Edbp { decay_ticks: 64 };
    assert_attached_loops_match(&App::Dijkstra.build(SCALE), &cfg, None);
}

#[test]
fn armed_corrupt_payload_fault() {
    let cfg = SimConfig::table1().with_governor(kagura());
    let fault = Some((1_500, FaultKind::CorruptPayload { bit: 5 }));
    assert_attached_loops_match(&App::Jpegd.build(SCALE), &cfg, fault);
}

#[test]
fn ideal_kagura_replay_reports_its_kagura_state() {
    let cfg = SimConfig::table1().with_governor(GovernorSpec::IdealAccKagura(Default::default()));
    let events = assert_attached_loops_match(&App::G721d.build(SCALE), &cfg, None);
    // The replay phase drives a live Kagura: its flight records carry the
    // controller's mode and registers, not the no-controller placeholder.
    for s in &events {
        if let Event::FlightRecord(r) = &s.event {
            assert!(r.mode == "CM" || r.mode == "RM", "flight record mode {:?}", r.mode);
        }
    }
}
