//! Telemetry-attached differential: an observed run follows the same
//! machine step as a detached one, so attaching a sink under the default
//! FastForward mode must produce exactly what the all-skips-off Reference
//! mode produces — the same event stream (flight records included), the
//! same metric snapshots, and the same stats — and the stats must match
//! a detached run too.
//!
//! The cases cross the places where the fast path skips work an observer
//! could see: shallow cache-hit commits (Jpegd's stores expand compressed
//! lines in regular mode that are later hit shallowly), batched ALU runs,
//! voltage samples, every EHS design, EDBP's scan boundary, a
//! checkpoint-corrupting fault, and the ideal governor's replay phase.

use ehs_telemetry::{Event, MetricsRegistry, Stamped, VecSink};
use kagura::core::{KaguraConfig, TriggerKind};
use kagura::sim::runner::default_trace;
use kagura::sim::{
    run_program, run_program_with, Attach, EhsDesign, ExecMode, Extension, FaultKind, GovernorSpec,
    SimConfig, SimStats,
};
use kagura::workloads::App;

const SCALE: f64 = 0.004;

/// One attached run under `exec`.
fn attached(
    app: App,
    cfg: &SimConfig,
    exec: ExecMode,
    fault: Option<(u64, FaultKind)>,
) -> (SimStats, MetricsRegistry, Vec<Stamped>) {
    let program = app.build(SCALE);
    let trace = default_trace(cfg);
    let mut sink = VecSink::new();
    let attach = Attach { telemetry: Some(&mut sink), fault, ..Attach::default() };
    let out = run_program_with(&program, &trace, &cfg.clone().with_exec(exec), attach);
    (out.stats, out.metrics.expect("telemetry attached"), sink.into_events())
}

/// Asserts FastForward and Reference agree byte for byte with telemetry
/// attached, and that attaching perturbs nothing. Returns the events.
fn assert_attached_loops_match(
    app: App,
    cfg: &SimConfig,
    fault: Option<(u64, FaultKind)>,
) -> Vec<Stamped> {
    let label =
        format!("{app:?} design={:?} gov={:?} ext={:?}", cfg.design, cfg.governor, cfg.extension);
    let (fast, fast_metrics, fast_events) = attached(app, cfg, ExecMode::FastForward, fault);
    let (reference, ref_metrics, ref_events) = attached(app, cfg, ExecMode::Reference, fault);
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
        let program = app.build(SCALE);
        let detached = run_program(&program, &default_trace(cfg), cfg);
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
    let events =
        assert_attached_loops_match(App::Jpegd, &SimConfig::table1().with_governor(kagura()), None);
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

#[test]
fn voltage_triggered_kagura() {
    let kcfg =
        KaguraConfig { trigger: TriggerKind::Voltage { fraction: 0.5 }, ..Default::default() };
    let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(kcfg));
    assert_attached_loops_match(App::G721d, &cfg, None);
}

#[test]
fn every_design() {
    for design in EhsDesign::ALL {
        let cfg = SimConfig::table1().with_design(design).with_governor(kagura());
        assert_attached_loops_match(App::Sha, &cfg, None);
    }
}

#[test]
fn edbp_scan_boundaries() {
    let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
    cfg.extension = Extension::Edbp { decay_ticks: 64 };
    assert_attached_loops_match(App::Dijkstra, &cfg, None);
}

#[test]
fn armed_corrupt_payload_fault() {
    let cfg = SimConfig::table1().with_governor(kagura());
    let fault = Some((1_500, FaultKind::CorruptPayload { bit: 5 }));
    assert_attached_loops_match(App::Jpegd, &cfg, fault);
}

#[test]
fn ideal_kagura_replay_reports_its_kagura_state() {
    let cfg = SimConfig::table1().with_governor(GovernorSpec::IdealAccKagura(Default::default()));
    let events = assert_attached_loops_match(App::G721d, &cfg, None);
    // The replay phase drives a live Kagura: its flight records carry the
    // controller's mode and registers, not the no-controller placeholder.
    for s in &events {
        if let Event::FlightRecord(r) = &s.event {
            assert!(r.mode == "CM" || r.mode == "RM", "flight record mode {:?}", r.mode);
        }
    }
}
