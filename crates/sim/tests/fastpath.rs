//! Fast-path certification: the default [`ExecMode::FastForward`] must
//! be *bit-identical* to [`ExecMode::Reference`] — the same machine step
//! with every skip turned off (shadow tags, deep-hit credit and the full
//! cache paths always; a voltage sample every step; the capacitor's own
//! `below_checkpoint()`). Same `SimStats` (every f64
//! energy accumulator included, so a single rounding difference fails),
//! and the same architectural NVM image under fault injection.
//!
//! The matrix deliberately crosses the fast path's specialisations:
//! shallow ICache commits (Sha is ALU-heavy), compression-heavy repacking
//! (Jpegd), every EHS design (SweepCache exercises rollback re-seeks),
//! voltage-triggered Kagura (per-instruction voltage samples kept),
//! recording/replaying oracle governors (shadow tags kept), both
//! extensions (EDBP's periodic scan; IPEX prefetch), and armed
//! instruction budgets.

use ehs_compress::Algorithm;
use ehs_sim::faultinject::diff_nvm;
use ehs_sim::{
    Attach, CachescopeConfig, EhsDesign, ExecMode, Extension, FaultKind, GovernorSpec,
    LeakscopeOptions, SimConfig, SimStats, Simulator, StepBudget,
};
use ehs_workloads::App;
use kagura_core::{KaguraConfig, TriggerKind};

/// Runs `app` under both loops and asserts identical stats.
fn assert_loops_match(app: App, scale: f64, cfg: &SimConfig) -> SimStats {
    let fast = ehs_sim::run_app(app, scale, &cfg.clone().with_exec(ExecMode::FastForward));
    let reference = ehs_sim::run_app(app, scale, &cfg.clone().with_exec(ExecMode::Reference));
    assert_eq!(
        fast, reference,
        "fast-forward diverged from reference: {app:?} design={:?} gov={:?} ext={:?}",
        cfg.design, cfg.governor, cfg.extension
    );
    fast
}

#[test]
fn fast_forward_matches_reference_on_every_app() {
    for app in App::ALL {
        let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
        let stats = assert_loops_match(app, 0.004, &cfg);
        assert!(stats.committed_insts > 0, "{app:?} ran nothing");
    }
}

#[test]
fn fast_forward_matches_reference_across_designs_and_governors() {
    let governors = [
        GovernorSpec::NoCompression,
        GovernorSpec::AlwaysCompress,
        GovernorSpec::Acc,
        GovernorSpec::AccKagura(Default::default()),
    ];
    for app in [App::Sha, App::Jpegd] {
        for design in EhsDesign::ALL {
            for gov in governors {
                let cfg = SimConfig::table1().with_design(design).with_governor(gov);
                assert_loops_match(app, 0.004, &cfg);
            }
        }
    }
}

#[test]
fn fast_forward_matches_reference_for_voltage_triggered_kagura() {
    // A voltage trigger makes the governor consume every per-instruction
    // voltage sample: the sample must not be skipped. Crc32 is ALU-heavy,
    // so a sample skipped on a shallow-hit step would show.
    let kcfg =
        KaguraConfig { trigger: TriggerKind::Voltage { fraction: 0.5 }, ..Default::default() };
    for app in [App::Crc32, App::G721d] {
        let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(kcfg));
        assert_loops_match(app, 0.004, &cfg);
    }
}

#[test]
fn fast_forward_matches_reference_for_ideal_governors() {
    // Oracle record + replay phases both run on the fast loop; the
    // recording phase keeps shadow tags and deep-hit credit live.
    for gov in [GovernorSpec::IdealAcc, GovernorSpec::IdealAccKagura(Default::default())] {
        let cfg = SimConfig::table1().with_governor(gov);
        assert_loops_match(App::Gsm, 0.004, &cfg);
    }
}

#[test]
fn fast_forward_matches_reference_under_extensions() {
    for ext in [Extension::Edbp { decay_ticks: 64 }, Extension::Ipex { min_energy_fraction: 0.2 }] {
        for app in [App::Sha, App::Dijkstra] {
            let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
            cfg.extension = ext;
            assert_loops_match(app, 0.004, &cfg);
        }
    }
}

#[test]
fn fast_forward_matches_reference_with_instruction_budget() {
    // An armed instruction budget: the run must stop at the exact same
    // instruction with the same exhaustion reason.
    let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
    cfg.step_budget = StepBudget::insts(5_000);
    let stats = assert_loops_match(App::Sha, 0.02, &cfg);
    assert!(stats.budget_exhausted.is_some(), "budget should have fired");
    assert_eq!(stats.executed_insts, 5_000);
}

/// Runs `app` with a cachescope under both loops and asserts identical
/// stats *and* identical cachescope reports — counters, histograms,
/// boundary rows, occupancy snapshots, latency attribution, all of it.
fn assert_cachescope_matches(app: App, scale: f64, cfg: &SimConfig) {
    // A short period so many snapshots land mid-cycle.
    let scope = CachescopeConfig::periodic(512);
    let program = app.build(scale);
    let trace = ehs_sim::runner::default_trace(cfg);
    let run = |exec: ExecMode| {
        let attach = Attach { cachescope: Some(scope), ..Attach::default() };
        let out = ehs_sim::run_program_with(&program, &trace, &cfg.clone().with_exec(exec), attach);
        (out.stats, out.cachescope.expect("cachescope attached"))
    };
    let (fast, fast_rep) = run(ExecMode::FastForward);
    let (reference, ref_rep) = run(ExecMode::Reference);
    assert_eq!(
        fast, reference,
        "stats diverged with cachescope attached: {app:?} gov={:?} ext={:?}",
        cfg.governor, cfg.extension
    );
    assert_eq!(
        fast_rep, ref_rep,
        "cachescope report diverged between loops: {app:?} gov={:?} ext={:?}",
        cfg.governor, cfg.extension
    );
    // The attribution buckets exactly partition the run's cycles.
    assert_eq!(fast_rep.latency.total(), fast.total_cycles, "{app:?}");
    assert!(!fast_rep.cycles.is_empty(), "{app:?} recorded no boundary rows");
    assert!(!fast_rep.snapshots.is_empty(), "{app:?} sampled no occupancy snapshots");
    // Probe counters agree with the caches' own stats.
    assert_eq!(fast_rep.dcache.counters.fills, fast.dcache.fills, "{app:?}");
    assert_eq!(fast_rep.dcache.counters.hits, fast.dcache.hits(), "{app:?}");
    assert_eq!(fast_rep.icache.counters.hits, fast.icache.hits(), "{app:?}");
    assert_eq!(
        fast_rep.dcache.counters.capacity_evictions + fast_rep.dcache.counters.forced_evictions,
        fast.dcache.evictions,
        "{app:?}"
    );
    // And attaching the scope never perturbed the simulation itself.
    let plain = ehs_sim::run_app(app, scale, cfg);
    assert_eq!(fast, plain, "cachescope perturbed the run: {app:?}");
}

#[test]
fn cachescope_reports_match_between_loops() {
    for gov in [GovernorSpec::Acc, GovernorSpec::AccKagura(Default::default())] {
        // Sha exercises shallow ICache commits between snapshots; Jpegd
        // exercises compression-heavy repacking.
        for app in [App::Sha, App::Jpegd] {
            let cfg = SimConfig::table1().with_governor(gov);
            assert_cachescope_matches(app, 0.004, &cfg);
        }
    }
}

#[test]
fn cachescope_reports_match_under_edbp_and_sweepcache() {
    // EDBP makes forced (dead-block) evictions flow through the probe and
    // runs a second countdown beside the snapshot one.
    let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
    cfg.extension = Extension::Edbp { decay_ticks: 64 };
    assert_cachescope_matches(App::Dijkstra, 0.004, &cfg);
    // SweepCache rolls `inst_index` backwards at power failure; boundary
    // rows and snapshot points must still agree.
    let cfg = SimConfig::table1()
        .with_design(EhsDesign::SweepCache)
        .with_governor(GovernorSpec::AccKagura(Default::default()));
    assert_cachescope_matches(App::Sha, 0.004, &cfg);
}

#[test]
fn leakscope_attack_matches_between_loops() {
    // The whole attack — probe-by-probe attacker timeline, recovered
    // bytes, effort accounting and every f64 channel estimate — must be
    // bit-identical whichever loop drives the probe micro-runs. One
    // attackable compressor and the randomized-threshold countermeasure
    // (whose per-fill RNG draws must consume identically in both loops).
    let opts = LeakscopeOptions::default();
    for gov in [GovernorSpec::AlwaysCompress, GovernorSpec::RandThreshold(Default::default())] {
        let mut cfg = SimConfig::table1().with_governor(gov);
        cfg.algorithm = Algorithm::CPack;
        let fast = ehs_sim::attack_cell(&cfg.clone().with_exec(ExecMode::FastForward), &opts);
        let reference = ehs_sim::attack_cell(&cfg.clone().with_exec(ExecMode::Reference), &opts);
        assert_eq!(
            fast.probes, reference.probes,
            "attacker timeline diverged between loops: gov={:?}",
            cfg.governor
        );
        assert_eq!(fast.mi_bits.to_bits(), reference.mi_bits.to_bits(), "gov={:?}", cfg.governor);
        assert_eq!(
            fast.capacity_bits.to_bits(),
            reference.capacity_bits.to_bits(),
            "gov={:?}",
            cfg.governor
        );
        assert_eq!(fast, reference, "attack report diverged between loops: gov={:?}", cfg.governor);
    }
}

#[test]
fn leak_timeline_matches_between_loops_and_never_perturbs() {
    // A real app (not a probe micro-kernel) with the per-access timeline
    // attached: both loops must record the same accesses in the same
    // order, and attaching the probe must not perturb the run itself.
    let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
    let program = App::Sha.build(0.004);
    let trace = ehs_sim::attack_trace(&cfg);
    let run = |exec: ExecMode| {
        let attach = Attach { leak_timeline: Some(2048), ..Attach::default() };
        let out = ehs_sim::run_program_with(&program, &trace, &cfg.clone().with_exec(exec), attach);
        (out.stats, out.leak_timeline.expect("leak timeline attached"))
    };
    let (fast, fast_tl) = run(ExecMode::FastForward);
    let (reference, ref_tl) = run(ExecMode::Reference);
    assert_eq!(fast, reference, "stats diverged with the leak timeline attached");
    assert_eq!(fast_tl.records(), ref_tl.records(), "timeline records diverged between loops");
    assert_eq!(fast_tl.dropped(), ref_tl.dropped());
    assert!(!fast_tl.records().is_empty(), "timeline recorded nothing");
    let plain = ehs_sim::run_program(&program, &trace, &cfg);
    assert_eq!(fast, plain, "leak timeline perturbed the run");
}

#[test]
fn fault_injection_images_match_between_loops() {
    // Under injected faults (including the checkpoint-mutating kinds) the
    // two loops must agree on both the stats and the post-run
    // architectural memory image, byte for byte.
    let program = App::Sha.build(0.004);
    let faults = [
        FaultKind::PowerFailure,
        FaultKind::TornCheckpoint { persist_blocks: 1 },
        FaultKind::CorruptPayload { bit: 5 },
    ];
    for design in EhsDesign::ALL {
        for (i, kind) in faults.iter().enumerate() {
            let cfg = SimConfig::table1()
                .with_design(design)
                .with_governor(GovernorSpec::AccKagura(Default::default()));
            let at = 1_000 + 777 * i as u64;
            let trace = ehs_energy::PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
            let run = |exec: ExecMode| {
                let mut sim = Simulator::new(cfg.clone().with_exec(exec), &program, &trace);
                sim.arm_fault(at, *kind);
                let out = sim.execute();
                (out.stats, out.nvm)
            };
            let (fast_stats, mut fast_nvm) = run(ExecMode::FastForward);
            let (ref_stats, mut ref_nvm) = run(ExecMode::Reference);
            assert_eq!(fast_stats, ref_stats, "stats diverged under {kind:?} at {at} ({design:?})");
            let diff = diff_nvm(&mut ref_nvm, &mut fast_nvm);
            assert!(
                diff.is_empty(),
                "NVM image diverged under {kind:?} at {at} ({design:?}): {} blocks differ",
                diff.len()
            );
        }
    }
}
