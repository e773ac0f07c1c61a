//! Integration tests on the simulator's system-level behaviours that unit
//! tests cannot reach: oracle two-phase consistency, NvMR persistence
//! semantics, EDBP's leakage effect, and checkpoint accounting.

use ehs_energy::{EnergyCategory, PowerTrace};
use ehs_sim::{
    run_app, run_program, EhsDesign, Extension, Governor, GovernorSpec, SimConfig, Simulator,
};
use ehs_workloads::App;
use kagura_core::KaguraConfig;

const SCALE: f64 = 0.1;

fn base() -> SimConfig {
    SimConfig::table1()
}

#[test]
fn oracle_recording_run_behaves_like_the_inner_governor() {
    // Phase 1 of the ideal methodology must not perturb execution: each
    // recorder wraps its inner governor transparently, down to every
    // counter and energy accumulator (Kagura's RM accounting and register
    // state included).
    let program = App::G721d.build(SCALE);
    let trace = PowerTrace::generate(base().trace_kind, base().trace_seed, 2_000_000);
    let kcfg = KaguraConfig::default();
    for (spec, recorder) in [
        (GovernorSpec::Acc, Governor::record_acc()),
        (GovernorSpec::AccKagura(kcfg), Governor::record_kagura(kcfg)),
    ] {
        let cfg = base().with_governor(spec);
        let plain = Simulator::new(cfg.clone(), &program, &trace).run();
        let recorded = Simulator::with_governor(cfg, &program, &trace, recorder).execute();
        assert_eq!(plain, recorded.stats, "recorder must be transparent: {}", spec.label());
        let oracle_trace = recorded.oracle.expect("a recorder yields an oracle trace");
        assert!(!oracle_trace.is_empty(), "a multi-cycle run must record cycles");
    }
}

#[test]
fn checkpoint_energy_scales_with_dirty_data() {
    // A store-heavy app checkpoints more bytes than a load-only one.
    let heavy = run_app(App::Jpegd, SCALE, &base());
    let light = run_app(App::Strings, SCALE, &base());
    let per_ckpt = |s: &ehs_sim::SimStats| {
        s.breakdown[EnergyCategory::CheckpointRestore].picojoules() / s.checkpoints.max(1) as f64
    };
    assert!(
        per_ckpt(&heavy) > per_ckpt(&light),
        "jpegd {} pJ/ckpt !> strings {} pJ/ckpt",
        per_ckpt(&heavy),
        per_ckpt(&light)
    );
}

#[test]
fn nvmr_pays_for_stores_up_front_and_checkpoints_nothing() {
    let nvsram = run_app(App::Adpcmd, SCALE, &base());
    let nvmr = run_app(App::Adpcmd, SCALE, &base().with_design(EhsDesign::Nvmr));
    // NvMR has no JIT checkpoint traffic (only the restore-fixed cost),
    // but pays per-store persistence in the Memory bucket.
    assert!(
        nvmr.breakdown[EnergyCategory::CheckpointRestore]
            < nvsram.breakdown[EnergyCategory::CheckpointRestore],
        "NvMR checkpoint bucket should be smaller"
    );
    assert!(
        nvmr.breakdown[EnergyCategory::Memory] > nvsram.breakdown[EnergyCategory::Memory],
        "NvMR store-persist traffic should show up in Memory"
    );
}

#[test]
fn sweepcache_loses_at_most_one_region_per_failure() {
    let stats = run_app(App::Gsm, SCALE, &base().with_design(EhsDesign::SweepCache));
    let lost = stats.executed_insts - stats.committed_insts;
    let bound = stats.checkpoints * base().costs.sweep_region;
    assert!(
        lost <= bound,
        "re-executed {lost} insts but {} failures x {} region = {bound}",
        stats.checkpoints,
        base().costs.sweep_region
    );
}

#[test]
fn edbp_reduces_cache_leakage_share() {
    let mut edbp_cfg = base();
    edbp_cfg.extension = Extension::edbp();
    let plain = run_app(App::Strings, SCALE, &base());
    let edbp = run_app(App::Strings, SCALE, &edbp_cfg);
    // Cache-decay power-gates idle lines: the CacheOther bucket (which
    // holds SRAM leakage) must shrink.
    assert!(
        edbp.breakdown[EnergyCategory::CacheOther] < plain.breakdown[EnergyCategory::CacheOther],
        "EDBP {} !< plain {}",
        edbp.breakdown[EnergyCategory::CacheOther],
        plain.breakdown[EnergyCategory::CacheOther]
    );
}

#[test]
fn ipex_prefetches_only_on_streams() {
    // A pure streaming app gains (or at least doesn't lose) from IPEX; its
    // NVM read count shifts toward prefetches without exploding.
    let mut ipex_cfg = base();
    ipex_cfg.extension = Extension::ipex();
    let plain = run_app(App::Crc32, SCALE, &base());
    let ipex = run_app(App::Crc32, SCALE, &ipex_cfg);
    assert!(ipex.completed);
    // Prefetching must not increase total NVM reads by more than ~30%
    // (a blind next-line prefetcher on random apps would double them).
    assert!(
        (ipex.nvm.reads as f64) < plain.nvm.reads as f64 * 1.3,
        "IPEX reads {} vs plain {}",
        ipex.nvm.reads,
        plain.nvm.reads
    );
}

#[test]
fn voltage_monitor_costs_appear_in_the_other_bucket() {
    // NVSRAMCache carries the monitor; SweepCache does not. With identical
    // policies, the monitor's standby+init draw shows in `Other`.
    let nvsram = run_app(App::Sha, SCALE, &base());
    let sweep = run_app(App::Sha, SCALE, &base().with_design(EhsDesign::SweepCache));
    let per_time = |s: &ehs_sim::SimStats| {
        s.breakdown[EnergyCategory::Other].picojoules() / s.sim_time.seconds()
    };
    assert!(
        per_time(&nvsram) > per_time(&sweep),
        "monitor draw missing: {} !> {}",
        per_time(&nvsram),
        per_time(&sweep)
    );
}

#[test]
fn custom_short_trace_wraps_cyclically() {
    // A short trace must wrap rather than starve the run.
    let program = App::Sha.build(0.05);
    let trace = PowerTrace::generate(base().trace_kind, 3, 1_000); // 10 ms
    let stats = run_program(&program, &trace, &base());
    assert!(stats.completed, "run must survive trace wrap-around");
    assert!(stats.sim_time > trace.duration(), "must actually have wrapped");
}
