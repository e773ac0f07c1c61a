//! Convenience entry points used by examples, tests and the bench harness.

use std::sync::{Arc, Mutex, OnceLock};

use ehs_energy::{PowerTrace, TraceKind};
use ehs_workloads::{App, KernelProgram};

use crate::config::{ConfigError, GovernorSpec, SimConfig};
use crate::governor::Governor;
use crate::machine::{Attach, RunOutput, Simulator};
use crate::stats::SimStats;
use kagura_core::CompressionGovernor as _;

/// Default generated-trace length in 10 µs windows (≈ 40 s of ambient
/// input, far more than any run consumes before wrapping).
const DEFAULT_TRACE_LEN: usize = 4_000_000;

/// Idle trace-cache entries retained beyond the ones currently borrowed
/// by running simulations. Each generated trace is ~32 MB
/// (`DEFAULT_TRACE_LEN` × 8 B), and fleet campaigns use a distinct
/// trace seed per cell — an unbounded cache turns a 10⁵-cell campaign
/// into terabytes of dead traces. Entries still referenced by a running
/// simulation are never evicted, so the cache can exceed this cap while
/// that many distinct traces are simultaneously in use.
const TRACE_CACHE_IDLE_CAP: usize = 8;

/// Cached traces in recency order, least recently used first.
type TraceCache = Mutex<Vec<TraceEntry>>;
type TraceEntry = ((TraceKind, u64), Arc<PowerTrace>);

fn trace_cache() -> &'static TraceCache {
    static CACHE: OnceLock<TraceCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Current number of cached traces (bounded-cache regression tests).
#[cfg(test)]
fn trace_cache_len() -> usize {
    trace_cache().lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Generates (or fetches from a process-wide cache) the configuration's
/// default power trace. Generation is deterministic per `(kind, seed)`, so
/// sharing one copy across the many runs of an experiment sweep is both
/// safe and substantially faster. The cache is bounded: once it exceeds
/// [`TRACE_CACHE_IDLE_CAP`] entries, the least recently used traces no
/// longer borrowed by any caller are evicted, keeping resident memory flat
/// even when every run uses a fresh seed (fleet campaigns). Which trace
/// goes depends only on the order of the calls, so a caller that keeps
/// coming back to its trace never pays for it twice.
///
/// Concurrency: two workers racing on the same key may both generate the
/// trace; the first insert wins and the second caller gets that copy
/// (generation is deterministic, so the copies are identical). The lock
/// is never held across generation, and a panicked worker elsewhere in
/// the sweep cannot wedge the cache — poisoning is recovered, since the
/// list is only ever mutated by complete `push`/`remove`/`retain` calls.
pub fn default_trace(cfg: &SimConfig) -> Arc<PowerTrace> {
    let key = (cfg.trace_kind, cfg.trace_seed);
    let lock = || trace_cache().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(trace) = touch(&mut lock(), key) {
        return trace;
    }
    let trace = Arc::new(PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, DEFAULT_TRACE_LEN));
    let mut lru = lock();
    if let Some(won) = touch(&mut lru, key) {
        return won;
    }
    lru.push((key, Arc::clone(&trace)));
    let mut excess = lru.len().saturating_sub(TRACE_CACHE_IDLE_CAP);
    // Evict the oldest entries nobody is running on (strong_count 1 =
    // only the cache holds it); in-flight traces stay shared until dropped.
    lru.retain(|(k, v)| {
        let evict = excess > 0 && Arc::strong_count(v) == 1 && *k != key;
        excess -= usize::from(evict);
        !evict
    });
    trace
}

/// The cached trace for `key`, marked most recently used.
fn touch(lru: &mut Vec<TraceEntry>, key: (TraceKind, u64)) -> Option<Arc<PowerTrace>> {
    let i = lru.iter().position(|(k, _)| *k == key)?;
    let entry = lru.remove(i);
    let trace = Arc::clone(&entry.1);
    lru.push(entry);
    Some(trace)
}

/// Runs `program` under `cfg` with the given trace.
///
/// Ideal (two-phase) governor specs are decomposed automatically.
pub fn run_program(program: &KernelProgram, trace: &PowerTrace, cfg: &SimConfig) -> SimStats {
    run_program_with(program, trace, cfg, Attach::default()).stats
}

/// Runs `app` at workload `scale` under `cfg` with the config's default
/// generated trace.
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn run_app(app: App, scale: f64, cfg: &SimConfig) -> SimStats {
    let program = app.build(scale);
    let trace = default_trace(cfg);
    run_program(&program, &trace, cfg)
}

/// Runs `program` under `cfg` with `attach` applied and returns
/// everything the run produced. The stats are identical to
/// [`run_program`]'s whatever is attached.
///
/// Ideal (two-phase) specs are decomposed automatically, and the
/// attachments apply to the replay phase only: the recording pass is
/// oracle scaffolding, not the behavior under study.
pub fn run_program_with<'p>(
    program: &'p KernelProgram,
    trace: &'p PowerTrace,
    cfg: &SimConfig,
    attach: Attach<'p>,
) -> RunOutput {
    let recorder = match cfg.governor {
        GovernorSpec::IdealAcc => Some(Governor::record_acc()),
        GovernorSpec::IdealAccKagura(kcfg) => Some(Governor::record_kagura(kcfg)),
        _ => None,
    };
    // Spec-derived recorders always match their own spec.
    let replayer = recorder
        .map(|r| ideal_replayer(program, trace, cfg, r).expect("spec-derived recorder validates"));
    run_attached(program, trace, cfg, replayer, attach)
}

/// One run under `gov`, or under the spec's own governor when `None`.
fn run_attached<'p>(
    program: &'p KernelProgram,
    trace: &'p PowerTrace,
    cfg: &SimConfig,
    gov: Option<Governor>,
    attach: Attach<'p>,
) -> RunOutput {
    let mut sim = match gov {
        Some(g) => Simulator::with_governor(cfg.clone(), program, trace, g),
        None => Simulator::new(cfg.clone(), program, trace),
    };
    sim.attach(attach);
    sim.execute()
}

/// Explicit two-phase ideal run (paper Fig 13's "ideal" methodology):
/// record which compressions pay off, then replay compressing only those.
///
/// Returns a [`ConfigError`] — *before* any simulation work — when
/// `recorder` is not a recording governor, or when it is a Kagura
/// recorder but `cfg.governor` carries no Kagura config for the replay
/// phase to reuse.
pub fn run_ideal_app(
    app: App,
    scale: f64,
    cfg: &SimConfig,
    recorder: Governor,
) -> Result<SimStats, ConfigError> {
    let program = app.build(scale);
    let trace = default_trace(cfg);
    let replayer = ideal_replayer(&program, &trace, cfg, recorder)?;
    Ok(run_attached(&program, &trace, cfg, Some(replayer), Attach::default()).stats)
}

/// Rejects recorder/spec combinations the replay phase cannot honor.
///
/// A Kagura recorder must replay with the very Kagura parameters the
/// recording phase observed; silently substituting defaults would make
/// the "ideal" comparison quietly measure the wrong config. Checked up
/// front so a bad grid point fails fast instead of after the (expensive)
/// recording pass.
fn validate_recorder(recorder: &Governor, spec: &GovernorSpec) -> Result<(), ConfigError> {
    if !recorder.is_recorder() {
        return Err(ConfigError::NotARecorder { governor: recorder.name() });
    }
    if matches!(recorder, Governor::RecordKagura(_))
        && !matches!(spec, GovernorSpec::IdealAccKagura(_) | GovernorSpec::AccKagura(_))
    {
        return Err(ConfigError::RecorderMismatch { recorder: "ACC+Kagura", spec: spec.label() });
    }
    Ok(())
}

/// Phase 1 of the ideal methodology: runs `recorder` and returns the
/// phase-2 governor that replays its oracle trace.
fn ideal_replayer(
    program: &KernelProgram,
    trace: &PowerTrace,
    cfg: &SimConfig,
    recorder: Governor,
) -> Result<Governor, ConfigError> {
    validate_recorder(&recorder, &cfg.governor)?;
    let is_kagura = matches!(recorder, Governor::RecordKagura(_));
    let oracle = Simulator::with_governor(cfg.clone(), program, trace, recorder)
        .execute()
        .oracle
        .expect("a validated recorder yields an oracle trace");
    Ok(if is_kagura {
        let kcfg = match cfg.governor {
            GovernorSpec::IdealAccKagura(k) | GovernorSpec::AccKagura(k) => k,
            // validate_recorder rejected every other spec before the run.
            _ => unreachable!("validate_recorder admits only Kagura-carrying specs"),
        };
        Governor::replay_kagura(kcfg, oracle)
    } else {
        Governor::replay_acc(oracle)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GovernorSpec;
    use ehs_workloads::App;

    #[test]
    fn ideal_runs_complete_and_avoid_useless_compressions() {
        let acc = run_app(App::Jpegd, 0.02, &SimConfig::table1().with_governor(GovernorSpec::Acc));
        let ideal =
            run_app(App::Jpegd, 0.02, &SimConfig::table1().with_governor(GovernorSpec::IdealAcc));
        assert!(ideal.completed);
        assert!(
            ideal.compression_ops() <= acc.compression_ops(),
            "ideal ({}) must not compress more than ACC ({})",
            ideal.compression_ops(),
            acc.compression_ops()
        );
    }

    #[test]
    fn ideal_kagura_completes() {
        let cfg =
            SimConfig::table1().with_governor(GovernorSpec::IdealAccKagura(Default::default()));
        let stats = run_app(App::Gsm, 0.02, &cfg);
        assert!(stats.completed);
        // The replay phase drives a live Kagura: its RM-averted fills and
        // final register state reach the stats like the deployed policy's.
        assert!(stats.rm_bypassed_fills > 0, "no RM-bypassed fills reported");
        assert!(stats.kagura_state.is_some(), "no Kagura register state reported");
    }

    #[test]
    fn telemetry_runner_matches_plain_runner() {
        use ehs_telemetry::NullSink;

        for gov in [
            GovernorSpec::Acc,
            GovernorSpec::AccKagura(Default::default()),
            GovernorSpec::IdealAccKagura(Default::default()),
        ] {
            let cfg = SimConfig::table1().with_governor(gov);
            let plain = run_app(App::Sha, 0.01, &cfg);
            let mut sink = NullSink;
            let program = App::Sha.build(0.01);
            let trace = default_trace(&cfg);
            let attach = Attach { telemetry: Some(&mut sink), ..Attach::default() };
            let out = run_program_with(&program, &trace, &cfg, attach);
            assert_eq!(out.stats, plain, "{gov:?}");
            assert!(out.metrics.is_some(), "{gov:?}");
        }
    }

    #[test]
    fn mismatched_recorder_is_rejected_before_the_run() {
        use crate::config::ConfigError;

        // A Kagura recorder against a plain-ACC spec: the replay phase
        // would have no Kagura config to reuse.
        let cfg = SimConfig::table1().with_governor(GovernorSpec::IdealAcc);
        let err = run_ideal_app(App::Sha, 0.01, &cfg, Governor::record_kagura(Default::default()))
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::RecorderMismatch { recorder: "ACC+Kagura", spec: "ideal ACC" }
        );
        assert!(err.to_string().contains("ACC+Kagura"), "{err}");

        // A non-recording governor cannot drive the two-phase methodology.
        let err = run_ideal_app(App::Sha, 0.01, &cfg, Governor::acc()).unwrap_err();
        assert_eq!(err, ConfigError::NotARecorder { governor: "ACC" });
    }

    #[test]
    fn trace_cache_stays_bounded_across_fresh_seeds() {
        // Fleet campaigns request a distinct trace seed per cell; the
        // cache must evict idle traces instead of growing linearly with
        // the population (each entry is ~32 MB).
        let mut cfg = SimConfig::table1();
        for seed in 0..3 * TRACE_CACHE_IDLE_CAP as u64 {
            cfg.trace_seed = 0xF1EE_0000 + seed;
            drop(default_trace(&cfg));
        }
        // Other tests in this process share the cache and may be holding
        // live (unevictable) traces, hence the slack on top of the cap.
        let len = trace_cache_len();
        assert!(len <= TRACE_CACHE_IDLE_CAP + 16, "trace cache grew unbounded: {len} entries");
        // The hit path still shares: same seed, same allocation.
        let a = default_trace(&cfg);
        let b = default_trace(&cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn trace_cache_evicts_least_recently_used_first() {
        // A trace its caller keeps coming back to must survive any number
        // of fresh seeds passing through: eviction takes the oldest idle
        // entry, never an arbitrary one.
        let mut kept = SimConfig::table1();
        kept.trace_seed = 0x1EA5_7000;
        let first = Arc::downgrade(&default_trace(&kept));
        let mut fresh = SimConfig::table1();
        for seed in 0..TRACE_CACHE_IDLE_CAP as u64 + 4 {
            drop(default_trace(&kept));
            fresh.trace_seed = 0x1EA5_7001 + seed;
            drop(default_trace(&fresh));
        }
        let again = default_trace(&kept);
        assert!(first.upgrade().is_some_and(|t| Arc::ptr_eq(&t, &again)), "kept trace was evicted");
    }

    #[test]
    fn run_app_matches_run_program() {
        let cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
        let a = run_app(App::Sha, 0.01, &cfg);
        let program = App::Sha.build(0.01);
        let trace = default_trace(&cfg);
        let b = run_program(&program, &trace, &cfg);
        assert_eq!(a.sim_time, b.sim_time);
    }
}
