//! The two simulation workloads: `paper-grid` (the paper's headline
//! grid on the parallel pool) and `brownout-cpack` (memory-bound apps
//! under frequent power failure, single-threaded).

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use ehs_compress::Algorithm;
use ehs_energy::{CapacitorConfig, PowerTrace};
use ehs_sim::{parallel, ExecMode, GovernorSpec, SimConfig, SimJob, SimStats, Simulator};
use ehs_workloads::{App, KernelProgram};

use serde_json::Value;

use crate::layers::{self, CellRun};
use crate::util::{fnv1a, host_cores, median, mix, peak_rss_mb, quantile};
use crate::{golden, spans, Outcome};

/// Program scale of every simulation cell (1.0 ≈ 0.3–0.6 M instructions).
pub const SCALE: f64 = 2.0;
/// Power-trace length, the runner's default (4 M samples of 10 µs).
pub const TRACE_LEN: usize = 4_000_000;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 7;
/// The paper's mean ACC+Kagura speedup over the baseline, in percent.
const PAPER_SPEEDUP_PCT: f64 = 4.74;

/// The six memory-bound apps of `brownout-cpack`.
pub const BROWNOUT_APPS: [App; 6] =
    [App::Dijkstra, App::Rijndael, App::Blowfish, App::Jpegd, App::Jpeg, App::Typeset];

/// One simulation of the grid.
#[derive(Debug, Clone)]
pub struct Cell {
    pub app: App,
    pub cfg: SimConfig,
}

impl Cell {
    /// `app/governor`, unique within a workload.
    pub fn label(&self) -> String {
        format!("{}/{}", self.app.name(), self.cfg.governor.label())
    }

    /// The label the pool gives this cell's job span.
    fn pool_label(&self) -> String {
        format!("{}:{}", self.app, self.cfg.governor.label())
    }
}

/// `paper-grid`: all 20 apps × {baseline, ACC+Kagura} on Table I.
pub fn grid_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in App::ALL {
        for gov in [GovernorSpec::NoCompression, GovernorSpec::AccKagura(Default::default())] {
            cells.push(Cell { app, cfg: SimConfig::table1().with_governor(gov) });
        }
    }
    cells
}

/// The power-trace seed `brownout-cpack` derives from the workload seed.
pub fn brownout_trace_seed(seed: u64) -> u64 {
    mix(seed ^ 0xB120_0C9A_C4ED)
}

/// `brownout-cpack`: C-PACK, always compress, 1 µF, seeded trace.
pub fn brownout_cells(seed: u64) -> Vec<Cell> {
    let mut cfg = SimConfig::table1().with_governor(GovernorSpec::AlwaysCompress);
    cfg.algorithm = Algorithm::CPack;
    cfg.capacitor = CapacitorConfig::with_capacitance_uf(1.0);
    cfg.trace_seed = brownout_trace_seed(seed);
    BROWNOUT_APPS.iter().map(|&app| Cell { app, cfg: cfg.clone() }).collect()
}

/// Digest of every simulated statistic of one run.
fn digest(stats: &SimStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// Invariants every healthy run meets.
fn check_run(label: &str, program_len: u64, stats: &SimStats) -> Result<(), String> {
    if let Some(why) = &stats.budget_exhausted {
        return Err(format!("{label}: budget exhausted: {why}"));
    }
    if !stats.completed || stats.committed_insts != program_len {
        return Err(format!(
            "{label}: incomplete ({} of {program_len} committed)",
            stats.committed_insts
        ));
    }
    if stats.ledger_violations != 0 || stats.decode_faults != 0 {
        return Err(format!(
            "{label}: {} ledger violations, {} decode faults",
            stats.ledger_violations, stats.decode_faults
        ));
    }
    Ok(())
}

/// Compares each cell's digest with the golden table (when it has the
/// cell) and with the first digest this run saw for it.
struct DigestCheck {
    golden: Option<BTreeMap<String, u64>>,
    seen: BTreeMap<String, u64>,
}

impl DigestCheck {
    fn check(&mut self, label: &str, d: u64) -> Result<(), String> {
        if let Some(&want) = self.golden.as_ref().and_then(|g| g.get(label)) {
            if want != d {
                return Err(format!("{label}: digest {d:016x} != golden {want:016x}"));
            }
        }
        let first = *self.seen.entry(label.to_string()).or_insert(d);
        if first != d {
            return Err(format!("{label}: digest {d:016x} differs from earlier run {first:016x}"));
        }
        Ok(())
    }
}

/// Builds the inputs of `cells` the way a user would: one trace, one
/// program per app, one `Simulator::new` per cell. Returns the seconds
/// each of [`SETUP_REPS`] repetitions took, plus the last trace and
/// programs.
fn setup(cells: &[Cell], parent: u64) -> (Vec<f64>, PowerTrace, HashMap<App, KernelProgram>) {
    let cfg = &cells[0].cfg;
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let trace = {
            let _s = spans::span("energy.trace_generate", parent, || "setup".into());
            PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, TRACE_LEN)
        };
        let mut programs = HashMap::new();
        for c in cells {
            programs.entry(c.app).or_insert_with(|| {
                let _s = spans::span("workloads.build", parent, || c.app.name().into());
                c.app.build(SCALE)
            });
        }
        for c in cells {
            let _s = spans::span("sim.new", parent, || c.label());
            std::hint::black_box(Simulator::new(c.cfg.clone(), &programs[&c.app], &trace));
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some((trace, programs));
    }
    let (trace, programs) = last.expect("at least one set-up repetition");
    (times, trace, programs)
}

/// Per-cell accumulation across batches or iterations.
#[derive(Default)]
struct CellAcc {
    secs: Vec<f64>,
    stats: Option<SimStats>,
}

fn to_cell_runs(cells: &[Cell], acc: &BTreeMap<String, CellAcc>) -> Vec<CellRun> {
    cells
        .iter()
        .filter_map(|c| {
            let a = acc.get(&c.label())?;
            Some(CellRun {
                label: c.label(),
                app: c.app,
                cfg: c.cfg.clone(),
                secs: median(&a.secs),
                stats: a.stats.clone()?,
            })
        })
        .collect()
}

/// Shared end-to-end metrics of the two simulation workloads.
fn sim_metrics(out: &mut Outcome, acc: &BTreeMap<String, CellAcc>, walls: &[f64], setup: &[f64]) {
    let (mut insts, mut secs, mut cell_ms) = (0u64, 0.0, Vec::new());
    for a in acc.values() {
        let per = a.stats.as_ref().map_or(0, |s| s.executed_insts);
        insts += per * a.secs.len() as u64;
        secs += a.secs.iter().sum::<f64>();
        cell_ms.extend(a.secs.iter().map(|s| s * 1e3));
    }
    let cells = cell_ms.len();
    out.metric("sim_ips", "Minst/s", insts as f64 / secs.max(1e-12) / 1e6, cells);
    out.metric("wall_s", "s", median(walls), walls.len());
    out.detail("wall_samples_s", Value::Array(walls.iter().map(|&w| w.into()).collect()));
    out.metric("setup_s", "s", median(setup), setup.len());
    out.detail("setup_samples_s", Value::Array(setup.iter().map(|&w| w.into()).collect()));
    out.metric("peak_rss_mb", "MB", peak_rss_mb("self"), 1);
    out.metric("miss_p50_ms", "ms", quantile(&cell_ms, 0.5), cells);
    out.metric("miss_p90_ms", "ms", quantile(&cell_ms, 0.9), cells);
    out.metric("qps", "1/s", cells as f64 / walls.iter().sum::<f64>().max(1e-12), cells);
}

/// Mean ACC+Kagura speedup over the baseline, in percent.
fn mean_speedup_pct(cells: &[Cell], acc: &BTreeMap<String, CellAcc>) -> f64 {
    let mut gains = Vec::new();
    for pair in cells.chunks(2) {
        let get = |c: &Cell| acc.get(&c.label()).and_then(|a| a.stats.clone());
        if let (Some(base), Some(kag)) = (get(&pair[0]), get(&pair[1])) {
            if let Some(s) = kag.try_speedup_over(&base) {
                gains.push((s - 1.0) * 100.0);
            }
        }
    }
    gains.iter().sum::<f64>() / gains.len().max(1) as f64
}

/// The pool's job spans since the last drain: (label, start µs, duration µs).
fn drain_job_spans() -> Vec<(String, f64, f64)> {
    ehs_telemetry::spans::drain()
        .into_iter()
        .filter(|s| s.category == "sim")
        .map(|s| (s.label, s.start_us, s.dur_us))
        .collect()
}

/// `paper-grid`: the 40-cell grid as one `run_batch` on `nproc` workers,
/// repeated until `seconds` have passed.
pub fn paper_grid(seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let cells = grid_cells();
    let root = spans::span("workload", 0, || "paper-grid".into());
    let (setup_times, _, programs) = setup(&cells, root.id());
    // The pool fetches its trace from the runner's cache: fill it before
    // timing (held for the whole run so it is never evicted).
    let _trace = ehs_sim::runner::default_trace(&cells[0].cfg);
    let jobs: Vec<SimJob> =
        cells.iter().map(|c| SimJob::new(c.app, SCALE, c.cfg.clone())).collect();
    let by_pool_label: BTreeMap<String, &Cell> =
        cells.iter().map(|c| (c.pool_label(), c)).collect();
    let mut check = DigestCheck { golden: golden::paper_grid(), seen: BTreeMap::new() };
    let mut acc: BTreeMap<String, CellAcc> = BTreeMap::new();
    let (mut walls, mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut pool = layers::PoolUse::default();
    // The pool's own job spans (one per cell, off by default) are the
    // only per-cell timing `run_batch` exposes.
    ehs_telemetry::spans::set_enabled(true);
    let start = Instant::now();
    let mut batch = 0usize;
    // Batch 0 is a warm-up: checked, not timed.
    while batch < 3 || start.elapsed().as_secs_f64() < seconds {
        // Traced runs alternate span recording to measure its overhead.
        let recording = traced && batch % 2 == 1;
        spans::set_enabled(recording);
        let span = spans::span("sim.pool", root.id(), || format!("batch{batch}"));
        ehs_telemetry::spans::drain();
        let t = Instant::now();
        let results = parallel::run_batch(jobs.clone());
        let wall = t.elapsed().as_secs_f64();
        let jobs_timed = drain_job_spans();
        // Job spans use the program's own epoch; place them inside the
        // batch span by their offset from the first job.
        let batch_start_us = spans::ns_since_epoch(t) as f64 / 1e3;
        let first = jobs_timed.iter().map(|j| j.1).fold(f64::INFINITY, f64::min);
        for (label, start_us, dur_us) in &jobs_timed {
            let unit = by_pool_label.get(label).map_or(label.clone(), |c| c.label());
            let a = batch_start_us + (start_us - first);
            spans::record(
                "sim.run",
                span.id(),
                unit,
                (a * 1e3) as u64,
                ((a + dur_us) * 1e3) as u64,
            );
        }
        drop(span);
        for (cell, result) in cells.iter().zip(results) {
            out.attempted += 1;
            let stats = match result {
                Ok(s) => s,
                Err(e) => {
                    out.fail(format!("{}: {e}", cell.label()));
                    continue;
                }
            };
            let verdict = check_run(&cell.label(), programs[&cell.app].len(), &stats)
                .and_then(|()| check.check(&cell.label(), digest(&stats)));
            if let Err(e) = verdict {
                out.fail(e);
            }
            if batch == 0 {
                continue;
            }
            let secs = jobs_timed
                .iter()
                .find(|j| j.0 == cell.pool_label())
                .map(|j| j.2 / 1e6)
                .unwrap_or(f64::NAN);
            let a = acc.entry(cell.label()).or_default();
            if secs.is_finite() {
                a.secs.push(secs);
            } else {
                out.fail(format!("{}: no job span", cell.label()));
            }
            a.stats = Some(stats);
        }
        if batch > 0 {
            walls.push(wall);
            if recording { &mut traced_walls } else { &mut plain_walls }.push(wall);
            pool.add(wall, jobs_timed.iter().map(|j| j.2 / 1e6).sum(), host_cores());
        }
        batch += 1;
    }
    ehs_telemetry::spans::set_enabled(false);
    spans::set_enabled(traced);
    drop(root);
    sim_metrics(&mut out, &acc, &walls, &setup_times);
    let gap = (mean_speedup_pct(&cells, &acc) - PAPER_SPEEDUP_PCT).abs();
    out.report("paper_gap_pp", "pp", gap, 1);
    if traced {
        let runs = to_cell_runs(&cells, &acc);
        let trace = ehs_sim::runner::default_trace(&cells[0].cfg);
        let subset = ["sha", "strings", "jpegd", "dijkstra"];
        let ctx = layers::Context {
            cells: &runs,
            programs: &programs,
            scale: SCALE,
            trace: &trace,
            ff_subset: runs.iter().filter(|r| subset.contains(&r.app.name())).collect(),
            pool,
            overhead: median(&traced_walls) / median(&plain_walls) - 1.0,
            live_server: None,
        };
        layers::probe(&mut out, &ctx);
    }
    out
}

/// `brownout-cpack`: six memory-bound apps back to back on one thread.
pub fn brownout(seconds: f64, seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let cells = brownout_cells(seed);
    let root = spans::span("workload", 0, || "brownout-cpack".into());
    let (setup_times, trace, programs) = setup(&cells, root.id());
    let mut check = DigestCheck { golden: golden::brownout(seed), seen: BTreeMap::new() };
    let mut acc: BTreeMap<String, CellAcc> = BTreeMap::new();
    let (mut walls, mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut pool = layers::PoolUse::default();
    let start = Instant::now();
    let mut iter = 0usize;
    while iter < 3 || start.elapsed().as_secs_f64() < seconds {
        let recording = traced && iter % 2 == 1;
        spans::set_enabled(recording);
        let span = spans::span("brownout.iteration", root.id(), || format!("iter{iter}"));
        let t = Instant::now();
        let mut busy = 0.0;
        for cell in &cells {
            out.attempted += 1;
            let sim = {
                let _s = spans::span("sim.new", span.id(), || cell.label());
                Simulator::new(cell.cfg.clone(), &programs[&cell.app], &trace)
            };
            let t_run = Instant::now();
            let stats = {
                let _s = spans::span("sim.run", span.id(), || cell.label());
                sim.run()
            };
            let secs = t_run.elapsed().as_secs_f64();
            busy += secs;
            let verdict = check_run(&cell.label(), programs[&cell.app].len(), &stats)
                .and_then(|()| check.check(&cell.label(), digest(&stats)));
            if let Err(e) = verdict {
                out.fail(e);
            }
            if iter > 0 {
                let a = acc.entry(cell.label()).or_default();
                a.secs.push(secs);
                a.stats = Some(stats);
            }
        }
        let wall = t.elapsed().as_secs_f64();
        drop(span);
        if iter > 0 {
            walls.push(wall);
            if recording { &mut traced_walls } else { &mut plain_walls }.push(wall);
            pool.add(wall, busy, 1);
        }
        iter += 1;
    }
    spans::set_enabled(traced);
    drop(root);
    // Untimed: the reference loop must reproduce every cell bit for bit.
    for cell in &cells {
        out.attempted += 1;
        let cfg = cell.cfg.clone().with_exec(ExecMode::Reference);
        let stats = Simulator::new(cfg, &programs[&cell.app], &trace).run();
        if let Err(e) = check.check(&cell.label(), digest(&stats)) {
            out.fail(format!("reference loop: {e}"));
        }
    }
    sim_metrics(&mut out, &acc, &walls, &setup_times);
    if traced {
        let runs = to_cell_runs(&cells, &acc);
        let ctx = layers::Context {
            cells: &runs,
            programs: &programs,
            scale: SCALE,
            trace: &trace,
            ff_subset: runs
                .iter()
                .filter(|r| r.app == App::Jpegd || r.app == App::Dijkstra)
                .collect(),
            pool,
            overhead: median(&traced_walls) / median(&plain_walls) - 1.0,
            live_server: None,
        };
        layers::probe(&mut out, &ctx);
    }
    out
}

/// Digests for the golden table: the grid, and `brownout-cpack` at
/// each of `seeds`.
pub fn golden_digests(
    seeds: &[u64],
) -> (BTreeMap<String, u64>, BTreeMap<u64, BTreeMap<String, u64>>) {
    let run = |cells: &[Cell]| -> BTreeMap<String, u64> {
        let trace =
            PowerTrace::generate(cells[0].cfg.trace_kind, cells[0].cfg.trace_seed, TRACE_LEN);
        cells
            .iter()
            .map(|c| {
                let program = c.app.build(SCALE);
                (c.label(), digest(&Simulator::new(c.cfg.clone(), &program, &trace).run()))
            })
            .collect()
    };
    let grid = run(&grid_cells());
    let brown = seeds.iter().map(|&s| (s, run(&brownout_cells(s)))).collect();
    (grid, brown)
}
