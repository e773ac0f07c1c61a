//! `simbench` — simulated-instruction throughput of the leaf simulator.
//!
//! ```text
//! simbench [--scale S] [--apps a,b,..] [--repeat N] [--out FILE]
//!          [--check FILE] [--max-regression R] [--skip-reference]
//!          [--governor G]
//! ```
//!
//! For each app, times one complete single-thread run under both exec
//! modes — the event-driven fast-forward path (the default) and the
//! all-skips-off reference mode — and a *saturated* fast run (one copy
//! of the same simulation per host core, measuring aggregate simulated
//! instructions/sec under full load). Writes `BENCH_sim.json`.
//!
//! `--check BASELINE` turns the binary into a CI regression gate: after
//! measuring, each app present in both the fresh report and the baseline
//! must reach at least `(1 - R)` of the baseline's single-thread
//! fast-path IPS (default `R` = 0.30); otherwise the exit code is
//! non-zero. IPS is close to scale-invariant, so the gate can run at a
//! smaller `--scale` than the committed artifact.
//!
//! `--governor` takes any name `simrun --governor` does (default
//! `AccKagura`, an alias of `kagura`); the report records it as given.

use std::process::ExitCode;
use std::time::Instant;

use ehs_energy::PowerTrace;
use ehs_sim::{ExecMode, GovernorSpec, SimConfig, Simulator};
use ehs_workloads::App;
use kagura_bench::cli::{self, lookup, CliError, FlagSpec};
use serde_json::{json, Value};

/// Power-trace length shared by every timed run (the runner's default).
const TRACE_LEN: usize = 4_000_000;

/// Times `repeat` complete runs; returns `(executed insts, best wall
/// seconds)`. Best-of-N because wall-time noise on a shared host is
/// strictly additive — the minimum is the least-disturbed measurement.
fn time_run(app: App, scale: f64, cfg: &SimConfig, trace: &PowerTrace, repeat: u32) -> (u64, f64) {
    let program = app.build(scale);
    let mut insts = 0;
    let mut best = f64::INFINITY;
    for _ in 0..repeat.max(1) {
        let sim = Simulator::new(cfg.clone(), &program, trace);
        let start = Instant::now();
        let stats = sim.run();
        best = best.min(start.elapsed().as_secs_f64());
        insts = stats.executed_insts;
    }
    (insts, best)
}

/// Runs one copy per core concurrently; returns aggregate IPS.
fn saturated_ips(app: App, scale: f64, cfg: &SimConfig, trace: &PowerTrace, cores: usize) -> f64 {
    let program = app.build(scale);
    let start = Instant::now();
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cores)
            .map(|_| {
                let cfg = cfg.clone();
                let program = &program;
                s.spawn(move || Simulator::new(cfg, program, trace).run().executed_insts)
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sim thread")).sum()
    });
    total as f64 / start.elapsed().as_secs_f64()
}

/// Every flag `simbench` understands.
const FLAGS: &[FlagSpec] = &[
    FlagSpec::value("--scale"),
    FlagSpec::value("--apps"),
    FlagSpec::value("--repeat"),
    FlagSpec::value("--out"),
    FlagSpec::value("--check"),
    FlagSpec::value("--max-regression"),
    FlagSpec::switch("--skip-reference"),
    FlagSpec::value("--governor"),
];

const USAGE: &str = "usage: simbench [--scale S] [--apps a,b,..] [--repeat N] [--out FILE] \
                     [--check FILE] [--max-regression R] [--skip-reference] [--governor G]";

/// Applies the `--check` gate; returns the failing apps.
fn regressions(fresh: &Value, baseline: &Value, max_regression: f64) -> Vec<String> {
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let base_apps: Vec<&Value> = baseline
        .get("apps")
        .and_then(Value::as_array)
        .map(|v| v.iter().collect())
        .unwrap_or_default();
    let mut failures = Vec::new();
    for row in fresh.get("apps").and_then(Value::as_array).into_iter().flatten() {
        let name = row.get("app").and_then(Value::as_str).unwrap_or_default();
        let Some(base) =
            base_apps.iter().find(|b| b.get("app").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        let (now, was) = (field(row, "fast_ips"), field(base, "fast_ips"));
        if was > 0.0 && now < was * (1.0 - max_regression) {
            failures.push(format!(
                "{name}: {:.2}M IPS < {:.0}% of baseline {:.2}M IPS",
                now / 1e6,
                (1.0 - max_regression) * 100.0,
                was / 1e6
            ));
        }
    }
    failures
}

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&raw, FLAGS, 0).inspect_err(|_| eprintln!("{USAGE}"))?;
    let scale = args.positive("--scale")?.unwrap_or(2.0f64);
    let out = args.str("--out").unwrap_or("BENCH_sim.json");
    let apps: Vec<App> = match args.str("--apps") {
        Some(list) => list
            .split(',')
            .map(|name| lookup("app", name.trim(), App::from_name, &App::ALL.map(App::name)))
            .collect::<Result<_, _>>()
            .map_err(CliError::Config)?,
        None => vec![App::Sha, App::Crc32, App::Jpegd, App::G721d, App::Gsm, App::Dijkstra],
    };
    let check = args.str("--check");
    let max_regression = args.num("--max-regression")?.unwrap_or(0.30f64);
    if !(0.0..1.0).contains(&max_regression) {
        return Err(CliError::Config("--max-regression needs a fraction in [0, 1)".into()));
    }
    let skip_reference = args.has("--skip-reference");
    let repeat = args.positive("--repeat")?.unwrap_or(3u32);
    let governor = args.str("--governor").unwrap_or("AccKagura");
    let spec = lookup("governor", governor, GovernorSpec::from_name, GovernorSpec::NAMES)
        .map_err(CliError::Config)?;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let cfg = SimConfig::table1().with_governor(spec);
    let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, TRACE_LEN);
    println!("simulator throughput: scale {scale}, {cores} host core(s), governor {governor}");

    let mut rows = Vec::new();
    for app in &apps {
        // Warm-up run absorbs one-time costs (page faults, allocator).
        let _ = time_run(*app, scale.min(0.05), &cfg, &trace, 1);
        let fast_cfg = cfg.clone().with_exec(ExecMode::FastForward);
        let (insts, fast_s) = time_run(*app, scale, &fast_cfg, &trace, repeat);
        let fast_ips = insts as f64 / fast_s;
        let (ref_ips, speedup) = if skip_reference {
            (0.0, 0.0)
        } else {
            let ref_cfg = cfg.clone().with_exec(ExecMode::Reference);
            let (ref_insts, ref_s) = time_run(*app, scale, &ref_cfg, &trace, repeat);
            assert_eq!(ref_insts, insts, "loops disagree on executed instructions");
            let r = ref_insts as f64 / ref_s;
            (r, fast_ips / r)
        };
        let sat = saturated_ips(*app, scale, &fast_cfg, &trace, cores);
        println!(
            "  {:<10} {:>7.2}M insts  fast {:>6.2}M IPS ({:>6.1} ns/inst)  \
             reference {:>6.2}M IPS  speedup {:>5.2}x  saturated {:>7.2}M IPS",
            format!("{app:?}"),
            insts as f64 / 1e6,
            fast_ips / 1e6,
            1e9 / fast_ips,
            ref_ips / 1e6,
            speedup,
            sat / 1e6,
        );
        rows.push(json!({
            "app": format!("{app:?}"),
            "executed_insts": insts,
            "fast_seconds": fast_s,
            "fast_ips": fast_ips,
            "fast_ns_per_inst": 1e9 / fast_ips,
            "reference_ips": ref_ips,
            "speedup_vs_reference": speedup,
            "saturated_ips": sat,
        }));
    }

    // Geomeans skip zero/non-finite rows (e.g. the reference columns
    // under --skip-reference are all 0.0) instead of letting them
    // poison the aggregate; the excluded counts are recorded alongside
    // so a consumer can tell a clean geomean from a partial one.
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let geo = |key: &str| kagura_bench::gmean_filtered(rows.iter().map(|r| field(r, key)));
    let (fast_g, fast_ex) = geo("fast_ips");
    let (ref_g, ref_ex) = geo("reference_ips");
    let (speedup_g, speedup_ex) = geo("speedup_vs_reference");
    let (sat_g, sat_ex) = geo("saturated_ips");
    let headline = json!({
        "fast_ips_geomean": fast_g,
        "reference_ips_geomean": ref_g,
        "speedup_geomean": speedup_g,
        "saturated_ips_geomean": sat_g,
        "excluded_rows": {
            "fast_ips": fast_ex,
            "reference_ips": ref_ex,
            "speedup_vs_reference": speedup_ex,
            "saturated_ips": sat_ex,
        },
    });
    println!(
        "headline: fast {:.2}M IPS single-thread (geomean), {:.2}x vs reference loop",
        field(&headline, "fast_ips_geomean") / 1e6,
        field(&headline, "speedup_geomean"),
    );

    let report = json!({
        "benchmark": "leaf simulator throughput",
        "governor": governor,
        "scale": scale,
        "repeat": repeat,
        "host_cores": cores,
        "apps": rows,
        "headline": headline,
    });
    let text = serde_json::to_string_pretty(&report).expect("serializable");
    kagura_bench::fsutil::atomic_write(std::path::Path::new(out), text.as_bytes())
        .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
    println!("[saved {out}]");

    if let Some(baseline_path) = check {
        let baseline: Value = std::fs::read_to_string(baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
            .map_err(|e| CliError::Runtime(format!("cannot read baseline {baseline_path}: {e}")))?;
        let failures = regressions(&report, &baseline, max_regression);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("THROUGHPUT REGRESSION {f}");
            }
            return Err(CliError::Runtime(format!("{} app(s) regressed", failures.len())));
        }
        println!(
            "regression gate passed (>= {:.0}% of {baseline_path} per app)",
            (1.0 - max_regression) * 100.0
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
