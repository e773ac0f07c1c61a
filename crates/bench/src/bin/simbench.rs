//! `simbench` — simulated-instruction throughput of the leaf simulator.
//!
//! ```text
//! simbench [--scale S] [--apps a,b,..] [--repeat N] [--out FILE]
//!          [--check FILE] [--max-regression R] [--skip-reference]
//!          [--governor nocompression|alwayscompress|acc|acckagura]
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

use std::process::ExitCode;
use std::time::Instant;

use ehs_energy::PowerTrace;
use ehs_sim::{ExecMode, GovernorSpec, SimConfig, Simulator};
use ehs_workloads::App;
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

/// Every flag `simbench` understands, for near-miss typo suggestions.
const KNOWN_FLAGS: &[&str] = &[
    "--scale",
    "--apps",
    "--repeat",
    "--out",
    "--check",
    "--max-regression",
    "--skip-reference",
    "--governor",
];

fn parse_app(name: &str) -> Option<App> {
    App::ALL.into_iter().find(|a| format!("{a:?}").eq_ignore_ascii_case(name))
}

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

fn main() -> ExitCode {
    let mut scale = 2.0f64;
    let mut out = String::from("BENCH_sim.json");
    let mut apps: Vec<App> =
        vec![App::Sha, App::Crc32, App::Jpegd, App::G721d, App::Gsm, App::Dijkstra];
    let mut check: Option<String> = None;
    let mut max_regression = 0.30f64;
    let mut skip_reference = false;
    let mut repeat = 3u32;
    let mut governor = String::from("AccKagura");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(v) if v > 0.0 => scale = v,
                    _ => {
                        eprintln!("--scale needs a positive number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--apps" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    eprintln!("--apps needs a comma-separated list");
                    return ExitCode::FAILURE;
                };
                apps.clear();
                for name in list.split(',') {
                    match parse_app(name.trim()) {
                        Some(a) => apps.push(a),
                        None => {
                            eprintln!("unknown app {name:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(f) => out = f.clone(),
                    None => {
                        eprintln!("--out needs a file path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--check" => {
                i += 1;
                match args.get(i) {
                    Some(f) => check = Some(f.clone()),
                    None => {
                        eprintln!("--check needs a baseline file path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--max-regression" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(v) if (0.0..1.0).contains(&v) => max_regression = v,
                    _ => {
                        eprintln!("--max-regression needs a fraction in [0, 1)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--skip-reference" => skip_reference = true,
            "--governor" => {
                i += 1;
                match args.get(i) {
                    Some(g) => governor = g.clone(),
                    None => {
                        eprintln!("--governor needs a name");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--repeat" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u32>().ok()) {
                    Some(v) if v >= 1 => repeat = v,
                    _ => {
                        eprintln!("--repeat needs a positive integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                // Name the nearest valid flag for plausible typos
                // instead of leaving the user to diff the usage line.
                if other.starts_with('-') {
                    eprintln!(
                        "simbench: {}",
                        kagura_bench::cli::unknown_flag_error(other, KNOWN_FLAGS)
                    );
                } else {
                    eprintln!("simbench: unexpected argument {other:?}");
                }
                eprintln!(
                    "usage: simbench [--scale S] [--apps a,b,..] [--repeat N] [--out FILE] \
                     [--check FILE] [--max-regression R] [--skip-reference] [--governor G]"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let spec = match governor.to_ascii_lowercase().as_str() {
        "nocompression" => GovernorSpec::NoCompression,
        "alwayscompress" => GovernorSpec::AlwaysCompress,
        "acc" => GovernorSpec::Acc,
        "acckagura" => GovernorSpec::AccKagura(Default::default()),
        other => {
            eprintln!("unknown governor {other:?} (nocompression|alwayscompress|acc|acckagura)");
            return ExitCode::FAILURE;
        }
    };
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
    if let Err(e) = kagura_bench::fsutil::atomic_write(std::path::Path::new(&out), text.as_bytes())
    {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("[saved {out}]");

    if let Some(baseline_path) = check {
        let baseline: Value = match std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let failures = regressions(&report, &baseline, max_regression);
        if failures.is_empty() {
            println!(
                "regression gate passed (>= {:.0}% of {baseline_path} per app)",
                (1.0 - max_regression) * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("THROUGHPUT REGRESSION {f}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
