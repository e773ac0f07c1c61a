//! `bench` — wall-clock benchmark of the parallel experiment harness.
//!
//! ```text
//! bench [--scale S] [--jobs N] [--out FILE]
//! ```
//!
//! Runs the `summary` experiment (the full app × governor grid) once to
//! warm the shared power-trace cache, then times it with one worker and
//! with N workers (default: the machine's available parallelism), and
//! writes the timings, the measured speedup and the host core count to
//! `BENCH_harness.json`. The speedup is whatever the host actually
//! delivers — on a single-core container the N-job phase *is* the
//! one-job phase, so the serial measurement is reused and the reported
//! speedup is exactly 1.0 rather than a noise ratio.
//!
//! Timing spans ([`ehs_telemetry::spans`]) are enabled for the timed
//! phases, so the report also carries per-simulation wall-clock rows
//! (`experiment_spans`) showing which worker slot ran each grid cell.

use std::process::ExitCode;
use std::time::Instant;

use ehs_telemetry::spans;
use kagura_bench::cli::{self, CliError, FlagSpec};
use kagura_bench::experiments::find;
use kagura_bench::ExpContext;
use serde_json::{json, Value};

/// Times one `summary` run at the given job count and returns its
/// wall-clock seconds plus the timing spans the run recorded.
fn time_summary(ctx: &ExpContext, jobs: usize) -> (f64, Value) {
    ehs_sim::parallel::set_max_workers(jobs);
    let f = find("summary").expect("summary experiment registered");
    let start = Instant::now();
    let _ = f(ctx);
    (start.elapsed().as_secs_f64(), spans::to_json(&spans::drain()))
}

/// Every flag `bench` understands.
const FLAGS: &[FlagSpec] =
    &[FlagSpec::value("--scale"), FlagSpec::value("--jobs"), FlagSpec::value("--out")];

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&raw, FLAGS, 0)
        .inspect_err(|_| eprintln!("usage: bench [--scale S] [--jobs N] [--out FILE]"))?;
    let scale = args.positive("--scale")?.unwrap_or(0.05f64);
    let out = args.str("--out").unwrap_or("BENCH_harness.json");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let jobs = args.positive("--jobs")?.unwrap_or(cores);

    let ctx = ExpContext {
        scale,
        out_dir: std::env::temp_dir().join("kagura-bench-harness"),
        ..ExpContext::default()
    };

    println!("harness benchmark: summary at scale {scale}, {cores} host core(s)");
    println!("warm-up run (populates the power-trace cache)...");
    let (warmup, _) = time_summary(&ctx, jobs);
    println!("  warm-up: {warmup:.1}s");
    // Record per-simulation spans only for the timed phases; the warm-up
    // drain above discarded anything recorded before enabling.
    spans::set_enabled(true);
    println!("timed run, 1 job...");
    let (serial, serial_spans) = time_summary(&ctx, 1);
    println!("  1 job: {serial:.1}s");
    let (parallel, parallel_spans) = if jobs == 1 {
        // The "parallel" configuration is the serial one; re-timing it
        // would just divide noise by noise, so reuse the measurement.
        println!("1 job requested: parallel phase is the serial phase");
        (serial, serial_spans.clone())
    } else {
        println!("timed run, {jobs} job(s)...");
        let (p, spans) = time_summary(&ctx, jobs);
        println!("  {jobs} job(s): {p:.1}s");
        (p, spans)
    };
    let speedup = serial / parallel;
    println!("speedup at {jobs} job(s): {speedup:.2}x on {cores} core(s)");

    let report = json!({
        "benchmark": "experiment harness wall-clock",
        "experiment": "summary",
        "scale": scale,
        "host_cores": cores,
        "grid_cells": ctx.apps.len() * 2,
        "serial_jobs": 1,
        "serial_seconds": serial,
        "parallel_jobs": jobs,
        "parallel_seconds": parallel,
        "speedup": speedup,
        "experiment_spans": {
            "serial": serial_spans,
            "parallel": parallel_spans,
        },
    });
    let text = serde_json::to_string_pretty(&report).expect("serializable");
    kagura_bench::fsutil::atomic_write(std::path::Path::new(out), text.as_bytes())
        .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
    println!("[saved {out}]");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
