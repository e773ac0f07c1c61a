//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload paper-grid|brownout-cpack|serve-whatif --seed N
//!           --seconds S --trace 0|1 --simrun PATH
//! perfbench compare A.json B.json
//! perfbench golden > perfbench/golden.json
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds `simrun` and this
//! driver from source first. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Every metric is also printed by name with its unit, and
//! the full result (provenance, samples, digests, attribution table) is
//! written under `.perfbench/`. See `perfbench/README.md`.

mod golden;
mod layers;
mod serve;
mod simwork;
mod spans;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::{json, Value};

/// The seed later claims must also hold on, beside the seeds they were
/// developed with.
pub const HELD_OUT_SEED: u64 = 977;

const WORKLOADS: [&str; 3] = ["paper-grid", "brownout-cpack", "serve-whatif"];

/// Where results, traces and scratch files go, relative to the
/// repository root.
const WORK_DIR: &str = ".perfbench";

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [&str; 7] =
    ["sim_ips", "wall_s", "setup_s", "peak_rss_mb", "miss_p50_ms", "miss_p90_ms", "qps"];

/// Per-layer metrics (`--trace 1`), in output order.
const PER_LAYER: [&str; 43] = [
    "energy.trace_generate_ms",
    "workloads.build_ms",
    "sim.new_ms",
    "compress.bdi.compress_ns",
    "compress.bdi.size_ns",
    "compress.bdi.decompress_ns",
    "compress.bdi.ratio",
    "compress.cpack.compress_ns",
    "compress.cpack.size_ns",
    "compress.cpack.decompress_ns",
    "compress.cpack.ratio",
    "cache.read_hit_ns",
    "cache.read_miss_ns",
    "cache.write_hit_ns",
    "cache.fill_ns",
    "cache.memo_hit_rate",
    "cache.shallow_commit_rate",
    "mem.nvm_read_ns",
    "mem.nvm_write_ns",
    "energy.capacitor_ns",
    "core.kagura.fill_mode_ns",
    "core.kagura.on_hit_ns",
    "core.kagura.on_mem_commit_ns",
    "core.acc.fill_mode_ns",
    "core.acc.on_hit_ns",
    "core.acc.on_mem_commit_ns",
    "sim.ns_per_inst",
    "sim.attributed_ns_per_inst",
    "sim.residual_ns_per_inst",
    "sim.fastforward_speedup",
    "sim.dfills_per_kinst",
    "sim.compressions_per_kinst",
    "sim.nvm_writes_per_kinst",
    "sim.power_cycles_per_minst",
    "sim.pool_busy_frac",
    "sim.pool_tail_s",
    "telemetry.attached_slowdown",
    "serve.parse_us",
    "serve.handle_hit_us",
    "serve.server_p50_ms",
    "serve.cache_hit_rate",
    "serve.shed",
    "trace.overhead_frac",
];

/// One measured value with its sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Metrics of the machine-read result line.
    pub metrics: Vec<Metric>,
    /// Further metrics that are printed and saved only.
    pub reports: Vec<Metric>,
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome::default()
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric { name: name.to_string(), unit, value, samples });
    }

    pub fn report(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.reports.push(Metric { name: name.to_string(), unit, value, samples });
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_string(), value));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    simrun: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let known = ["--workload", "--seed", "--seconds", "--trace", "--simrun"];
    for pair in args.chunks(2) {
        if !known.contains(&pair[0].as_str()) {
            return Err(format!("unknown argument {:?}", pair[0]));
        }
    }
    let workload = flag("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})"));
    }
    let seed = flag("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let simrun = PathBuf::from(flag("--simrun").unwrap_or("target/release/simrun"));
    Ok(Args { workload, seed, seconds, trace, simrun })
}

/// A tool's trimmed standard output, or `unknown`. Git does not look above
/// the working directory for a repository.
fn command_output(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir().ok().and_then(|d| d.parent().map(Path::to_path_buf));
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling.unwrap_or_default())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Digest of the sources the benchmark builds (`crates/`, the root
/// manifest and lock file, and the benchmark itself): identifies the
/// code under test where no git commit is available.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml" | "lock"))
            {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            all.extend_from_slice(f.to_string_lossy().as_bytes());
            all.extend_from_slice(&bytes);
        }
    }
    format!("{:016x}", util::fnv1a(&all))
}

fn provenance(a: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| s.lines().find_map(|l| l.strip_prefix("model name")).map(str::to_string))
        .map_or("unknown".into(), |m| m.trim_start_matches([' ', '\t', ':']).to_string());
    json!({
        "host_cores": util::host_cores() as u64,
        "cpu_model": cpu,
        "rustc": command_output("rustc", &["--version"]),
        "commit": command_output("git", &["rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "workload": a.workload.clone(),
        "seed": a.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": a.seconds,
        "trace": a.trace,
    })
}

fn metric_json(m: &Metric) -> Value {
    json!({ "name": m.name.clone(), "unit": m.unit, "value": m.value, "samples": m.samples as u64 })
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(dir.join("results")).map_err(|e| format!("{}: {e}", dir.display()))?;
    ehs_sim::parallel::set_max_workers(util::host_cores());
    spans::set_enabled(a.trace);
    let out = match a.workload.as_str() {
        "paper-grid" => simwork::paper_grid(a.seconds, a.trace),
        "brownout-cpack" => simwork::brownout(a.seconds, a.seed, a.trace),
        _ => serve::serve_whatif(a.seconds, a.seed, a.trace, &a.simrun, &dir),
    };
    spans::set_enabled(false);
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(1);
    let wanted: &[&str] = if a.trace { &PER_LAYER } else { &END_TO_END };

    println!("perfbench {} seed {} trace {}", a.workload, a.seed, u8::from(a.trace));
    for m in out.metrics.iter().chain(&out.reports) {
        println!("  {:<30} {:>14.6} {:<8} ({} samples)", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "  {:<30} {:>14.6} {:<8} ({failed} of {attempted})",
        "fail_frac",
        failed as f64 / attempted as f64,
        "ratio"
    );
    for f in out.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
    let prov = provenance(a);
    let mut doc = vec![
        ("provenance".to_string(), prov),
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::from(attempted)),
        ("failed".to_string(), Value::from(failed)),
        (
            "failures".to_string(),
            Value::Array(out.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("metrics".to_string(), Value::Array(out.metrics.iter().map(metric_json).collect())),
        ("reports".to_string(), Value::Array(out.reports.iter().map(metric_json).collect())),
    ];
    doc.extend(out.details.iter().cloned());
    if let Some(Value::Array(rows)) =
        out.details.iter().find(|d| d.0 == "attribution").map(|d| &d.1)
    {
        println!("  attribution (ns/inst, sorted by residual):");
        println!(
            "    {:<28} {:>9} {:>10} {:>9} {:>8}",
            "cell", "measured", "attributed", "residual", "ff/ref"
        );
        for r in rows {
            let f = |k: &str| r.get(k).and_then(Value::as_f64);
            println!(
                "    {:<28} {:>9.2} {:>10.2} {:>9.2} {:>8}",
                r.get("cell").and_then(Value::as_str).unwrap_or("?"),
                f("measured_ns_per_inst").unwrap_or(f64::NAN),
                f("attributed_ns_per_inst").unwrap_or(f64::NAN),
                f("residual_ns_per_inst").unwrap_or(f64::NAN),
                f("fastforward_speedup").map_or("-".into(), |x| format!("{x:.3}x")),
            );
        }
    }
    if a.trace {
        let recorded = spans::take();
        let selfs: Vec<Value> = spans::self_times(&recorded)
            .into_iter()
            .map(|(name, s)| json!({ "name": name, "self_s": s }))
            .collect();
        println!(
            "  span self time (s): {}",
            serde_json::to_string(&Value::Array(selfs.clone())).unwrap_or_default()
        );
        doc.push(("span_self_s".to_string(), Value::Array(selfs)));
        let path = dir.join(format!("trace-{}-seed{}.json", a.workload, a.seed));
        let body = serde_json::to_string(&spans::to_json(&recorded)).unwrap_or_default();
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let path = dir.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let body = serde_json::to_string_pretty(&Value::Object(doc)).unwrap_or_default();
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut metrics = Vec::new();
    for name in wanted {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("workload produced no {name} metric"))?;
        metrics.push((name.to_string(), json!({ "value": m.value, "unit": m.unit })));
    }
    let line = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Compares two saved result files metric by metric; refuses result
/// sets taken on different core counts.
fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (va, vb) = (load(a)?, load(b)?);
    let cores =
        |v: &Value| v.get("provenance").and_then(|p| p.get("host_cores")).and_then(Value::as_u64);
    if cores(&va) != cores(&vb) || cores(&va).is_none() {
        return Err(format!(
            "refusing to compare results from {:?} and {:?} host cores",
            cores(&va),
            cores(&vb)
        ));
    }
    let metrics = |v: &Value| -> Vec<(String, f64)> {
        v.get("metrics")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("value")?.as_f64()?)))
            .collect()
    };
    let mb = metrics(&vb);
    for (name, x) in metrics(&va) {
        if let Some((_, y)) = mb.iter().find(|(n, _)| *n == name) {
            println!("{name:<30} {x:>14.6} {y:>14.6} {:>+8.2}%", (y / x - 1.0) * 100.0);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("golden") => {
            println!("{}", golden::generate());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
