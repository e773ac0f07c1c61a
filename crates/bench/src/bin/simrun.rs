//! `simrun` — run one EHS simulation from the command line and print a
//! full report (progress, power cycles, caches, energy breakdown).
//!
//! ```text
//! simrun <app> [--scale S]
//!              [--governor baseline|always|acc|kagura|ideal-acc|ideal-kagura|rand-threshold]
//!              [--design nvsram|nvmr|sweepcache] [--algorithm bdi|fpc|cpack|dzc|bpc|fvc]
//!              [--trace rfhome|solar|thermal] [--trace-file FILE] [--seed N]
//!              [--cache BYTES] [--ways N] [--block BYTES] [--cap UF]
//!              [--extension none|edbp|ipex] [--json]
//!              [--inject-at N] [--inject-fault power|torn|corrupt]
//!              [--emit-events FILE] [--chrome-trace FILE]
//!              [--flight-record FILE] [--audit-strict]
//!              [--cachescope FILE] [--cachescope-period N]
//!              [--leakscope FILE] [--leak-secret HEX16]
//! simrun serve [--tcp HOST:PORT] [--port-file PATH] [--state PATH]
//!              [--workers N] [--queue-depth N] [--cache-capacity N]
//!              [--deadline-ms N] [--max-insts N] [--write-timeout-ms N]
//! ```
//!
//! `simrun serve` starts the long-running what-if service
//! ([`kagura_bench::serve`]): NDJSON queries over stdin or TCP, with a
//! persistent result cache, admission control, per-request budgets and
//! graceful drain. See DESIGN.md §"What-if service".
//!
//! `--emit-events FILE` streams every telemetry event of the run as JSONL;
//! `--chrome-trace FILE` writes the same run as a Chrome trace-event file
//! (loadable in Perfetto / `chrome://tracing`, with one duration slice per
//! power cycle); `--flight-record FILE` writes only the decision-relevant
//! subset ([`ehs_telemetry::Event::flight_relevant`]: per-cycle flight
//! records, ledger imbalances, mode switches, threshold adjustments,
//! estimator samples, reboots) — the stream `repro explain` renders. Any
//! of these flags attaches telemetry to the simulator; without them the
//! run takes the uninstrumented fast path.
//!
//! `--cachescope FILE` attaches a cachescope (`ehs_sim::cachescope`) and
//! writes its report — boundary rows, occupancy snapshots, aggregate
//! histograms — as a JSONL stream, then parses the stream back strictly
//! (a schema round-trip check on every dump) and prints the rendered
//! cache report. `--cachescope-period N` additionally samples a
//! full-cache occupancy snapshot every `N` committed instructions.
//! Unlike the telemetry flags, a cachescope keeps the fast-forward loop;
//! it cannot be combined with them in one run (one observability stream
//! per invocation, so each path stays bit-identical to its tests).
//!
//! `--leakscope FILE` runs the compression timing side-channel attack
//! (`ehs_sim::leakscope`) instead of the app: an attacker co-resident
//! with a victim holding a planted 8-byte secret recovers it through
//! probe latencies alone, on the configured compressor × governor. The
//! stream — guess timeline, recovered bytes, MI/capacity summary — is
//! written as JSONL, parsed back strictly, and rendered. `--leak-secret
//! HEX16` overrides the planted secret (exactly 8 bytes). The app
//! positional only labels the stream; like `--cachescope`, it is one
//! observability stream per run.
//!
//! The energy-conservation ledger is always audited at power-cycle
//! boundaries (violations are counted in the report); `--audit-strict`
//! turns the first violation into a hard error.
//!
//! `--inject-at N` arms a one-shot forced power failure immediately after
//! the `N`-th executed instruction (see `ehs_sim::faultinject`);
//! `--inject-fault` picks the flavour — `power` (clean failure, default),
//! `torn` (checkpoint persists nothing), `corrupt` (one payload bit of
//! the first compressed checkpointed block is flipped; a decode failure
//! is reported as a detected consistency violation via `decode_faults`
//! and the `DecodeFault` telemetry event). Ideal two-phase governors are
//! rejected: oracle replay realigns work across power cycles, so an
//! injection point has no stable meaning there.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use std::io::BufWriter;
use std::path::Path;

use ehs_energy::PowerTrace;
use ehs_sim::{
    run_program_with, Attach, CachescopeConfig, FaultKind, LeakscopeOptions, SimConfig, SimStats,
};
use ehs_telemetry::{stream, ChromeTraceSink, JsonlSink, Sink, Stamped};
use ehs_workloads::App;
use kagura_bench::cachescope::{self, ScopeLabels};
use kagura_bench::cli::{self, lookup, Args, CliError, ConfigFields, FlagSpec};
use kagura_bench::leakscope;

fn usage() {
    eprintln!(
        "usage: simrun <app> [--scale S] [--governor G] [--design D] [--algorithm A]\n\
         \x20                [--trace T | --trace-file FILE] [--seed N] [--cache BYTES]\n\
         \x20                [--ways N] [--block BYTES] [--cap UF] [--extension E] [--json]\n\
         \x20                [--inject-at N] [--inject-fault power|torn|corrupt]\n\
         \x20                [--emit-events FILE] [--chrome-trace FILE]\n\
         \x20                [--flight-record FILE] [--audit-strict]\n\
         \x20                [--cachescope FILE] [--cachescope-period N]\n\
         \x20                [--leakscope FILE] [--leak-secret HEX16]\n\
         \x20      simrun serve [--tcp HOST:PORT] [--state PATH] … (long-running what-if service)\n\
         apps: {}",
        App::ALL.map(|a| a.name()).join(" ")
    );
}

/// Fans one event stream out to the optional JSONL, Chrome-trace and
/// flight-record sinks, so one instrumented run can feed all outputs.
/// The flight sink sees only the decision-relevant subset.
#[derive(Default)]
struct TeeSink {
    jsonl: Option<JsonlSink<BufWriter<File>>>,
    chrome: Option<ChromeTraceSink>,
    flight: Option<JsonlSink<BufWriter<File>>>,
}

impl Sink for TeeSink {
    fn record(&mut self, ev: &Stamped) {
        if let Some(j) = &mut self.jsonl {
            j.record(ev);
        }
        if let Some(c) = &mut self.chrome {
            c.record(ev);
        }
        if let Some(f) = &mut self.flight {
            if ev.event.flight_relevant() {
                f.record(ev);
            }
        }
    }

    fn flush(&mut self) {
        if let Some(j) = &mut self.jsonl {
            j.flush();
        }
        if let Some(c) = &mut self.chrome {
            c.flush();
        }
        if let Some(f) = &mut self.flight {
            f.flush();
        }
    }
}

/// Everything `simrun` accepts, with arity: the configuration flags
/// first (the vocabulary `simrun serve` queries share, see
/// [`ConfigFields`]), then `simrun`'s own.
const FLAGS: &[FlagSpec] = &[
    FlagSpec::value("--governor"),
    FlagSpec::value("--design"),
    FlagSpec::value("--algorithm"),
    FlagSpec::value("--trace"),
    FlagSpec::value("--seed"),
    FlagSpec::value("--cache"),
    FlagSpec::value("--ways"),
    FlagSpec::value("--block"),
    FlagSpec::value("--cap"),
    FlagSpec::value("--extension"),
    FlagSpec::value("--scale"),
    FlagSpec::value("--trace-file"),
    FlagSpec::switch("--json"),
    FlagSpec::value("--inject-at"),
    FlagSpec::value("--inject-fault"),
    FlagSpec::value("--emit-events"),
    FlagSpec::value("--chrome-trace"),
    FlagSpec::value("--flight-record"),
    FlagSpec::switch("--audit-strict"),
    FlagSpec::value("--cachescope"),
    FlagSpec::value("--cachescope-period"),
    FlagSpec::value("--leakscope"),
    FlagSpec::value("--leak-secret"),
];

/// The configuration flags resolved onto a checked [`SimConfig`].
fn build_config(args: &Args) -> Result<SimConfig, CliError> {
    let fields = ConfigFields {
        governor: args.str("--governor"),
        design: args.str("--design"),
        algorithm: args.str("--algorithm"),
        trace: args.str("--trace"),
        seed: args.num("--seed")?,
        cache: args.num("--cache")?,
        ways: args.num("--ways")?,
        block: args.num("--block")?,
        cap: args.num("--cap")?,
        extension: args.str("--extension"),
    };
    let cfg = fields.resolve().map_err(CliError::Config)?;
    Ok(cfg.with_audit_strict(args.has("--audit-strict")))
}

/// The app positional and the `--scale` it runs at.
fn workload(args: &Args) -> Result<(App, f64), CliError> {
    let [name] = args.positionals() else {
        return Err(CliError::Usage("missing app".into()));
    };
    let app =
        lookup("app", name, App::from_name, &App::ALL.map(App::name)).map_err(CliError::Config)?;
    Ok((app, args.positive("--scale")?.unwrap_or(1.0)))
}

/// Machine-readable counterpart of [`print_report`]: a JSON tree built
/// field-by-field from the stats (energies in picojoules, time in
/// seconds), stable across runs for identical inputs.
fn json_report(stats: &SimStats) -> serde_json::Value {
    use serde_json::json;
    let breakdown: Vec<_> = stats
        .breakdown
        .iter()
        .map(|(cat, e)| {
            json!({
                "category": cat.label(),
                "picojoules": e.picojoules(),
                "fraction": stats.breakdown.fraction(cat),
            })
        })
        .collect();
    let mut out = json!({
        "progress": {
            "completed": stats.completed,
            "committed_insts": stats.committed_insts,
            "executed_insts": stats.executed_insts,
            "total_cycles": stats.total_cycles,
            "cpi": stats.cpi(),
            "sim_seconds": stats.sim_time.seconds(),
        },
        "intermittence": {
            "power_cycles": stats.power_cycles.len(),
            "checkpoints": stats.checkpoints,
            "avg_insts_per_cycle": stats.avg_insts_per_cycle(),
            "decode_faults": stats.decode_faults,
            "ledger_violations": stats.ledger_violations,
        },
        "caches": {
            "icache_miss_rate": stats.icache.miss_rate(),
            "icache_accesses": stats.icache.accesses(),
            "dcache_miss_rate": stats.dcache.miss_rate(),
            "dcache_accesses": stats.dcache.accesses(),
            "compressions": stats.compression_ops(),
            "rm_bypassed_fills": stats.rm_bypassed_fills,
            "decompressions": stats.icache.decompressions + stats.dcache.decompressions,
        },
        "nvm": { "reads": stats.nvm.reads, "writes": stats.nvm.writes },
        "energy": {
            "total_picojoules": stats.total_energy().picojoules(),
            "harvested_picojoules": stats.harvested.picojoules(),
            "breakdown": breakdown,
        },
    });
    if let Some((regs, rm)) = stats.kagura_state {
        let kagura = json!({
            "r_prev": regs.0, "r_mem": regs.1, "r_adjust": regs.2,
            "r_thres": regs.3, "r_evict": regs.4, "rm_entries": rm,
        });
        if let serde_json::Value::Object(members) = &mut out {
            members.push(("kagura".to_string(), kagura));
        }
    }
    out
}

fn print_report(stats: &SimStats) {
    println!("progress");
    println!("  committed insts : {}", stats.committed_insts);
    println!(
        "  executed insts  : {} (re-executed {})",
        stats.executed_insts,
        stats.executed_insts - stats.committed_insts
    );
    println!("  total cycles    : {} (CPI {:.2})", stats.total_cycles, stats.cpi());
    println!("  sim time        : {}", stats.sim_time);
    println!("  completed       : {}", stats.completed);
    println!("intermittence");
    println!("  power cycles    : {}", stats.power_cycles.len());
    println!("  checkpoints     : {}", stats.checkpoints);
    println!("  insts/cycle     : {:.0}", stats.avg_insts_per_cycle());
    if stats.decode_faults > 0 {
        println!(
            "  decode faults   : {} (DETECTED consistency violations — blocks dropped)",
            stats.decode_faults
        );
    }
    println!("  ledger audit    : {} violation(s)", stats.ledger_violations);
    let lc = stats.load_consistency();
    println!("  cycle stability : {:.1}% of neighbours within 20%", lc.frac_below_20 * 100.0);
    println!("caches");
    println!(
        "  icache          : {:.2}% miss ({} accesses)",
        stats.icache.miss_rate() * 100.0,
        stats.icache.accesses()
    );
    println!(
        "  dcache          : {:.2}% miss ({} accesses)",
        stats.dcache.miss_rate() * 100.0,
        stats.dcache.accesses()
    );
    println!(
        "  compressions    : {} ({} averted in RM), decompressions {}",
        stats.compression_ops(),
        stats.rm_bypassed_fills,
        stats.icache.decompressions + stats.dcache.decompressions
    );
    println!("  nvm             : {} reads, {} writes", stats.nvm.reads, stats.nvm.writes);
    println!("energy");
    for (cat, e) in stats.breakdown.iter() {
        println!(
            "  {:<22}: {:>12} ({:>5.1}%)",
            cat.label(),
            e.to_string(),
            stats.breakdown.fraction(cat) * 100.0
        );
    }
    println!("  {:<22}: {:>12}", "TOTAL", stats.total_energy().to_string());
    println!("  harvested             : {:>12}", stats.harvested.to_string());
    if let Some((regs, rm)) = stats.kagura_state {
        println!("kagura");
        println!(
            "  final registers : R_prev={} R_mem={} R_adjust={} R_thres={} R_evict={}",
            regs.0, regs.1, regs.2, regs.3, regs.4
        );
        println!("  RM entries      : {rm}");
    }
}

/// The `--leakscope FILE` path: runs the timing side-channel attack on
/// the configured compressor × governor (the app positional only labels
/// the stream), writes the JSONL stream, parses it back strictly — every
/// dump is its own schema round-trip check — and renders the parsed
/// report.
fn run_leakscope(
    leak_file: &str,
    app: App,
    args: &Args,
    cfg: &SimConfig,
    injecting: bool,
) -> Result<(), CliError> {
    for conflict in [
        "--emit-events",
        "--chrome-trace",
        "--flight-record",
        "--cachescope",
        "--cachescope-period",
    ] {
        if args.has(conflict) {
            return Err(CliError::Usage(format!(
                "--leakscope cannot combine with {conflict}: one observability stream per run"
            )));
        }
    }
    if injecting {
        return Err(CliError::Usage(
            "--leakscope runs its own probe micro-kernels; --inject-at does not apply".into(),
        ));
    }
    if args.has("--trace-file") {
        return Err(CliError::Usage(
            "--leakscope uses the configured trace kind/seed; --trace-file does not apply".into(),
        ));
    }
    let mut opts = LeakscopeOptions::default();
    if let Some(hex) = args.str("--leak-secret") {
        let bytes = leakscope::from_hex(hex)
            .map_err(|e| CliError::Config(format!("bad --leak-secret: {e}")))?;
        opts.secret = bytes.try_into().map_err(|_| {
            CliError::Config("--leak-secret must be exactly 8 bytes (16 hex digits)".into())
        })?;
    }
    eprintln!(
        "leakscope: attacking {} under {} on {} (planted secret {})…",
        cfg.algorithm,
        cfg.governor.label(),
        cfg.design,
        leakscope::to_hex(&opts.secret)
    );
    let report = ehs_sim::attack_cell(cfg, &opts);
    let labels = ScopeLabels::new(app.name(), cfg.design.name(), cfg.governor.label());
    let path = Path::new(leak_file);
    leakscope::write_jsonl(path, &labels, &report)
        .map_err(|e| CliError::Runtime(format!("{leak_file}: {e}")))?;
    let parsed =
        stream::parse_file(path, leakscope::parse_leakscope_str).map_err(CliError::Runtime)?;
    eprintln!("leakscope stream written to {leak_file}");
    if args.has("--json") {
        let out = serde_json::json!({
            "leakscope": {
                "app": app.name(),
                "algorithm": parsed.algorithm,
                "governor": parsed.labels.governor,
                "supported": parsed.supported,
                "secret": leakscope::to_hex(&parsed.secret),
                "recovered": leakscope::to_hex(&parsed.recovered),
                "recovered_bytes": parsed.stats.recovered_bytes,
                "secret_bytes": parsed.stats.secret_bytes,
                "secret_recovered": parsed.stats.recovered(),
                "guesses": parsed.stats.guesses,
                "retries": parsed.stats.retries,
                "probe_accesses": parsed.stats.probe_accesses,
                "bytes_probed": parsed.stats.bytes_probed,
                "mi_bits": parsed.mi_bits,
                "capacity_bits": parsed.capacity_bits,
                "mi_samples": parsed.mi_samples,
            }
        });
        println!("{}", serde_json::to_string_pretty(&out).expect("report serialize"));
    } else {
        print!("{}", leakscope::render_leak_report(&parsed));
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `simrun serve` is its own subcommand with its own flag table.
    if raw.first().map(String::as_str) == Some("serve") {
        return kagura_bench::serve::run_serve(&raw[1..]);
    }
    // The whole command line is parsed and the config checked before
    // any simulation starts.
    let parsed = cli::parse(&raw, FLAGS, 1).and_then(|args| {
        let (app, scale) = workload(&args)?;
        Ok((args, app, scale))
    });
    let (args, app, scale) = parsed.inspect_err(|_| usage())?;
    let cfg = build_config(&args)?;

    let inject = match args.num::<u64>("--inject-at")? {
        Some(at) => {
            if at == 0 {
                return Err(CliError::Config(
                    "--inject-at is 1-based: the first boundary is 1".into(),
                ));
            }
            if cfg.governor.is_ideal() {
                return Err(CliError::Config(
                    "--inject-at cannot target ideal two-phase governors (oracle replay \
                     realigns work across power cycles)"
                        .into(),
                ));
            }
            let kind = match args.str("--inject-fault").unwrap_or("power") {
                "power" => FaultKind::PowerFailure,
                "torn" => FaultKind::TornCheckpoint { persist_blocks: 0 },
                "corrupt" => FaultKind::CorruptPayload { bit: 5 },
                other => return Err(CliError::Config(format!("unknown fault kind {other:?}"))),
            };
            Some((at, kind))
        }
        None => {
            if args.has("--inject-fault") {
                return Err(CliError::Usage("--inject-fault needs --inject-at".into()));
            }
            None
        }
    };

    if let Some(leak_file) = args.str("--leakscope") {
        return run_leakscope(leak_file, app, &args, &cfg, inject.is_some());
    }
    if args.has("--leak-secret") {
        return Err(CliError::Usage("--leak-secret needs --leakscope".into()));
    }

    let trace = match args.str("--trace-file") {
        Some(path) => {
            let f = File::open(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            // TraceError names the offending line; prepend the file.
            PowerTrace::read_text(BufReader::new(f))
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?
        }
        None => PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 4_000_000),
    };

    let program = app.build(scale);
    eprintln!(
        "running {app} ({} insts) under {} on {} with {} / {} trace…",
        program.len(),
        cfg.governor.label(),
        cfg.design,
        cfg.algorithm,
        cfg.trace_kind
    );
    if let Some((at, kind)) = inject {
        eprintln!("injecting {kind:?} after executed instruction {at}");
    }
    let events_path = args.str("--emit-events");
    let chrome_path = args.str("--chrome-trace");
    let flight_path = args.str("--flight-record");
    let instrumented = events_path.is_some() || chrome_path.is_some() || flight_path.is_some();
    let scope_path = args.str("--cachescope");
    if scope_path.is_none() && args.has("--cachescope-period") {
        return Err(CliError::Usage("--cachescope-period needs --cachescope".into()));
    }
    let scope = match args.positive("--cachescope-period")? {
        Some(n) => CachescopeConfig::periodic(n),
        None => CachescopeConfig::default(),
    };
    if scope_path.is_some() && instrumented {
        return Err(CliError::Usage(
            "--cachescope cannot combine with --emit-events/--chrome-trace/\
             --flight-record: one observability stream per run"
                .into(),
        ));
    }
    let mut sink = TeeSink::default();
    if instrumented {
        let open = |p: &str| {
            JsonlSink::create(Path::new(p)).map_err(|e| CliError::Runtime(format!("{p}: {e}")))
        };
        if let Some(p) = events_path {
            sink.jsonl = Some(open(p)?);
        }
        if chrome_path.is_some() {
            sink.chrome = Some(ChromeTraceSink::new());
        }
        if let Some(p) = flight_path {
            sink.flight = Some(open(p)?);
        }
    }
    let attach = Attach {
        telemetry: instrumented.then_some(&mut sink as &mut dyn Sink),
        cachescope: scope_path.map(|_| scope),
        leak_timeline: None,
        fault: inject,
    };
    let out = run_program_with(&program, &trace, &cfg, attach);
    let (stats, metrics, scope_report) = (out.stats, out.metrics, out.cachescope);
    if instrumented {
        if let Some(err) = sink.jsonl.as_ref().and_then(JsonlSink::error) {
            return Err(CliError::Runtime(format!(
                "writing {}: {err}",
                events_path.unwrap_or("events")
            )));
        }
        if let Some(err) = sink.flight.as_ref().and_then(JsonlSink::error) {
            return Err(CliError::Runtime(format!(
                "writing {}: {err}",
                flight_path.unwrap_or("flight record")
            )));
        }
        if let (Some(p), Some(chrome)) = (chrome_path, &sink.chrome) {
            chrome.write_to(Path::new(p)).map_err(|e| CliError::Runtime(format!("{p}: {e}")))?;
            eprintln!("chrome trace written to {p}");
        }
        if let Some(p) = events_path {
            eprintln!("event stream written to {p}");
        }
        if let Some(p) = flight_path {
            eprintln!("flight record written to {p}");
        }
    }
    // Rendered after the stats report.
    let mut scope_parsed = None;
    if let (Some(scope_file), Some(report)) = (scope_path, &scope_report) {
        let labels = ScopeLabels::new(app.name(), cfg.design.name(), cfg.governor.label());
        let path = Path::new(scope_file);
        cachescope::write_jsonl(path, &labels, report)
            .map_err(|e| CliError::Runtime(format!("{scope_file}: {e}")))?;
        // Parse the freshly-written stream back strictly: every dump is
        // its own schema round-trip check, and the rendered report below
        // comes from the parsed stream, not the in-memory report.
        scope_parsed = Some(
            stream::parse_file(path, cachescope::parse_cachescope_str)
                .map_err(CliError::Runtime)?,
        );
        eprintln!("cachescope stream written to {scope_file}");
    }
    if args.has("--json") {
        let mut report = json_report(&stats);
        if let serde_json::Value::Object(members) = &mut report {
            if let Some(m) = &metrics {
                members.push(("metrics".to_string(), m.to_json()));
            }
            if let Some(r) = &scope_report {
                members.push(("cachescope".to_string(), cachescope::report_to_json(r)));
            }
        }
        println!("{}", serde_json::to_string_pretty(&report).expect("stats serialize"));
    } else {
        print_report(&stats);
        if let Some(m) = &metrics {
            let failures = m.snapshots().len().saturating_sub(1);
            println!("telemetry");
            println!(
                "  metric snapshots: {} ({} power-cycle boundaries)",
                m.snapshots().len(),
                failures
            );
        }
        if let Some(parsed) = &scope_parsed {
            print!("{}", cachescope::render_report(parsed));
        }
    }
    if !stats.completed {
        return Err(CliError::Runtime("run hit the simulated-time guard before completing".into()));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        // Exit codes distinguish the failure class (see CliError): 2 for
        // usage errors, 3 for invalid configuration, 1 for runtime
        // failures — scripted callers assert on *why*, not on stderr.
        Err(e) => {
            eprintln!("simrun: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_compress::Algorithm;
    use ehs_energy::TraceKind;
    use ehs_sim::{EhsDesign, Extension, GovernorSpec};
    use kagura_bench::serve::request::{parse_request, Request};

    /// What `simrun` would run for this command line.
    fn simrun(argv: &[&str]) -> Result<(App, f64, SimConfig), CliError> {
        let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let args = cli::parse(&raw, FLAGS, 1)?;
        let (app, scale) = workload(&args)?;
        Ok((app, scale, build_config(&args)?))
    }

    /// What `simrun serve` would run for a `sha` query with these fields.
    fn serve(fields: &str) -> Result<SimConfig, String> {
        match parse_request(&format!(r#"{{"op":"query","app":"sha"{fields}}}"#)) {
            Ok(Request::Query { query, .. }) => Ok(query.cfg),
            Ok(other) => panic!("not a query: {other:?}"),
            Err((_, detail)) => Err(detail),
        }
    }

    #[test]
    fn every_spelling_resolves_alike_through_flags_and_queries() {
        let names: [(&str, &[&str]); 5] = [
            ("governor", GovernorSpec::NAMES),
            ("design", EhsDesign::NAMES),
            ("algorithm", Algorithm::NAMES),
            ("trace", TraceKind::NAMES),
            ("extension", Extension::NAMES),
        ];
        for (field, spellings) in names {
            for name in spellings.iter().flat_map(|n| [n.to_string(), n.to_ascii_uppercase()]) {
                let (_, _, cfg) = simrun(&["sha", &format!("--{field}"), &name]).unwrap();
                assert_eq!(Ok(cfg), serve(&format!(r#","{field}":"{name}""#)), "{field} {name}");
            }
        }
        let numbers = [
            ("seed", "7"),
            ("cache", "1024"),
            ("ways", "4"),
            ("block", "16"),
            ("cap", "1"),
            ("cap", "10.5"),
        ];
        for (field, value) in numbers {
            let (_, _, cfg) = simrun(&["sha", &format!("--{field}"), value]).unwrap();
            assert_eq!(Ok(cfg), serve(&format!(r#","{field}":{value}"#)), "{field} {value}");
        }
        assert_eq!(simrun(&["sha"]).unwrap().2, SimConfig::table1());
        assert_eq!(serve(""), Ok(SimConfig::table1()));
    }

    #[test]
    fn invalid_geometry_and_capacitance_are_typed_errors_in_both_front_ends() {
        let json_too = [
            ("cache", "7"),
            ("ways", "0"),
            ("block", "3"),
            ("block", "4"),
            ("cache", "768"),
            ("cap", "0"),
            ("cap", "-1"),
        ];
        for (field, value) in json_too {
            let flags = simrun(&["sha", &format!("--{field}"), value]);
            assert!(matches!(flags, Err(CliError::Config(_))), "--{field} {value}: {flags:?}");
            assert!(serve(&format!(r#","{field}":{value}"#)).is_err(), "{field}: {value}");
        }
        for cap in ["NaN", "inf"] {
            assert!(matches!(simrun(&["sha", "--cap", cap]), Err(CliError::Config(_))), "{cap}");
        }
    }

    #[test]
    fn flags_may_come_before_the_app() {
        let (app, scale, _) = simrun(&["--scale", "0.01", "sha"]).unwrap();
        assert_eq!((app, scale), (App::Sha, 0.01));
        assert!(matches!(simrun(&["--scale", "0.01"]), Err(CliError::Usage(_))));
        assert!(matches!(simrun(&["sha", "crc32"]), Err(CliError::Usage(_))));
    }
}
