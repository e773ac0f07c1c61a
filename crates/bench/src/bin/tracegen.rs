//! `tracegen` — generate, inspect and convert ambient power traces in the
//! paper's text format (one average-power value in µW per 10 µs window).
//!
//! ```text
//! tracegen gen <rfhome|solar|thermal> <len> [--seed S] [--out FILE]
//! tracegen stats <FILE>
//! tracegen constant <uW> <len> [--out FILE]
//! ```
//!
//! Traces written by this tool feed straight into
//! `PowerTrace::read_text` and therefore into any simulation, so recorded
//! traces from real harvesters can be swapped in for the synthetic ones.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::process::ExitCode;

use ehs_energy::{PowerTrace, TraceKind};
use ehs_model::Power;
use kagura_bench::cli::{self, lookup, CliError, FlagSpec};

fn usage() {
    eprintln!("usage: tracegen gen <rfhome|solar|thermal> <len> [--seed S] [--out FILE]");
    eprintln!("       tracegen constant <uW> <len> [--out FILE]");
    eprintln!("       tracegen stats <FILE>");
}

fn write_out(trace: &PowerTrace, out: Option<&str>) -> io::Result<()> {
    match out {
        Some(path) => {
            // Buffer the whole trace so the file write is atomic (tmp +
            // fsync + rename): a killed tracegen never leaves a torn
            // trace for a later simulation to trip over.
            let mut buf = Vec::with_capacity(trace.len() * 12);
            trace.write_text(&mut buf)?;
            kagura_bench::fsutil::atomic_write(std::path::Path::new(path), &buf)?;
            eprintln!("wrote {} samples ({}) to {path}", trace.len(), trace.duration());
        }
        None => {
            let stdout = io::stdout();
            trace.write_text(BufWriter::new(stdout.lock()))?;
        }
    }
    Ok(())
}

fn print_stats(trace: &PowerTrace) {
    let stats = trace.stats();
    println!("samples         : {}", trace.len());
    println!("duration        : {}", trace.duration());
    println!("mean power      : {}", stats.mean);
    println!("std deviation   : {}", stats.std_dev);
    println!("stable fraction : {:.1}%", stats.stable_fraction * 100.0);
    let total = stats.mean * trace.duration();
    println!("total energy    : {total}");
    // A terminal sparkline of 60 buckets.
    let buckets = 60usize.min(trace.len());
    let per = trace.len() / buckets;
    let glyphs: Vec<char> = " .:-=+*#%@".chars().collect();
    let max = trace.samples().iter().map(|p| p.microwatts()).fold(f64::MIN, f64::max).max(1e-9);
    let mut line = String::new();
    for b in 0..buckets {
        let slice = &trace.samples()[b * per..((b + 1) * per).min(trace.len())];
        let avg = slice.iter().map(|p| p.microwatts()).sum::<f64>() / slice.len().max(1) as f64;
        let idx = ((avg / max) * (glyphs.len() - 1) as f64).round() as usize;
        line.push(glyphs[idx.min(glyphs.len() - 1)]);
    }
    println!("profile         : [{line}]");
}

const GEN_FLAGS: &[FlagSpec] = &[FlagSpec::value("--seed"), FlagSpec::value("--out")];
const CONSTANT_FLAGS: &[FlagSpec] = &[FlagSpec::value("--out")];

/// A sample-count positional: a positive integer.
fn sample_count(len: &str) -> Result<usize, CliError> {
    len.parse().ok().filter(|&l| l > 0).ok_or_else(|| {
        CliError::Config(format!("sample count must be a positive integer, got {len:?}"))
    })
}

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = raw.split_first().map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    let io = |e: io::Error| CliError::Runtime(e.to_string());
    match cmd {
        "gen" => {
            let args = cli::parse(rest, GEN_FLAGS, 2)?;
            let [kind, len] = args.positionals() else {
                return Err(CliError::Usage("gen needs a source and a sample count".into()));
            };
            let kind = lookup("source", kind, TraceKind::from_name, TraceKind::NAMES)
                .map_err(CliError::Config)?;
            let trace =
                PowerTrace::generate(kind, args.num("--seed")?.unwrap_or(42), sample_count(len)?);
            write_out(&trace, args.str("--out")).map_err(io)
        }
        "constant" => {
            let args = cli::parse(rest, CONSTANT_FLAGS, 2)?;
            let [uw, len] = args.positionals() else {
                return Err(CliError::Usage(
                    "constant needs a power in uW and a sample count".into(),
                ));
            };
            let uw: f64 = uw.parse().ok().filter(|&u: &f64| u >= 0.0).ok_or_else(|| {
                CliError::Config(format!("power must be a non-negative number of uW, got {uw:?}"))
            })?;
            let trace = PowerTrace::constant(Power::from_microwatts(uw), sample_count(len)?);
            write_out(&trace, args.str("--out")).map_err(io)
        }
        "stats" => {
            let args = cli::parse(rest, &[], 1)?;
            let [path] = args.positionals() else {
                return Err(CliError::Usage("stats needs a trace file".into()));
            };
            let f = File::open(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            // TraceError carries the offending line; prepend the file.
            let trace = PowerTrace::read_text(BufReader::new(f))
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            print_stats(&trace);
            Ok(())
        }
        _ => Err(CliError::Usage(format!("unknown command {cmd:?}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if let CliError::Usage(_) = e {
                usage();
            }
            let _ = writeln!(io::stderr(), "tracegen: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
