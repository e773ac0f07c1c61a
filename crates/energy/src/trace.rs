//! Ambient power traces.
//!
//! The paper records real harvester output as *average power per 10 µs
//! window* in a text file and replays it so every configuration sees the
//! same energy budget. We reproduce the format exactly and substitute the
//! proprietary recordings with seeded stochastic generators whose first- and
//! second-order statistics match the paper's Fig 11 characterisation:
//!
//! * **RFHome** — bursty RF: a two-state (burst/quiet) Markov process with
//!   heavy-tailed burst amplitudes; lowest stable-energy fraction.
//! * **Solar** — slowly varying irradiance plus flicker; highest mean,
//!   large stable fraction.
//! * **Thermal** — near-constant gradient with small noise; the most stable
//!   source.
//!
//! Traces are cyclic: reading past the end wraps, so arbitrarily long runs
//! draw from the same (deterministic) energy sequence.

use std::fmt;
use std::io::{self, BufRead, Write};

use ehs_model::{Power, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sampling interval used by the paper's harvester logger: 10 µs.
pub const TRACE_INTERVAL: SimTime = SimTime::from_micros(10.0);

/// Why a power-trace file failed to parse, with the 1-based line that
/// broke (where one exists): harness error reports can point the user at
/// the exact offending sample rather than a generic I/O failure.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying stream failed before parsing could finish.
    Io(io::Error),
    /// A line did not parse as a number.
    Malformed {
        /// 1-based line number of the bad sample.
        line: u64,
        /// The offending text (trimmed).
        text: String,
    },
    /// A line parsed but is NaN/infinite or negative — physically
    /// meaningless as harvested power.
    OutOfRange {
        /// 1-based line number of the bad sample.
        line: u64,
        /// The parsed value.
        value: f64,
    },
    /// The file held no samples at all (blank lines excluded).
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceError::Malformed { line, text } => {
                write!(f, "line {line}: not a power sample: {text:?}")
            }
            TraceError::OutOfRange { line, value } => {
                write!(f, "line {line}: power must be finite and non-negative, got {value}")
            }
            TraceError::Empty => f.write_str("empty power trace"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Which ambient source a synthetic trace mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Bursty home RF harvesting (paper default).
    RfHome,
    /// Outdoor solar.
    Solar,
    /// Thermoelectric gradient.
    Thermal,
}

impl TraceKind {
    /// All sources, in the paper's presentation order (Fig 30).
    pub const ALL: [TraceKind; 3] = [TraceKind::RfHome, TraceKind::Solar, TraceKind::Thermal];

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::RfHome => "RFHome",
            TraceKind::Solar => "Solar",
            TraceKind::Thermal => "Thermal",
        }
    }

    /// Every spelling [`TraceKind::from_name`] accepts.
    pub const NAMES: &'static [&'static str] = &["rfhome", "rf", "solar", "thermal"];

    /// Parses a source name, case-insensitively (see [`TraceKind::NAMES`]).
    pub fn from_name(name: &str) -> Option<TraceKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "rfhome" | "rf" => TraceKind::RfHome,
            "solar" => TraceKind::Solar,
            "thermal" => TraceKind::Thermal,
            _ => return None,
        })
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A replayable harvested-power trace: one average-power sample per
/// [`TRACE_INTERVAL`].
///
/// # Examples
///
/// ```
/// use ehs_energy::{PowerTrace, TraceKind};
/// use ehs_model::SimTime;
///
/// let trace = PowerTrace::generate(TraceKind::RfHome, 42, 10_000);
/// let p = trace.power_at(SimTime::from_millis(1.0));
/// assert!(p.microwatts() >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    samples: Vec<Power>,
}

impl PowerTrace {
    /// Wraps raw samples into a trace.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: Vec<Power>) -> Self {
        assert!(!samples.is_empty(), "a power trace needs at least one sample");
        PowerTrace { samples }
    }

    /// A constant-power trace (useful for tests and idealised studies).
    pub fn constant(power: Power, len: usize) -> Self {
        Self::from_samples(vec![power; len.max(1)])
    }

    /// Generates a synthetic trace of `len` 10 µs samples for the given
    /// source, deterministically from `seed`.
    pub fn generate(kind: TraceKind, seed: u64, len: usize) -> Self {
        assert!(len > 0, "trace length must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ (kind as u64) << 32);
        let mut samples = Vec::with_capacity(len);
        match kind {
            TraceKind::RfHome => {
                // Two-state Markov: bursts of strong RF between quiet gaps.
                // Mean ~50 uW with high variance.
                let mut bursting = false;
                let mut level_uw = 0.0f64;
                for _ in 0..len {
                    if bursting {
                        // Bursts last ~2 ms on average.
                        if rng.gen::<f64>() < 0.005 {
                            bursting = false;
                        }
                    } else if rng.gen::<f64>() < 0.003 {
                        bursting = true;
                        // Heavy-tailed burst amplitude: 60..400 uW.
                        level_uw = 60.0 + 340.0 * rng.gen::<f64>().powi(3);
                    }
                    let base = if bursting { level_uw } else { 8.0 };
                    let noise = 1.0 + 0.15 * (rng.gen::<f64>() - 0.5);
                    samples.push(Power::from_microwatts((base * noise).max(0.0)));
                }
            }
            TraceKind::Solar => {
                // Slow irradiance drift (OU process) around 60 uW plus
                // small flicker; rarely drops low.
                let mut x = 0.0f64; // OU state
                for i in 0..len {
                    let slow = 60.0 + 15.0 * ((i as f64) * 2.0e-5).sin();
                    x += 0.002 * (0.0 - x) + 0.8 * (rng.gen::<f64>() - 0.5);
                    let flicker = 1.0 + 0.05 * (rng.gen::<f64>() - 0.5);
                    samples.push(Power::from_microwatts(((slow + x) * flicker).max(0.0)));
                }
            }
            TraceKind::Thermal => {
                // Nearly constant gradient: 50 uW with 3% noise.
                for _ in 0..len {
                    let noise = 1.0 + 0.06 * (rng.gen::<f64>() - 0.5);
                    samples.push(Power::from_microwatts(50.0 * noise));
                }
            }
        }
        PowerTrace { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always `false`: traces are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Duration covered before the trace wraps.
    pub fn duration(&self) -> SimTime {
        TRACE_INTERVAL * self.samples.len() as f64
    }

    /// Average power at simulated time `t` (cyclic).
    pub fn power_at(&self, t: SimTime) -> Power {
        let idx = (t.seconds() / TRACE_INTERVAL.seconds()) as u64 as usize;
        // Runs rarely outrun the trace, so branch around the wrap: an
        // integer division per sample is measurable at simulator speed.
        let n = self.samples.len();
        self.samples[if idx < n { idx } else { idx % n }]
    }

    /// Borrows the raw samples.
    pub fn samples(&self) -> &[Power] {
        &self.samples
    }

    /// Summary statistics (mean/std/stable fraction), as characterised in
    /// the paper's Fig 11.
    pub fn stats(&self) -> TraceStats {
        let n = self.samples.len() as f64;
        let mean = self.samples.iter().map(|p| p.microwatts()).sum::<f64>() / n;
        let var = self
            .samples
            .iter()
            .map(|p| {
                let d = p.microwatts() - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        // "Stable" samples sit within +/-50% of the mean.
        let stable =
            self.samples.iter().filter(|p| (p.microwatts() - mean).abs() <= 0.5 * mean).count()
                as f64
                / n;
        TraceStats {
            mean: Power::from_microwatts(mean),
            std_dev: Power::from_microwatts(var.sqrt()),
            stable_fraction: stable,
        }
    }

    /// Writes the paper's text format: one average-power value in µW per
    /// line, one line per 10 µs window.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_text<W: Write>(&self, mut w: W) -> io::Result<()> {
        for p in &self.samples {
            writeln!(w, "{:.6}", p.microwatts())?;
        }
        Ok(())
    }

    /// Reads the paper's text format produced by [`PowerTrace::write_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the offending 1-based line when the
    /// stream is unreadable ([`TraceError::Io`]), contains a non-numeric
    /// sample ([`TraceError::Malformed`]), contains a NaN/infinite/negative
    /// sample ([`TraceError::OutOfRange`]), or holds no samples at all
    /// ([`TraceError::Empty`]).
    pub fn read_text<R: BufRead>(r: R) -> Result<Self, TraceError> {
        let mut samples = Vec::new();
        for (lineno, line) in r.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let lineno = lineno as u64 + 1;
            let uw: f64 = trimmed
                .parse()
                .map_err(|_| TraceError::Malformed { line: lineno, text: trimmed.to_string() })?;
            if !uw.is_finite() || uw < 0.0 {
                return Err(TraceError::OutOfRange { line: lineno, value: uw });
            }
            samples.push(Power::from_microwatts(uw));
        }
        if samples.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(PowerTrace { samples })
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Mean harvested power.
    pub mean: Power,
    /// Standard deviation of the per-window power.
    pub std_dev: Power,
    /// Fraction of windows within ±50 % of the mean ("stable energy").
    pub stable_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = PowerTrace::generate(TraceKind::RfHome, 1, 5_000);
        let b = PowerTrace::generate(TraceKind::RfHome, 1, 5_000);
        let c = PowerTrace::generate(TraceKind::RfHome, 2, 5_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn means_are_in_the_tens_of_microwatts() {
        for kind in TraceKind::ALL {
            let stats = PowerTrace::generate(kind, 7, 200_000).stats();
            let mean = stats.mean.microwatts();
            assert!((20.0..90.0).contains(&mean), "{kind}: mean = {mean} uW");
        }
    }

    #[test]
    fn stability_ordering_matches_fig11() {
        // Thermal most stable, solar next, RF least (paper Fig 11).
        let stable = |k| PowerTrace::generate(k, 11, 200_000).stats().stable_fraction;
        let rf = stable(TraceKind::RfHome);
        let solar = stable(TraceKind::Solar);
        let thermal = stable(TraceKind::Thermal);
        assert!(thermal > 0.99, "thermal stable fraction = {thermal}");
        assert!(solar > 0.9, "solar stable fraction = {solar}");
        assert!(rf < solar, "rf ({rf}) should be less stable than solar ({solar})");
    }

    #[test]
    fn power_at_wraps_cyclically() {
        let trace = PowerTrace::from_samples(vec![
            Power::from_microwatts(1.0),
            Power::from_microwatts(2.0),
        ]);
        assert_eq!(trace.power_at(SimTime::ZERO).microwatts(), 1.0);
        assert_eq!(trace.power_at(SimTime::from_micros(10.0)).microwatts(), 2.0);
        assert_eq!(trace.power_at(SimTime::from_micros(20.0)).microwatts(), 1.0);
        assert_eq!(trace.power_at(SimTime::from_micros(35.0)).microwatts(), 2.0);
        assert!((trace.duration().micros() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn text_round_trip() {
        let trace = PowerTrace::generate(TraceKind::Solar, 3, 1000);
        let mut buf = Vec::new();
        trace.write_text(&mut buf).unwrap();
        let back = PowerTrace::read_text(buf.as_slice()).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.samples().iter().zip(back.samples()) {
            assert!((a.microwatts() - b.microwatts()).abs() < 1e-5);
        }
    }

    #[test]
    fn malformed_text_is_rejected_with_line_context() {
        match PowerTrace::read_text("12.0\nbogus\n".as_bytes()) {
            Err(TraceError::Malformed { line: 2, text }) => assert_eq!(text, "bogus"),
            other => panic!("expected Malformed at line 2, got {other:?}"),
        }
        match PowerTrace::read_text("1.0\n\n  \n-5.0\n".as_bytes()) {
            // Blank lines are skipped but still counted for context.
            Err(TraceError::OutOfRange { line: 4, value }) => assert_eq!(value, -5.0),
            other => panic!("expected OutOfRange at line 4, got {other:?}"),
        }
        match PowerTrace::read_text("3.0\nNaN\n".as_bytes()) {
            Err(TraceError::OutOfRange { line: 2, value }) => assert!(value.is_nan()),
            other => panic!("expected OutOfRange NaN at line 2, got {other:?}"),
        }
        match PowerTrace::read_text("2.0\ninf\n".as_bytes()) {
            Err(TraceError::OutOfRange { line: 2, value }) => assert!(value.is_infinite()),
            other => panic!("expected OutOfRange inf at line 2, got {other:?}"),
        }
        assert!(matches!(PowerTrace::read_text("".as_bytes()), Err(TraceError::Empty)));
        assert!(matches!(PowerTrace::read_text("\n  \n".as_bytes()), Err(TraceError::Empty)));
    }

    #[test]
    fn trace_error_messages_name_the_line() {
        let e = PowerTrace::read_text("x\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 1"), "message lacks line context: {e}");
        let e = PowerTrace::read_text("1.0\n-2.5\n".as_bytes()).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 2") && msg.contains("-2.5"), "bad message: {msg}");
    }

    #[test]
    fn constant_trace_has_zero_variance() {
        let stats = PowerTrace::constant(Power::from_microwatts(40.0), 100).stats();
        assert_eq!(stats.std_dev.microwatts(), 0.0);
        assert_eq!(stats.stable_fraction, 1.0);
    }

    #[test]
    fn rf_trace_has_bursts_and_quiet_gaps() {
        let trace = PowerTrace::generate(TraceKind::RfHome, 5, 200_000);
        let max = trace.samples().iter().map(|p| p.microwatts()).fold(0.0, f64::max);
        let min = trace.samples().iter().map(|p| p.microwatts()).fold(f64::MAX, f64::min);
        assert!(max > 60.0, "expected bursts, max = {max}");
        assert!(min < 15.0, "expected quiet gaps, min = {min}");
    }
}
