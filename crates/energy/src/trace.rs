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
//!
//! A generated trace is filled on demand, in sample order: it keeps the
//! seeded RNG and the source's process state and generates the next chunk
//! of samples when a read first reaches it. Runs use a few percent of a
//! 40 s trace, so they pay for that prefix only. The stream itself is the
//! one an eager loop would produce, bit for bit.

use std::cell::UnsafeCell;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Samples generated per fill of a lazy trace: a run that reaches sample
/// `k` pays for the first `k + 1` rounded up to a multiple of this
/// (32 KiB, well under a millisecond of generation).
const FILL_CHUNK: usize = 4096;

/// One sample slot: uninitialised until filled, then written once through
/// a shared reference (hence the cell).
type Slot = MaybeUninit<UnsafeCell<Power>>;

/// A replayable harvested-power trace: one average-power sample per
/// [`TRACE_INTERVAL`].
///
/// A generated trace is filled on demand: reading sample `k` generates
/// every sample up to it (in chunks of [`FILL_CHUNK`]) if no earlier read
/// has, so a run pays only for the prefix it reaches, in time and in
/// resident memory. The values do not depend on the order or the thread
/// of the reads.
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
pub struct PowerTrace {
    /// `len` slots, allocated but untouched until filled. Slots below
    /// `filled` hold samples and are never written again.
    slots: Box<[Slot]>,
    /// Number of leading slots filled. Grows only under `source`'s lock;
    /// its Release store publishes the slots below it.
    filled: AtomicUsize,
    /// Generator of the unfilled tail, positioned at sample `filled`;
    /// `None` once every slot is filled.
    source: Mutex<Option<Generator>>,
}

// SAFETY: `filled` is atomic and `source` a `Mutex` over plain data, so
// both are `Sync`; `slots` is the one field that is not. The only
// mutation of `slots` through `&PowerTrace` is `fill_through` writing
// slots at or above `filled`, under `source`'s lock, before the Release
// store of `filled` that covers them. Readers touch only slots below an
// Acquire load of `filled`. So no slot is read while it is written and no
// two threads write one slot, and pool workers may share a trace through
// `Arc`.
unsafe impl Sync for PowerTrace {}

impl PowerTrace {
    /// Wraps raw samples into a (fully filled) trace.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: Vec<Power>) -> Self {
        assert!(!samples.is_empty(), "a power trace needs at least one sample");
        let slots: Box<[Slot]> =
            samples.into_iter().map(|p| MaybeUninit::new(UnsafeCell::new(p))).collect();
        PowerTrace { filled: AtomicUsize::new(slots.len()), slots, source: Mutex::new(None) }
    }

    /// A constant-power trace (useful for tests and idealised studies).
    pub fn constant(power: Power, len: usize) -> Self {
        Self::from_samples(vec![power; len.max(1)])
    }

    /// A synthetic trace of `len` 10 µs samples for the given source,
    /// deterministically from `seed`.
    ///
    /// Costs O(1) in `len`: the samples are generated on first read (see
    /// [`PowerTrace`]), and sample `i` is the same value whether the
    /// trace is read in order, out of order, or all at once.
    pub fn generate(kind: TraceKind, seed: u64, len: usize) -> Self {
        assert!(len > 0, "trace length must be positive");
        PowerTrace {
            slots: Box::<[UnsafeCell<Power>]>::new_uninit_slice(len),
            filled: AtomicUsize::new(0),
            source: Mutex::new(Some(Generator::new(kind, seed))),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always `false`: traces are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Duration covered before the trace wraps.
    pub fn duration(&self) -> SimTime {
        TRACE_INTERVAL * self.slots.len() as f64
    }

    /// Average power at simulated time `t` (cyclic).
    #[inline]
    pub fn power_at(&self, t: SimTime) -> Power {
        let idx = (t.seconds() / TRACE_INTERVAL.seconds()) as u64 as usize;
        // Runs rarely outrun the trace, so branch around the wrap: an
        // integer division per sample is measurable at simulator speed.
        let n = self.slots.len();
        let idx = if idx < n { idx } else { idx % n };
        match self.filled().get(idx) {
            Some(&p) => p,
            None => self.fill_through(idx),
        }
    }

    /// Borrows the raw samples, filling the rest of the trace first.
    pub fn samples(&self) -> &[Power] {
        let n = self.slots.len();
        if self.filled.load(Ordering::Acquire) < n {
            self.fill_through(n - 1);
        }
        self.filled()
    }

    /// The filled prefix.
    #[inline]
    fn filled(&self) -> &[Power] {
        let n = self.filled.load(Ordering::Acquire);
        // SAFETY: the first `n` slots were written before the Release
        // store of `filled` this Acquire load read, and are never written
        // again; `Slot` has `Power`'s layout (`MaybeUninit` and
        // `UnsafeCell` are both `repr(transparent)`).
        unsafe { std::slice::from_raw_parts(self.slots.as_ptr().cast::<Power>(), n) }
    }

    /// Generates samples up to and including `idx`, through the end of its
    /// [`FILL_CHUNK`], unless another reader already has; returns sample
    /// `idx`.
    #[cold]
    #[inline(never)]
    fn fill_through(&self, idx: usize) -> Power {
        let mut source = self.source.lock().expect("no holder of the trace generator panics");
        let start = self.filled.load(Ordering::Relaxed);
        if idx >= start {
            let end = (idx + 1).next_multiple_of(FILL_CHUNK).min(self.slots.len());
            let gen = source.as_mut().expect("an unfilled trace keeps its generator");
            for (i, slot) in (start..end).zip(&self.slots[start..end]) {
                let p = gen.next(i);
                // SAFETY: no reader touches a slot at or above `filled`,
                // and only this function writes one, under `source`'s lock.
                unsafe { UnsafeCell::raw_get(slot.as_ptr()).write(p) };
            }
            self.filled.store(end, Ordering::Release);
            if end == self.slots.len() {
                *source = None;
            }
        }
        drop(source);
        self.filled()[idx]
    }

    /// Summary statistics (mean/std/stable fraction), as characterised in
    /// the paper's Fig 11.
    pub fn stats(&self) -> TraceStats {
        let samples = self.samples();
        let n = samples.len() as f64;
        let mean = samples.iter().map(|p| p.microwatts()).sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|p| {
                let d = p.microwatts() - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        // "Stable" samples sit within +/-50% of the mean.
        let stable = samples.iter().filter(|p| (p.microwatts() - mean).abs() <= 0.5 * mean).count()
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
        for p in self.samples() {
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
        Ok(PowerTrace::from_samples(samples))
    }
}

impl Clone for PowerTrace {
    /// Copies the filled prefix and the generator state, so the clone is
    /// filled exactly as far as `self`.
    fn clone(&self) -> Self {
        let source = self.source.lock().expect("no holder of the trace generator panics");
        let prefix = self.filled();
        let mut slots = Box::<[UnsafeCell<Power>]>::new_uninit_slice(self.slots.len());
        for (slot, &p) in slots.iter_mut().zip(prefix) {
            slot.write(UnsafeCell::new(p));
        }
        PowerTrace {
            slots,
            filled: AtomicUsize::new(prefix.len()),
            source: Mutex::new(source.clone()),
        }
    }
}

impl PartialEq for PowerTrace {
    /// Sample-by-sample equality (fills both traces).
    fn eq(&self, other: &Self) -> bool {
        self.samples() == other.samples()
    }
}

impl fmt::Debug for PowerTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PowerTrace")
            .field("len", &self.slots.len())
            .field("filled", &self.filled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The sample stream of [`PowerTrace::generate`]: the seeded RNG plus the
/// source's process state, stepped one sample at a time in index order.
#[derive(Clone)]
struct Generator {
    rng: StdRng,
    state: SourceState,
}

/// Per-source process state carried from one sample to the next.
#[derive(Clone, Copy)]
enum SourceState {
    /// Two-state Markov: bursts of strong RF between quiet gaps. Mean
    /// ~50 uW with high variance.
    RfHome { bursting: bool, level_uw: f64 },
    /// Slow irradiance drift (OU process, state `x`) around 60 uW plus
    /// small flicker; rarely drops low.
    Solar { x: f64 },
    /// Nearly constant gradient: 50 uW with 3% noise.
    Thermal,
}

impl Generator {
    fn new(kind: TraceKind, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ (kind as u64) << 32);
        let state = match kind {
            TraceKind::RfHome => SourceState::RfHome { bursting: false, level_uw: 0.0 },
            TraceKind::Solar => SourceState::Solar { x: 0.0 },
            TraceKind::Thermal => SourceState::Thermal,
        };
        Generator { rng, state }
    }

    /// Sample `i`; successive calls must pass `i = 0, 1, 2, …`.
    fn next(&mut self, i: usize) -> Power {
        let rng = &mut self.rng;
        match &mut self.state {
            SourceState::RfHome { bursting, level_uw } => {
                if *bursting {
                    // Bursts last ~2 ms on average.
                    if rng.gen::<f64>() < 0.005 {
                        *bursting = false;
                    }
                } else if rng.gen::<f64>() < 0.003 {
                    *bursting = true;
                    // Heavy-tailed burst amplitude: 60..400 uW.
                    *level_uw = 60.0 + 340.0 * rng.gen::<f64>().powi(3);
                }
                let base = if *bursting { *level_uw } else { 8.0 };
                let noise = 1.0 + 0.15 * (rng.gen::<f64>() - 0.5);
                Power::from_microwatts((base * noise).max(0.0))
            }
            SourceState::Solar { x } => {
                let slow = 60.0 + 15.0 * ((i as f64) * 2.0e-5).sin();
                *x += 0.002 * (0.0 - *x) + 0.8 * (rng.gen::<f64>() - 0.5);
                let flicker = 1.0 + 0.05 * (rng.gen::<f64>() - 0.5);
                Power::from_microwatts(((slow + *x) * flicker).max(0.0))
            }
            SourceState::Thermal => {
                let noise = 1.0 + 0.06 * (rng.gen::<f64>() - 0.5);
                Power::from_microwatts(50.0 * noise)
            }
        }
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

    /// FNV-1a over the little-endian bits of each sample.
    fn digest(samples: &[Power]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in samples {
            for b in p.watts().to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Bits of `power_at` in the middle of window `i`.
    fn bits_at(trace: &PowerTrace, i: usize) -> u64 {
        trace.power_at(TRACE_INTERVAL * (i as f64 + 0.5)).watts().to_bits()
    }

    #[test]
    fn generated_stream_is_pinned() {
        // Printed from a generator that filled whole traces up front, so
        // lazy filling must reproduce them: a moved bit anywhere in the
        // stream fails here.
        let pins = [
            (
                TraceKind::RfHome,
                0x0bfb_31ab_6a11_789c,
                0x3f34_762e_17a3_145d,
                0x3ee0_1313_7efb_e427,
            ),
            (TraceKind::Solar, 0x1adc_e26b_52ea_7158, 0x3f13_10af_666a_3ed5, 0x3f0e_f208_d666_181d),
            (
                TraceKind::Thermal,
                0xa900_52f5_1e14_1bb1,
                0x3f0a_d5ee_6b8e_6ce8,
                0x3f0a_5cdb_df4c_dc20,
            ),
        ];
        for (kind, prefix, at_123457, wrapped_17) in pins {
            let trace = PowerTrace::generate(kind, 42, 4_000_000);
            // Read out of order, across the wrap, before the prefix.
            assert_eq!(bits_at(&trace, 4_000_000 + 17), wrapped_17, "{kind}: wrapped sample 17");
            assert_eq!(bits_at(&trace, 123_457), at_123457, "{kind}: sample 123457");
            bits_at(&trace, 199_999);
            assert_eq!(digest(&trace.filled()[..200_000]), prefix, "{kind}: first 200k samples");
        }
        // The last sample, directly and wrapped, for the cheapest source
        // only: it costs a full generation, and chunking is the same for
        // every source.
        let thermal = PowerTrace::generate(TraceKind::Thermal, 42, 4_000_000);
        assert_eq!(bits_at(&thermal, 3_999_999), 0x3f0a_d494_99a2_abd7);
        assert_eq!(bits_at(&thermal, 7_999_999), 0x3f0a_d494_99a2_abd7);
    }

    #[test]
    fn reads_fill_only_the_chunks_they_reach() {
        let len = 5 * FILL_CHUNK + 123;
        let trace = PowerTrace::generate(TraceKind::Solar, 9, len);
        let filled = |t: &PowerTrace| t.filled.load(Ordering::Relaxed);
        assert_eq!(filled(&trace), 0, "generate must not fill anything");
        for k in [0, 1, FILL_CHUNK - 1, FILL_CHUNK, 3 * FILL_CHUNK + 5, len - 1] {
            trace.power_at(TRACE_INTERVAL * (k as f64 + 0.5));
            let bound = (k + 1).next_multiple_of(FILL_CHUNK).min(len);
            assert_eq!(filled(&trace), bound, "after reading sample {k}");
        }
        // A wrapped read fills nothing new.
        let short = PowerTrace::generate(TraceKind::Thermal, 9, len);
        short.power_at(TRACE_INTERVAL * (len as f64 + 2.5));
        assert_eq!(filled(&short), FILL_CHUNK);
    }

    #[test]
    fn partly_filled_traces_clone_compare_and_read_as_full_ones() {
        let len = 3 * FILL_CHUNK + 7;
        for kind in TraceKind::ALL {
            let full = PowerTrace::generate(kind, 5, len);
            let full_samples = full.samples().to_vec();
            let partial = PowerTrace::generate(kind, 5, len);
            partial.power_at(TRACE_INTERVAL * (FILL_CHUNK as f64 + 1.5));
            let copy = partial.clone();
            assert_eq!(copy.filled.load(Ordering::Relaxed), 2 * FILL_CHUNK);
            assert_eq!(copy, full, "{kind}: clone of a partly filled trace");
            assert_eq!(partial, full, "{kind}: partly filled trace");
            let fresh = PowerTrace::generate(kind, 5, len);
            fresh.power_at(SimTime::ZERO);
            assert_eq!(fresh.samples(), &full_samples[..], "{kind}: samples after a partial fill");
        }
        let debug = format!("{:?}", PowerTrace::generate(TraceKind::RfHome, 1, 4_000_000));
        assert!(debug.len() < 80, "Debug prints samples: {debug}");
    }

    #[test]
    fn threads_sharing_a_trace_read_the_sequential_stream() {
        let len = 6 * FILL_CHUNK + 321;
        let expect = PowerTrace::generate(TraceKind::RfHome, 77, len).samples().to_vec();
        let shared = std::sync::Arc::new(PowerTrace::generate(TraceKind::RfHome, 77, len));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (trace, expect, start) = (std::sync::Arc::clone(&shared), &expect, &start);
                s.spawn(move || {
                    start.wait();
                    // Interleaved strides, then reads past the end that wrap.
                    for i in (t..2 * len).step_by(4 + 2 * t) {
                        let got = trace.power_at(TRACE_INTERVAL * (i as f64 + 0.5));
                        assert_eq!(got.watts().to_bits(), expect[i % len].watts().to_bits());
                    }
                });
            }
        });
        assert_eq!(shared.samples(), &expect[..]);
    }
}
