//! The one front end for outside input: every harness binary (`repro`,
//! `simrun`, `simrun serve`, `simbench`, `tracegen`) parses its
//! command line with [`parse`] against its own [`FlagSpec`] table, and
//! `simrun` flags and `simrun serve` query fields share one configuration
//! vocabulary, [`ConfigFields`], resolved and checked in one place.
//!
//! Failures are typed ([`CliError`]): an unknown flag (with the nearest
//! valid one suggested), a missing value or a stray positional never
//! parsed; a value that parsed but names nothing valid is a
//! configuration error. No simulation starts on a command line that
//! does not mean what the user typed.

use ehs_compress::Algorithm;
use ehs_energy::TraceKind;
use ehs_sim::{EhsDesign, Extension, GovernorSpec, SimConfig};

/// A binary-level failure carrying its process exit class.
///
/// The harness binaries distinguish three failure classes so scripted
/// callers (ci.sh, the serve soak tests) can assert on *why* an
/// invocation failed instead of pattern-matching stderr:
///
/// * [`CliError::Usage`] — the command line never parsed (unknown flag,
///   missing value, stray positional). Exit code **2**, the Unix
///   convention for usage errors.
/// * [`CliError::Config`] — the command line parsed but names something
///   invalid (unknown app, bad enum value, mismatched resume
///   fingerprint). Exit code **3**.
/// * [`CliError::Runtime`] — a valid invocation failed while running
///   (I/O error, failed simulation, strict-audit violation). Exit
///   code **1**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Malformed command line; exit code 2.
    Usage(String),
    /// Valid syntax naming an invalid configuration; exit code 3.
    Config(String),
    /// A valid invocation that failed at runtime; exit code 1.
    Runtime(String),
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Config(_) => 3,
            CliError::Runtime(_) => 1,
        }
    }

    /// The user-facing message, without the class prefix.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Config(m) | CliError::Runtime(m) => m,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for CliError {}

/// Levenshtein edit distance between two ASCII-ish strings.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The candidate closest to `input` in edit distance, when close
/// enough to plausibly be a typo (distance ≤ max(2, len/3)).
pub fn suggest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let budget = (input.len() / 3).max(2);
    candidates
        .iter()
        .map(|&c| (levenshtein(input, c), c))
        .min()
        .filter(|&(d, _)| d <= budget)
        .map(|(_, c)| c)
}

/// Error text for a name that no table entry matches, naming the
/// nearest accepted spelling when one is plausibly meant.
pub fn bad_name(field: &str, got: &str, names: &[&str]) -> String {
    match suggest(&got.to_ascii_lowercase(), names) {
        Some(nearest) => format!("unknown {field} {got:?} (did you mean {nearest:?}?)"),
        None => format!("unknown {field} {got:?} (expected one of: {})", names.join(", ")),
    }
}

/// Resolves `got` through a type's name table (`from_name` and the
/// `NAMES` it accepts), or explains the miss with [`bad_name`].
///
/// # Errors
///
/// The [`bad_name`] text when `from_name` rejects `got`.
pub fn lookup<T>(
    field: &str,
    got: &str,
    from_name: fn(&str) -> Option<T>,
    names: &[&str],
) -> Result<T, String> {
    from_name(got).ok_or_else(|| bad_name(field, got, names))
}

/// One recognized flag: its name and whether it consumes a value.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Flag literal, including the leading dashes (`--scale`).
    pub name: &'static str,
    /// Whether the next argument is this flag's value.
    pub takes_value: bool,
}

impl FlagSpec {
    /// A flag that consumes the following argument.
    pub const fn value(name: &'static str) -> Self {
        FlagSpec { name, takes_value: true }
    }

    /// A boolean switch.
    pub const fn switch(name: &'static str) -> Self {
        FlagSpec { name, takes_value: false }
    }
}

/// A command line parsed by [`parse`]: the flags given (a repeated flag's
/// last value wins) and the positionals, in order.
#[derive(Debug)]
pub struct Args<'a> {
    table: &'static [FlagSpec],
    flags: Vec<(&'static str, &'a str)>,
    positionals: Vec<&'a str>,
}

/// Parses `args` against a flag table: flags and positionals may come in
/// any order, every `--flag` must be in the table, a value flag takes
/// the next argument whatever it looks like, and at most
/// `max_positionals` other arguments (negative numbers included) may
/// appear.
///
/// # Errors
///
/// [`CliError::Usage`] naming the offending argument, with the nearest
/// valid flag for plausible typos.
pub fn parse<'a>(
    args: &'a [String],
    table: &'static [FlagSpec],
    max_positionals: usize,
) -> Result<Args<'a>, CliError> {
    let mut parsed = Args { table, flags: Vec::new(), positionals: Vec::new() };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') || arg == "-" || arg.parse::<f64>().is_ok() {
            if parsed.positionals.len() == max_positionals {
                return Err(CliError::Usage(format!("unexpected argument `{arg}`")));
            }
            parsed.positionals.push(arg);
            continue;
        }
        let Some(spec) = table.iter().find(|f| f.name == *arg) else {
            let names: Vec<&str> = table.iter().map(|f| f.name).collect();
            return Err(CliError::Usage(match suggest(arg, &names) {
                Some(nearest) => format!("unknown flag `{arg}` (did you mean `{nearest}`?)"),
                None => format!("unknown flag `{arg}`"),
            }));
        };
        let value = if spec.takes_value {
            rest.next()
                .ok_or_else(|| CliError::Usage(format!("flag `{}` needs a value", spec.name)))?
        } else {
            ""
        };
        parsed.flags.push((spec.name, value));
    }
    Ok(parsed)
}

/// Numbers [`Args::positive`] accepts: finite and above zero.
pub trait Positive: std::str::FromStr {
    /// `true` when the value is finite and above zero.
    fn is_positive(&self) -> bool;
}

impl Positive for f64 {
    fn is_positive(&self) -> bool {
        *self > 0.0 && self.is_finite()
    }
}

macro_rules! positive_ints {
    ($($t:ty),*) => {$(
        impl Positive for $t {
            fn is_positive(&self) -> bool {
                *self > 0
            }
        }
    )*};
}
positive_ints!(u32, u64, usize);

impl<'a> Args<'a> {
    fn last(&self, name: &str) -> Option<&'a str> {
        debug_assert!(self.table.iter().any(|f| f.name == name), "{name} is not in the table");
        self.flags.iter().rev().find(|(f, _)| *f == name).map(|&(_, v)| v)
    }

    /// Whether the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// The value of a value flag, if given.
    pub fn str(&self, name: &str) -> Option<&'a str> {
        self.last(name)
    }

    /// The value of a value flag parsed as `T`, if given.
    ///
    /// # Errors
    ///
    /// [`CliError::Config`] when the value does not parse.
    pub fn num<T>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.last(name)
            .map(|v| v.parse().map_err(|e| CliError::Config(format!("bad {name} {v:?}: {e}"))))
            .transpose()
    }

    /// Like [`Args::num`], but the value must also be finite and above
    /// zero.
    ///
    /// # Errors
    ///
    /// [`CliError::Config`] when the value does not parse or is not
    /// positive.
    pub fn positive<T>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T: Positive,
        T::Err: std::fmt::Display,
    {
        match self.num::<T>(name)? {
            Some(v) if !v.is_positive() => {
                Err(CliError::Config(format!("{name} must be positive")))
            }
            v => Ok(v),
        }
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[&'a str] {
        &self.positionals
    }
}

/// The configuration vocabulary `simrun` and `simrun serve` share: each
/// field is both a `simrun` flag (`--governor kagura`) and a serve query
/// field (`"governor":"kagura"`), with the same names, aliases and
/// defaults (Table I). Each front end reads its raw values with its own
/// syntax checks; [`ConfigFields::resolve`] is the one place they become
/// a [`SimConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConfigFields<'a> {
    /// [`GovernorSpec::NAMES`].
    pub governor: Option<&'a str>,
    /// [`EhsDesign::NAMES`].
    pub design: Option<&'a str>,
    /// [`Algorithm::NAMES`].
    pub algorithm: Option<&'a str>,
    /// [`TraceKind::NAMES`].
    pub trace: Option<&'a str>,
    /// Trace-generation seed.
    pub seed: Option<u64>,
    /// ICache and DCache capacity in bytes.
    pub cache: Option<u64>,
    /// ICache and DCache associativity.
    pub ways: Option<u64>,
    /// ICache and DCache block size in bytes.
    pub block: Option<u64>,
    /// Capacitance in microfarads.
    pub cap: Option<f64>,
    /// [`Extension::NAMES`].
    pub extension: Option<&'a str>,
}

impl ConfigFields<'_> {
    /// Table I with these fields applied, checked by
    /// [`SimConfig::validate`].
    ///
    /// # Errors
    ///
    /// Names the unknown name or the invalid value.
    pub fn resolve(&self) -> Result<SimConfig, String> {
        let mut cfg = SimConfig::table1();
        if let Some(g) = self.governor {
            cfg.governor = lookup("governor", g, GovernorSpec::from_name, GovernorSpec::NAMES)?;
        }
        if let Some(d) = self.design {
            cfg.design = lookup("design", d, EhsDesign::from_name, EhsDesign::NAMES)?;
        }
        if let Some(a) = self.algorithm {
            cfg.algorithm = lookup("algorithm", a, Algorithm::from_name, Algorithm::NAMES)?;
        }
        if let Some(t) = self.trace {
            cfg.trace_kind = lookup("trace", t, TraceKind::from_name, TraceKind::NAMES)?;
        }
        if let Some(e) = self.extension {
            cfg.extension = lookup("extension", e, Extension::from_name, Extension::NAMES)?;
        }
        if let Some(seed) = self.seed {
            cfg.trace_seed = seed;
        }
        let u32_of = |field: &str, n: u64| {
            u32::try_from(n).map_err(|_| format!("{field} {n} is out of range"))
        };
        let (i, d) = (&mut cfg.system.icache, &mut cfg.system.dcache);
        if let Some(c) = self.cache {
            let bytes = u32_of("cache", c)?;
            (*i, *d) = (i.with_size(bytes), d.with_size(bytes));
        }
        if let Some(w) = self.ways {
            let ways = u32_of("ways", w)?;
            (*i, *d) = (i.with_ways(ways), d.with_ways(ways));
        }
        if let Some(b) = self.block {
            let bytes = u32_of("block", b)?;
            (*i, *d) = (i.with_block_size(bytes), d.with_block_size(bytes));
        }
        if let Some(uf) = self.cap {
            // `CapacitorConfig::with_capacitance_uf` on Table I's
            // thresholds, minus its assert: `validate` below reports a
            // bad value instead.
            cfg.capacitor.capacitance = uf * 1e-6;
        }
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_error_classes_map_to_distinct_exit_codes() {
        assert_eq!(CliError::Usage("bad flag".into()).exit_code(), 2);
        assert_eq!(CliError::Config("bad governor".into()).exit_code(), 3);
        assert_eq!(CliError::Runtime("io error".into()).exit_code(), 1);
        assert_eq!(CliError::Config("x".into()).message(), "x");
        assert_eq!(CliError::Usage("y".into()).to_string(), "y");
    }

    #[test]
    fn edit_distance() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("--cachescope-peroid", "--cachescope-period"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn suggests_near_misses_only() {
        let known = ["--scale", "--cachescope-period", "--governor"];
        assert_eq!(suggest("--cachescope-peroid", &known), Some("--cachescope-period"));
        assert_eq!(suggest("--scal", &known), Some("--scale"));
        assert_eq!(suggest("--frobnicate", &known), None, "no wild guesses");
        let names = GovernorSpec::NAMES;
        assert!(bad_name("governor", "Kagora", names).contains("did you mean \"kagura\""));
        assert!(bad_name("governor", "zorp", names).contains("expected one of: baseline"));
    }

    const FLAGS: &[FlagSpec] = &[FlagSpec::value("--scale"), FlagSpec::switch("--json")];

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_rejects_unknown_flags_and_missing_values() {
        let usage = |v: &[&str]| match parse(&args(v), FLAGS, 1) {
            Err(CliError::Usage(m)) => m,
            other => panic!("{v:?} must be a usage error, got {other:?}"),
        };
        assert!(usage(&["sha", "--scael", "0.5"]).contains("did you mean `--scale`"));
        assert!(!usage(&["--frobnicate"]).contains("did you mean"));
        assert!(usage(&["sha", "--scale"]).contains("needs a value"));
        assert!(usage(&["sha", "extra"]).contains("unexpected argument `extra`"));
        // A value flag takes the next argument, even one that looks
        // like a flag or a negative number.
        let argv = args(&["sha", "--scale", "-1"]);
        assert_eq!(parse(&argv, FLAGS, 1).unwrap().str("--scale"), Some("-1"));
        // A negative number on its own is a positional, not a flag.
        assert_eq!(parse(&args(&["-5"]), FLAGS, 1).unwrap().positionals(), ["-5"]);
    }

    #[test]
    fn flags_and_positionals_come_in_any_order() {
        let argv = args(&["--scale", "0.01", "sha", "--json"]);
        let a = parse(&argv, FLAGS, 1).unwrap();
        assert_eq!(a.positionals(), ["sha"]);
        assert_eq!(a.positive::<f64>("--scale"), Ok(Some(0.01)));
        assert!(a.has("--json"));
        let argv = args(&["--scale", "1", "--scale", "2"]);
        assert_eq!(parse(&argv, FLAGS, 0).unwrap().num::<u32>("--scale"), Ok(Some(2)));
    }

    #[test]
    fn bad_values_are_config_errors() {
        for (value, want) in [("big", "bad --scale"), ("0", "positive"), ("NaN", "positive")] {
            let argv = args(&["--scale", value]);
            match parse(&argv, FLAGS, 0).unwrap().positive::<f64>("--scale") {
                Err(CliError::Config(m)) => assert!(m.contains(want), "{value}: {m}"),
                other => panic!("{value}: {other:?}"),
            }
        }
        let argv = args(&["--scale", "inf"]);
        assert!(parse(&argv, FLAGS, 0).unwrap().positive::<f64>("--scale").is_err());
        assert_eq!(parse(&argv, FLAGS, 0).unwrap().positive::<f64>("--json"), Ok(None));
    }

    #[test]
    fn config_fields_resolve_onto_table1_and_validate() {
        assert_eq!(ConfigFields::default().resolve(), Ok(SimConfig::table1()));
        let cfg = ConfigFields {
            governor: Some("Rand_Threshold"),
            design: Some("NVSRAMCache"),
            algorithm: Some("C-Pack"),
            cap: Some(1.0),
            cache: Some(1024),
            ..ConfigFields::default()
        }
        .resolve()
        .unwrap();
        assert_eq!(cfg.governor.name(), "rand-threshold");
        assert_eq!(cfg.algorithm, Algorithm::CPack);
        assert_eq!(cfg.capacitor, ehs_energy::CapacitorConfig::with_capacitance_uf(1.0));
        assert_eq!(cfg.system.icache.size_bytes, 1024);
        let err = |f: ConfigFields| f.resolve().unwrap_err();
        assert!(err(ConfigFields { cache: Some(7), ..Default::default() }).contains("geometry"));
        assert!(err(ConfigFields { cap: Some(0.0), ..Default::default() }).contains("capacitance"));
        assert!(err(ConfigFields { ways: Some(1 << 40), ..Default::default() }).contains("range"));
        assert!(err(ConfigFields { trace: Some("wind"), ..Default::default() }).contains("trace"));
    }
}
