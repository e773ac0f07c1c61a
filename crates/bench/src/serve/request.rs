//! Strict NDJSON request parsing for `simrun serve`.
//!
//! Every request line must be one flat JSON object with a known `op`
//! and only known fields; anything else is a `bad_request` whose detail
//! names the offending field and, for plausible typos, the nearest
//! valid spelling — the same did-you-mean contract the CLI flag
//! validators give (`kagura_bench::cli::suggest`). Strictness is the
//! point: a long-running service that silently dropped a misspelled
//! `"governer"` field would answer a *different question* than the
//! client asked, with no error to show for it.
//!
//! The query fields are `simrun`'s configuration flags under the same
//! names ([`ConfigFields`]): one vocabulary, one resolution, one
//! validity check. A parsed query is immediately canonicalized: defaults
//! are filled in, aliases resolved (`"none"` → `"baseline"`, `"sweep"` →
//! `"SweepCache"`), and the result serialized as a fixed-field-order
//! fingerprint ([`Query::cache_key`]) — the same shape as the journal
//! config fingerprints, so two spellings of one configuration share one
//! cache entry. Deadline and budget fields are deliberately *excluded*
//! from the key: budgets are watchdogs, and a run that completed under
//! a non-triggering budget is byte-identical to an unlimited one
//! (budget-exhausted results are never cached).

use ehs_sim::{SimConfig, StepBudget};
use ehs_workloads::App;
use serde_json::{json, Value};

use crate::cli::{bad_name, lookup, suggest, ConfigFields};

/// Largest `cache` a query may ask for, in bytes: 16× the paper's
/// largest cache (Fig 1's 4 KiB). Cache state grows with capacity, so an
/// unbounded value would let one request exhaust the server's memory.
pub const MAX_CACHE_BYTES: u64 = 64 * 1024;

/// Every field a request object may carry, in canonical order.
pub const KNOWN_FIELDS: &[&str] = &[
    "op",
    "id",
    "app",
    "scale",
    "governor",
    "design",
    "algorithm",
    "trace",
    "seed",
    "cache",
    "ways",
    "block",
    "cap",
    "extension",
    "deadline_ms",
    "max_insts",
];

/// The operations the server answers.
pub const KNOWN_OPS: &[&str] = &["query", "health", "metrics", "shutdown"];

/// One parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve from cache) one what-if simulation.
    Query {
        /// Client-chosen correlation id, echoed verbatim in the reply.
        id: Value,
        /// The validated, canonicalized query (boxed: a resolved
        /// `SimConfig` dwarfs the other variants).
        query: Box<Query>,
    },
    /// Liveness probe.
    Health {
        /// Client-chosen correlation id.
        id: Value,
    },
    /// Server metrics snapshot.
    Metrics {
        /// Client-chosen correlation id.
        id: Value,
    },
    /// Begin a graceful drain (equivalent to SIGTERM).
    Shutdown {
        /// Client-chosen correlation id.
        id: Value,
    },
}

impl Request {
    /// The request's correlation id (JSON `null` when the client sent
    /// none).
    pub fn id(&self) -> &Value {
        match self {
            Request::Query { id, .. }
            | Request::Health { id }
            | Request::Metrics { id }
            | Request::Shutdown { id } => id,
        }
    }
}

/// A validated what-if query with all defaults resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Workload to simulate.
    pub app: App,
    /// Program scale factor (must be positive).
    pub scale: f64,
    /// Fully resolved simulation config for the requested governor.
    pub cfg: SimConfig,
    /// Per-request wall-clock deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// Per-request executed-instruction budget, if any.
    pub max_insts: Option<u64>,
}

impl Query {
    /// The canonical cache key: the resolved configuration serialized
    /// with fixed field order. Two requests that resolve to the same
    /// configuration — through defaults or aliases — share one key;
    /// deadline/budget fields never enter it (see module docs).
    pub fn cache_key(&self) -> String {
        let d = &self.cfg.system.dcache;
        let fingerprint = json!({
            "app": self.app.name(),
            "scale": self.scale,
            "governor": self.cfg.governor.name(),
            "design": self.cfg.design.name(),
            "algorithm": format!("{}", self.cfg.algorithm).to_ascii_lowercase(),
            "trace": format!("{:?}", self.cfg.trace_kind).to_ascii_lowercase(),
            "seed": self.cfg.trace_seed,
            "cache": u64::from(d.size_bytes),
            "ways": u64::from(d.ways),
            "block": u64::from(d.block_size),
            "cap_uf": self.cfg.capacitor.capacitance * 1e6,
            "extension": self.cfg.extension.name(),
        });
        serde_json::to_string(&fingerprint).expect("fingerprint serializes")
    }

    /// The request's own watchdog budget (unlimited when the client set
    /// neither field). The server intersects this with its own default
    /// via [`StepBudget::min_with`].
    pub fn budget(&self) -> StepBudget {
        StepBudget {
            max_executed_insts: self.max_insts,
            max_wall: self.deadline_ms.map(std::time::Duration::from_millis),
        }
    }
}

/// Error detail plus the best-effort correlation id extracted from the
/// malformed line, so even a rejection can be routed back to its
/// request.
pub type ParseError = (Value, String);

/// Parses and validates one request line. On failure the error carries
/// the correlation id when one could still be extracted (valid JSON
/// object with an `id` member), else JSON `null`.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| (Value::Null, format!("request is not valid JSON: {e}")))?;
    let Some(members) = value.as_object() else {
        return Err((Value::Null, "request must be a JSON object".to_string()));
    };
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let fail = |msg: String| (id.clone(), msg);

    // Reject unknown fields before anything else: a typo like
    // "governer" must never silently fall back to the default.
    for (key, _) in members {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            let detail = match suggest(key, KNOWN_FIELDS) {
                Some(nearest) => {
                    format!("unknown field `{key}` (did you mean `{nearest}`?)")
                }
                None => format!("unknown field `{key}`"),
            };
            return Err(fail(detail));
        }
    }

    let op = value
        .get("op")
        .ok_or_else(|| fail("missing field `op`".to_string()))?
        .as_str()
        .ok_or_else(|| fail("field `op` is not a string".to_string()))?;
    match op {
        "health" | "metrics" | "shutdown" => {
            // Control ops take no query fields; leftovers are mistakes.
            for (key, _) in members {
                if key != "op" && key != "id" {
                    return Err(fail(format!("field `{key}` is not valid for op {op:?}")));
                }
            }
            Ok(match op {
                "health" => Request::Health { id },
                "metrics" => Request::Metrics { id },
                _ => Request::Shutdown { id },
            })
        }
        "query" => {
            Ok(Request::Query { id: id.clone(), query: Box::new(parse_query(&value, &id)?) })
        }
        other => Err(fail(bad_name("op", other, KNOWN_OPS))),
    }
}

/// Typed field accessors that name the offending field on mismatch.
fn get_str<'a>(value: &'a Value, key: &str) -> Result<Option<&'a str>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_str().map(Some).ok_or_else(|| format!("field `{key}` is not a string")),
    }
}

fn get_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => {
            v.as_u64().map(Some).ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
        }
    }
}

fn get_f64(value: &Value, key: &str) -> Result<Option<f64>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| format!("field `{key}` is not a number")),
    }
}

/// Validates the query fields of a `{"op":"query"}` request and
/// resolves them onto a [`SimConfig`] through the vocabulary `simrun`'s
/// flags use ([`ConfigFields`]), so the service answers exactly what the
/// CLI would.
fn parse_query(value: &Value, id: &Value) -> Result<Query, ParseError> {
    let fail = |msg: String| (id.clone(), msg);
    let app_name =
        get_str(value, "app").map_err(&fail)?.ok_or_else(|| fail("missing field `app`".into()))?;
    let names = App::ALL.map(App::name);
    let app = lookup("app", app_name, App::from_name, &names).map_err(&fail)?;
    let scale = get_f64(value, "scale").map_err(&fail)?.unwrap_or(1.0);
    if scale.is_nan() || scale <= 0.0 {
        return Err(fail(format!("field `scale` must be positive, got {scale}")));
    }
    let fields = ConfigFields {
        governor: get_str(value, "governor").map_err(&fail)?,
        design: get_str(value, "design").map_err(&fail)?,
        algorithm: get_str(value, "algorithm").map_err(&fail)?,
        trace: get_str(value, "trace").map_err(&fail)?,
        seed: get_u64(value, "seed").map_err(&fail)?,
        cache: get_u64(value, "cache").map_err(&fail)?,
        ways: get_u64(value, "ways").map_err(&fail)?,
        block: get_u64(value, "block").map_err(&fail)?,
        cap: get_f64(value, "cap").map_err(&fail)?,
        extension: get_str(value, "extension").map_err(&fail)?,
    };
    if let Some(c) = fields.cache.filter(|&c| c > MAX_CACHE_BYTES) {
        return Err(fail(format!(
            "field `cache` must be at most {MAX_CACHE_BYTES} bytes, got {c}"
        )));
    }
    let cfg = fields.resolve().map_err(&fail)?;
    let deadline_ms = get_u64(value, "deadline_ms").map_err(&fail)?;
    let max_insts = get_u64(value, "max_insts").map_err(&fail)?;
    if deadline_ms == Some(0) {
        return Err(fail("field `deadline_ms` must be positive".into()));
    }
    if max_insts == Some(0) {
        return Err(fail("field `max_insts` must be positive".into()));
    }
    Ok(Query { app, scale, cfg, deadline_ms, max_insts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_query_resolves_defaults_and_aliases_to_one_key() {
        let a = parse_request(r#"{"op":"query","id":"q1","app":"sha","scale":0.01}"#).unwrap();
        let b = parse_request(
            r#"{"op":"query","id":"q2","app":"sha","scale":0.01,"governor":"none","design":"nvsramcache"}"#,
        )
        .unwrap();
        let (Request::Query { query: qa, .. }, Request::Query { query: qb, .. }) = (a, b) else {
            panic!("expected queries");
        };
        assert_eq!(qa.cache_key(), qb.cache_key(), "aliases and defaults must canonicalize");
        assert!(qa.cache_key().contains("\"governor\":\"baseline\""));
        assert!(qa.budget().is_unlimited());
    }

    #[test]
    fn budget_fields_stay_out_of_the_cache_key() {
        let with = parse_request(
            r#"{"op":"query","app":"sha","scale":0.01,"deadline_ms":5,"max_insts":100}"#,
        )
        .unwrap();
        let without = parse_request(r#"{"op":"query","app":"sha","scale":0.01}"#).unwrap();
        let (Request::Query { query: qw, .. }, Request::Query { query: qo, .. }) = (with, without)
        else {
            panic!("expected queries");
        };
        assert_eq!(qw.cache_key(), qo.cache_key());
        assert_eq!(qw.budget().max_executed_insts, Some(100));
        assert_eq!(qw.budget().max_wall, Some(std::time::Duration::from_millis(5)));
    }

    #[test]
    fn unknown_fields_and_values_get_did_you_mean() {
        let err = parse_request(r#"{"op":"query","app":"sha","governer":"kagura"}"#).unwrap_err();
        assert!(err.1.contains("`governer`") && err.1.contains("`governor`"), "{}", err.1);
        let err = parse_request(r#"{"op":"query","app":"sha","governor":"kagora"}"#).unwrap_err();
        assert!(err.1.contains("\"kagura\""), "{}", err.1);
        let err = parse_request(r#"{"op":"qurey","id":7}"#).unwrap_err();
        assert!(err.1.contains("\"query\""), "{}", err.1);
        assert_eq!(err.0, Value::U64(7), "id must survive op typos");
    }

    #[test]
    fn malformed_lines_are_rejected_with_detail() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{\"op\":\"query\"").is_err(), "truncated JSON");
        assert!(parse_request("[1,2]").unwrap_err().1.contains("must be a JSON object"));
        let err = parse_request(r#"{"op":"query","app":"sha","scale":"big"}"#).unwrap_err();
        assert!(err.1.contains("`scale`"), "{}", err.1);
        let err = parse_request(r#"{"op":"query","app":"sha","scale":-1}"#).unwrap_err();
        assert!(err.1.contains("positive"), "{}", err.1);
        let err = parse_request(r#"{"op":"query"}"#).unwrap_err();
        assert!(err.1.contains("`app`"), "{}", err.1);
        let err = parse_request(r#"{"op":"health","app":"sha"}"#).unwrap_err();
        assert!(err.1.contains("not valid for op"), "{}", err.1);
    }

    fn query(line: &str) -> Query {
        match parse_request(line) {
            Ok(Request::Query { query, .. }) => *query,
            other => panic!("{line}: {other:?}"),
        }
    }

    #[test]
    fn cache_keys_keep_their_bytes() {
        // Keys persist in the serve state file across versions, so each
        // spelling must keep resolving to these exact bytes.
        let pinned = [
            (
                r#"{"op":"query","app":"sha","scale":0.01}"#,
                r#"{"app":"sha","scale":0.01,"governor":"baseline","design":"NVSRAMCache","algorithm":"bdi","trace":"rfhome","seed":3653,"cache":256,"ways":2,"block":32,"cap_uf":4.7,"extension":"none"}"#,
            ),
            (
                r#"{"op":"query","app":"crc32","scale":0.1,"governor":"kagura","design":"nvmr","algorithm":"c-pack","trace":"rf","seed":7,"cap":1}"#,
                r#"{"app":"crc32","scale":0.1,"governor":"kagura","design":"NvMR","algorithm":"c-pack","trace":"rfhome","seed":7,"cache":256,"ways":2,"block":32,"cap_uf":1.0,"extension":"none"}"#,
            ),
            (
                r#"{"op":"query","app":"jpegd","governor":"ideal-kagura","design":"sweep","algorithm":"FPC","trace":"thermal","cache":1024,"ways":4,"block":64,"cap":10,"extension":"ipex"}"#,
                r#"{"app":"jpegd","scale":1.0,"governor":"ideal-kagura","design":"SweepCache","algorithm":"fpc","trace":"thermal","seed":3653,"cache":1024,"ways":4,"block":64,"cap_uf":10.0,"extension":"ipex"}"#,
            ),
            (
                r#"{"op":"query","app":"g721d","scale":0.5,"governor":"none","design":"nvsramcache","algorithm":"dzc","trace":"solar","extension":"edbp","cap":4.7}"#,
                r#"{"app":"g721d","scale":0.5,"governor":"baseline","design":"NVSRAMCache","algorithm":"dzc","trace":"solar","seed":3653,"cache":256,"ways":2,"block":32,"cap_uf":4.7,"extension":"edbp"}"#,
            ),
        ];
        for (line, key) in pinned {
            assert_eq!(query(line).cache_key(), key, "{line}");
        }
    }

    #[test]
    fn invalid_geometry_capacitance_and_oversized_caches_are_bad_requests() {
        for (fields, want) in [
            (r#""cache":7"#, "inconsistent cache geometry"),
            (r#""ways":0"#, "inconsistent cache geometry"),
            (r#""block":3"#, "power of two"),
            (r#""cache":768"#, "set count must be a power of two"),
            (r#""cap":0"#, "capacitance"),
            (r#""cap":-4.7"#, "capacitance"),
            (r#""ways":4294967296"#, "out of range"),
            (r#""cache":67108864"#, "at most 65536 bytes"),
        ] {
            let line = format!(r#"{{"op":"query","id":1,"app":"sha",{fields}}}"#);
            let (id, detail) = parse_request(&line).unwrap_err();
            assert!(detail.contains(want), "{fields}: {detail}");
            assert_eq!(id, Value::U64(1));
        }
        let largest = format!(r#"{{"op":"query","app":"sha","cache":{MAX_CACHE_BYTES}}}"#);
        assert_eq!(query(&largest).cfg.system.dcache.size_bytes, 65536);
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(
            parse_request(r#"{"op":"health","id":"h"}"#).unwrap(),
            Request::Health { id: Value::String("h".into()) }
        );
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics { id: Value::Null }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown","id":1}"#).unwrap(),
            Request::Shutdown { .. }
        ));
    }
}
