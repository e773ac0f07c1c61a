//! One strict reader for every JSONL artifact stream.
//!
//! Flight records, cachescope and leakscope streams and fleet reports
//! share one line grammar, checked here once: blank lines are skipped;
//! every other line is a JSON object with a string `kind`; a stream with
//! a header kind must open with exactly one header line; a stream with a
//! summary kind must end with it, and nothing may follow it. [`read_str`]
//! enforces the grammar and hands each line to the stream's own decoder,
//! attaching the 1-based line number to every error; [`parse_file`]
//! prefixes the file name. The dotted-path accessors ([`u64()`],
//! [`str()`], …) name the exact nested field that is missing or mistyped,
//! so a diagnostic reads ``file:line: field `a.b` is not …``.

use std::path::{Path, PathBuf};

use serde_json::Value;

/// The structural grammar of one stream: which `kind` opens it and which
/// closes it. Body kinds are the decoder's business.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grammar {
    /// Kind of the mandatory first line, if the stream has a header.
    pub header: Option<&'static str>,
    /// Kind of the mandatory last line, if the stream has a summary.
    pub summary: Option<&'static str>,
}

/// `flight_<app>.jsonl` and every other [`JsonlSink`](crate::JsonlSink)
/// event stream: stamped events only.
pub const FLIGHT: Grammar = Grammar { header: None, summary: None };
/// `cachescope_<app>.jsonl`: header, `cycle` and `snapshot` rows, summary.
pub const CACHESCOPE: Grammar = Grammar { header: Some("cachescope"), summary: Some("summary") };
/// `leakscope_<cell>.jsonl`: header, `probe` and `guess` rows, summary.
pub const LEAKSCOPE: Grammar = Grammar { header: Some("leakscope"), summary: Some("summary") };
/// `fleet.jsonl`: header, `stratum` rows, summary.
pub const FLEET: Grammar = Grammar { header: Some("header"), summary: Some("summary") };

/// Walks a dotted path (`"dcache.counters.hits"`) through nested objects.
pub fn field<'a>(v: &'a Value, path: &str) -> Result<&'a Value, String> {
    let mut cur = v;
    for k in path.split('.') {
        cur = cur.get(k).ok_or_else(|| format!("missing field `{path}`"))?;
    }
    Ok(cur)
}

fn typed<'a, T>(
    v: &'a Value,
    path: &str,
    what: &str,
    get: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    get(field(v, path)?).ok_or_else(|| format!("field `{path}` is not {what}"))
}

/// The unsigned integer at `path`.
pub fn u64(v: &Value, path: &str) -> Result<u64, String> {
    typed(v, path, "an unsigned integer", Value::as_u64)
}

/// The (signed) integer at `path`.
pub fn i64(v: &Value, path: &str) -> Result<i64, String> {
    typed(v, path, "an integer", Value::as_i64)
}

/// The number at `path`.
pub fn f64(v: &Value, path: &str) -> Result<f64, String> {
    typed(v, path, "a number", Value::as_f64)
}

/// The string at `path`.
pub fn str<'a>(v: &'a Value, path: &str) -> Result<&'a str, String> {
    typed(v, path, "a string", Value::as_str)
}

/// The boolean at `path`.
pub fn bool(v: &Value, path: &str) -> Result<bool, String> {
    typed(v, path, "a boolean", Value::as_bool)
}

/// The array at `path`.
pub fn arr<'a>(v: &'a Value, path: &str) -> Result<&'a [Value], String> {
    typed(v, path, "an array", Value::as_array)
}

/// `None` when the field at `path` is `null`, otherwise `get`'s value:
/// `or_null(v, "pad_family", u64)`.
pub fn or_null<T>(
    v: &Value,
    path: &str,
    get: impl FnOnce(&Value, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match field(v, path)? {
        Value::Null => Ok(None),
        _ => get(v, path).map(Some).map_err(|e| e + " or null"),
    }
}

/// The decoder's answer to a `kind` its stream does not define.
pub fn unknown_kind(kind: &str) -> String {
    format!("unknown line kind `{kind}`")
}

/// Reads `text` under `grammar`, calling `decode(kind, line)` for every
/// non-blank line (header and summary included) in order.
///
/// Returns the number of the last line, against which callers report
/// whole-stream checks; every error carries the 1-based line it is
/// about. A missing header or summary is reported against the last line.
pub fn read_str(
    text: &str,
    grammar: Grammar,
    mut decode: impl FnMut(&str, &Value) -> Result<(), String>,
) -> Result<usize, (usize, String)> {
    let (mut header_seen, mut summary_seen) = (false, false);
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| (idx + 1, e);
        let v: Value = serde_json::from_str(line).map_err(|e| at(format!("invalid JSON: {e}")))?;
        if let (true, Some(summary)) = (summary_seen, grammar.summary) {
            return Err(at(format!("unexpected line after the `{summary}` line")));
        }
        let kind = str(&v, "kind").map_err(at)?;
        if let Some(header) = grammar.header {
            if kind == header && header_seen {
                return Err(at(format!("duplicate `{header}` header line")));
            }
            if kind != header && !header_seen {
                return Err(at(format!("first line must have kind `{header}`, got `{kind}`")));
            }
            header_seen = true;
        }
        decode(kind, &v).map_err(at)?;
        summary_seen = grammar.summary == Some(kind);
    }
    let last = text.lines().count().max(1);
    if let (false, Some(header)) = (header_seen, grammar.header) {
        return Err((last, format!("empty stream: missing `{header}` header line")));
    }
    if let (false, Some(summary)) = (summary_seen, grammar.summary) {
        return Err((last, format!("stream ended without a `{summary}` line")));
    }
    Ok(last)
}

/// Reads `path` and runs a stream parser over its text, prefixing any
/// error with `file:line:`.
pub fn parse_file<T>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, (usize, String)>,
) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|(line, msg)| format!("{}:{line}: {msg}", path.display()))
}

/// Every `<prefix><stem>.jsonl` directly under `dir`, as `(stem, path)`
/// pairs sorted by stem so reports render in a deterministic order.
pub fn discover(dir: &Path, prefix: &str) -> Result<Vec<(String, PathBuf)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(stem) = name.strip_prefix(prefix).and_then(|n| n.strip_suffix(".jsonl")) {
            found.push((stem.to_string(), entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// One compact JSON object per line, each newline-terminated.
pub fn to_jsonl(values: &[Value]) -> String {
    values.iter().map(|v| serde_json::to_string(v).expect("serializable") + "\n").collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// A well-formed stream of `grammar`: header, two body rows, summary.
    fn lines(grammar: Grammar) -> Vec<String> {
        let mut out = Vec::new();
        out.extend(grammar.header.map(|h| format!("{{\"kind\":\"{h}\"}}")));
        out.push("{\"kind\":\"row\",\"n\":1}".to_string());
        out.push("{\"kind\":\"row\",\"n\":2}".to_string());
        out.extend(grammar.summary.map(|s| format!("{{\"kind\":\"{s}\"}}")));
        out
    }

    fn read(grammar: Grammar, text: &str) -> Result<Vec<String>, (usize, String)> {
        let mut kinds = Vec::new();
        read_str(text, grammar, |kind, _| {
            kinds.push(kind.to_string());
            Ok(())
        })?;
        Ok(kinds)
    }

    #[test]
    fn every_grammar_enforces_the_shared_line_rules() {
        for grammar in [FLIGHT, CACHESCOPE, LEAKSCOPE, FLEET] {
            let good = lines(grammar);
            let n = good.len();

            // Blank lines (and the trailing newline) are skipped.
            let spaced = format!("\n{}\n\n", good.join("\n\n"));
            assert_eq!(read(grammar, &spaced).unwrap().len(), n, "{grammar:?}");

            // A line torn mid-token is invalid JSON on that line.
            let mut torn = good.clone();
            let cut = torn[1].len() / 2;
            torn[1].truncate(cut);
            let (line, err) = read(grammar, &torn.join("\n")).unwrap_err();
            assert_eq!(line, 2, "{grammar:?}");
            assert!(err.contains("invalid JSON"), "{grammar:?}: {err}");

            // Every line needs a string `kind`.
            let mut kindless = good.clone();
            kindless[1] = "{\"n\":1}".to_string();
            let (line, err) = read(grammar, &kindless.join("\n")).unwrap_err();
            assert_eq!(line, 2, "{grammar:?}");
            assert!(err.contains("missing field `kind`"), "{grammar:?}: {err}");

            // Errors from the decoder carry the line too.
            let (line, err) =
                read_str(&good.join("\n"), grammar, |kind, v| match (kind, v.get("n")) {
                    ("row", Some(n)) if n.as_u64() == Some(2) => Err(unknown_kind("row")),
                    _ => Ok(()),
                })
                .unwrap_err();
            assert_eq!(line, if grammar.header.is_some() { 3 } else { 2 }, "{grammar:?}");
            assert_eq!(err, "unknown line kind `row`");

            if let Some(header) = grammar.header {
                let body = good[1..].join("\n");
                let (line, err) = read(grammar, &body).unwrap_err();
                assert_eq!(line, 1, "{grammar:?}");
                assert!(err.contains("first line"), "{grammar:?}: {err}");

                let mut twice = good.clone();
                twice.insert(1, good[0].clone());
                let (line, err) = read(grammar, &twice.join("\n")).unwrap_err();
                assert_eq!(line, 2, "{grammar:?}");
                assert!(err.contains(&format!("duplicate `{header}`")), "{grammar:?}: {err}");

                let (line, err) = read(grammar, "\n").unwrap_err();
                assert_eq!(line, 1, "{grammar:?}");
                assert!(err.contains("missing `"), "{grammar:?}: {err}");
            }
            if let Some(summary) = grammar.summary {
                let (line, err) = read(grammar, &good[..n - 1].join("\n")).unwrap_err();
                assert_eq!(line, n - 1, "missing summary names the last line: {grammar:?}");
                assert!(err.contains(&format!("without a `{summary}`")), "{grammar:?}: {err}");

                let mut after = good.clone();
                after.push(good[1].clone());
                let (line, err) = read(grammar, &after.join("\n")).unwrap_err();
                assert_eq!(line, n + 1, "{grammar:?}");
                assert!(err.contains("unexpected line after"), "{grammar:?}: {err}");
            }

            // The file form prefixes `file:line:`.
            let dir = std::env::temp_dir().join("kagura_stream_grammar");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("torn.jsonl");
            std::fs::write(&path, torn.join("\n")).unwrap();
            let err = parse_file(&path, |t| read(grammar, t)).unwrap_err();
            assert!(err.contains("torn.jsonl:2: invalid JSON"), "{grammar:?}: {err}");
        }
    }

    #[test]
    fn accessors_name_the_dotted_path() {
        let v = json!({"a": {"b": 7, "s": "x", "neg": -2, "t": true, "xs": [1], "nil": null}});
        assert_eq!(u64(&v, "a.b"), Ok(7));
        assert_eq!(i64(&v, "a.neg"), Ok(-2));
        assert_eq!(f64(&v, "a.b"), Ok(7.0));
        assert_eq!(str(&v, "a.s"), Ok("x"));
        assert_eq!(bool(&v, "a.t"), Ok(true));
        assert_eq!(arr(&v, "a.xs").map(<[Value]>::len), Ok(1));
        assert_eq!(or_null(&v, "a.nil", u64), Ok(None));
        assert_eq!(or_null(&v, "a.b", u64), Ok(Some(7)));
        assert_eq!(u64(&v, "a.c").unwrap_err(), "missing field `a.c`");
        assert_eq!(u64(&v, "a.neg").unwrap_err(), "field `a.neg` is not an unsigned integer");
        assert_eq!(str(&v, "a.b").unwrap_err(), "field `a.b` is not a string");
        assert_eq!(
            or_null(&v, "a.s", u64).unwrap_err(),
            "field `a.s` is not an unsigned integer or null"
        );
    }

    #[test]
    fn discover_sorts_by_stem_and_filters_by_prefix() {
        let dir = std::env::temp_dir().join("kagura_stream_discover");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["flight_sha.jsonl", "flight_crc32.jsonl", "cachescope_sha.jsonl", "x.json"] {
            std::fs::write(dir.join(name), "").unwrap();
        }
        let stems: Vec<String> =
            discover(&dir, "flight_").unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(stems, ["crc32", "sha"]);
        assert_eq!(to_jsonl(&[json!({"kind": "a"}), json!([1])]), "{\"kind\":\"a\"}\n[1]\n");
    }
}
