//! Committed digests of every simulated statistic, so that a change which
//! alters any simulated bit shows up as failures rather than as a speed-up.
//!
//! Regenerate with `perfbench golden > perfbench/golden.json` — only when
//! the simulated model is meant to change.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::simwork;

const GOLDEN: &str = include_str!("../golden.json");

/// Seeds whose `brownout-cpack` digests are committed: 0–31 and the
/// held-out seed.
pub fn seeds() -> Vec<u64> {
    (0..32).chain([crate::HELD_OUT_SEED]).collect()
}

fn table(v: Option<&Value>) -> Option<BTreeMap<String, u64>> {
    let members = v?.as_object()?;
    members
        .iter()
        .map(|(k, d)| Some((k.clone(), u64::from_str_radix(d.as_str()?, 16).ok()?)))
        .collect()
}

fn parsed() -> Value {
    serde_json::from_str(GOLDEN).expect("golden.json is valid JSON")
}

/// Golden digests of the `paper-grid` cells.
pub fn paper_grid() -> Option<BTreeMap<String, u64>> {
    table(parsed().get("paper-grid"))
}

/// Golden digests of the `brownout-cpack` cells at `seed`, when committed.
pub fn brownout(seed: u64) -> Option<BTreeMap<String, u64>> {
    table(parsed().get("brownout-cpack")?.get(&seed.to_string()))
}

/// The golden file for the current program, as pretty JSON.
pub fn generate() -> String {
    let hex = |m: &BTreeMap<String, u64>| {
        Value::Object(
            m.iter().map(|(k, d)| (k.clone(), Value::from(format!("{d:016x}")))).collect(),
        )
    };
    let (grid, brown) = simwork::golden_digests(&seeds());
    let brown = Value::Object(brown.iter().map(|(s, m)| (s.to_string(), hex(m))).collect());
    let doc = Value::Object(vec![
        ("paper-grid".to_string(), hex(&grid)),
        ("brownout-cpack".to_string(), brown),
    ]);
    serde_json::to_string_pretty(&doc).expect("golden table serializes")
}
