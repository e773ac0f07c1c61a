//! Cachescope experiment: per-app × design × governor cache reports.
//!
//! Every cell runs with a [`ehs_sim::CachescopeConfig`] attached and
//! folds the probe stream into occupancy,
//! compressibility, lifetime and latency-attribution aggregates. The
//! canonical cell per app (NVSRAMCache × ACC+Kagura) additionally
//! samples periodic full-cache occupancy snapshots and, under
//! `--telemetry DIR`, dumps its whole stream as
//! `cachescope_<app>.jsonl` — the input `repro explain` renders and CI
//! parses back strictly.

use ehs_sim::runner::default_trace;
use ehs_sim::{Attach, CachescopeConfig, CachescopeReport, EhsDesign, GovernorSpec, SimStats};
use ehs_workloads::App;
use kagura_core::KaguraConfig;
use serde_json::{json, Value};

use super::cfg;
use crate::cachescope::{report_to_json, write_jsonl, ScopeLabels};
use crate::{parallel_map, print_table, ExpContext};

/// Governor columns of the grid, in report order.
fn governors() -> [GovernorSpec; 3] {
    [
        GovernorSpec::NoCompression,
        GovernorSpec::Acc,
        GovernorSpec::AccKagura(KaguraConfig::default()),
    ]
}

/// Short JSON keys matching [`governors`] order.
const GOV_KEYS: [&str; 3] = ["baseline", "acc", "acc_kagura"];

/// Committed instructions between occupancy snapshots on canonical cells.
const SNAPSHOT_PERIOD: u64 = 8192;

fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        "n/a".into()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / total as f64)
    }
}

/// The cachescope grid: one cache report per app × design × governor.
pub fn cachescope(ctx: &ExpContext) -> Value {
    println!("Cachescope: occupancy/compressibility, eviction split, latency attribution");
    let jobs: Vec<(App, EhsDesign, usize)> = ctx
        .sens_apps
        .iter()
        .flat_map(|&app| {
            EhsDesign::ALL.iter().flat_map(move |&design| (0..3).map(move |g| (app, design, g)))
        })
        .collect();
    // The canonical cell whose raw stream `repro explain` renders.
    let canonical = |design: EhsDesign, g: usize| design == EhsDesign::NvsramCache && g == 2;
    let runs: Vec<(SimStats, CachescopeReport)> =
        parallel_map(jobs.clone(), |&(app, design, g)| {
            let mut config = cfg(governors()[g]).with_design(design);
            config.audit_strict |= ctx.audit_strict;
            let scope = if canonical(design, g) {
                CachescopeConfig::periodic(SNAPSHOT_PERIOD)
            } else {
                CachescopeConfig::default()
            };
            let program = app.build(ctx.scale);
            let trace = default_trace(&config);
            let attach = Attach { cachescope: Some(scope), ..Attach::default() };
            let out = ehs_sim::run_program_with(&program, &trace, &config, attach);
            (out.stats, out.cachescope.expect("cachescope attached"))
        });
    for (stats, _) in &runs {
        ctx.add_cell_stats(stats);
    }

    if let Some(dir) = &ctx.telemetry_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        for ((app, design, g), (_, report)) in jobs.iter().zip(&runs) {
            if !canonical(*design, *g) {
                continue;
            }
            let labels = ScopeLabels::new(app.name(), design.name(), GOV_KEYS[*g]);
            let path = dir.join(format!("cachescope_{}.jsonl", app.name()));
            write_jsonl(&path, &labels, report)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        println!("  [cachescope streams under {} — render with `repro explain`]", dir.display());
    }

    // The table shows each app × design's canonical-governor cell; the
    // JSON carries all three governor cells per row.
    let mut rows = Vec::new();
    let mut out_rows = Vec::new();
    for (job_row, cells) in jobs.chunks(3).zip(runs.chunks(3)) {
        let (app, design, _) = job_row[0];
        let (stats, report) = &cells[2];
        let d = &report.dcache.counters;
        let l = &report.latency;
        debug_assert_eq!(l.total(), stats.total_cycles, "attribution must partition the run");
        rows.push(vec![
            app.name().to_string(),
            design.name().to_string(),
            d.hits.to_string(),
            pct(d.compressed_fills, d.fills),
            format!("{:.2}", report.dcache.ratio.mean()),
            format!("{}/{}/{}", d.capacity_evictions, d.forced_evictions, d.power_loss_evictions),
            pct(l.nvm_cycles, l.total()),
            pct(l.decompress_cycles + l.writeback_cycles, l.total()),
        ]);
        let mut cells_json = Vec::new();
        for (key, (_, report)) in GOV_KEYS.iter().zip(cells) {
            let mut cell = json!({ "governor": *key });
            if let (Value::Object(members), Value::Object(body)) =
                (&mut cell, report_to_json(report))
            {
                members.extend(body);
            }
            cells_json.push(cell);
        }
        out_rows.push(json!({
            "app": app.name(),
            "design": design.name(),
            "cells": Value::Array(cells_json),
        }));
    }
    print_table(
        &[
            "app",
            "design",
            "d-hits",
            "fills compressed",
            "ratio",
            "evict c/f/p",
            "nvm stall",
            "(de)compress stall",
        ],
        &rows,
    );
    println!("  (canonical governor ACC+Kagura shown; all three governors in the JSON)");
    let out = json!({
        "experiment": "cachescope",
        "snapshot_period": SNAPSHOT_PERIOD,
        "rows": out_rows,
    });
    ctx.save("cachescope", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governor_columns_match_their_keys() {
        let govs = governors();
        assert_eq!(govs.len(), GOV_KEYS.len());
        assert!(matches!(govs[0], GovernorSpec::NoCompression));
        assert!(matches!(govs[1], GovernorSpec::Acc));
        assert!(matches!(govs[2], GovernorSpec::AccKagura(_)));
    }

    #[test]
    fn pct_degrades_an_empty_denominator() {
        assert_eq!(pct(1, 4), "25.0%");
        assert_eq!(pct(0, 0), "n/a");
    }
}
