//! `ledger --agree A.json B.json`: do two result files of the same commit
//! agree within the benchmark's own bounds?

use crate::json::Json;
use crate::spec::{Better, Workload, END_TO_END};
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced run of `w` in a result file.
fn end_to_end(file: &Json, w: Workload) -> Option<&Json> {
    file.get("workloads")?
        .as_arr()
        .iter()
        .find(|entry| entry.get("workload").and_then(Json::as_str) == Some(w.name()))?
        .get("end_to_end")
}

/// Per workload × end-to-end metric: both medians, B ÷ A, the bound, and
/// pass or fail; the exact counts must be identical and nothing may have
/// failed. `Ok(false)` when any row fails.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = a.get("seed") == b.get("seed");
    let mut all_pass = true;
    println!(
        "{:<10} {:<15} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for w in Workload::ALL {
        let (Some(ra), Some(rb)) = (end_to_end(&a, w), end_to_end(&b, w)) else {
            continue;
        };
        for m in &END_TO_END {
            let value = |r: &Json| r.get("metrics")?.get(m.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                return Err(format!("{} {} is missing from a file", w.name(), m.name));
            };
            let ratio = vb / va;
            // How much worse B reads than A, as a share of A.
            let worse = match m.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let pass = worse <= m.bound;
            all_pass &= pass;
            println!(
                "{:<10} {:<15} {va:>14.4} {vb:>14.4} {ratio:>8.4} {:>6.2}  {}",
                w.name(),
                m.name,
                m.bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let clean = failed(ra) == 0.0 && failed(rb) == 0.0;
        // Counts and digests repeat exactly for one seed; across seeds they
        // must differ, so they are only compared like for like.
        let exact = !same_seed || ra.get("exact") == rb.get("exact");
        all_pass &= clean && exact;
        println!(
            "{:<10} fail_frac {} / {}: {}; exact counts: {}",
            w.name(),
            ra.get("fail_frac")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            rb.get("fail_frac")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            if clean { "pass" } else { "FAIL" },
            match (same_seed, exact) {
                (false, _) => "not compared (seeds differ)",
                (true, true) => "identical",
                (true, false) => "DIFFER",
            }
        );
    }
    println!(
        "{}",
        if all_pass {
            "agree: pass"
        } else {
            "agree: FAIL"
        }
    );
    Ok(all_pass)
}
