//! CLI for the `detlint` workspace determinism-and-safety lint pass.
//!
//! Usage:
//!
//! ```text
//! cargo run -p detlint                      # text diagnostics, exit 1 on findings
//! cargo run -p detlint -- --format json     # JSON report (for CI artifacts)
//! ```
//!
//! Exit codes: 0 clean, 1 lint findings, 2 internal scan errors (bad
//! arguments, unreadable or non-UTF-8 files — printed to stderr, never
//! folded into the findings stream).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                other => {
                    eprintln!(
                        "detlint: --format expects `text` or `json`, got {:?}",
                        other.unwrap_or("<missing>")
                    );
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "detlint: workspace determinism-and-safety lint pass\n\n\
                     OPTIONS:\n  \
                     --format <text|json>  output format (default: text)\n\n\
                     Rules: D6 discarded experiment Outcome, D7 dynamic sim-plane metric\n\
                     name, D8 seed-lane provenance, D10 allocation in // detlint: hot\n\
                     functions, D11 float-order hazards, D12 metric-name cross-check\n\
                     against the catalog in crates/obs/src/catalog.rs.\n\
                     Retired, now checked by the toolchain: D1 hash-iteration order\n\
                     (clippy disallowed-types; netsim::hash tables cannot iterate), D2 wall\n\
                     clock (clippy disallowed-methods), D3 ambient RNG (vendored rand has\n\
                     none), D4 and D9 panics (clippy unwrap_used/expect_used/panic/unreachable\n\
                     denied at the sim crates' and serve's roots), D5 unsafe code\n\
                     (unsafe_code = \"forbid\"), D7's host-plane half (the profiler lives\n\
                     in repro, which no sim crate depends on).\n\
                     Suppress with an inline comment marker: detlint: allow(D#) -- <reason>.\n\
                     A marker that suppresses nothing is itself an error.\n\n\
                     EXIT CODES: 0 clean, 1 findings, 2 internal scan error."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("detlint: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let start = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let Some(root) = detlint::find_workspace_root(&start) else {
        eprintln!(
            "detlint: no [workspace] manifest found above {}",
            start.display()
        );
        return ExitCode::from(2);
    };

    let report = detlint::scan_workspace_report(&root);
    let findings = &report.findings;

    match format {
        Format::Text => {
            print!("{}", detlint::report::to_text(findings));
            if findings.is_empty() {
                eprintln!("detlint: workspace clean");
            } else {
                eprintln!("detlint: {} finding(s)", findings.len());
            }
        }
        Format::Json => println!("{}", detlint::report::to_json(findings)),
    }

    if !report.errors.is_empty() {
        for e in &report.errors {
            eprintln!("detlint: scan error: {e}");
        }
        return ExitCode::from(2);
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

enum Format {
    Text,
    Json,
}
