//! CLI for the `detlint` workspace determinism-and-safety lint pass.
//!
//! Usage:
//!
//! ```text
//! cargo run -p detlint                      # text diagnostics, exit 1 on findings
//! cargo run -p detlint -- --format json     # JSON report (for CI artifacts)
//! cargo run -p detlint -- --root ../other   # lint another workspace
//! ```
//!
//! Exit codes: 0 clean, 1 lint findings, 2 internal scan errors (bad
//! arguments, unreadable or non-UTF-8 files — printed to stderr, never
//! folded into the findings stream).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
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
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("detlint: --root expects a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "detlint: workspace determinism-and-safety lint pass\n\n\
                     OPTIONS:\n  \
                     --format <text|json>  output format (default: text)\n  \
                     --root <path>         workspace root (default: discovered from manifest dir)\n\n\
                     Rules: D1 hash-iteration-order escape, D6 discarded experiment Outcome,\n\
                     D7 observability-plane breach, D8 seed-lane provenance, D9 transitive\n\
                     panic reachability from // detlint: hot entry points, D10 hot-path\n\
                     allocation, D11 float-order hazards, D12 metric-name cross-check\n\
                     against the catalog in crates/obs/src/catalog.rs.\n\
                     Retired, now checked by the toolchain: D2 wall clock (clippy\n\
                     disallowed-methods), D3 ambient RNG (vendored rand has none), D4 panics\n\
                     in hot crates (clippy unwrap_used/expect_used/panic), D5 unsafe code\n\
                     (unsafe_code = \"forbid\" in the lint tables).\n\
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

    let root = match root {
        Some(r) => r,
        None => {
            let start = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            match detlint::find_workspace_root(&start) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "detlint: no [workspace] manifest found above {}",
                        start.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
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
