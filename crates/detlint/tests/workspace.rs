//! Workspace-level behaviour over a synthetic mini-workspace on disk:
//! the D12 metric cross-check (both directions, before and after an edit)
//! and the scan-error path for unreadable input. The single-file rule
//! semantics live in `rules.rs`.

use std::fs;
use std::path::PathBuf;

use detlint::Rule;

/// Lays out a throwaway workspace with one sim crate and a metric
/// catalog, then returns its root.
fn mini_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("detlint-it-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/measure/src")).unwrap();
    fs::create_dir_all(root.join("crates/obs/src")).unwrap();
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/measure/Cargo.toml"),
        "[package]\nname = \"measure\"\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/measure/src/lib.rs"),
        "//! A sim crate.\n\n\
         pub fn emit(reg: &mut Registry) {\n    \
         reg.inc(\"sim.good\", &[]);\n    \
         reg.inc(\"sim.rogue\", &[]);\n    \
         reg.histogram_id(\"sim.timed\", &[]);\n\
         }\n",
    )
    .unwrap();
    // No `Cargo.toml` beside it, so the scanner reads this file as the
    // catalog only, not as a crate to lint.
    fs::write(
        root.join("crates/obs/src/catalog.rs"),
        "pub const METRICS: &[MetricDef] = &[\n    \
         def(\"sim.good\", Counter, \"a live metric\"),\n    \
         def(\"sim.known\", Counter, \"declared, not yet emitted\"),\n    \
         def(\"sim.timed\", Histogram, \"resolved to a handle\"),\n\
         ];\n",
    )
    .unwrap();
    root
}

#[test]
fn d12_cross_checks_both_directions_and_cache_invalidates() {
    let root = mini_workspace("d12");

    // `sim.timed` is emitted only through `histogram_id`, and that counts.
    let findings = detlint::scan_workspace(&root).expect("scan");
    let d12: Vec<_> = findings.iter().filter(|f| f.rule == Rule::D12).collect();
    assert_eq!(d12.len(), 2, "{findings:?}");
    let rogue = d12
        .iter()
        .find(|f| f.message.contains("`sim.rogue`"))
        .expect("undeclared emission flagged");
    assert_eq!(rogue.file, "crates/measure/src/lib.rs");
    assert_eq!(rogue.line, 5);
    assert!(
        rogue
            .message
            .contains("not declared in crates/obs/src/catalog.rs"),
        "{}",
        rogue.message
    );
    let dead = d12
        .iter()
        .find(|f| f.message.contains("`sim.known`"))
        .expect("dead declaration flagged");
    assert_eq!(dead.file, "crates/obs/src/catalog.rs");
    assert_eq!(dead.line, 3);
    assert!(
        dead.message
            .contains("no sim-plane or host-plane call site"),
        "{}",
        dead.message
    );
    assert_eq!(findings.len(), 2, "only D12 should fire here: {findings:?}");

    // Emitting the declared name rewrites one file; the next scan sees
    // the edit and the dead-declaration finding clears.
    let lib = root.join("crates/measure/src/lib.rs");
    let patched = fs::read_to_string(&lib).unwrap().replace(
        "reg.inc(\"sim.rogue\", &[]);",
        "reg.inc(\"sim.rogue\", &[]);\n    reg.inc(\"sim.known\", &[]);",
    );
    fs::write(&lib, patched).unwrap();
    let after = detlint::scan_workspace(&root).expect("post-edit scan");
    assert_eq!(after.len(), 1, "{after:?}");
    assert!(
        after[0].message.contains("`sim.rogue`"),
        "{}",
        after[0].message
    );

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn non_utf8_files_are_scan_errors_not_findings() {
    let root = mini_workspace("utf8");
    fs::write(
        root.join("crates/measure/src/bad.rs"),
        [0xffu8, 0xfe, b'f', b'n'],
    )
    .unwrap();

    let report = detlint::scan_workspace_report(&root);
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    assert!(report.errors[0].contains("UTF-8"), "{}", report.errors[0]);
    assert!(report.errors[0].contains("bad.rs"), "{}", report.errors[0]);
    // The readable files are still linted on a best-effort basis.
    assert!(!report.findings.is_empty());
    // The strict wrapper refuses to pretend the scan was complete.
    assert!(detlint::scan_workspace(&root).is_err());

    let _ = fs::remove_dir_all(&root);
}
