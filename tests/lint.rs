//! Workspace-clean gate: the determinism-and-safety lint pass must report
//! zero findings on the tree. This runs inside plain `cargo test -q`, so a
//! reintroduced hash-iteration, wall-clock, ambient-RNG, or unmarked-panic
//! hazard fails CI even before the dedicated detlint step.

use std::path::Path;

#[test]
fn workspace_is_detlint_clean() {
    // The root package's manifest dir IS the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(
        root.join("crates/detlint").is_dir(),
        "workspace root discovery broke: {}",
        root.display()
    );
    let findings = detlint::scan_workspace(root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "detlint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The flow rules only bite if their inputs stay wired: the engine's
/// dispatch/parse hot paths must keep their `// detlint: hot` annotations
/// (D9/D10 roots), and the D12 cross-check must still parse the metric
/// catalog. Deleting any of these would silently disarm the lint while
/// `workspace_is_detlint_clean` kept passing.
#[test]
fn flow_rule_inputs_stay_wired() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in [
        "crates/netsim/src/engine.rs",
        "crates/netsim/src/queue.rs",
        "crates/dnswire/src/nameref.rs",
        "crates/dnswire/src/message.rs",
    ] {
        let text = std::fs::read_to_string(root.join(file)).expect(file);
        assert!(
            text.contains("// detlint: hot"),
            "{file} lost its hot-path annotations; D9/D10 have no roots there"
        );
    }
    let decls = detlint::load_metric_decls(root);
    for name in ["net.events", "campaign.experiments"] {
        assert!(
            decls.names.contains_key(name),
            "crates/obs/src/catalog.rs no longer parses: {name} not found"
        );
    }
    assert_eq!(
        decls.names.len(),
        behind_the_curtain::obs::catalog::METRICS.len(),
        "D12 reads a different set of names than the catalog declares"
    );
}

#[test]
fn workspace_root_discovery_walks_ancestors() {
    let nested = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/detlint/src");
    let found = detlint::find_workspace_root(&nested).expect("root above crates/detlint/src");
    assert_eq!(found, Path::new(env!("CARGO_MANIFEST_DIR")));
}
