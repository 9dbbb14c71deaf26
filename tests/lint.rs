//! Workspace-clean gate: the determinism-and-safety lint pass must report
//! zero findings on the tree. This runs inside plain `cargo test -q`, so a
//! reintroduced seed-provenance, float-order or hot-path allocation hazard
//! fails CI even before the dedicated detlint step. The checks detlint left
//! to the toolchain (wall clock, std hash tables, panics in the sim crates
//! and `serve`, unsafe code) live in the manifests, the crate roots and
//! `clippy.toml`; `lint_tables_carry_the_moved_checks` keeps them there.

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

/// The rules only bite if their inputs stay wired: the engine's
/// dispatch/parse hot paths must keep their `// detlint: hot` annotations,
/// which D10 (no allocation on the hot path) is the only rule to read, and
/// the D12 cross-check must still parse the metric catalog. Deleting any
/// of these would silently disarm the lint while
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
            "{file} lost its hot-path annotations; D10 has nothing to check there"
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

/// The value of `key` in the `[section]` table of a manifest: just enough
/// TOML for the flat lint tables checked below.
fn toml_value<'a>(text: &'a str, section: &str, key: &str) -> Option<&'a str> {
    let mut current = "";
    for line in text.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = name;
        } else if current == section {
            match line.split_once('=') {
                Some((k, v)) if k.trim() == key => return Some(v.trim()),
                _ => {}
            }
        }
    }
    None
}

/// detlint retired its wall-clock, hash-order, panic and unsafe-code rules
/// because rustc and clippy enforce them. This keeps their homes whole:
/// every member forbids `unsafe_code` (directly or through
/// `[workspace.lints]`), every sim crate and `serve` denies clippy's four
/// panic lints at its crate root, and `clippy.toml` still bans both wall
/// clocks and std's `HashMap` and `HashSet`.
#[test]
fn lint_tables_carry_the_moved_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| std::fs::read_to_string(p).expect("readable manifest");
    let root_manifest = read(&root.join("Cargo.toml"));
    assert_eq!(
        toml_value(&root_manifest, "workspace.lints.rust", "unsafe_code"),
        Some("\"forbid\""),
        "[workspace.lints.rust] must forbid unsafe_code"
    );

    let mut members = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(dir)).expect(dir) {
            let manifest = entry.expect(dir).path().join("Cargo.toml");
            if manifest.is_file() {
                members.push(manifest);
            }
        }
    }
    assert!(members.len() > 10, "member discovery broke: {members:?}");
    for manifest in &members {
        let text = read(manifest);
        let inherits = toml_value(&text, "lints", "workspace") == Some("true");
        let forbids = toml_value(&text, "lints.rust", "unsafe_code") == Some("\"forbid\"");
        assert!(
            inherits || forbids,
            "{} neither inherits [workspace.lints] nor forbids unsafe_code",
            manifest.display()
        );
    }

    for krate in detlint::SIM_CRATES.iter().chain(&["serve"]) {
        let lib = read(&root.join("crates").join(krate).join("src/lib.rs"));
        let denied: Vec<&str> = lib
            .split_once("#![deny(")
            .and_then(|(_, rest)| rest.split_once(")]"))
            .map(|(list, _)| list.split(',').map(str::trim).collect())
            .unwrap_or_default();
        for lint in ["unwrap_used", "expect_used", "panic", "unreachable"] {
            assert!(
                denied.contains(&format!("clippy::{lint}").as_str()),
                "{krate}'s crate root must deny clippy::{lint}"
            );
        }
    }

    let clippy = read(&root.join("clippy.toml"));
    let list = |key: &str| {
        clippy
            .split_once(key)
            .and_then(|(_, rest)| rest.split_once("\n]"))
            .map(|(list, _)| list.to_string())
            .unwrap_or_default()
    };
    let methods = list("disallowed-methods");
    for method in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            methods.contains(&format!("\"{method}\"")),
            "clippy.toml's disallowed-methods no longer lists {method}"
        );
    }
    let types = list("disallowed-types");
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            types.contains(&format!("\"{ty}\"")),
            "clippy.toml's disallowed-types no longer lists {ty}"
        );
    }
}

#[test]
fn workspace_root_discovery_walks_ancestors() {
    let nested = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/detlint/src");
    let found = detlint::find_workspace_root(&nested).expect("root above crates/detlint/src");
    assert_eq!(found, Path::new(env!("CARGO_MANIFEST_DIR")));
}
