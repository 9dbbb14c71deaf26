//! `detlint`: a workspace determinism-and-safety lint pass.
//!
//! The campaign's headline guarantee is *byte-identical CSVs and metrics
//! for every thread count, seed, and queue implementation* (DESIGN.md §4,
//! §8). That invariant is easy to break silently: one `for` loop over a
//! `HashMap` or one literal RNG seed in a simulation path and replays
//! diverge while every unit test stays green. `detlint` makes those
//! hazards a compile gate instead of a hope — zero deps, no syn, in the
//! spirit of the vendored stubs.
//!
//! It keeps only what the compiler cannot check. The rest has a home in
//! the toolchain: clippy's `disallowed_methods` (`clippy.toml`) bans
//! `Instant::now`/`SystemTime::now`; clippy's `unwrap_used`, `expect_used`
//! and `panic` are denied in the [`HOT_CRATES`]' lint tables;
//! `unsafe_code = "forbid"` sits in `[workspace.lints.rust]`; the vendored
//! `rand` has no `thread_rng`, `from_entropy` or `random` to call; and a
//! float-keyed `BTreeMap`/`BTreeSet` does not compile (`f64: !Ord`). Rule
//! numbers D2–D5 are retired with those checks, not reused.
//!
//! Since v2 the scanner is a real pipeline (DESIGN.md §9): a spanned,
//! length-preserving lexer ([`lex`], line *and* column), an item tree with
//! per-function facts ([`model`]), and a heuristic intra-workspace call
//! graph feeding flow-aware passes. Rules:
//!
//! - **D1** — no iteration-order escape from hash collections (`for … in`,
//!   `.iter()`, `.keys()`, `.drain()`, …) in the simulation/analysis
//!   crates. Use `BTreeMap`/`BTreeSet`, or sort before iterating.
//! - **D6** — no `let _ =` discarding an experiment result's typed
//!   `Outcome` in `measure`/`analysis`.
//! - **D7** — the observability planes stay separated: `obs::host` only in
//!   the driver binaries, and sim-plane metric names must be literals.
//! - **D8** — seed-lane provenance: every `seed_from_u64`/`from_seed` in a
//!   sim crate must flow from a `lane::*` constant, directly or through a
//!   seed parameter whose callers pass lane-derived values; new lanes may
//!   only be declared in `measure`'s `lane` module.
//! - **D9** — transitive panic reachability: functions annotated
//!   `// detlint: hot` must not reach `unwrap`/`expect`/`panic!`/
//!   `unreachable!` through the call graph; the diagnostic names the
//!   shortest offending chain and is suppressible only at the sink. In the
//!   [`HOT_CRATES`] it leaves `unwrap`/`expect`/`panic!` to clippy, which
//!   already demands a reasoned `#[expect]` at each one.
//! - **D10** — no allocation (`Vec::new`, `to_vec`, `clone`, `format!`,
//!   `String::from`, `Box::new`) inside `// detlint: hot` functions.
//! - **D11** — float-order hazards: `partial_cmp` comparators in sorts and
//!   bare float→int `as` casts.
//! - **D12** — metric cross-check: every emitted metric name must be
//!   declared in `crates/obs/src/catalog.rs`, and every name declared
//!   there must be emitted.
//!
//! Suppression is explicit and audited: an inline
//! `// detlint: allow(D1) -- <reason>` marker on the offending line (or
//! alone on the line above) suppresses the named rule *only when a written
//! reason follows the `--`*. A marker without a reason is an error, and —
//! new in v2 — a marker that suppresses nothing is an error too, so stale
//! justifications cannot outlive the code they excused.

pub mod lex;
pub mod model;
pub mod report;
mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::{load_metric_decls, MetricDecls};

/// Crates whose behaviour feeds the simulation or its analysis: D1, D7b,
/// D8, D11, D12 apply here. Names are the directory names under
/// `crates/`.
pub const SIM_CRATES: &[&str] = &[
    "netsim", "dnswire", "dnssim", "cellsim", "cdnsim", "measure", "analysis", "core", "obs",
];

/// Crates allowed to touch the host plane (`obs::host`): the `repro`
/// binary, `obs` itself (the implementation), and the serving plane
/// (`serve` binds real sockets, `loadgen` paces real traffic — both run on
/// wall time by design). D7 fences everyone else onto the deterministic sim
/// plane.
pub const HOST_PLANE_CRATES: &[&str] = &["repro", "obs", "serve", "loadgen"];

/// Hot-path crates whose lint tables deny clippy's `unwrap_used`,
/// `expect_used` and `panic`, so every such sink there already carries a
/// reasoned `#[expect]`. D9 leaves those sinks to clippy and still reports
/// `unreachable!`. The workspace's `tests/lint.rs` ties this list to the
/// manifests.
pub const HOT_CRATES: &[&str] = &["netsim", "dnssim", "measure"];

/// Crates where D6 (no discarded experiment outcomes) applies.
pub const OUTCOME_CRATES: &[&str] = &["measure", "analysis"];

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration-order escape from a hash collection.
    D1,
    /// `let _ =` discarding an experiment result's typed `Outcome`.
    D6,
    /// Observability-plane breach: host-plane APIs outside the drivers, or
    /// a dynamic sim-plane metric name.
    D7,
    /// RNG seed that does not flow from a `lane::*` constant.
    D8,
    /// Hot entry point that transitively reaches a panic sink.
    D9,
    /// Allocation inside a `// detlint: hot` function.
    D10,
    /// Float-order hazard.
    D11,
    /// Metric name missing from the catalog, or dead there.
    D12,
    /// Malformed or unused allow-marker (markers are themselves linted).
    Marker,
}

impl Rule {
    /// The short identifier used in diagnostics and allow-markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D6 => "D6",
            Rule::D7 => "D7",
            Rule::D8 => "D8",
            Rule::D9 => "D9",
            Rule::D10 => "D10",
            Rule::D11 => "D11",
            Rule::D12 => "D12",
            Rule::Marker => "marker",
        }
    }

    /// Parses a rule name as written inside `allow(...)`.
    pub fn from_id(s: &str) -> Option<Rule> {
        match s.trim().to_ascii_uppercase().as_str() {
            "D1" => Some(Rule::D1),
            "D6" => Some(Rule::D6),
            "D7" => Some(Rule::D7),
            "D8" => Some(Rule::D8),
            "D9" => Some(Rule::D9),
            "D10" => Some(Rule::D10),
            "D11" => Some(Rule::D11),
            "D12" => Some(Rule::D12),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (byte offset in the line).
    pub col: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// The offending raw source line, for the text code frame.
    pub snippet: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: rule[{}]: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Where a file sits in the workspace, which decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Crate directory name (`netsim`, `analysis`, …).
    pub crate_name: String,
}

impl FileCtx {
    /// Context for a file of the named crate.
    pub fn new(crate_name: &str) -> Self {
        FileCtx {
            crate_name: crate_name.to_string(),
        }
    }

    fn sim(&self) -> bool {
        SIM_CRATES.contains(&self.crate_name.as_str())
    }

    fn outcome(&self) -> bool {
        OUTCOME_CRATES.contains(&self.crate_name.as_str())
    }
}

/// One scanned file: raw (pre-suppression) local findings, extracted
/// facts, and its allow-markers.
#[derive(Debug)]
pub struct FileRecord {
    /// Workspace-relative path.
    pub path: String,
    /// Crate directory name.
    pub crate_name: String,
    /// Local findings before suppression is applied.
    pub raw: Vec<Finding>,
    /// Item tree + flow facts.
    pub facts: model::FileFacts,
    /// Valid allow-markers whose target is non-test code.
    pub markers: Vec<lex::AllowMarker>,
}

/// Builds a [`FileRecord`] by running the lex → item-tree → local-rule
/// stages on one source file.
fn build_record(path: &str, source: &str, ctx: &FileCtx) -> FileRecord {
    let sf = lex::prepare(source);
    let facts = model::extract(&sf);
    let raw = rules::local_findings(path, &sf, &facts, ctx);
    // Markers targeting test lines are irrelevant (no rule fires there)
    // and would otherwise always read as unused.
    let markers = sf
        .markers
        .iter()
        .filter(|m| {
            !sf.is_test
                .get(m.target.saturating_sub(1))
                .copied()
                .unwrap_or(false)
        })
        .cloned()
        .collect();
    FileRecord {
        path: path.to_string(),
        crate_name: ctx.crate_name.clone(),
        raw,
        facts,
        markers,
    }
}

/// Applies allow-marker suppression to raw local + global findings,
/// tracks which markers actually suppressed something, and turns every
/// unconsumed marker into a `rule[marker]` error.
fn suppress_and_audit(records: &[FileRecord], global: Vec<Finding>) -> Vec<Finding> {
    struct FileAllow {
        /// target line → (rules allowed, marker indices targeting it).
        by_line: BTreeMap<usize, (BTreeSet<Rule>, Vec<usize>)>,
        consumed: Vec<bool>,
    }
    let mut allow: BTreeMap<&str, FileAllow> = BTreeMap::new();
    for rec in records {
        let mut by_line: BTreeMap<usize, (BTreeSet<Rule>, Vec<usize>)> = BTreeMap::new();
        for (mi, m) in rec.markers.iter().enumerate() {
            let entry = by_line.entry(m.target).or_default();
            entry.0.extend(m.rules.iter().copied());
            entry.1.push(mi);
        }
        allow.insert(
            &rec.path,
            FileAllow {
                by_line,
                consumed: vec![false; rec.markers.len()],
            },
        );
    }

    let mut out = Vec::new();
    let locals = records.iter().flat_map(|r| r.raw.iter().cloned());
    for f in locals.chain(global) {
        if f.rule == Rule::Marker {
            out.push(f);
            continue;
        }
        let Some(fa) = allow.get_mut(f.file.as_str()) else {
            out.push(f);
            continue;
        };
        let Some((rules, idxs)) = fa.by_line.get(&f.line) else {
            out.push(f);
            continue;
        };
        if !rules.contains(&f.rule) {
            out.push(f);
            continue;
        }
        for &mi in idxs {
            if records
                .iter()
                .find(|r| r.path == f.file)
                .is_some_and(|r| r.markers[mi].rules.contains(&f.rule))
            {
                fa.consumed[mi] = true;
            }
        }
    }

    for rec in records {
        let fa = &allow[rec.path.as_str()];
        for (mi, m) in rec.markers.iter().enumerate() {
            if !fa.consumed[mi] {
                let rules: Vec<&str> = m.rules.iter().map(|r| r.id()).collect();
                out.push(Finding {
                    file: rec.path.clone(),
                    line: m.line,
                    col: m.col,
                    rule: Rule::Marker,
                    message: format!(
                        "allow({}) marker suppresses nothing (no {} finding on line {}); \
                         remove the stale marker",
                        rules.join(", "),
                        rules.join("/"),
                        m.target
                    ),
                    snippet: None,
                });
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out.dedup();
    out
}

/// Scans one file's source. `file` is the label used in diagnostics. Runs
/// the local rules plus the flow passes (D8/D9) over this file's own call
/// graph; the D12 workspace cross-check needs [`scan_workspace`].
pub fn scan_file(file: &str, source: &str, ctx: &FileCtx) -> Vec<Finding> {
    let records = vec![build_record(file, source, ctx)];
    let graph = rules::build_graph(&records);
    let global = rules::global_findings(&records, &graph, None);
    suppress_and_audit(&records, global)
}

/// A workspace scan's full outcome: lint findings plus internal scan
/// errors (unreadable or non-UTF-8 files), which are *not* lint failures
/// and exit with a distinct code in the CLI.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub errors: Vec<String>,
}

/// A workspace crate to scan.
struct Package {
    name: String,
    src: PathBuf,
}

fn packages(root: &Path) -> std::io::Result<Vec<Package>> {
    let mut packages = Vec::new();
    if root.join("src").is_dir() {
        packages.push(Package {
            name: "behind-the-curtain".to_string(),
            src: root.join("src"),
        });
    }
    for parent in ["crates", "vendor"] {
        let dir = root.join(parent);
        if !dir.is_dir() {
            continue;
        }
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("Cargo.toml").is_file() && p.join("src").is_dir())
            .collect();
        entries.sort();
        for p in entries {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            packages.push(Package {
                name,
                src: p.join("src"),
            });
        }
    }
    Ok(packages)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace rooted at `root`. Test targets (`tests/`,
/// `examples/`) are skipped: every rule exempts test code.
pub fn scan_workspace_report(root: &Path) -> Report {
    let mut report = Report::default();
    let pkgs = match packages(root) {
        Ok(p) => p,
        Err(e) => {
            report.errors.push(format!("{}: {e}", root.display()));
            return report;
        }
    };
    let mut records: Vec<FileRecord> = Vec::new();
    for pkg in &pkgs {
        let mut files = Vec::new();
        if let Err(e) = collect_rs(&pkg.src, &mut files) {
            report.errors.push(format!("{}: {e}", pkg.src.display()));
            continue;
        }
        files.sort();
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            // A non-UTF-8 file surfaces here too, as `InvalidData`.
            let source = match std::fs::read_to_string(&f) {
                Ok(s) => s,
                Err(e) => {
                    report.errors.push(format!("{rel}: {e}"));
                    continue;
                }
            };
            records.push(build_record(&rel, &source, &FileCtx::new(&pkg.name)));
        }
    }

    let graph = rules::build_graph(&records);
    let decls = rules::load_metric_decls(root);
    let global = rules::global_findings(&records, &graph, Some(&decls));
    report.findings = suppress_and_audit(&records, global);
    report
}

/// Scans the whole workspace rooted at `root`. Internal scan errors
/// (unreadable files) surface as `Err`; lint findings are the `Ok` value.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let report = scan_workspace_report(root);
    if !report.errors.is_empty() {
        return Err(std::io::Error::other(report.errors.join("; ")));
    }
    Ok(report.findings)
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().find_map(|dir| {
        let manifest = dir.join("Cargo.toml");
        let text = std::fs::read_to_string(manifest).ok()?;
        text.contains("[workspace]").then(|| dir.to_path_buf())
    })
}
