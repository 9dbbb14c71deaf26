//! Rule passes: per-file (local) checks and workspace-wide (global) flow
//! analyses over the facts extracted by [`crate::model`].
//!
//! Local rules (D6, D7, D10, D11, marker shape) need one prepared file;
//! global rules need the whole record set: **D8** seed-lane provenance
//! follows seed parameters backwards through the call graph, and **D12**
//! cross-checks emitted metric names against the catalog. All rules emit
//! *raw* findings here; suppression (and allow-marker consumption
//! accounting) happens centrally in the crate root.

use crate::lex::SourceFile;
use crate::model::{CallKind, FileFacts, SeedArg, OBS_MUTATORS};
use crate::{FileCtx, FileRecord, Finding, Rule, SIM_CRATES};
use std::collections::{BTreeMap, BTreeSet};

/// Calls whose return value carries a typed lookup `Outcome` and must not
/// be dropped with `let _ =` (D6).
const D6_CALLS: &[&str] = &[
    "resolve(",
    "resolve_with(",
    "whoami(",
    "whoami_with(",
    "run_experiment",
];

/// Allocation/formatting constructs banned inside `// detlint: hot`
/// functions (D10).
const D10_TOKENS: &[(&str, &str)] = &[
    ("Vec::new(", "Vec::new"),
    (".to_vec()", "to_vec"),
    (".clone()", "clone"),
    ("format!", "format!"),
    ("String::from(", "String::from"),
    ("Box::new(", "Box::new"),
];

/// Comparator-taking adapters checked for `partial_cmp` misuse (D11a).
const D11_SORTS: &[&str] = &[
    ".sort_by(",
    ".sort_unstable_by(",
    ".max_by(",
    ".min_by(",
    ".binary_search_by(",
];

/// Integer targets of a float `as` cast (D11b).
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Rounding adapters that make a float→int cast explicit and total.
const ROUNDERS: &[&str] = &[".round()", ".floor()", ".ceil()", ".trunc()"];

/// Method names shadowing std container/iterator APIs: heuristic method
/// resolution skips them, because an unqualified `.push(` is almost always
/// `Vec::push`, not a workspace method, and each false edge would hand D8
/// a caller whose arguments it then misreads as seeds. Workspace methods
/// with these names are still analysed when reached by path-qualified
/// calls.
const AMBIENT_METHODS: &[&str] = &[
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "clear",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "iter",
    "next",
    "clone",
    "extend",
    "drain",
    "take",
    "sort",
    "last",
    "first",
    "count",
    "sum",
    "min",
    "max",
    "rev",
    "chain",
    "zip",
    "any",
    "all",
    "position",
    "peek",
    "entry",
    "append",
    "find",
    "map",
    "filter",
    "fmt",
    "cmp",
    "partial_cmp",
    "eq",
    "hash",
    "default",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "to_string",
    "write",
    "read",
    "flush",
];

fn mk(
    file: &str,
    sf: &SourceFile,
    line: usize,
    col: usize,
    rule: Rule,
    message: String,
) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        col,
        rule,
        message,
        snippet: {
            let raw = sf.raw_line(line);
            (!raw.is_empty()).then(|| raw.to_string())
        },
    }
}

/// Position of a `let _ =` wildcard discard, if the line has one.
fn find_let_discard(code: &str) -> Option<usize> {
    const NEEDLE: &str = "let _ =";
    let mut from = 0;
    while let Some(pos) = code[from..].find(NEEDLE) {
        let at = from + pos;
        let before = code[..at].chars().next_back();
        if before.is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_')) {
            return Some(at);
        }
        from = at + NEEDLE.len();
    }
    None
}

/// Whether `s` is an integer literal (optionally suffixed/underscored).
fn is_int_literal(s: &str) -> bool {
    let t = s.trim();
    let t = INT_TYPES
        .iter()
        .find_map(|suf| t.strip_suffix(suf))
        .unwrap_or(t)
        .trim_end_matches('_');
    !t.is_empty() && t.chars().all(|c| c.is_ascii_digit() || c == '_')
}

/// All local (single-file) raw findings for one prepared file.
pub(crate) fn local_findings(
    file: &str,
    sf: &SourceFile,
    facts: &FileFacts,
    ctx: &FileCtx,
) -> Vec<Finding> {
    let mut out = Vec::new();

    for (line, col, msg) in &sf.marker_errors {
        out.push(mk(file, sf, *line, *col, Rule::Marker, msg.clone()));
    }

    for (i, code) in sf.code.iter().enumerate() {
        if sf.is_test[i] {
            continue;
        }
        let lineno = i + 1;

        if ctx.sim() {
            // D7: sim-plane registry mutators need a literal metric name.
            for m in OBS_MUTATORS {
                let mut from = 0;
                while let Some(pos) = code[from..].find(m) {
                    let at = from + pos;
                    let mut first = code[at + m.len()..].trim_start();
                    if first.is_empty() {
                        first = (i + 1..sf.code.len())
                            .map(|j| sf.code[j].trim_start())
                            .find(|c| !c.is_empty())
                            .unwrap_or("");
                    }
                    if !first.is_empty() && !first.starts_with('"') {
                        out.push(mk(
                            file,
                            sf,
                            lineno,
                            at + 2,
                            Rule::D7,
                            format!(
                                "dynamic metric name in `{}…)`; sim-plane instruments take a \
                                 `&'static str` literal name so the exported key space is fixed",
                                m.trim_end_matches('(')
                            ),
                        ));
                    }
                    from = at + m.len();
                }
            }
            d11_line(file, sf, facts, i, &mut out);
        }

        // D6: `let _ =` discarding an experiment Outcome.
        if ctx.outcome() {
            if let Some(at) = find_let_discard(code) {
                let mut rhs = code[at..].to_string();
                let mut j = i;
                while !rhs.contains(';') && j + 1 < sf.code.len() && j - i < 8 {
                    j += 1;
                    rhs.push_str(&sf.code[j]);
                }
                if let Some(call) = D6_CALLS.iter().find(|c| rhs.contains(*c)) {
                    out.push(mk(
                        file,
                        sf,
                        lineno,
                        at + 1,
                        Rule::D6,
                        format!(
                            "`let _ =` discards the typed Outcome of `{}`; record it in the \
                             dataset or propagate it",
                            call.trim_end_matches('(')
                        ),
                    ));
                }
            }
        }
    }

    // D10: allocation inside `// detlint: hot` functions.
    for f in facts.fns.iter().filter(|f| f.is_hot && !f.is_test) {
        for lineno in f.body.0..=f.body.1.min(sf.len()) {
            let code = sf.code[lineno - 1].as_str();
            for (pat, what) in D10_TOKENS {
                let mut from = 0;
                while let Some(pos) = code[from..].find(pat) {
                    let at = from + pos;
                    let col = at + 1 + usize::from(pat.starts_with('.'));
                    out.push(mk(
                        file,
                        sf,
                        lineno,
                        col,
                        Rule::D10,
                        format!(
                            "allocation `{what}` inside hot function `{}`; the hot path is \
                             zero-copy — hoist the allocation out or buffer it in the caller",
                            f.qual()
                        ),
                    ));
                    from = at + pat.len();
                }
            }
        }
    }

    out.sort_by_key(|f| (f.line, f.col, f.rule));
    out
}

/// D11 float-order hazards on one non-test line of a sim crate.
fn d11_line(file: &str, sf: &SourceFile, facts: &FileFacts, i: usize, out: &mut Vec<Finding>) {
    let code = sf.code[i].as_str();
    let lineno = i + 1;

    // D11a: partial_cmp inside comparator-taking adapters.
    for pat in D11_SORTS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(pat) {
            let at = from + pos;
            let arg = crate::model::gather_paren_arg(sf, lineno, at + pat.len() - 1);
            if arg.contains("partial_cmp") && !arg.contains("total_cmp") {
                out.push(mk(
                    file,
                    sf,
                    lineno,
                    at + 2,
                    Rule::D11,
                    format!(
                        "`{}…)` comparator uses `partial_cmp`, which is not a total order on \
                         floats; use `f64::total_cmp` (or compare non-float keys)",
                        pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                ));
            }
            from = at + pat.len();
        }
    }

    // D11b: float → integer `as` cast without an explicit rounding step.
    let mut from = 0;
    while let Some(pos) = code[from..].find(" as ") {
        let at = from + pos;
        from = at + 4;
        let after = &code[at + 4..];
        let target: String = after
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if !INT_TYPES.contains(&target.as_str()) {
            continue;
        }
        let before = code[..at].trim_end();
        if ROUNDERS.iter().any(|r| before.ends_with(r)) {
            continue;
        }
        let expr = cast_source_expr(before);
        if expr_is_float(expr, facts, lineno) {
            out.push(mk(
                file,
                sf,
                lineno,
                at + 1,
                Rule::D11,
                format!(
                    "float expression `{}` cast to `{target}` with bare `as`; make the rounding \
                     mode explicit (`.trunc()`/`.round()`/`.floor()`) so record fields are \
                     platform-stable",
                    expr.trim()
                ),
            ));
        }
    }
}

/// The source expression of an `as` cast: a trailing paren group, or a
/// trailing ident path.
fn cast_source_expr(before: &str) -> &str {
    let bytes = before.as_bytes();
    if bytes.last() == Some(&b')') {
        let mut depth = 0i32;
        for i in (0..bytes.len()).rev() {
            match bytes[i] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        return &before[i..];
                    }
                }
                _ => {}
            }
        }
        return before;
    }
    let start = bytes
        .iter()
        .rposition(|&c| !(c.is_ascii_alphanumeric() || c == b'_' || c == b'.'))
        .map(|i| i + 1)
        .unwrap_or(0);
    &before[start..]
}

/// Whether a cast-source expression is visibly a float: mentions a float
/// type, contains a float literal, or is an ident tracked as float in the
/// enclosing function (float-typed param or `let x: f64` binding).
fn expr_is_float(expr: &str, facts: &FileFacts, lineno: usize) -> bool {
    let t = expr.trim();
    if t.is_empty() {
        return false;
    }
    if t.contains("f64") || t.contains("f32") {
        return true;
    }
    // Float literal: digit '.' digit anywhere in the expression.
    let b = t.as_bytes();
    for i in 1..b.len().saturating_sub(1) {
        if b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit() {
            return true;
        }
    }
    // A bare ident that the enclosing fn types as float.
    if t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        if let Some(f) = facts
            .fns
            .iter()
            .find(|f| f.body.0 <= lineno && lineno <= f.body.1)
        {
            if f.float_params.iter().any(|p| p == t) {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Global passes: call graph, D8, D12.
// ---------------------------------------------------------------------------

/// A function's identity in the workspace record set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct FnId {
    pub rec: usize,
    pub idx: usize,
}

/// The heuristic intra-workspace call graph, kept as reverse edges: the
/// seed-provenance pass (D8) walks from a callee back to its callers.
pub(crate) struct CallGraph {
    /// Callee → callers, each with the call-site index in the caller's
    /// `calls` list.
    pub redges: BTreeMap<FnId, Vec<(FnId, usize)>>,
}

/// Builds the call graph over every non-test function in `records`.
pub(crate) fn build_graph(records: &[FileRecord]) -> CallGraph {
    // Indices over non-test fns.
    let mut path_index: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
    let mut method_index: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut bare_index: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new(); // (crate, name)
    for (ri, rec) in records.iter().enumerate() {
        for (fi, f) in rec.facts.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let id = FnId { rec: ri, idx: fi };
            match &f.impl_type {
                Some(t) => {
                    path_index.entry((t, &f.name)).or_default().push(id);
                    method_index.entry(&f.name).or_default().push(id);
                }
                None => {
                    bare_index
                        .entry((&rec.crate_name, &f.name))
                        .or_default()
                        .push(id);
                    // Free fns are also callable as `module::name(…)`.
                    let stem = file_stem(&rec.path);
                    path_index.entry((stem, &f.name)).or_default().push(id);
                    if let Some(m) = f.module.rsplit("::").next().filter(|m| !m.is_empty()) {
                        path_index.entry((m, &f.name)).or_default().push(id);
                    }
                }
            }
        }
    }

    let mut redges: BTreeMap<FnId, Vec<(FnId, usize)>> = BTreeMap::new();
    for (ri, rec) in records.iter().enumerate() {
        for (fi, f) in rec.facts.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let id = FnId { rec: ri, idx: fi };
            for (ci, call) in f.calls.iter().enumerate() {
                let targets: Vec<FnId> = match call.kind {
                    CallKind::Path => call
                        .recv
                        .as_deref()
                        .and_then(|r| path_index.get(&(r, call.name.as_str())))
                        .cloned()
                        .unwrap_or_default(),
                    CallKind::Method => {
                        if AMBIENT_METHODS.contains(&call.name.as_str()) {
                            Vec::new()
                        } else {
                            method_index
                                .get(call.name.as_str())
                                .cloned()
                                .unwrap_or_default()
                        }
                    }
                    CallKind::Bare => bare_index
                        .get(&(rec.crate_name.as_str(), call.name.as_str()))
                        .cloned()
                        .unwrap_or_default(),
                };
                for t in targets {
                    if t != id {
                        redges.entry(t).or_default().push((id, ci));
                    }
                }
            }
        }
    }
    CallGraph { redges }
}

fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

/// Declared metric names with their declaration site, for D12.
#[derive(Debug, Default)]
pub struct MetricDecls {
    /// name → line of its declaration in the catalog.
    pub names: BTreeMap<String, usize>,
}

/// All global raw findings over the workspace record set. `decls` is
/// `None` in single-file mode, which skips the D12 cross-check.
pub(crate) fn global_findings(
    records: &[FileRecord],
    graph: &CallGraph,
    decls: Option<&MetricDecls>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    d8_pass(records, graph, &mut out);
    if let Some(decls) = decls {
        d12_pass(records, decls, &mut out);
    }
    out.sort_by_key(|f| (f.file.clone(), f.line, f.col, f.rule));
    out
}

fn gmk(rec: &FileRecord, line: usize, col: usize, rule: Rule, message: String) -> Finding {
    Finding {
        file: rec.path.clone(),
        line,
        col,
        rule,
        message,
        snippet: None,
    }
}

/// D8: seed-lane provenance. Every RNG construction in a sim crate must
/// flow from a `lane::*` constant — directly, or through a seed parameter
/// whose workspace callers all pass lane-derived values. Also: the `lane`
/// module may only be declared in `measure`.
fn d8_pass(records: &[FileRecord], graph: &CallGraph, out: &mut Vec<Finding>) {
    for (ri, rec) in records.iter().enumerate() {
        if !SIM_CRATES.contains(&rec.crate_name.as_str()) {
            continue;
        }
        for &line in &rec.facts.lane_mods {
            if rec.crate_name != "measure" {
                out.push(gmk(
                    rec,
                    line,
                    1,
                    Rule::D8,
                    "seed lanes may only be declared in `measure`'s `lane` module; add the \
                     lane there so every stream stays centrally audited"
                        .to_string(),
                ));
            }
        }
        for (fi, f) in rec.facts.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for site in &f.rng_sites {
                match &site.arg {
                    SeedArg::Lane => {}
                    SeedArg::Param(p) => {
                        let id = FnId { rec: ri, idx: fi };
                        let mut visited = BTreeSet::new();
                        flag_literal_callers(records, graph, id, p, site, &mut visited, out);
                    }
                    SeedArg::Opaque(text) => {
                        out.push(gmk(
                            rec,
                            site.line,
                            site.col,
                            Rule::D8,
                            format!(
                                "`{}({text})` does not flow from a `lane::*` constant; derive \
                                 the seed via `derive_seed(master, lane::…, …)`",
                                site.ctor
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Walks callers of `id` backwards, flagging any non-test caller that pins
/// the seed parameter `param` to an integer literal.
fn flag_literal_callers(
    records: &[FileRecord],
    graph: &CallGraph,
    id: FnId,
    param: &str,
    site: &crate::model::RngSite,
    visited: &mut BTreeSet<FnId>,
    out: &mut Vec<Finding>,
) {
    if !visited.insert(id) {
        return;
    }
    let callee = &records[id.rec].facts.fns[id.idx];
    let Some(pos) = callee.params.iter().position(|p| p == param) else {
        return;
    };
    let Some(callers) = graph.redges.get(&id) else {
        return;
    };
    for &(cid, ci) in callers {
        let crec = &records[cid.rec];
        let cf = &crec.facts.fns[cid.idx];
        let call = &cf.calls[ci];
        let args = split_args(&call.args);
        let Some(arg) = args.get(pos).map(|a| a.trim()) else {
            continue;
        };
        if arg.contains("lane::") {
            continue;
        }
        if is_int_literal(arg) {
            out.push(gmk(
                crec,
                call.line,
                call.col,
                Rule::D8,
                format!(
                    "literal seed `{arg}` flows into `{}`'s RNG at {}:{}:{}; route it through \
                     a `lane::*` constant instead",
                    callee.qual(),
                    records[id.rec].path,
                    site.line,
                    site.col
                ),
            ));
        } else if arg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && cf.params.iter().any(|p| p == arg)
        {
            flag_literal_callers(records, graph, cid, arg, site, visited, out);
        }
        // Anything else (field reads, derive_seed calls without a visible
        // lane) is accepted: the heuristic only rejects what it can prove.
    }
}

/// Splits a call-argument string on top-level commas.
fn split_args(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// D12: metric-name cross-check between obs mutator call sites and the
/// catalog.
fn d12_pass(records: &[FileRecord], decls: &MetricDecls, out: &mut Vec<Finding>) {
    let mut used: BTreeMap<&str, Vec<(usize, usize, usize)>> = BTreeMap::new(); // name → (rec, line, col)
    for (ri, rec) in records.iter().enumerate() {
        // The sim crates and the serving plane both emit metrics, so both
        // directions of the cross-check read every crate but detlint,
        // whose own sources spell the mutators out.
        if rec.crate_name == "detlint" {
            continue;
        }
        for site in &rec.facts.metric_sites {
            if let Some(name) = &site.name {
                used.entry(name)
                    .or_default()
                    .push((ri, site.line, site.col));
            }
        }
    }
    for (name, sites) in &used {
        if !decls.names.contains_key(*name) {
            for &(ri, line, col) in sites {
                out.push(gmk(
                    &records[ri],
                    line,
                    col,
                    Rule::D12,
                    format!(
                        "metric `{name}` is emitted but not declared in {METRIC_CATALOG}; \
                         declare it (or fix the typo)"
                    ),
                ));
            }
        }
    }
    for (name, line) in &decls.names {
        if !used.contains_key(name.as_str()) {
            out.push(Finding {
                file: METRIC_CATALOG.to_string(),
                line: *line,
                col: 1,
                rule: Rule::D12,
                message: format!(
                    "metric `{name}` is declared here but no sim-plane or host-plane call \
                     site emits it; remove the dead declaration"
                ),
                snippet: None,
            });
        }
    }
}

/// The one file that declares metric names, relative to the workspace root.
const METRIC_CATALOG: &str = "crates/obs/src/catalog.rs";

/// Parses metric declarations for D12 out of `crates/obs/src/catalog.rs`:
/// every quoted metric name above the file's test module.
pub fn load_metric_decls(root: &std::path::Path) -> MetricDecls {
    let mut decls = MetricDecls::default();
    if let Ok(text) = std::fs::read_to_string(root.join(METRIC_CATALOG)) {
        let declared = text.split("#[cfg(test)]").next().unwrap_or("");
        collect_quoted_metric_names(declared, &mut decls);
    }
    decls
}

/// Whether a quoted string in the catalog is a metric name (dotted
/// lowercase identifier) rather than a help text.
fn is_metric_name(s: &str) -> bool {
    s.contains('.')
        && s.len() < 64
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
}

fn collect_quoted_metric_names(text: &str, decls: &mut MetricDecls) {
    for (li, line) in text.lines().enumerate() {
        let mut rest = line;
        let mut consumed = 0;
        while let Some(q1) = rest.find('"') {
            let Some(q2) = rest[q1 + 1..].find('"') else {
                break;
            };
            let name = &rest[q1 + 1..q1 + 1 + q2];
            if is_metric_name(name) {
                decls.names.entry(name.to_string()).or_insert(li + 1);
            }
            consumed += q1 + q2 + 2;
            rest = &line[consumed..];
        }
    }
}
