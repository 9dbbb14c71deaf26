//! Item tree and per-file fact extraction: the second pipeline stage.
//!
//! Walks the sanitized, span-accurate code of one file (from [`crate::lex`])
//! and produces a [`FileFacts`]: the functions it defines (with module/impl
//! paths, spans, params, and `// detlint: hot` annotations), the calls each
//! body makes, the panic sinks it contains, every `SeedableRng`
//! construction with its argument expression, and every sim-plane metric
//! mutator call site. The workspace-level passes (call-graph reachability,
//! seed-lane provenance, metric cross-check) consume these facts without
//! re-reading any source.

use crate::lex::SourceFile;

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `.name(` — a method call; receiver type unknown.
    Method,
    /// `Recv::name(` — a path call; `recv` holds the segment before `::`.
    Path,
    /// `name(` — a bare (free-function) call.
    Bare,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub kind: CallKind,
    /// Callee name.
    pub name: String,
    /// For [`CallKind::Path`]: the path segment before `::` (e.g. a type).
    pub recv: Option<String>,
    /// 1-based line of the callee identifier.
    pub line: usize,
    /// 1-based column of the callee identifier.
    pub col: usize,
    /// The call's argument text (sanitized, possibly multi-line), used by
    /// the seed-provenance pass to classify what callers pass.
    pub args: String,
}

/// A potential panic site (`unwrap` / `expect` / `panic!` / `unreachable!`).
#[derive(Debug, Clone)]
pub struct Sink {
    /// Display form: `unwrap()`, `expect()`, `panic!`, `unreachable!`.
    pub what: &'static str,
    pub line: usize,
    pub col: usize,
}

/// How a `SeedableRng` construction obtains its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedArg {
    /// The argument expression mentions a `lane::*` constant.
    Lane,
    /// A single identifier that is a parameter of the enclosing function.
    Param(String),
    /// Anything else — a literal, a local, a field, an expression.
    Opaque(String),
}

/// One `seed_from_u64(...)` / `from_seed(...)` construction site.
#[derive(Debug, Clone)]
pub struct RngSite {
    /// The constructor token that matched.
    pub ctor: &'static str,
    /// Seed argument classification.
    pub arg: SeedArg,
    pub line: usize,
    pub col: usize,
}

/// Sim-plane registry calls whose first argument is the metric name: the
/// mutators, and the handle resolvers that name a series once for later
/// updates by id. D7 requires a `&'static str` literal there, and D12
/// checks it against the catalog.
pub(crate) const OBS_MUTATORS: &[&str] = &[
    ".inc(",
    ".inc_by(",
    ".gauge_set(",
    ".observe_us(",
    ".counter_id(",
    ".histogram_id(",
];

/// One sim-plane metric mutator call site.
#[derive(Debug, Clone)]
pub struct MetricSite {
    /// Mutator method (`inc`, `inc_by`, `gauge_set`, `observe_us`,
    /// `counter_id`, `histogram_id`).
    pub mutator: &'static str,
    /// The literal metric name, or `None` when the first argument is not a
    /// string literal (a dynamic name — D7 territory).
    pub name: Option<String>,
    pub line: usize,
    pub col: usize,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare name.
    pub name: String,
    /// Enclosing impl target type (last path segment), if any.
    pub impl_type: Option<String>,
    /// Module path inside the file (inline `mod` names, joined with `::`).
    pub module: String,
    /// 1-based line/column of the function name.
    pub line: usize,
    pub col: usize,
    /// Inclusive 1-based body line range (header line through closing brace).
    pub body: (usize, usize),
    pub is_pub: bool,
    /// Inside `#[cfg(test)]`-gated code.
    pub is_test: bool,
    /// Carries a `// detlint: hot` annotation.
    pub is_hot: bool,
    /// Parameter names, in order (excluding `self`).
    pub params: Vec<String>,
    /// Parameter names whose written type mentions `f32`/`f64`.
    pub float_params: Vec<String>,
    pub calls: Vec<CallSite>,
    pub sinks: Vec<Sink>,
    pub rng_sites: Vec<RngSite>,
}

impl FnInfo {
    /// Qualified display name: `Type::name` or `module::name` or `name`.
    pub fn qual(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None if self.module.is_empty() => self.name.clone(),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// Everything the workspace passes need to know about one file.
#[derive(Debug, Default)]
pub struct FileFacts {
    pub fns: Vec<FnInfo>,
    /// Impl target type names declared in this file.
    pub impl_types: Vec<String>,
    pub metric_sites: Vec<MetricSite>,
    /// Lines declaring an inline `mod lane` (seed-lane registry).
    pub lane_mods: Vec<usize>,
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The identifier ending at byte `end` (exclusive) of `s`, if any.
fn ident_ending_at(s: &str, end: usize) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1]) {
        start -= 1;
    }
    if start == end || bytes[start].is_ascii_digit() {
        return None;
    }
    Some(&s[start..end])
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "fn", "move", "else", "let",
    "mut", "ref", "break", "continue", "where", "impl", "dyn", "pub", "use", "mod", "unsafe",
    "async", "await", "box", "true", "false",
];

/// A lexical scope on the item-tree stack.
#[derive(Debug)]
enum Scope {
    Mod(String),
    Impl(String),
    /// A function body; holds its index in `facts.fns`.
    Fn(usize),
    /// Struct/enum/trait/closure/match-arm/etc.: brace-counted, nameless.
    Other,
}

/// Extracts the item tree and per-function facts from a prepared file.
pub fn extract(sf: &SourceFile) -> FileFacts {
    let mut facts = FileFacts::default();
    let mut stack: Vec<(Scope, u32)> = Vec::new(); // (scope, depth at open)
    let mut depth: u32 = 0;

    // Pending item header state, accumulated until its `{` or `;`.
    #[derive(Default)]
    struct Pending {
        kind: Option<&'static str>, // "fn" | "impl" | "mod"
        text: String,               // header text so far
        line: usize,                // line of the keyword
        col: usize,
    }
    let mut pending = Pending::default();

    for i in 0..sf.len() {
        let lineno = i + 1;
        let code = sf.code[i].as_str();
        let bytes = code.as_bytes();
        let mut j = 0usize;
        while j < bytes.len() {
            let c = bytes[j];
            if is_ident_char(c) {
                let start = j;
                while j < bytes.len() && is_ident_char(bytes[j]) {
                    j += 1;
                }
                let word = &code[start..j];
                if pending.kind.is_none() {
                    match word {
                        "fn" => {
                            pending = Pending {
                                kind: Some("fn"),
                                text: String::from("fn"),
                                line: lineno,
                                col: start + 1,
                            };
                        }
                        "impl" => {
                            pending = Pending {
                                kind: Some("impl"),
                                text: String::from("impl"),
                                line: lineno,
                                col: start + 1,
                            };
                        }
                        "mod" => {
                            pending = Pending {
                                kind: Some("mod"),
                                text: String::from("mod"),
                                line: lineno,
                                col: start + 1,
                            };
                        }
                        _ => {}
                    }
                } else {
                    pending.text.push(' ');
                    pending.text.push_str(word);
                }
                continue;
            }
            match c {
                b'{' => {
                    depth += 1;
                    let scope = match pending.kind.take() {
                        Some("fn") => {
                            let info = parse_fn_header(&pending.text, sf, &stack, pending.line);
                            let idx = facts.fns.len();
                            facts.fns.push(FnInfo {
                                line: pending.line,
                                col: pending.col,
                                body: (pending.line, pending.line),
                                ..info
                            });
                            Scope::Fn(idx)
                        }
                        Some("impl") => {
                            let ty = parse_impl_target(&pending.text);
                            if !facts.impl_types.contains(&ty) {
                                facts.impl_types.push(ty.clone());
                            }
                            Scope::Impl(ty)
                        }
                        Some("mod") => {
                            let name = pending
                                .text
                                .split_whitespace()
                                .nth(1)
                                .unwrap_or("")
                                .to_string();
                            if name == "lane" {
                                facts.lane_mods.push(pending.line);
                            }
                            Scope::Mod(name)
                        }
                        _ => Scope::Other,
                    };
                    pending = Pending::default();
                    stack.push((scope, depth));
                }
                b'}' => {
                    if let Some((scope, open_depth)) = stack.last() {
                        if *open_depth == depth {
                            if let Scope::Fn(idx) = scope {
                                facts.fns[*idx].body.1 = lineno;
                            }
                            stack.pop();
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                b';' if pending.kind.is_some() && brackets_balanced(&pending.text) => {
                    // `mod name;`, trait method decl, extern fn: no body.
                    pending = Pending::default();
                }
                _ => {
                    if pending.kind.is_some() {
                        pending.text.push(c as char);
                    }
                }
            }
            j += 1;
        }
        if pending.kind.is_some() {
            pending.text.push(' ');
        }
    }

    // Close any function bodies left open by unbalanced input.
    for (scope, _) in &stack {
        if let Scope::Fn(idx) = scope {
            facts.fns[*idx].body.1 = sf.len();
        }
    }

    // Body-level facts per function.
    for idx in 0..facts.fns.len() {
        let (lo, hi) = facts.fns[idx].body;
        let f = &facts.fns[idx];
        let calls = extract_calls(sf, lo, hi, &f.impl_type);
        let sinks = extract_sinks(sf, lo, hi);
        let rng_sites = extract_rng_sites(sf, lo, hi, &f.params);
        let f = &mut facts.fns[idx];
        f.calls = calls;
        f.sinks = sinks;
        f.rng_sites = rng_sites;
    }

    facts.metric_sites = extract_metric_sites(sf);
    facts
}

/// The target type of an accumulated `impl` header: the word after the
/// last ` for ` (`impl Trait for Type`), else the first type word after
/// `impl` (skipping a leading generic parameter list). Generic arguments
/// and path prefixes are stripped to the bare type name.
fn parse_impl_target(text: &str) -> String {
    let body = text.strip_prefix("impl").unwrap_or(text);
    let chosen = match body.rfind(" for ") {
        Some(at) => &body[at + 5..],
        None => {
            // Skip `<T: Bound>` generics ahead of the type.
            let mut rest = body.trim_start();
            if rest.starts_with('<') {
                let mut depth = 0i32;
                let mut cut = rest.len();
                for (i, c) in rest.char_indices() {
                    match c {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                cut = i + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                rest = &rest[cut..];
            }
            rest
        }
    };
    let chosen = chosen.trim_start();
    let head: &str = chosen
        .split(|c: char| c == '<' || c == '{' || c.is_whitespace())
        .next()
        .unwrap_or("");
    head.rsplit("::")
        .next()
        .unwrap_or(head)
        .trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .to_string()
}

fn brackets_balanced(text: &str) -> bool {
    let mut round = 0i32;
    let mut angle = 0i32;
    for c in text.chars() {
        match c {
            '(' => round += 1,
            ')' => round -= 1,
            '<' => angle += 1,
            '>' => angle = (angle - 1).max(0), // `->` and comparisons skew this; clamp
            _ => {}
        }
    }
    round <= 0 && angle <= 0
}

/// Parses an accumulated `fn` header (`fn name<..>(params) -> T`) into an
/// [`FnInfo`] skeleton (spans/body filled by the caller).
fn parse_fn_header(text: &str, sf: &SourceFile, stack: &[(Scope, u32)], line: usize) -> FnInfo {
    let after_fn = text.strip_prefix("fn").unwrap_or(text).trim_start();
    let name: String = after_fn
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();

    // Parameter list: text between the first top-level parens.
    let mut params = Vec::new();
    let mut float_params = Vec::new();
    if let Some(open) = after_fn.find('(') {
        let inner = slice_to_matching_paren(&after_fn[open..]);
        for part in split_top_commas(inner) {
            let part = part.trim();
            if part.is_empty() || part == "self" || part.ends_with("self") {
                continue;
            }
            let Some((pat, ty)) = part.split_once(':') else {
                continue;
            };
            let pname = pat
                .trim()
                .trim_start_matches("mut ")
                .trim()
                .trim_start_matches('&')
                .trim()
                .to_string();
            if pname.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !pname.is_empty() {
                if ty.contains("f64") || ty.contains("f32") {
                    float_params.push(pname.clone());
                }
                params.push(pname);
            }
        }
    }

    let impl_type = stack.iter().rev().find_map(|(s, _)| match s {
        Scope::Impl(t) => Some(t.clone()),
        _ => None,
    });
    let module = stack
        .iter()
        .filter_map(|(s, _)| match s {
            Scope::Mod(m) if !m.is_empty() => Some(m.as_str()),
            _ => None,
        })
        .collect::<Vec<_>>()
        .join("::");

    let is_test = sf.is_test.get(line - 1).copied().unwrap_or(false);
    let is_hot = fn_is_hot(sf, line);
    let is_pub = text_has_pub(sf, line);

    FnInfo {
        name,
        impl_type,
        module,
        line,
        col: 0,
        body: (line, line),
        is_pub,
        is_test,
        is_hot,
        params,
        float_params,
        calls: Vec::new(),
        sinks: Vec::new(),
        rng_sites: Vec::new(),
    }
}

/// Whether the `fn` at `line` carries a `// detlint: hot` annotation: on
/// the header line itself, or standing above it with only attributes and
/// comments in between.
fn fn_is_hot(sf: &SourceFile, line: usize) -> bool {
    if sf.hot_lines.contains(&line) {
        return true;
    }
    let mut l = line - 1; // 1-based line above the header
    while l >= 1 {
        if sf.hot_lines.contains(&l) {
            return true;
        }
        let code = sf.code[l - 1].trim();
        let is_attr_or_comment = code.is_empty() || code.starts_with("#[");
        if !is_attr_or_comment {
            return false;
        }
        // An empty code line that carried no comment at all ends the search
        // only if it is truly blank source (not a comment-only line).
        if code.is_empty() && sf.comments[l - 1].is_none() && sf.raw[l - 1].trim().is_empty() {
            return false;
        }
        l -= 1;
    }
    false
}

/// Whether the `fn` at `line` is `pub` (same line, before the keyword).
fn text_has_pub(sf: &SourceFile, line: usize) -> bool {
    sf.code
        .get(line - 1)
        .map(|c| {
            c.split("fn")
                .next()
                .is_some_and(|before| before.contains("pub"))
        })
        .unwrap_or(false)
}

/// The text inside the first paren group of `s` (which starts with `(`),
/// up to its matching close paren (multi-line headers are accumulated into
/// one string before this is called).
fn slice_to_matching_paren(s: &str) -> &str {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return &s[1..i];
                }
            }
            _ => {}
        }
    }
    &s[1..]
}

/// Splits on commas at paren/angle/bracket depth zero.
fn split_top_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => depth -= 1,
            ',' if depth <= 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Extracts call sites from a body line range.
fn extract_calls(
    sf: &SourceFile,
    lo: usize,
    hi: usize,
    impl_type: &Option<String>,
) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for lineno in lo..=hi.min(sf.len()) {
        let code = sf.code[lineno - 1].as_str();
        let bytes = code.as_bytes();
        let mut j = 0usize;
        while j < bytes.len() {
            if !is_ident_char(bytes[j]) {
                j += 1;
                continue;
            }
            let start = j;
            while j < bytes.len() && is_ident_char(bytes[j]) {
                j += 1;
            }
            let word = &code[start..j];
            // Must be directly followed by `(` (allowing `::<T>(` turbofish
            // is out of scope for the heuristic graph).
            if bytes.get(j) != Some(&b'(') {
                continue;
            }
            if KEYWORDS.contains(&word) || bytes.get(start.wrapping_sub(1)) == Some(&b'!') {
                continue;
            }
            // Macro invocation `name!(` — the `!` sits *after* the word.
            // (handled above via lookbehind on `!`); also skip `word!(`.
            if word.is_empty() {
                continue;
            }
            let (kind, recv) = if start >= 1 && bytes[start - 1] == b'.' {
                (CallKind::Method, None)
            } else if start >= 2 && &code[start - 2..start] == "::" {
                let seg = ident_ending_at(code, start - 2).map(|s| s.to_string());
                match seg {
                    Some(s) => {
                        let s = if s == "Self" {
                            impl_type.clone().unwrap_or(s)
                        } else {
                            s
                        };
                        (CallKind::Path, Some(s))
                    }
                    None => (CallKind::Bare, None),
                }
            } else {
                (CallKind::Bare, None)
            };
            calls.push(CallSite {
                kind,
                name: word.to_string(),
                recv,
                line: lineno,
                col: start + 1,
                args: gather_paren_arg(sf, lineno, j),
            });
        }
    }
    calls
}

/// Panic sinks in a body line range (test lines excluded by the caller's
/// use of `FnInfo::is_test`; sinks on test lines inside non-test fns do not
/// occur in practice).
fn extract_sinks(sf: &SourceFile, lo: usize, hi: usize) -> Vec<Sink> {
    let mut sinks = Vec::new();
    for lineno in lo..=hi.min(sf.len()) {
        let code = sf.code[lineno - 1].as_str();
        for (pat, what) in [
            (".unwrap()", "unwrap()"),
            (".expect(", "expect()"),
            ("panic!", "panic!"),
            ("unreachable!", "unreachable!"),
        ] {
            let mut from = 0;
            while let Some(pos) = code[from..].find(pat) {
                let at = from + pos;
                // `debug_assert!`-style containment: `panic!`/`unreachable!`
                // must start a token (not `.unwrap()`, which self-anchors).
                let ok = if pat.starts_with('.') {
                    true
                } else {
                    at == 0 || !is_ident_char(code.as_bytes()[at - 1])
                };
                if ok {
                    sinks.push(Sink {
                        what,
                        line: lineno,
                        col: at + 1 + if pat.starts_with('.') { 1 } else { 0 },
                    });
                }
                from = at + pat.len();
            }
        }
    }
    sinks.sort_by_key(|s| (s.line, s.col));
    sinks
}

/// `SeedableRng` construction sites in a body range, with the seed
/// argument classified for the D8 provenance pass.
fn extract_rng_sites(sf: &SourceFile, lo: usize, hi: usize, params: &[String]) -> Vec<RngSite> {
    const CTORS: &[&str] = &["seed_from_u64(", "from_seed("];
    let mut sites = Vec::new();
    for lineno in lo..=hi.min(sf.len()) {
        let code = sf.code[lineno - 1].as_str();
        for ctor in CTORS {
            let mut from = 0;
            while let Some(pos) = code[from..].find(ctor) {
                let at = from + pos;
                let arg_text = gather_paren_arg(sf, lineno, at + ctor.len() - 1);
                let arg = classify_seed_arg(&arg_text, params);
                sites.push(RngSite {
                    ctor: if *ctor == "seed_from_u64(" {
                        "seed_from_u64"
                    } else {
                        "from_seed"
                    },
                    arg,
                    line: lineno,
                    col: at + 1,
                });
                from = at + ctor.len();
            }
        }
    }
    sites
}

/// Gathers the argument text of a call whose `(` sits at `(line, col0)`,
/// following up to 4 continuation lines.
pub fn gather_paren_arg(sf: &SourceFile, line: usize, col0: usize) -> String {
    let mut depth = 0i32;
    let mut out = String::new();
    for (li, l) in (line..=sf.len().min(line + 4)).enumerate() {
        let code = sf.code[l - 1].as_str();
        let start = if li == 0 { col0 } else { 0 };
        for c in code[start.min(code.len())..].chars() {
            match c {
                '(' => {
                    depth += 1;
                    if depth > 1 {
                        out.push(c);
                    }
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                    out.push(c);
                }
                _ if depth >= 1 => out.push(c),
                _ => {}
            }
        }
        out.push(' ');
    }
    out
}

fn classify_seed_arg(arg: &str, params: &[String]) -> SeedArg {
    let t = arg.trim();
    if t.contains("lane::") {
        return SeedArg::Lane;
    }
    if t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && params.iter().any(|p| p == t) {
        return SeedArg::Param(t.to_string());
    }
    SeedArg::Opaque(t.to_string())
}

/// Sim-plane metric mutator call sites, file-wide (non-test lines only).
fn extract_metric_sites(sf: &SourceFile) -> Vec<MetricSite> {
    let mut sites = Vec::new();
    for lineno in 1..=sf.len() {
        if sf.is_test[lineno - 1] {
            continue;
        }
        let code = sf.code[lineno - 1].as_str();
        for pat in OBS_MUTATORS {
            let mutator = pat.trim_start_matches('.').trim_end_matches('(');
            let mut from = 0;
            while let Some(pos) = code[from..].find(pat) {
                let at = from + pos;
                // First argument: a string literal? The sanitizer blanks
                // string contents but keeps the quotes, so read the raw
                // line to recover the literal name.
                let open_paren = at + pat.len() - 1;
                let name = metric_name_at(sf, lineno, open_paren);
                sites.push(MetricSite {
                    mutator,
                    name,
                    line: lineno,
                    col: at + 2,
                });
                from = at + pat.len();
            }
        }
    }
    sites
}

/// Reads the literal first argument of a mutator call whose `(` is at
/// `(line, col0)` in sanitized coordinates; `None` when the first token is
/// not a string literal.
fn metric_name_at(sf: &SourceFile, line: usize, col0: usize) -> Option<String> {
    for (li, l) in (line..=sf.len().min(line + 2)).enumerate() {
        let code = sf.code[l - 1].as_str();
        let start = if li == 0 {
            (col0 + 1).min(code.len())
        } else {
            0
        };
        let rest = &code[start..];
        let trimmed = rest.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        if !trimmed.starts_with('"') {
            return None;
        }
        // Find the literal's span in the *raw* line (same columns).
        let q1 = start + (rest.len() - trimmed.len());
        let raw = sf.raw_line(l);
        let raw_bytes = raw.as_bytes();
        if q1 >= raw.len() || raw_bytes[q1] != b'"' {
            return None;
        }
        let close = raw[q1 + 1..].find('"')?;
        return Some(raw[q1 + 1..q1 + 1 + close].to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::prepare;

    #[test]
    fn fn_items_and_spans() {
        let src = "\
impl Wheel {
    // detlint: hot
    pub fn push(&mut self, ev: Event) {
        self.inner.push(ev);
    }
    fn helper(a: u32, jitter: f64) -> u32 {
        a
    }
}
";
        let facts = extract(&prepare(src));
        assert_eq!(facts.fns.len(), 2);
        let push = &facts.fns[0];
        assert_eq!(push.name, "push");
        assert_eq!(push.impl_type.as_deref(), Some("Wheel"));
        assert!(push.is_hot && push.is_pub);
        assert_eq!(push.body, (3, 5));
        let helper = &facts.fns[1];
        assert!(!helper.is_hot);
        assert_eq!(helper.params, vec!["a", "jitter"]);
        assert_eq!(helper.float_params, vec!["jitter"]);
    }

    #[test]
    fn calls_are_classified() {
        let src = "\
fn f(x: &X) {
    x.handle(1);
    Wheel::advance(x);
    helper(x);
}
";
        let facts = extract(&prepare(src));
        let calls = &facts.fns[0].calls;
        let kinds: Vec<(CallKind, &str)> =
            calls.iter().map(|c| (c.kind, c.name.as_str())).collect();
        assert!(kinds.contains(&(CallKind::Method, "handle")));
        assert!(kinds.contains(&(CallKind::Path, "advance")));
        assert!(kinds.contains(&(CallKind::Bare, "helper")));
    }

    #[test]
    fn sinks_carry_spans() {
        let src = "fn f(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n";
        let facts = extract(&prepare(src));
        let s = &facts.fns[0].sinks[0];
        assert_eq!((s.what, s.line), ("unwrap()", 2));
        assert_eq!(s.col, 7);
    }

    #[test]
    fn rng_sites_classify_lane_param_and_opaque() {
        let src = "\
fn f(seed: u64) {
    let a = StdRng::seed_from_u64(derive_seed(master, lane::ENGINE, 0));
    let b = StdRng::seed_from_u64(seed);
    let c = StdRng::seed_from_u64(42);
}
";
        let facts = extract(&prepare(src));
        let args: Vec<&SeedArg> = facts.fns[0].rng_sites.iter().map(|r| &r.arg).collect();
        assert_eq!(args[0], &SeedArg::Lane);
        assert_eq!(args[1], &SeedArg::Param("seed".into()));
        assert!(matches!(args[2], SeedArg::Opaque(t) if t == "42"));
    }

    #[test]
    fn metric_sites_recover_literal_names() {
        let src = "\
fn export(reg: &mut Registry) {
    reg.inc(\"campaign.experiments\", &[]);
    reg.inc_by(
        \"net.flow_timeouts_cancelled\",
        &[],
        3,
    );
    reg.inc(dynamic_name, &[]);
    reg.counter_id(\"serve.queries\", &[]);
}
";
        let facts = extract(&prepare(src));
        let names: Vec<Option<&str>> = facts
            .metric_sites
            .iter()
            .map(|m| m.name.as_deref())
            .collect();
        assert_eq!(
            names,
            vec![
                Some("campaign.experiments"),
                Some("net.flow_timeouts_cancelled"),
                None,
                Some("serve.queries"),
            ]
        );
    }

    #[test]
    fn lane_mod_is_recorded() {
        let facts = extract(&prepare("mod lane {\n    pub const X: u64 = 0;\n}\n"));
        assert_eq!(facts.lane_mods, vec![1]);
    }
}
