//! detlint's own coverage: each rule fires exactly once on its fixture, a
//! well-formed allow-marker suppresses, a reasonless marker is an error
//! that suppresses nothing, and — since v2 — a marker that suppresses
//! nothing is itself an error. The flow rule (D8) is exercised over
//! single-file call graphs here; the workspace-level passes (D12, scan
//! errors) live in `workspace.rs`.

use detlint::{scan_file, FileCtx, Finding, Rule};

const D6: &str = include_str!("fixtures/d6_fires.rs");
const D7: &str = include_str!("fixtures/d7_fires.rs");
const D7_HANDLE: &str = include_str!("fixtures/d7_handle_fires.rs");
const HANDLE_CLEAN: &str = include_str!("fixtures/handle_clean.rs");
const D8: &str = include_str!("fixtures/d8_fires.rs");
const D10: &str = include_str!("fixtures/d10_fires.rs");
const D11: &str = include_str!("fixtures/d11_fires.rs");
const WIRE_CHAOS: &str = include_str!("fixtures/wire_chaos.rs");
const ALLOWED: &str = include_str!("fixtures/allowed.rs");
const MALFORMED: &str = include_str!("fixtures/malformed_marker.rs");
const UNUSED: &str = include_str!("fixtures/unused_marker.rs");

/// A sim crate: D7, D8 and D11 apply.
fn sim() -> FileCtx {
    FileCtx::new("netsim")
}

fn rules(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn d6_fires_exactly_once_in_outcome_crates() {
    // The fixture discards pings, traceroutes, and a writeln — sanctioned —
    // plus exactly one resolve() Outcome, which must fire.
    let f = scan_file("d6_fires.rs", D6, &FileCtx::new("measure"));
    assert_eq!(rules(&f), vec![Rule::D6], "{f:?}");
    assert_eq!(f[0].line, 9);
    assert!(f[0].message.contains("resolve"), "{}", f[0].message);
    // Same scope for the analysis layer.
    let f = scan_file("d6_fires.rs", D6, &FileCtx::new("analysis"));
    assert_eq!(rules(&f), vec![Rule::D6], "{f:?}");
    // Out of scope: the DNS client itself may discard internally.
    assert!(scan_file("d6_fires.rs", D6, &FileCtx::new("dnssim")).is_empty());
}

#[test]
fn d6_catches_discards_wrapped_across_lines() {
    let src = "\
pub fn f(net: &mut Net) {
    let _ =
        resolve_with(net, 0, 1, &name, qtype, &policy);
}
";
    let f = scan_file("x.rs", src, &FileCtx::new("measure"));
    assert_eq!(rules(&f), vec![Rule::D6], "{f:?}");
}

#[test]
fn d6_spares_named_bindings_and_used_results() {
    let src = "\
pub fn f(net: &mut Net) {
    let lookup = resolve(net, 0, 1);
    let _timing = resolve(net, 0, 2);
    record(lookup.outcome);
}
";
    assert!(scan_file("x.rs", src, &FileCtx::new("measure")).is_empty());
}

#[test]
fn d7_fires_on_a_dynamic_metric_name() {
    let f = scan_file("d7_fires.rs", D7, &sim());
    assert_eq!(rules(&f), vec![Rule::D7], "{f:?}");
    assert_eq!(f[0].line, 13);
    assert!(f[0].message.contains("static"), "{}", f[0].message);
}

#[test]
fn d7_fires_on_a_dynamic_name_at_handle_resolution() {
    let f = scan_file("d7_handle_fires.rs", D7_HANDLE, &sim());
    assert_eq!(rules(&f), vec![Rule::D7], "{f:?}");
    assert_eq!(f[0].line, 6);
    assert!(f[0].message.contains("counter_id"), "{}", f[0].message);
}

#[test]
fn handles_resolved_under_literal_names_are_clean() {
    let f = scan_file("handle_clean.rs", HANDLE_CLEAN, &sim());
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d7_respects_the_plane_boundaries() {
    // The driver and the serving plane are not simulation crates, so the
    // literal-name rule does not bind there.
    assert!(scan_file("d7.rs", D7, &FileCtx::new("repro")).is_empty());
    assert!(scan_file("d7.rs", D7, &FileCtx::new("serve")).is_empty());
    // `obs` implements the sim plane and is held to it.
    let f = scan_file("d7.rs", D7, &FileCtx::new("obs"));
    assert_eq!(rules(&f), vec![Rule::D7], "{f:?}");
    assert_eq!(f[0].line, 13);
}

#[test]
fn wire_chaos_modules_are_host_plane_and_lane_seeded() {
    // The chaos planner (`loadgen::chaos`) and admission control
    // (`serve::admit`) read the wall clock in their own crates, which is
    // clippy's to judge, not detlint's...
    for crate_name in ["serve", "loadgen"] {
        let f = scan_file("wire_chaos.rs", WIRE_CHAOS, &FileCtx::new(crate_name));
        assert!(f.is_empty(), "{crate_name} should be host-plane: {f:?}");
    }
    // ...while the chaos RNG's `derive_seed(master, lane::WIRE_CHAOS,
    // shard)` provenance satisfies D8 even under sim-crate scrutiny.
    let f = scan_file("wire_chaos.rs", WIRE_CHAOS, &FileCtx::new("dnssim"));
    assert!(
        f.is_empty(),
        "lane::WIRE_CHAOS-derived seeds must pass D8: {f:?}"
    );
}

#[test]
fn d7_marker_suppresses_with_reason() {
    let src = "\
pub fn f(reg: &mut Registry, name: &'static str) {
    // detlint: allow(D7) -- caller passes a static name through
    reg.inc(name, &[]);
}
";
    assert!(scan_file("x.rs", src, &sim()).is_empty());
}

#[test]
fn d8_fires_exactly_once_on_opaque_seeds() {
    let f = scan_file("d8_fires.rs", D8, &FileCtx::new("cellsim"));
    assert_eq!(rules(&f), vec![Rule::D8], "{f:?}");
    assert_eq!((f[0].line, f[0].col), (6, 23), "{f:?}");
    assert!(
        f[0].message.contains("seed_from_u64(1234)"),
        "{}",
        f[0].message
    );
    assert!(f[0].message.contains("lane::"), "{}", f[0].message);
    // Out of scope outside the simulation crates.
    assert!(scan_file("d8.rs", D8, &FileCtx::new("repro")).is_empty());
}

#[test]
fn d8_chases_literal_seeds_through_parameters() {
    let src = "\
fn make(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
pub fn build() -> StdRng {
    make(99)
}
";
    let f = scan_file("x.rs", src, &sim());
    assert_eq!(rules(&f), vec![Rule::D8], "{f:?}");
    assert_eq!(f[0].line, 5, "flagged at the caller pinning the literal");
    assert!(
        f[0].message.contains("literal seed `99`"),
        "{}",
        f[0].message
    );
    assert!(f[0].message.contains("`make`"), "{}", f[0].message);
}

#[test]
fn d8_accepts_lane_derived_parameters() {
    let src = "\
fn make(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
pub fn build(master: u64) -> StdRng {
    make(derive_seed(master, lane::ENGINE, 0))
}
";
    assert!(scan_file("x.rs", src, &sim()).is_empty());
}

#[test]
fn d8_lane_modules_belong_to_measure() {
    let src = "pub mod lane {\n    pub const ROGUE: u64 = 9;\n}\n";
    let f = scan_file("x.rs", src, &sim());
    assert_eq!(rules(&f), vec![Rule::D8], "{f:?}");
    assert!(f[0].message.contains("measure"), "{}", f[0].message);
    assert!(scan_file("x.rs", src, &FileCtx::new("measure")).is_empty());
}

#[test]
fn d10_fires_exactly_once_inside_hot_fns() {
    let f = scan_file("d10_fires.rs", D10, &sim());
    assert_eq!(rules(&f), vec![Rule::D10], "{f:?}");
    assert_eq!((f[0].line, f[0].col), (6, 29), "{f:?}");
    assert!(f[0].message.contains("Vec::new"), "{}", f[0].message);
    assert!(f[0].message.contains("`drain`"), "{}", f[0].message);
}

#[test]
fn d10_marker_suppresses_with_reason() {
    let allowed = D10.replace(
        "    let scratch: Vec<u32> = Vec::new();",
        "    // detlint: allow(D10) -- grows once, amortised over the batch\n    \
         let scratch: Vec<u32> = Vec::new();",
    );
    assert!(scan_file("d10_fires.rs", &allowed, &sim()).is_empty());
}

#[test]
fn d11_partial_cmp_sort_fires_exactly_once() {
    let f = scan_file("d11_fires.rs", D11, &FileCtx::new("analysis"));
    assert_eq!(rules(&f), vec![Rule::D11], "{f:?}");
    assert_eq!((f[0].line, f[0].col), (5, 8), "{f:?}");
    assert!(f[0].message.contains("total_cmp"), "{}", f[0].message);
}

#[test]
fn d11_bare_float_casts_fire_and_rounded_casts_are_clean() {
    let bare = "pub fn f(x: f64) -> usize {\n    (x * 3.0) as usize\n}\n";
    let f = scan_file("x.rs", bare, &FileCtx::new("analysis"));
    assert_eq!(rules(&f), vec![Rule::D11], "{f:?}");
    assert!(f[0].message.contains("rounding"), "{}", f[0].message);

    let rounded = "pub fn f(x: f64) -> usize {\n    (x * 3.0).floor() as usize\n}\n";
    assert!(scan_file("x.rs", rounded, &FileCtx::new("analysis")).is_empty());

    // Integer-to-integer casts are none of D11's business.
    let int = "pub fn f(x: u64) -> usize {\n    x as usize\n}\n";
    assert!(scan_file("x.rs", int, &FileCtx::new("analysis")).is_empty());
}

#[test]
fn valid_markers_suppress_everything() {
    let f = scan_file("allowed.rs", ALLOWED, &sim());
    assert!(f.is_empty(), "expected clean, got {f:?}");
}

#[test]
fn marker_without_reason_is_an_error_and_suppresses_nothing() {
    let f = scan_file("malformed_marker.rs", MALFORMED, &sim());
    assert_eq!(rules(&f), vec![Rule::Marker, Rule::D11], "{f:?}");
    let marker = f.iter().find(|x| x.rule == Rule::Marker).unwrap();
    assert!(marker.message.contains("reason"), "{}", marker.message);
}

#[test]
fn marker_with_empty_reason_is_an_error() {
    let src = "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); // detlint: allow(D11) -- \n}\n";
    let f = scan_file("x.rs", src, &sim());
    assert_eq!(rules(&f), vec![Rule::D11, Rule::Marker], "{f:?}");
}

#[test]
fn marker_naming_unknown_rule_is_an_error() {
    // D1–D5 and D9 moved to rustc and clippy: a leftover marker naming one
    // is an error, not silence.
    for rule in ["D99", "D1", "D2", "D3", "D4", "D5", "D9"] {
        let src = format!("// detlint: allow({rule}) -- no such rule\nfn f() {{}}\n");
        let f = scan_file("x.rs", &src, &sim());
        assert_eq!(rules(&f), vec![Rule::Marker], "{rule}: {f:?}");
        assert!(f[0].message.contains("unknown rule"), "{}", f[0].message);
    }
}

#[test]
fn unused_marker_is_an_error() {
    let f = scan_file("unused_marker.rs", UNUSED, &sim());
    assert_eq!(rules(&f), vec![Rule::Marker], "{f:?}");
    assert_eq!(f[0].line, 5);
    assert!(
        f[0].message.contains("suppresses nothing"),
        "{}",
        f[0].message
    );
    assert!(f[0].message.contains("line 6"), "{}", f[0].message);
}

#[test]
fn rules_do_not_apply_outside_their_crate_scope() {
    // D8 and D11 are scoped to simulation crates, D6 to the outcome
    // crates; a support crate like `repro` triggers none of them.
    let support = FileCtx::new("repro");
    assert!(scan_file("d6.rs", D6, &support).is_empty());
    assert!(scan_file("d8.rs", D8, &support).is_empty());
    assert!(scan_file("d11.rs", D11, &support).is_empty());
    // D6 also stays quiet in sim crates outside the outcome set.
    assert!(scan_file("d6.rs", D6, &sim()).is_empty());
}

#[test]
fn cfg_test_code_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let mut xs = vec![1.0, 0.5];
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let _ = resolve(net, 0, 1);
    }
}
";
    assert!(scan_file("x.rs", src, &sim()).is_empty());
    assert!(scan_file("x.rs", src, &FileCtx::new("measure")).is_empty());
}

#[test]
fn comments_and_strings_do_not_fire() {
    let src = "\
/// Example: `xs.sort_by(|a, b| a.partial_cmp(b))` and `reg.inc(name, &[])`.
// xs.sort_by(|a, b| a.partial_cmp(b)) is banned here.
pub fn msg(xs: &[f64]) -> &'static str {
    \"no // comment starts inside this reg.inc(name, &[]) string\"
}
";
    assert!(scan_file("x.rs", src, &sim()).is_empty());
}

#[test]
fn multiline_method_chains_are_caught() {
    let src = "\
fn f(xs: &mut Vec<f64>) {
    xs
        .sort_by(|a, b| {
            a.partial_cmp(b).unwrap()
        });
}
";
    let f = scan_file("x.rs", src, &sim());
    assert_eq!(rules(&f), vec![Rule::D11], "{f:?}");
    assert_eq!(f[0].line, 3);
}

#[test]
fn btree_collections_are_clean() {
    let src = "\
use std::collections::BTreeMap;
fn f(m: &BTreeMap<u32, u32>) -> u32 {
    m.values().sum()
}
";
    assert!(scan_file("x.rs", src, &sim()).is_empty());
}

#[test]
fn json_output_is_escaped_and_well_formed() {
    let f = vec![Finding {
        file: "a\\b.rs".into(),
        line: 7,
        col: 3,
        rule: Rule::D7,
        message: "say \"no\"".into(),
        snippet: None,
    }];
    let json = detlint::report::to_json(&f);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"rule\": \"D7\""));
    assert!(json.contains("\"col\": 3"));
    assert!(json.contains("a\\\\b.rs"));
    assert!(json.contains("say \\\"no\\\""));
    assert_eq!(detlint::report::to_json(&[]), "[\n]");
}
