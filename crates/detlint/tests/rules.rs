//! detlint's own coverage: each rule fires exactly once on its fixture, a
//! well-formed allow-marker suppresses, a reasonless marker is an error
//! that suppresses nothing, and — since v2 — a marker that suppresses
//! nothing is itself an error. The flow rules (D8/D9) are exercised over
//! single-file call graphs here; the workspace-level passes (D12, cache,
//! scan errors) live in `workspace.rs`.

use detlint::{scan_file, FileCtx, Finding, Rule};

const D1: &str = include_str!("fixtures/d1_fires.rs");
const D1_FAST: &str = include_str!("fixtures/d1_fast_fires.rs");
const D1_FAST_CLEAN: &str = include_str!("fixtures/d1_fast_clean.rs");
const D6: &str = include_str!("fixtures/d6_fires.rs");
const D7: &str = include_str!("fixtures/d7_fires.rs");
const D7_HANDLE: &str = include_str!("fixtures/d7_handle_fires.rs");
const HANDLE_CLEAN: &str = include_str!("fixtures/handle_clean.rs");
const D8: &str = include_str!("fixtures/d8_fires.rs");
const D9: &str = include_str!("fixtures/d9_chain.rs");
const D10: &str = include_str!("fixtures/d10_fires.rs");
const D11: &str = include_str!("fixtures/d11_fires.rs");
const HOST_PLANE: &str = include_str!("fixtures/host_plane.rs");
const WIRE_CHAOS: &str = include_str!("fixtures/wire_chaos.rs");
const ALLOWED: &str = include_str!("fixtures/allowed.rs");
const MALFORMED: &str = include_str!("fixtures/malformed_marker.rs");
const UNUSED: &str = include_str!("fixtures/unused_marker.rs");

/// A sim + hot crate: D1 applies, and D9 leaves `unwrap`/`expect`/`panic!`
/// sinks to clippy.
fn sim_hot() -> FileCtx {
    FileCtx::new("netsim")
}

/// A sim crate outside the hot set: D9 reports every panic sink, so the
/// flow rules (D8–D11) can be observed in isolation.
fn sim_cold() -> FileCtx {
    FileCtx::new("cdnsim")
}

fn rules(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn d1_fires_exactly_once() {
    let f = scan_file("d1_fires.rs", D1, &sim_hot());
    assert_eq!(rules(&f), vec![Rule::D1], "{f:?}");
    assert_eq!(f[0].line, 6);
    assert!(f[0].col > 1, "column should be inside the line: {f:?}");
    assert!(f[0].message.contains("`scores`"), "{}", f[0].message);
    assert!(f[0].snippet.is_some(), "text frames need the raw line");
}

#[test]
fn d1_fires_on_iteration_over_a_fast_map_field() {
    let f = scan_file("d1_fast_fires.rs", D1_FAST, &sim_hot());
    assert_eq!(rules(&f), vec![Rule::D1], "{f:?}");
    assert_eq!(f[0].line, 12);
    assert!(f[0].message.contains("`flows`"), "{}", f[0].message);
}

#[test]
fn d1_spares_membership_only_use_of_a_fast_map_field() {
    let f = scan_file("d1_fast_clean.rs", D1_FAST_CLEAN, &sim_hot());
    assert!(f.is_empty(), "{f:?}");
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
fn d7_fires_on_host_plane_leak_and_dynamic_name() {
    let f = scan_file("d7_fires.rs", D7, &sim_hot());
    assert_eq!(rules(&f), vec![Rule::D7, Rule::D7], "{f:?}");
    assert_eq!(f[0].line, 5);
    assert!(f[0].message.contains("obs::host"), "{}", f[0].message);
    assert_eq!(f[1].line, 15);
    assert!(f[1].message.contains("static"), "{}", f[1].message);
}

#[test]
fn d7_fires_on_a_dynamic_name_at_handle_resolution() {
    let f = scan_file("d7_handle_fires.rs", D7_HANDLE, &sim_hot());
    assert_eq!(rules(&f), vec![Rule::D7], "{f:?}");
    assert_eq!(f[0].line, 6);
    assert!(f[0].message.contains("counter_id"), "{}", f[0].message);
}

#[test]
fn handles_resolved_under_literal_names_are_clean() {
    let f = scan_file("handle_clean.rs", HANDLE_CLEAN, &sim_hot());
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d7_respects_the_plane_boundaries() {
    // Driver binaries may use the host plane; they are not simulation
    // crates, so the literal-name rule does not bind there either.
    assert!(scan_file("d7.rs", D7, &FileCtx::new("repro")).is_empty());
    assert!(scan_file("d7.rs", D7, &FileCtx::new("serve")).is_empty());
    // `obs` itself implements the host plane (D7a stays quiet) but its sim
    // plane is held to the static-name rule (D7b fires).
    let f = scan_file("d7.rs", D7, &FileCtx::new("obs"));
    assert_eq!(rules(&f), vec![Rule::D7], "{f:?}");
    assert_eq!(f[0].line, 15);
}

#[test]
fn serving_plane_crates_are_host_plane_by_classification() {
    // The serving plane reads wall clocks and host-plane profilers as its
    // whole job: `serve` and `loadgen` pass clean by crate classification,
    // no allow-markers required.
    for crate_name in ["serve", "loadgen"] {
        let f = scan_file("host_plane.rs", HOST_PLANE, &FileCtx::new(crate_name));
        assert!(f.is_empty(), "{crate_name} should be host-plane: {f:?}");
    }
    // The other direction: identical source inside a sim crate fires the
    // host-plane-leak rule. Its wall-clock read is clippy's to reject.
    let f = scan_file("host_plane.rs", HOST_PLANE, &FileCtx::new("dnssim"));
    assert_eq!(rules(&f), vec![Rule::D7], "{f:?}");
    assert_eq!(f[0].line, 7, "obs::host profiling");
}

#[test]
fn wire_chaos_modules_are_host_plane_and_lane_seeded() {
    // The hostile-wire additions ride the same classification: the chaos
    // planner (`loadgen::chaos`) and admission control (`serve::admit`)
    // read wall clocks and host profilers freely in their own crates...
    for crate_name in ["serve", "loadgen"] {
        let f = scan_file("wire_chaos.rs", WIRE_CHAOS, &FileCtx::new(crate_name));
        assert!(f.is_empty(), "{crate_name} should be host-plane: {f:?}");
    }
    // ...while the chaos RNG's `derive_seed(master, lane::WIRE_CHAOS,
    // shard)` provenance satisfies D8 even under sim-crate scrutiny: the
    // same source in a sim crate fires only the profiler rule, never the
    // opaque-seed rule.
    let f = scan_file("wire_chaos.rs", WIRE_CHAOS, &FileCtx::new("dnssim"));
    assert_eq!(rules(&f), vec![Rule::D7], "{f:?}");
    assert_eq!(f[0].line, 14, "obs::host profiling");
    assert!(
        !rules(&f).contains(&Rule::D8),
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
    assert!(scan_file("x.rs", src, &sim_hot()).is_empty());
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
    let f = scan_file("x.rs", src, &sim_cold());
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
    assert!(scan_file("x.rs", src, &sim_cold()).is_empty());
}

#[test]
fn d8_lane_modules_belong_to_measure() {
    let src = "pub mod lane {\n    pub const ROGUE: u64 = 9;\n}\n";
    let f = scan_file("x.rs", src, &sim_cold());
    assert_eq!(rules(&f), vec![Rule::D8], "{f:?}");
    assert!(f[0].message.contains("measure"), "{}", f[0].message);
    assert!(scan_file("x.rs", src, &FileCtx::new("measure")).is_empty());
}

#[test]
fn d9_reports_the_full_chain_with_spans() {
    let f = scan_file("d9_chain.rs", D9, &sim_cold());
    assert_eq!(rules(&f), vec![Rule::D9], "{f:?}");
    assert_eq!((f[0].line, f[0].col), (14, 20), "sink span: {f:?}");
    assert_eq!(
        f[0].message,
        "hot entry `dispatch` can reach `expect()` at d9_chain.rs:14:20 via \
         dispatch (d9_chain.rs:5:5) -> classify (d9_chain.rs:9:1) -> \
         header_byte (d9_chain.rs:13:1); make the callee total or justify \
         the sink with an allow-marker"
    );
}

#[test]
fn d9_suppressible_at_the_sink_only() {
    // Marker on the sink line: consumed, scan is clean.
    let at_sink = D9.replace(
        "    *frame.first().expect(\"frame is non-empty\")",
        "    // detlint: allow(D9) -- dispatch only hands out non-empty frames\n    \
         *frame.first().expect(\"frame is non-empty\")",
    );
    assert!(scan_file("d9_chain.rs", &at_sink, &sim_cold()).is_empty());

    // Marker anywhere else on the chain suppresses nothing: the D9 finding
    // survives and the marker itself becomes an error.
    let midway = D9.replace(
        "    classify(frame)",
        "    // detlint: allow(D9) -- wrong place\n    classify(frame)",
    );
    let f = scan_file("d9_chain.rs", &midway, &sim_cold());
    assert_eq!(rules(&f), vec![Rule::Marker, Rule::D9], "{f:?}");
}

#[test]
fn d9_leaves_hot_crate_panics_to_clippy() {
    let src = "\
// detlint: hot
pub fn step(q: &[u32]) -> u32 {
    inner(q)
}
fn inner(q: &[u32]) -> u32 {
    q.first().copied().unwrap()
}
";
    // The hot crates deny clippy's `unwrap_used`, so the sink already
    // carries a reasoned `#[expect]`: one audit, not two.
    assert!(scan_file("x.rs", src, &sim_hot()).is_empty());
    // Outside the hot crates D9 still reports it.
    let f = scan_file("x.rs", src, &sim_cold());
    assert_eq!(rules(&f), vec![Rule::D9], "{f:?}");
    // Clippy has no deny for `unreachable!`, so D9 keeps it everywhere.
    let unreachable = src.replace("q.first().copied().unwrap()", "unreachable!()");
    let f = scan_file("x.rs", &unreachable, &sim_hot());
    assert_eq!(rules(&f), vec![Rule::D9], "{f:?}");
    assert!(f[0].message.contains("`unreachable!`"), "{}", f[0].message);
}

#[test]
fn d10_fires_exactly_once_inside_hot_fns() {
    let f = scan_file("d10_fires.rs", D10, &sim_cold());
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
    assert!(scan_file("d10_fires.rs", &allowed, &sim_cold()).is_empty());
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
    let f = scan_file("allowed.rs", ALLOWED, &sim_hot());
    assert!(f.is_empty(), "expected clean, got {f:?}");
}

#[test]
fn marker_without_reason_is_an_error_and_suppresses_nothing() {
    let f = scan_file("malformed_marker.rs", MALFORMED, &sim_hot());
    assert_eq!(rules(&f), vec![Rule::Marker, Rule::D1], "{f:?}");
    let marker = f.iter().find(|x| x.rule == Rule::Marker).unwrap();
    assert!(marker.message.contains("reason"), "{}", marker.message);
}

#[test]
fn marker_with_empty_reason_is_an_error() {
    let src = "fn f(m: &HashMap<u32, u32>) {\n    let n = m.keys().count(); // detlint: allow(D1) -- \n}\n";
    let f = scan_file("x.rs", src, &sim_hot());
    assert_eq!(rules(&f), vec![Rule::D1, Rule::Marker], "{f:?}");
}

#[test]
fn marker_naming_unknown_rule_is_an_error() {
    // D2–D5 moved to rustc and clippy: a leftover marker naming one is an
    // error, not silence.
    for rule in ["D99", "D2", "D3", "D4", "D5"] {
        let src = format!("// detlint: allow({rule}) -- no such rule\nfn f() {{}}\n");
        let f = scan_file("x.rs", &src, &sim_hot());
        assert_eq!(rules(&f), vec![Rule::Marker], "{rule}: {f:?}");
        assert!(f[0].message.contains("unknown rule"), "{}", f[0].message);
    }
}

#[test]
fn unused_marker_is_an_error() {
    let f = scan_file("unused_marker.rs", UNUSED, &sim_cold());
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
    // D1 and D8 are scoped to simulation crates, D6 to the outcome crates;
    // a support crate like `repro` triggers none of them.
    let support = FileCtx::new("repro");
    assert!(scan_file("d1.rs", D1, &support).is_empty());
    assert!(scan_file("d6.rs", D6, &support).is_empty());
    assert!(scan_file("d8.rs", D8, &support).is_empty());
    // D6 also stays quiet in sim crates outside the outcome set.
    assert!(scan_file("d6.rs", D6, &sim_hot()).is_empty());
}

#[test]
fn cfg_test_code_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        for (k, v) in m.iter() {
            let _ = (k, v);
        }
        let _ = resolve(net, 0, 1);
    }
}
";
    assert!(scan_file("x.rs", src, &sim_hot()).is_empty());
    assert!(scan_file("x.rs", src, &FileCtx::new("measure")).is_empty());
}

#[test]
fn comments_and_strings_do_not_fire() {
    let src = "\
/// Example: `scores.iter().next()` and `reg.inc(name, &[])`.
// for (k, v) in scores.iter() is banned here.
pub fn msg(scores: &HashMap<u32, u32>) -> &'static str {
    \"no // comment starts inside this scores.keys() string\"
}
";
    assert!(scan_file("x.rs", src, &sim_hot()).is_empty());
}

#[test]
fn multiline_method_chains_are_caught() {
    let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> u32 {
    m
        .values()
        .sum()
}
";
    let f = scan_file("x.rs", src, &sim_hot());
    assert_eq!(rules(&f), vec![Rule::D1], "{f:?}");
    assert_eq!(f[0].line, 4);
}

#[test]
fn for_loops_over_hash_maps_are_caught() {
    let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) {
    for (k, v) in &m {
        let _ = (k, v);
    }
}
";
    let f = scan_file("x.rs", src, &sim_hot());
    assert_eq!(rules(&f), vec![Rule::D1], "{f:?}");
}

#[test]
fn btree_collections_are_clean() {
    let src = "\
use std::collections::BTreeMap;
fn f(m: &BTreeMap<u32, u32>) -> u32 {
    m.values().sum()
}
";
    assert!(scan_file("x.rs", src, &sim_hot()).is_empty());
}

#[test]
fn json_output_is_escaped_and_well_formed() {
    let f = vec![Finding {
        file: "a\\b.rs".into(),
        line: 7,
        col: 3,
        rule: Rule::D1,
        message: "say \"no\"".into(),
        snippet: None,
    }];
    let json = detlint::report::to_json(&f);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"rule\": \"D1\""));
    assert!(json.contains("\"col\": 3"));
    assert!(json.contains("a\\\\b.rs"));
    assert!(json.contains("say \\\"no\\\""));
    assert_eq!(detlint::report::to_json(&[]), "[\n]");
}
