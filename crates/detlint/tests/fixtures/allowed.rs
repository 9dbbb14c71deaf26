// Suppression fixture: the same hazards as the `*_fires` fixtures, each
// carrying a well-formed allow-marker, so the scan reports nothing.
use std::collections::HashMap;

pub fn total(scores: &HashMap<String, u64>) -> u64 {
    // detlint: allow(D1) -- fixture: order does not reach any output
    scores.values().sum()
}

// detlint: hot
pub fn label(scores: &HashMap<String, u64>) -> String {
    // detlint: allow(D1, D10) -- fixture: both hazards on the next line
    format!("{}", scores.keys().count())
}

pub fn count(reg: &mut Registry, name: &'static str) {
    // detlint: allow(D7) -- fixture: caller guarantees a static name
    reg.inc(name, &[]);
}
