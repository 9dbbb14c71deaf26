// Malformed-marker fixture: a reasonless marker is an error, and the
// violation it points at is NOT suppressed.
use std::collections::HashMap;

pub fn total(scores: &HashMap<String, u64>) -> u64 {
    // detlint: allow(D1)
    scores.values().sum()
}
