//! Fixture: a well-formed allow-marker whose finding no longer exists —
//! the stale justification is itself an error.

pub fn steady() -> u32 {
    // detlint: allow(D1) -- the hash iteration was removed in a refactor
    41 + 1
}
