//! Fixture: a well-formed allow-marker whose finding no longer exists —
//! the stale justification is itself an error.

pub fn steady() -> u32 {
    // detlint: allow(D11) -- the float sort was removed in a refactor
    41 + 1
}
