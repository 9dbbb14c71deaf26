// Malformed-marker fixture: a reasonless marker is an error, and the
// violation it points at is NOT suppressed.

pub fn rank(xs: &mut [(f64, u32)]) {
    // detlint: allow(D11)
    xs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
}
