// Suppression fixture: the same hazards as the `*_fires` fixtures, each
// carrying a well-formed allow-marker, so the scan reports nothing.

// detlint: hot
pub fn ranked(xs: &[(f64, u32)]) -> Vec<(f64, u32)> {
    // detlint: allow(D10, D11) -- fixture: both hazards on the next line
    let mut v = xs.to_vec(); v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    v
}

pub fn count(reg: &mut Registry, name: &'static str) {
    // detlint: allow(D7) -- fixture: caller guarantees a static name
    reg.inc(name, &[]);
}
