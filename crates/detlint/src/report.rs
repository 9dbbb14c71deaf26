//! Diagnostic emitters: rustc-style text with code frames (the gate), and
//! JSON (the CI artifact).

use crate::Finding;

fn esc_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as `file:line:col: rule[D#]: message` with a code
/// frame under each diagnostic when the offending source line is known.
pub fn to_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{f}\n"));
        if let Some(snippet) = &f.snippet {
            let gutter = format!("{:>5}", f.line);
            out.push_str(&format!("{} |\n", " ".repeat(gutter.len())));
            out.push_str(&format!("{gutter} | {snippet}\n"));
            let caret_pad = " ".repeat(f.col.saturating_sub(1));
            out.push_str(&format!("{} | {caret_pad}^\n", " ".repeat(gutter.len())));
        }
    }
    out
}

/// Renders findings as a JSON array (hand-rolled; no serde in the tree).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
            esc_json(&f.file),
            f.line,
            f.col,
            f.rule,
            esc_json(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            rule: Rule::D7,
            message: "dynamic \"name\" in a mutator".into(),
            snippet: Some("    reg.inc(name, &[]);".into()),
        }]
    }

    #[test]
    fn text_includes_code_frame_with_caret_at_col() {
        let text = to_text(&sample());
        assert!(text.contains("crates/x/src/lib.rs:3:9: rule[D7]"));
        assert!(text.contains("    3 |     reg.inc(name, &[]);"));
        let caret_line = text.lines().last().unwrap();
        assert_eq!(caret_line.find('^').unwrap(), "      | ".len() + 8);
    }
}
