//! Spanned source preparation: the first stage of the detlint pipeline.
//!
//! Turns one `.rs` source into a [`SourceFile`]: per-line *sanitized code*
//! that is *length-preserving* (string/char-literal contents and block
//! comments are blanked with spaces, never spliced out), so any byte offset
//! found in the sanitized text is also the 1-based column in the original
//! line. Alongside the code it extracts line comments with their spans,
//! the `#[cfg(test)]`-gated line mask, and every `detlint:` marker
//! (`allow(...)` suppressions and `hot` hot-path annotations).

use crate::Rule;
use std::collections::BTreeSet;

/// A `// detlint: allow(...)` suppression marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// 1-based line the marker comment sits on.
    pub line: usize,
    /// 1-based column of the `//` that opens the comment.
    pub col: usize,
    /// 1-based line the marker suppresses (same line, or the next line
    /// holding code when the marker stands alone).
    pub target: usize,
    /// The rules it names.
    pub rules: Vec<Rule>,
}

/// One prepared source file.
#[derive(Debug, Default)]
pub struct SourceFile {
    /// Raw source lines (for snippets in diagnostics).
    pub raw: Vec<String>,
    /// Sanitized code, length-preserving per line: string/char contents and
    /// block comments blanked, line comments truncated off the end.
    pub code: Vec<String>,
    /// Line comments: `(col_of_slashes_1based, text_after_slashes)`.
    pub comments: Vec<Option<(usize, String)>>,
    /// Whether each line sits inside `#[cfg(test)]`-gated code.
    pub is_test: Vec<bool>,
    /// Rules suppressed per line by valid allow-markers.
    pub allowed: Vec<BTreeSet<Rule>>,
    /// All valid allow-markers, in line order.
    pub markers: Vec<AllowMarker>,
    /// Lines carrying a `// detlint: hot` annotation.
    pub hot_lines: Vec<usize>,
    /// Malformed-marker diagnostics: `(line, col, message)`.
    pub marker_errors: Vec<(usize, usize, String)>,
}

impl SourceFile {
    /// Number of lines.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True for an empty file.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The raw text of a 1-based line (empty when out of range).
    pub fn raw_line(&self, line: usize) -> &str {
        line.checked_sub(1)
            .and_then(|i| self.raw.get(i))
            .map(String::as_str)
            .unwrap_or("")
    }
}

/// Splits one line into length-preserving sanitized code and an optional
/// trailing line comment `(col_1based, text)`. String and char-literal
/// contents are blanked with spaces so banned tokens inside them never
/// fire, while every surviving byte keeps its original column. `in_str`
/// carries open-string state across lines, so multi-line string literals
/// (including `\`-continued format strings) stay blanked on every line.
fn sanitize_line(line: &str, in_str: &mut bool) -> (String, Option<(usize, String)>) {
    let bytes = line.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let in_str = &mut *in_str;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if *in_str {
            match c {
                b'\\' => {
                    // The escape and the escaped byte are both blanked.
                    code.push(b' ');
                    if i + 1 < bytes.len() {
                        code.push(b' ');
                        i += 1;
                    }
                }
                b'"' => {
                    code.push(c);
                    *in_str = false;
                }
                _ => code.push(b' '),
            }
        } else {
            match c {
                b'"' => {
                    code.push(c);
                    *in_str = true;
                }
                b'\'' => {
                    // Char literal vs lifetime: a literal closes within a
                    // few bytes ('x', '\n', '\u{..}'); a lifetime never
                    // closes. Scan ahead conservatively and blank the body.
                    let mut j = i + 1;
                    if j < bytes.len() && bytes[j] == b'\\' {
                        j += 2;
                        while j < bytes.len() && bytes[j] != b'\'' {
                            j += 1;
                        }
                        code.push(c);
                        code.extend(std::iter::repeat_n(b' ', j.min(bytes.len()) - i - 1));
                        if j < bytes.len() {
                            code.push(b'\'');
                        }
                        i = j;
                    } else if j + 1 < bytes.len() && bytes[j + 1] == b'\'' {
                        code.extend([b'\'', b' ', b'\'']);
                        i = j + 1;
                    } else {
                        // Lifetime: keep as-is.
                        code.push(c);
                    }
                }
                b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                    return (
                        String::from_utf8_lossy(&code).into_owned(),
                        Some((i + 1, line[i + 2..].to_string())),
                    );
                }
                _ => code.push(c),
            }
        }
        i += 1;
    }
    (String::from_utf8_lossy(&code).into_owned(), None)
}

/// Blanks `/* ... */` block comments in place (length-preserving), carrying
/// the open state across lines.
fn blank_block_comments(code: &mut [String], comments: &mut [Option<(usize, usize, String)>]) {
    let mut in_block = false;
    for (idx, line) in code.iter_mut().enumerate() {
        let bytes = line.as_bytes().to_vec();
        let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            if in_block {
                if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    out.extend([b' ', b' ']);
                    in_block = false;
                    i += 2;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                out.extend([b' ', b' ']);
                in_block = true;
                i += 2;
            } else {
                out.push(bytes[i]);
                i += 1;
            }
        }
        if in_block {
            // Any trailing line comment captured on an in-block line was
            // really comment-in-comment text: drop it.
            comments[idx] = None;
        }
        *line = String::from_utf8_lossy(&out).into_owned();
    }
}

/// Marks the `#[cfg(test)]`-gated region: from the attribute through the
/// close of the brace block it gates.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut is_test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") {
            let mut depth: i32 = 0;
            let mut opened = false;
            let mut j = i;
            while j < code.len() {
                is_test[j] = true;
                for ch in code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    is_test
}

/// Parses a `detlint: allow(<rules>) -- <reason>` marker out of a comment.
/// The marker must be the comment's entire content (doc comments that
/// merely *mention* markers mid-sentence are not markers). Returns
/// `Err(message)` when the marker is malformed.
fn parse_allow(comment: &str) -> Option<Result<Vec<Rule>, String>> {
    let head = comment.trim_start_matches(['/', '!']).trim_start();
    let rest = head.strip_prefix("detlint:")?.trim_start();
    if rest == "hot" {
        return None; // handled separately
    }
    let Some(rest) = rest.strip_prefix("allow") else {
        return Some(Err(
            "detlint marker must be `allow(<rule>[, <rule>]) -- <reason>` or `hot`".to_string(),
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(Err("detlint allow-marker is missing `(`".to_string()));
    };
    let Some(close) = rest.find(')') else {
        return Some(Err("detlint allow-marker is missing `)`".to_string()));
    };
    let mut rules = Vec::new();
    for part in rest[..close].split(',') {
        match Rule::from_id(part) {
            Some(r) => rules.push(r),
            None => {
                return Some(Err(format!(
                    "unknown rule `{}` in allow-marker",
                    part.trim()
                )))
            }
        }
    }
    if rules.is_empty() {
        return Some(Err("allow-marker names no rules".to_string()));
    }
    let tail = rest[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix("--") else {
        return Some(Err(
            "allow-marker needs a written reason: `-- <why this is safe>`".to_string(),
        ));
    };
    if reason.trim().is_empty() {
        return Some(Err(
            "allow-marker reason is empty; write why the suppression is sound".to_string(),
        ));
    }
    Some(Ok(rules))
}

/// Whether a comment is exactly the hot-path annotation `detlint: hot`.
fn is_hot_marker(comment: &str) -> bool {
    comment
        .trim_start_matches(['/', '!'])
        .trim()
        .strip_prefix("detlint:")
        .is_some_and(|rest| rest.trim() == "hot")
}

/// Prepares one source file for the item/rule passes.
pub fn prepare(source: &str) -> SourceFile {
    let raw: Vec<String> = source.lines().map(str::to_string).collect();
    let mut code = Vec::with_capacity(raw.len());
    let mut spanned_comments: Vec<Option<(usize, usize, String)>> = Vec::with_capacity(raw.len());
    let mut in_str = false;
    for line in &raw {
        let (c, m) = sanitize_line(line, &mut in_str);
        code.push(c);
        spanned_comments.push(m.map(|(col0, text)| (0, col0, text)));
    }
    blank_block_comments(&mut code, &mut spanned_comments);

    let is_test = mark_test_regions(&code);

    let mut allowed: Vec<BTreeSet<Rule>> = vec![BTreeSet::new(); code.len()];
    let mut markers = Vec::new();
    let mut hot_lines = Vec::new();
    let mut marker_errors = Vec::new();
    let mut comments: Vec<Option<(usize, String)>> = Vec::with_capacity(code.len());

    for (i, sc) in spanned_comments.iter().enumerate() {
        let Some((_, col0, text)) = sc else {
            comments.push(None);
            continue;
        };
        let col = *col0; // column of the first `/`
        if is_hot_marker(text) {
            hot_lines.push(i + 1);
        } else {
            match parse_allow(text) {
                None => {}
                Some(Err(msg)) => marker_errors.push((i + 1, col, msg)),
                Some(Ok(rules)) => {
                    let standalone = code[i].trim().is_empty();
                    let target = if standalone {
                        (i + 1..code.len()).find(|&j| !code[j].trim().is_empty())
                    } else {
                        Some(i)
                    };
                    if let Some(t) = target {
                        allowed[t].extend(rules.iter().copied());
                    }
                    markers.push(AllowMarker {
                        line: i + 1,
                        col,
                        target: target.map(|t| t + 1).unwrap_or(i + 1),
                        rules,
                    });
                }
            }
        }
        comments.push(Some((col, text.clone())));
    }

    SourceFile {
        raw,
        code,
        comments,
        is_test,
        allowed,
        markers,
        hot_lines,
        marker_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizing_is_length_preserving() {
        for line in [
            "let s = \"Instant::now() inside a string\"; call();",
            "let c = 'x'; let esc = '\\n'; let life: &'static str = \"\";",
            "a /* mid */ b",
        ] {
            let (code, _) = sanitize_line(line, &mut false);
            assert_eq!(code.len(), line.len(), "{line:?} -> {code:?}");
        }
    }

    #[test]
    fn multiline_strings_stay_blanked() {
        let sf = prepare(
            "let s = \"first line\\n\\\n     // detlint: not a marker, Instant::now()\";\nlet x = 1;\n",
        );
        assert!(sf.marker_errors.is_empty());
        assert!(sf.comments[1].is_none());
        assert!(!sf.code[1].contains("Instant::now"));
        assert!(sf.code[2].contains("let x = 1;"));
    }

    #[test]
    fn block_comments_blank_in_place() {
        let sf = prepare("let a = 1; /* HashMap\nstill comment */ let b = 2;\n");
        assert_eq!(sf.code[0].trim_end(), "let a = 1;");
        assert!(!sf.code[1].contains("comment"));
        assert!(sf.code[1].contains("let b = 2;"));
        assert_eq!(sf.code[1].find("let b").unwrap(), 17);
    }

    #[test]
    fn columns_survive_strings() {
        let sf = prepare("let x = \"no\"; map.iter();\n");
        let col = sf.code[0].find(".iter(").unwrap();
        assert_eq!(&sf.raw[0][col..col + 6], ".iter(");
    }

    #[test]
    fn hot_marker_is_recognized() {
        let sf = prepare("// detlint: hot\nfn f() {}\n");
        assert_eq!(sf.hot_lines, vec![1]);
        assert!(sf.markers.is_empty());
        assert!(sf.marker_errors.is_empty());
    }

    #[test]
    fn allow_marker_records_target_and_col() {
        let sf = prepare("// detlint: allow(D1) -- fixture reason\nlet n = m.keys().count();\n");
        assert_eq!(sf.markers.len(), 1);
        assert_eq!(sf.markers[0].target, 2);
        assert!(sf.allowed[1].contains(&Rule::D1));
    }
}
