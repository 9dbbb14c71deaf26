//! The borrowed view of a wire-format name — and the one place every
//! read-only name operation is implemented.
//!
//! A [`NameRef`] points at a (possibly compressed) name inside a byte
//! buffer: a received message, the encoder's output so far, or the flat
//! storage of an owned [`DnsName`] (via [`DnsName::as_ref`]). The label walk,
//! the comparator, `Display`, `is_under` and the length accessors below are
//! the only copies in the crate; [`DnsName`] delegates to them. Nothing is
//! allocated until [`NameRef::to_name`] copies the labels out, once.
//!
//! Comparison is case-insensitive and label-wise, leftmost label most
//! significant, bytewise within a label. That is *not* byte order of the flat
//! wire form (which would sort `b` before `ab`, the length octet coming
//! first): the label-wise order feeds `BTreeMap` iteration in the `dnssim`
//! caches and zones, and through it the replay hashes.

use crate::error::WireError;
use crate::name::{validate_label_bytes, DnsName, MAX_NAME_LEN};
use std::cmp::Ordering;

/// Upper bound on pointer follows while decoding one name. A legal message
/// cannot chain more pointers than it has bytes / 2; this constant is far
/// above any real chain while still bounding adversarial input.
const MAX_POINTER_JUMPS: usize = 128;

/// A validated borrowed view of a wire-format name inside `buf`,
/// starting at `start`.
///
/// Construction via [`NameRef::parse`] performs the full structural and
/// byte-alphabet validation (bounds, strictly backward pointers, jump bound,
/// 255-octet name cap, LDH+underscore labels), so every accessor afterwards
/// can walk the buffer infallibly.
#[derive(Clone, Copy)]
pub struct NameRef<'a> {
    buf: &'a [u8],
    start: usize,
}

impl<'a> NameRef<'a> {
    /// A view of the name at `buf[start]`, which the caller knows to be
    /// valid: bytes this crate wrote itself (an owned name's storage, the
    /// encoder's output).
    pub(crate) fn at(buf: &'a [u8], start: usize) -> Self {
        NameRef { buf, start }
    }

    /// Validates the name starting at `buf[start]` and returns it together
    /// with the number of bytes it occupies *in sequence* (up to and
    /// including either the root octet or the first compression pointer) —
    /// i.e. how far a cursor should advance past it.
    ///
    /// Structural errors surface during the walk, label alphabet violations
    /// after it.
    // detlint: hot
    pub fn parse(buf: &'a [u8], start: usize) -> Result<(NameRef<'a>, usize), WireError> {
        let mut wire_len = 1usize; // terminating root octet
        let mut read_pos = start;
        // Bytes consumed in sequence; set when the first pointer is met.
        let mut consumed: Option<usize> = None;
        let mut jumps = 0usize;
        loop {
            let len_byte = *buf.get(read_pos).ok_or(WireError::Truncated {
                context: "name label",
            })?;
            match len_byte & 0xC0 {
                0x00 => {
                    read_pos += 1;
                    if len_byte == 0 {
                        break;
                    }
                    let len = len_byte as usize;
                    let end = read_pos + len;
                    if end > buf.len() {
                        return Err(WireError::Truncated {
                            context: "name label",
                        });
                    }
                    wire_len += len + 1;
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(wire_len));
                    }
                    read_pos = end;
                }
                0xC0 => {
                    let second = *buf.get(read_pos + 1).ok_or(WireError::Truncated {
                        context: "compression pointer",
                    })?;
                    let target = (((len_byte & 0x3F) as usize) << 8) | second as usize;
                    if target >= read_pos {
                        return Err(WireError::BadCompressionPointer {
                            target,
                            at: read_pos,
                        });
                    }
                    jumps += 1;
                    if jumps > MAX_POINTER_JUMPS {
                        return Err(WireError::CompressionLoop);
                    }
                    if consumed.is_none() {
                        consumed = Some(read_pos + 2 - start);
                    }
                    read_pos = target;
                }
                other => {
                    return Err(WireError::ReservedLabelType(other));
                }
            }
        }
        let name = NameRef { buf, start };
        // The walk bounded every label to 1..=63 octets, so only the
        // alphabet can fail here.
        for label in name.labels() {
            validate_label_bytes(label)?;
        }
        // Lazy: after a pointer jump `read_pos` may sit before `start`, but
        // then `consumed` was recorded at the jump.
        Ok((name, consumed.unwrap_or_else(|| read_pos - start)))
    }

    /// Iterator over the labels as raw (original-case) byte slices of the
    /// buffer, leftmost first, following compression pointers.
    pub fn labels(&self) -> LabelIter<'a> {
        LabelIter {
            buf: self.buf,
            pos: self.start,
        }
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// `true` for the root name.
    pub fn is_root(&self) -> bool {
        self.labels().next().is_none()
    }

    /// Length in uncompressed wire format, including each label's length
    /// octet and the terminating zero octet.
    pub fn wire_len(&self) -> usize {
        1 + self.labels().map(|l| l.len() + 1).sum::<usize>()
    }

    /// The leftmost label and the name that follows it (the parent domain);
    /// `None` for the root. The parent starts where the label walk stands
    /// after one label, so names are only ever cut at label starts.
    pub fn split_first(&self) -> Option<(&'a [u8], NameRef<'a>)> {
        let mut rest = self.labels();
        let first = rest.next()?;
        Some((first, NameRef::at(self.buf, rest.pos)))
    }

    /// `true` if `self` equals `other` or is a descendant of it
    /// (`www.example.com` is under `example.com` and under the root).
    ///
    /// Compares whole labels from the point where as many remain as `other`
    /// has. A byte-suffix test on the flat form would be wrong: length
    /// octets 45 and 48–57 are also legal label bytes (`-`, `0`–`9`).
    pub fn is_under(&self, other: NameRef<'_>) -> bool {
        let (mine, theirs) = (self.label_count(), other.label_count());
        mine >= theirs && cmp_labels(self.labels().skip(mine - theirs), other.labels()).is_eq()
    }

    /// Converts to an owned, lowercase-normalized [`DnsName`]: one
    /// allocation, one copy, no re-validation.
    pub fn to_name(&self) -> DnsName {
        let mut wire = Vec::with_capacity(self.wire_len());
        for label in self.labels() {
            wire.push(label.len() as u8);
            wire.extend(label.iter().map(u8::to_ascii_lowercase));
        }
        wire.push(0);
        DnsName {
            wire: wire.into_boxed_slice(),
        }
    }
}

/// Iterator over a validated name's labels; never fails because
/// [`NameRef::parse`] proved the walk terminates in bounds.
pub struct LabelIter<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];

    // detlint: hot
    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            let len_byte = *self.buf.get(self.pos)?;
            match len_byte & 0xC0 {
                0x00 => {
                    if len_byte == 0 {
                        return None;
                    }
                    let start = self.pos + 1;
                    let end = start + len_byte as usize;
                    let label = self.buf.get(start..end)?;
                    self.pos = end;
                    return Some(label);
                }
                0xC0 => {
                    let second = *self.buf.get(self.pos + 1)?;
                    self.pos = (((len_byte & 0x3F) as usize) << 8) | second as usize;
                }
                _ => return None, // unreachable post-validation
            }
        }
    }
}

/// The name order: lexicographic over the label lists, each label compared
/// bytewise after ASCII-lowercasing.
fn cmp_labels<'a, 'b>(
    mut a: impl Iterator<Item = &'a [u8]>,
    mut b: impl Iterator<Item = &'b [u8]>,
) -> Ordering {
    loop {
        match (a.next(), b.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            // Identical bytes (the common case: owned names are stored
            // lowercase) need no per-byte case folding.
            (Some(la), Some(lb)) if la == lb => {}
            (Some(la), Some(lb)) => {
                let c = la
                    .iter()
                    .map(u8::to_ascii_lowercase)
                    .cmp(lb.iter().map(u8::to_ascii_lowercase));
                if c != Ordering::Equal {
                    return c;
                }
            }
        }
    }
}

impl PartialEq for NameRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for NameRef<'_> {}

impl PartialOrd for NameRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NameRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_labels(self.labels(), other.labels())
    }
}

impl std::fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for label in self.labels() {
            if !first {
                write!(f, ".")?;
            }
            first = false;
            for &b in label {
                write!(f, "{}", b.to_ascii_lowercase() as char)?;
            }
        }
        if first {
            write!(f, ".")?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NameRef({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes labels + root, no compression.
    fn wire(labels: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        for l in labels {
            out.push(l.len() as u8);
            out.extend_from_slice(l.as_bytes());
        }
        out.push(0);
        out
    }

    #[test]
    fn parse_plain_name() {
        let buf = wire(&["WWW", "Example", "com"]);
        let (name, consumed) = NameRef::parse(&buf, 0).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(name.label_count(), 3);
        assert_eq!(name.to_string(), "www.example.com");
        assert_eq!(name.to_name(), DnsName::parse("www.example.com").unwrap());
        assert_eq!(name.wire_len(), buf.len());
    }

    #[test]
    fn parse_root() {
        let buf = vec![0u8];
        let (name, consumed) = NameRef::parse(&buf, 0).unwrap();
        assert_eq!(consumed, 1);
        assert!(name.is_root());
        assert_eq!(name.to_name(), DnsName::root());
        assert_eq!(name.to_string(), ".");
    }

    #[test]
    fn parse_follows_backward_pointer() {
        // "example.com" at 0, then "www" + pointer to 0 at offset 13.
        let mut buf = wire(&["example", "com"]);
        let target = 0u16;
        let at = buf.len();
        buf.push(3);
        buf.extend_from_slice(b"www");
        buf.extend_from_slice(&(0xC000 | target).to_be_bytes());
        let (name, consumed) = NameRef::parse(&buf, at).unwrap();
        assert_eq!(consumed, 6); // 1 + 3 + 2-byte pointer
        assert_eq!(name.to_string(), "www.example.com");
        // The parent of a compressed name is the pointer's target.
        let (first, parent) = name.split_first().unwrap();
        assert_eq!(first, b"www");
        assert_eq!(parent.to_string(), "example.com");
        assert!(name.is_under(parent));
        assert!(!parent.is_under(name));
    }

    #[test]
    fn rejects_forward_pointer_and_self_pointer() {
        // Pointer at offset 0 referencing offset 0 (>= its own position).
        let buf = vec![0xC0, 0x00];
        assert!(matches!(
            NameRef::parse(&buf, 0).unwrap_err(),
            WireError::BadCompressionPointer { target: 0, at: 0 }
        ));
        // Forward pointer: label then pointer to beyond itself.
        let mut fwd = wire(&["a"]);
        fwd.pop(); // drop root
        let at = fwd.len();
        fwd.extend_from_slice(&(0xC000u16 | 40).to_be_bytes());
        assert!(matches!(
            NameRef::parse(&fwd, 0).unwrap_err(),
            WireError::BadCompressionPointer { target: 40, at: got } if got == at
        ));
    }

    #[test]
    fn comparisons_are_case_insensitive_and_label_wise() {
        use Ordering::*;
        let cases = [
            (
                vec!["CDN", "Example", "net"],
                vec!["cdn", "example", "NET"],
                Equal,
            ),
            (vec!["a", "b"], vec!["a", "c"], Less),
            (vec!["a"], vec!["a", "b"], Less),
            (vec!["zz"], vec!["aa", "bb"], Greater),
            // Label-wise, not flat byte order: the length octet of "b" (1)
            // is smaller than that of "ab" (2), yet "ab" < "b".
            (vec!["ab"], vec!["b"], Less),
            (vec!["a"], vec!["ab"], Less),
        ];
        for (la, lb, want) in cases {
            let (ba, bb) = (wire(&la), wire(&lb));
            let (ra, _) = NameRef::parse(&ba, 0).unwrap();
            let (rb, _) = NameRef::parse(&bb, 0).unwrap();
            assert_eq!(ra.cmp(&rb), want, "{ra} vs {rb}");
            assert_eq!(ra == rb, want == Equal);
            assert_eq!(ra.to_name().cmp(&rb.to_name()), want);
            assert_eq!(ra == rb.to_name().as_ref(), want == Equal);
        }
    }

    #[test]
    fn invalid_label_byte_reported_after_structure() {
        let buf = wire(&["bad!"]);
        assert!(matches!(
            NameRef::parse(&buf, 0).unwrap_err(),
            WireError::InvalidLabelByte(b'!')
        ));
    }
}
