//! Owned domain names: construction, validation, hierarchy operations.

use crate::error::WireError;
use crate::nameref::{LabelIter, NameRef};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire, including length octets and the
/// terminating root octet (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// A validated, absolute domain name.
///
/// Stored as one allocation holding the uncompressed wire form —
/// length-prefixed labels plus the terminating root octet — with every label
/// normalized to ASCII lowercase at construction (DNS names compare
/// case-insensitively, RFC 1035 §2.3.3). The normalized form is canonical, so
/// `Eq` and `Hash` are those of the bytes; everything that has to know where
/// labels start and end (`Ord`, `Display`, `is_under`, …) is implemented once
/// on the borrowed view, [`DnsName::as_ref`].
#[derive(Clone, Eq, PartialEq, Hash)]
pub struct DnsName {
    pub(crate) wire: Box<[u8]>,
}

/// Checks one label: 1..=63 octets of the LDH alphabet plus underscore (used
/// by service labels and our whoami probes).
pub(crate) fn validate_label_bytes(label: &[u8]) -> Result<(), WireError> {
    if label.is_empty() {
        return Err(WireError::EmptyLabel);
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(WireError::LabelTooLong(label.len()));
    }
    match label
        .iter()
        .find(|&&b| !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_'))
    {
        Some(&b) => Err(WireError::InvalidLabelByte(b)),
        None => Ok(()),
    }
}

/// Appends `label`, validated and lowercased, to a wire form under
/// construction.
fn push_label(wire: &mut Vec<u8>, label: &[u8]) -> Result<(), WireError> {
    validate_label_bytes(label)?;
    wire.push(label.len() as u8);
    wire.extend(label.iter().map(u8::to_ascii_lowercase));
    Ok(())
}

/// Completes the labels in `wire` with `suffix` — a whole wire-form name, at
/// least the root octet — and enforces the 255-octet cap.
fn seal(mut wire: Vec<u8>, suffix: &[u8]) -> Result<DnsName, WireError> {
    wire.extend_from_slice(suffix);
    if wire.len() > MAX_NAME_LEN {
        return Err(WireError::NameTooLong(wire.len()));
    }
    Ok(DnsName {
        wire: wire.into_boxed_slice(),
    })
}

impl DnsName {
    /// The root name (`.`).
    pub fn root() -> Self {
        DnsName {
            wire: Box::new([0]),
        }
    }

    /// Parses a name from presentation format (`"www.example.com"`,
    /// optionally with a trailing dot). An empty string or `"."` is the root.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        if s.is_empty() || s == "." {
            return Ok(Self::root());
        }
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        let mut wire = Vec::with_capacity(trimmed.len() + 2);
        for part in trimmed.split('.') {
            push_label(&mut wire, part.as_bytes())?;
        }
        seal(wire, &[0])
    }

    /// Builds a name from label byte-strings (root-last order).
    pub fn from_labels<I, L>(iter: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut wire = Vec::new();
        for l in iter {
            push_label(&mut wire, l.as_ref())?;
        }
        seal(wire, &[0])
    }

    /// The borrowed view every read-only operation goes through.
    pub fn as_ref(&self) -> NameRef<'_> {
        NameRef::at(&self.wire, 0)
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.as_ref().label_count()
    }

    /// `true` for the root name.
    pub fn is_root(&self) -> bool {
        self.as_ref().is_root()
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> LabelIter<'_> {
        self.as_ref().labels()
    }

    /// Length of this name in uncompressed wire format, including each
    /// label's length octet and the terminating zero octet.
    pub fn wire_len(&self) -> usize {
        self.wire.len()
    }

    /// The parent domain (drops the leftmost label); `None` for the root.
    pub fn parent(&self) -> Option<DnsName> {
        let (first, _) = self.as_ref().split_first()?;
        // Flat and lowercase already: the parent is the bytes after it.
        let wire = self.wire[1 + first.len()..].into();
        Some(DnsName { wire })
    }

    /// `true` if `self` equals `other` or is a descendant of it
    /// (`www.example.com` is under `example.com` and under the root).
    pub fn is_under(&self, other: &DnsName) -> bool {
        self.as_ref().is_under(other.as_ref())
    }

    /// Prepends a label, producing a child name (`child("www")` of
    /// `example.com` is `www.example.com`).
    pub fn child(&self, label: &str) -> Result<DnsName, WireError> {
        let mut wire = Vec::with_capacity(1 + label.len() + self.wire.len());
        push_label(&mut wire, label.as_bytes())?;
        seal(wire, &self.wire)
    }

    /// Iterator over this name and all its ancestors up to the root, most
    /// specific first: `www.example.com`, `example.com`, `com`, `.`.
    pub fn self_and_ancestors(&self) -> impl Iterator<Item = DnsName> {
        std::iter::successors(Some(self.clone()), DnsName::parent)
    }
}

impl PartialOrd for DnsName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DnsName {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(&other.as_ref())
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

impl fmt::Debug for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DnsName({self})")
    }
}

impl FromStr for DnsName {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let n = DnsName::parse("WWW.Example.COM").unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn trailing_dot_is_accepted() {
        let a = DnsName::parse("example.com.").unwrap();
        let b = DnsName::parse("example.com").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn root_forms() {
        assert!(DnsName::parse("").unwrap().is_root());
        assert!(DnsName::parse(".").unwrap().is_root());
        assert_eq!(DnsName::root().to_string(), ".");
        assert_eq!(DnsName::root().wire_len(), 1);
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::BTreeSet;
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let a = DnsName::parse("CDN.Example.net").unwrap();
        let b = DnsName::parse("cdn.example.NET").unwrap();
        assert_eq!(a, b);
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        let mut set = BTreeSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!(DnsName::parse("a..b").unwrap_err(), WireError::EmptyLabel);
        assert!(matches!(
            DnsName::parse("bad!char.com").unwrap_err(),
            WireError::InvalidLabelByte(b'!')
        ));
        let long = "x".repeat(64);
        assert!(matches!(
            DnsName::parse(&format!("{long}.com")).unwrap_err(),
            WireError::LabelTooLong(64)
        ));
    }

    #[test]
    fn rejects_names_over_255_octets() {
        // Each label "xxxxxxxxx" costs 10 wire octets; 26 of them exceed 255.
        let label = "x".repeat(9);
        let parts: Vec<&str> = std::iter::repeat_n(label.as_str(), 26).collect();
        let joined = parts.join(".");
        assert!(matches!(
            DnsName::parse(&joined).unwrap_err(),
            WireError::NameTooLong(_)
        ));
    }

    #[test]
    fn parent_and_child() {
        let n = DnsName::parse("www.example.com").unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "example.com");
        assert_eq!(p.child("www").unwrap(), n);
        assert!(DnsName::root().parent().is_none());
    }

    #[test]
    fn is_under_relations() {
        let www = DnsName::parse("www.example.com").unwrap();
        let example = DnsName::parse("example.com").unwrap();
        let com = DnsName::parse("com").unwrap();
        let org = DnsName::parse("org").unwrap();
        assert!(www.is_under(&example));
        assert!(www.is_under(&com));
        assert!(www.is_under(&DnsName::root()));
        assert!(www.is_under(&www));
        assert!(!example.is_under(&www));
        assert!(!www.is_under(&org));
    }

    #[test]
    fn is_under_compares_labels_not_byte_suffixes() {
        // 45 is both the length octet of a 45-byte label and the byte `-`:
        // the flat form of `a-<45 x>` ends with the flat form of `<45 x>`,
        // yet the first is a single 47-byte label, not a child of the second.
        let tail = "x".repeat(45);
        let lone = DnsName::parse(&format!("a-{tail}")).unwrap();
        let other = DnsName::parse(&tail).unwrap();
        assert!(lone.wire.ends_with(&other.wire));
        assert!(!lone.is_under(&other));
        assert_eq!(lone.parent().unwrap(), DnsName::root());
        let all: Vec<DnsName> = lone.self_and_ancestors().collect();
        assert_eq!(all, vec![lone.clone(), DnsName::root()]);
        // Same trap with a digit: 49 is the byte `1`.
        let tail = "y".repeat(49);
        let lone = DnsName::parse(&format!("z1{tail}")).unwrap();
        assert!(!lone.is_under(&DnsName::parse(&tail).unwrap()));
        assert!(DnsName::parse(&format!("z.{tail}"))
            .unwrap()
            .is_under(&DnsName::parse(&tail).unwrap()));
    }

    #[test]
    fn ancestors_iteration() {
        let n = DnsName::parse("a.b.c").unwrap();
        let all: Vec<String> = n.self_and_ancestors().map(|x| x.to_string()).collect();
        assert_eq!(all, vec!["a.b.c", "b.c", "c", "."]);
    }

    #[test]
    fn underscore_labels_allowed() {
        let n = DnsName::parse("_dns.resolver.arpa").unwrap();
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn wire_len_matches_definition() {
        let n = DnsName::parse("ab.cde").unwrap();
        // 1+2 + 1+3 + 1(root) = 8
        assert_eq!(n.wire_len(), 8);
    }
}
