//! Property-based tests for the wire codec: arbitrary messages roundtrip,
//! arbitrary bytes never panic the decoder.

use dnswire::message::{Flags, Header, Message, Opcode, Question, Rcode, ResourceRecord};
use dnswire::name::DnsName;
use dnswire::rdata::{RData, RecordClass, RecordType, SoaData};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_][a-z0-9_-]{0,14}").unwrap()
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 0..5)
        .prop_map(|labels| DnsName::from_labels(labels.iter().map(|l| l.as_bytes())).unwrap())
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(p, n)| RData::Mx(p, n)),
        proptest::collection::vec("[ -~]{0,40}", 1..3).prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<u32>(), any::<u32>()).prop_map(
            |(mname, rname, serial, refresh)| {
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry: 900,
                    expire: 86400,
                    minimum: 60,
                })
            }
        ),
        (0u16..=65535, proptest::collection::vec(any::<u8>(), 0..32)).prop_map(|(code, bytes)| {
            // Avoid colliding with codes the codec interprets structurally.
            let code = match RecordType::from_code(code) {
                RecordType::Unknown(c) => c,
                _ => 60000,
            };
            RData::Unknown(code, bytes)
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, rdata)| ResourceRecord {
        name,
        class: RecordClass::In,
        ttl,
        rdata,
    })
}

fn arb_question() -> impl Strategy<Value = Question> {
    (arb_name(), any::<u16>()).prop_map(|(qname, tcode)| Question {
        qname,
        qtype: RecordType::from_code(tcode),
        qclass: RecordClass::In,
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..16,
        proptest::collection::vec(arb_question(), 0..3),
        proptest::collection::vec(arb_record(), 0..4),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(
            |(id, qr, aa, tc, rd, ra, rcode, questions, answers, authorities, additionals)| {
                Message {
                    header: Header {
                        id,
                        opcode: Opcode::Query,
                        flags: Flags {
                            response: qr,
                            authoritative: aa,
                            truncated: tc,
                            recursion_desired: rd,
                            recursion_available: ra,
                        },
                        rcode: Rcode::from_code(rcode),
                    },
                    questions,
                    answers,
                    authorities,
                    additionals,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn roundtrip_arbitrary_messages(msg in arb_message()) {
        let bytes = msg.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Result is irrelevant; absence of panic is the property.
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_messages(
        msg in arb_message(),
        idx in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = msg.encode().unwrap();
        if !bytes.is_empty() {
            let i = idx.index(bytes.len());
            bytes[i] = byte;
        }
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn reencoding_a_decoded_message_is_stable(msg in arb_message()) {
        let bytes = msg.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        let bytes2 = decoded.encode().unwrap();
        prop_assert_eq!(bytes, bytes2);
    }

    #[test]
    fn name_parse_display_roundtrip(labels in proptest::collection::vec(arb_label(), 1..5)) {
        let s = labels.join(".");
        let name = DnsName::parse(&s).unwrap();
        prop_assert_eq!(name.to_string(), s.to_lowercase());
        let reparsed = DnsName::parse(&name.to_string()).unwrap();
        prop_assert_eq!(reparsed, name);
    }

    #[test]
    fn ecs_options_roundtrip(
        octets in any::<[u8; 4]>(),
        source in 0u8..=32,
        scope in 0u8..=32,
    ) {
        use dnswire::edns::{decode_options, encode_options, EdnsOption};
        let addr = std::net::Ipv4Addr::from(octets);
        let masked = {
            let mask: u32 = if source == 0 { 0 } else { u32::MAX << (32 - source) };
            std::net::Ipv4Addr::from(u32::from(addr) & mask)
        };
        let opt = EdnsOption::ClientSubnet {
            source_prefix_len: source,
            scope_prefix_len: scope,
            addr: masked,
        };
        let decoded = decode_options(&encode_options(std::slice::from_ref(&opt))).unwrap();
        prop_assert_eq!(decoded, vec![opt]);
    }

    #[test]
    fn ecs_message_attachment_survives_the_wire(
        octets in any::<[u8; 4]>(),
        source in 1u8..=32,
    ) {
        use dnswire::builder::QueryBuilder;
        let mut msg = QueryBuilder::new(3, "m.yelp.com", RecordType::A)
            .build()
            .unwrap();
        msg.set_client_subnet(std::net::Ipv4Addr::from(octets), source);
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        let (got_addr, got_source, got_scope) = decoded.client_subnet().unwrap();
        prop_assert_eq!(got_source, source);
        prop_assert_eq!(got_scope, 0);
        // The address must be masked to the announced prefix.
        let mask: u32 = if source == 0 { 0 } else { u32::MAX << (32 - source) };
        prop_assert_eq!(u32::from(got_addr), u32::from(std::net::Ipv4Addr::from(octets)) & mask);
    }

    #[test]
    fn ecs_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = dnswire::edns::decode_options(&bytes);
    }

    #[test]
    fn tc_bit_survives_the_wire(msg in arb_message(), tc in any::<bool>()) {
        let mut msg = msg;
        msg.header.flags.truncated = tc;
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        prop_assert_eq!(decoded.header.flags.truncated, tc);
        // Re-encoding keeps the bit stable too.
        let again = Message::decode(&decoded.encode().unwrap()).unwrap();
        prop_assert_eq!(again.header.flags.truncated, tc);
    }

    #[test]
    fn truncate_for_roundtrips_and_respects_the_limit(msg in arb_message(), limit in 12usize..1024) {
        let mut msg = msg;
        msg.header.flags.truncated = false;
        let original_len = msg.encode().unwrap().len();
        let truncated = msg.truncate_for(limit);
        let bytes = msg.encode().unwrap();
        if truncated {
            // Truncation only happens to over-limit messages, sets TC, and
            // strips every record section.
            prop_assert!(original_len > limit);
            prop_assert!(msg.header.flags.truncated);
            prop_assert!(msg.answers.is_empty());
            prop_assert!(msg.authorities.is_empty());
            prop_assert!(msg.additionals.is_empty());
        } else {
            prop_assert!(original_len <= limit);
            prop_assert!(!msg.header.flags.truncated);
            prop_assert_eq!(bytes.len(), original_len);
        }
        // Either way the result still roundtrips with the TC bit intact.
        let decoded = Message::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.header.flags.truncated, truncated);
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn encode_within_equals_truncate_for_then_encode(msg in arb_message(), limit in 12usize..1024) {
        let mut reference = msg.clone();
        reference.truncate_for(limit);
        let mut fitted = msg;
        prop_assert_eq!(fitted.encode_within(limit), reference.encode());
        prop_assert_eq!(fitted, reference);
    }

    #[test]
    fn stub_query_equals_the_builders_bytes(name in arb_name(), id in any::<u16>(), tcode in any::<u16>(), size in any::<u16>()) {
        use dnswire::builder::{encode_stub_query, QueryBuilder};
        let qtype = RecordType::from_code(tcode);
        let mut q = QueryBuilder::new(id, name.to_string(), qtype)
            .recursion_desired(true)
            .build()
            .unwrap();
        q.advertise_udp_size(size);
        prop_assert_eq!(encode_stub_query(id, &name, qtype, size), q.encode().unwrap());
    }

    #[test]
    fn advertised_udp_size_survives_the_wire(msg in arb_message(), size in any::<u16>()) {
        let mut msg = msg;
        // Drop OPT pseudo-records a previous strategy draw may have added.
        msg.additionals.retain(|rr| !matches!(rr.rdata, RData::Opt(_)));
        prop_assert_eq!(msg.edns_udp_size(), None);
        msg.advertise_udp_size(size);
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        prop_assert_eq!(decoded.edns_udp_size(), Some(size));
    }

    #[test]
    fn is_under_is_reflexive_and_monotone(name in arb_name()) {
        prop_assert!(name.is_under(&name));
        prop_assert!(name.is_under(&DnsName::root()));
        if let Some(parent) = name.parent() {
            prop_assert!(name.is_under(&parent));
        }
    }
}

// --- Name decompression & zero-copy NameRef properties ---------------------

use dnswire::nameref::NameRef;
use dnswire::WireError;

/// Labels with mixed case, so comparisons must normalize to agree.
fn arb_mixed_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9_][A-Za-z0-9_-]{0,14}").unwrap()
}

fn arb_mixed_labels() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_mixed_label(), 0..6)
}

/// Encodes labels + terminating root octet, no compression.
fn encode_plain(labels: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    for l in labels {
        out.push(l.len() as u8);
        out.extend_from_slice(l.as_bytes());
    }
    out.push(0);
    out
}

fn owned(labels: &[String]) -> DnsName {
    DnsName::from_labels(labels.iter().map(|l| l.as_bytes())).unwrap()
}

/// `labels[split..]` uncompressed at offset 0, then `labels[..split]` ending
/// in a pointer to it. Returns the buffer and where the full name starts.
fn encode_compressed(labels: &[String], split: usize) -> (Vec<u8>, usize) {
    let mut buf = encode_plain(&labels[split..]);
    let at = buf.len();
    for l in &labels[..split] {
        buf.push(l.len() as u8);
        buf.extend_from_slice(l.as_bytes());
    }
    buf.extend_from_slice(&[0xC0, 0x00]);
    (buf, at)
}

fn swap_case(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_lowercase() {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

/// Reference model of a name: the vector of lowercased label vectors, with
/// the derived order and equality — what `DnsName` is specified to behave
/// like, written without any of the crate's own label-walking code.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ModelName(Vec<Vec<u8>>);

impl ModelName {
    fn new(labels: &[String]) -> Self {
        ModelName(
            labels
                .iter()
                .map(|l| l.to_ascii_lowercase().into_bytes())
                .collect(),
        )
    }

    fn is_under(&self, other: &ModelName) -> bool {
        self.0.ends_with(&other.0)
    }

    fn wire_len(&self) -> usize {
        1 + self.0.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    fn parent(&self) -> Option<ModelName> {
        self.0
            .split_first()
            .map(|(_, rest)| ModelName(rest.to_vec()))
    }
}

impl std::fmt::Display for ModelName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let labels: Vec<&str> = self
            .0
            .iter()
            .map(|l| std::str::from_utf8(l).unwrap())
            .collect();
        if labels.is_empty() {
            write!(f, ".")
        } else {
            write!(f, "{}", labels.join("."))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn nameref_parse_matches_owned_decode(labels in arb_mixed_labels()) {
        let buf = encode_plain(&labels);
        let (name, consumed) = NameRef::parse(&buf, 0).unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(name.label_count(), labels.len());
        let expect = owned(&labels);
        prop_assert_eq!(name.to_name(), expect.clone());
        prop_assert_eq!(name.wire_len(), expect.wire_len());
        prop_assert!(name == expect.as_ref());
    }

    #[test]
    fn names_agree_with_the_label_vector_model(
        la in arb_mixed_labels(),
        lb in arb_mixed_labels(),
        share in any::<prop::sample::Index>(),
        split in any::<prop::sample::Index>(),
    ) {
        // Half the time `b` ends in a (case-flipped) suffix of `a`, so that
        // `is_under` and near-equal comparisons are actually exercised.
        let keep = share.index(2 * (la.len() + 1));
        let lb: Vec<String> = match la.get(keep..) {
            Some(tail) => lb.iter().take(2).cloned().chain(tail.iter().map(|l| swap_case(l))).collect(),
            None => lb,
        };
        let (ma, mb) = (ModelName::new(&la), ModelName::new(&lb));
        // Every way of holding a name: owned, a borrowed plain wire form, and
        // a borrowed compressed one (tail first, head + pointer after it).
        let (oa, ob) = (owned(&la), owned(&lb));
        let (pa, pb) = (encode_plain(&la), encode_plain(&lb));
        let (ca, ca_at) = encode_compressed(&la, split.index(la.len() + 1));
        let (cb, cb_at) = encode_compressed(&lb, split.index(lb.len() + 1));
        let views_a = [oa.as_ref(), NameRef::parse(&pa, 0).unwrap().0, NameRef::parse(&ca, ca_at).unwrap().0];
        let views_b = [ob.as_ref(), NameRef::parse(&pb, 0).unwrap().0, NameRef::parse(&cb, cb_at).unwrap().0];

        prop_assert_eq!(oa.cmp(&ob), ma.cmp(&mb));
        prop_assert_eq!(oa == ob, ma == mb);
        prop_assert_eq!(oa.is_under(&ob), ma.is_under(&mb));
        prop_assert_eq!(ob.is_under(&oa), mb.is_under(&ma));
        prop_assert_eq!(oa.parent().map(|p| p.to_string()), ma.parent().map(|p| p.to_string()));
        prop_assert_eq!(oa.wire_len(), ma.wire_len());
        prop_assert_eq!(oa.label_count(), ma.0.len());
        prop_assert_eq!(oa.is_root(), ma.0.is_empty());
        prop_assert_eq!(oa.to_string(), ma.to_string());
        prop_assert_eq!(oa.labels().map(<[u8]>::to_vec).collect::<Vec<_>>(), ma.0.clone());
        let ancestors: Vec<String> = oa.self_and_ancestors().map(|n| n.to_string()).collect();
        let model_ancestors: Vec<String> =
            std::iter::successors(Some(ma.clone()), ModelName::parent).map(|n| n.to_string()).collect();
        prop_assert_eq!(ancestors, model_ancestors);
        for ra in views_a {
            prop_assert_eq!(ra.to_name(), oa.clone());
            prop_assert_eq!(ra.wire_len(), ma.wire_len());
            prop_assert_eq!(ra.label_count(), ma.0.len());
            prop_assert_eq!(ra.is_root(), ma.0.is_empty());
            prop_assert_eq!(ra.to_string(), ma.to_string());
            prop_assert_eq!(
                ra.split_first().map(|(first, rest)| (first.to_ascii_lowercase(), rest.to_string())),
                ma.parent().map(|p| (ma.0[0].clone(), p.to_string()))
            );
            for rb in views_b {
                prop_assert_eq!(ra.cmp(&rb), ma.cmp(&mb));
                prop_assert_eq!(ra == rb, ma == mb);
                prop_assert_eq!(ra == ob.as_ref(), ma == mb);
                prop_assert_eq!(ra.is_under(rb), ma.is_under(&mb));
                prop_assert_eq!(rb.is_under(ra), mb.is_under(&ma));
            }
        }
    }

    #[test]
    fn pointer_chains_expand_to_the_full_name(
        suffix in proptest::collection::vec(arb_mixed_label(), 1..4),
        prefix in proptest::collection::vec(arb_mixed_label(), 1..3),
        pad in 0usize..8,
    ) {
        // Suffix at the front of the buffer (after some padding bytes the
        // walk never touches), then prefix labels ending in a pointer to it.
        let mut buf = vec![0xFFu8; pad];
        let suffix_at = buf.len();
        buf.extend_from_slice(&encode_plain(&suffix));
        let name_at = buf.len();
        for l in &prefix {
            buf.push(l.len() as u8);
            buf.extend_from_slice(l.as_bytes());
        }
        buf.extend_from_slice(&(0xC000u16 | suffix_at as u16).to_be_bytes());
        let (name, consumed) = NameRef::parse(&buf, name_at).unwrap();
        // Consumes only the in-sequence bytes: prefix labels + the pointer.
        prop_assert_eq!(consumed, buf.len() - name_at);
        let full: Vec<String> = prefix.iter().chain(suffix.iter()).cloned().collect();
        prop_assert_eq!(name.to_name(), owned(&full));
    }

    #[test]
    fn forward_and_self_pointers_are_rejected(
        labels in proptest::collection::vec(arb_mixed_label(), 0..3),
        ahead in 0u16..64,
    ) {
        // A pointer targeting its own position or beyond can never resolve.
        let mut buf = encode_plain(&labels);
        buf.pop(); // replace the root octet with a bad pointer
        let at = buf.len();
        let target = at as u16 + ahead;
        buf.extend_from_slice(&(0xC000 | target).to_be_bytes());
        buf.resize(buf.len() + ahead as usize + 4, 0);
        prop_assert!(matches!(
            NameRef::parse(&buf, 0).unwrap_err(),
            WireError::BadCompressionPointer { .. }
        ));
    }

    #[test]
    fn deep_backward_pointer_chains_hit_the_jump_bound(extra in 0usize..4) {
        // buf[0] is the root; then a chain of pointers each referencing the
        // previous one. 128 jumps are legal, 129+ trip the loop guard.
        for chain_len in [1usize, 127, 128, 129, 129 + extra] {
            let mut buf = vec![0u8];
            let mut prev = 0usize;
            let mut start = 0usize;
            for _ in 0..chain_len {
                start = buf.len();
                buf.extend_from_slice(&(0xC000u16 | prev as u16).to_be_bytes());
                prev = start;
            }
            let got = NameRef::parse(&buf, start);
            if chain_len <= 128 {
                let (name, consumed) = got.unwrap();
                prop_assert!(name.is_root());
                prop_assert_eq!(consumed, 2);
            } else {
                prop_assert!(matches!(got.unwrap_err(), WireError::CompressionLoop));
            }
        }
    }

    #[test]
    fn chains_crossing_max_name_len_are_rejected(segments in 1usize..8) {
        // Each segment prepends a 63-byte label via a pointer to the chain so
        // far: expanded length is 1 + 64 * segments octets. Five segments
        // cross the 255-octet cap even though each hop is individually legal.
        let label = [b'x'; 63];
        let mut buf = vec![0u8]; // the root
        let mut prev = 0usize;
        for _ in 0..segments {
            let start = buf.len();
            buf.push(63);
            buf.extend_from_slice(&label);
            buf.extend_from_slice(&(0xC000u16 | prev as u16).to_be_bytes());
            prev = start;
        }
        let expanded = 1 + 64 * segments;
        let got = NameRef::parse(&buf, prev);
        if expanded <= 255 {
            let (name, _) = got.unwrap();
            prop_assert_eq!(name.wire_len(), expanded);
            prop_assert_eq!(name.label_count(), segments);
        } else {
            prop_assert!(matches!(got.unwrap_err(), WireError::NameTooLong(_)));
        }
    }

    #[test]
    fn nameref_parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        start in 0usize..300,
    ) {
        // Absence of panic (and of an infinite walk) is the property; the
        // labels of any accepted name must also be iterable in bounds.
        if let Ok((name, consumed)) = NameRef::parse(&bytes, start) {
            prop_assert!(consumed <= bytes.len().saturating_sub(start));
            prop_assert!(name.wire_len() <= 255);
            let _ = name.to_name();
        }
    }
}

// --- Compression: the encoder against the suffix-map compressor it replaced --

/// Names over a two-letter alphabet, so that messages share many suffixes.
fn arb_crowded_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(proptest::string::string_regex("[ab]{1,2}").unwrap(), 0..5)
        .prop_map(|labels| owned(&labels))
}

fn arb_crowded_record() -> impl Strategy<Value = ResourceRecord> {
    let rdata = prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        arb_crowded_name().prop_map(RData::Ns),
        arb_crowded_name().prop_map(RData::Cname),
        (any::<u16>(), arb_crowded_name()).prop_map(|(p, n)| RData::Mx(p, n)),
        (arb_crowded_name(), arb_crowded_name(), any::<u32>()).prop_map(
            |(mname, rname, serial)| {
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial,
                    refresh: 1,
                    retry: 2,
                    expire: 3,
                    minimum: 4,
                })
            }
        ),
    ];
    (arb_crowded_name(), any::<u32>(), rdata)
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

/// The compressor `Message::encode` used before names went flat, kept here
/// verbatim in shape as the oracle: a map from every suffix (as owned label
/// vectors) to the offset of its first uncompressed occurrence.
#[derive(Default)]
struct SuffixMapEncoder {
    out: Vec<u8>,
    offsets: std::collections::HashMap<Vec<Vec<u8>>, usize>,
}

impl SuffixMapEncoder {
    fn put_name(&mut self, name: &DnsName) {
        let labels: Vec<Vec<u8>> = name.labels().map(<[u8]>::to_vec).collect();
        for i in 0..labels.len() {
            let suffix = labels[i..].to_vec();
            if let Some(&target) = self.offsets.get(&suffix) {
                if target <= 0x3FFF {
                    self.out
                        .extend_from_slice(&(0xC000u16 | target as u16).to_be_bytes());
                    return;
                }
            }
            let here = self.out.len();
            if here <= 0x3FFF {
                self.offsets.insert(suffix, here);
            }
            self.out.push(labels[i].len() as u8);
            self.out.extend_from_slice(&labels[i]);
        }
        self.out.push(0);
    }

    /// Encodes `msg` after `header` (12 bytes the codec under test produced;
    /// the header is not what this oracle is about).
    fn encode(header: &[u8], msg: &Message) -> Vec<u8> {
        let mut enc = SuffixMapEncoder {
            out: header.to_vec(),
            ..Default::default()
        };
        for q in &msg.questions {
            enc.put_name(&q.qname);
            enc.out.extend_from_slice(&q.qtype.code().to_be_bytes());
            enc.out.extend_from_slice(&q.qclass.code().to_be_bytes());
        }
        for rr in msg
            .answers
            .iter()
            .chain(&msg.authorities)
            .chain(&msg.additionals)
        {
            enc.put_name(&rr.name);
            enc.out
                .extend_from_slice(&rr.record_type().code().to_be_bytes());
            enc.out.extend_from_slice(&rr.class.code().to_be_bytes());
            enc.out.extend_from_slice(&rr.ttl.to_be_bytes());
            let len_pos = enc.out.len();
            enc.out.extend_from_slice(&[0, 0]);
            match &rr.rdata {
                RData::A(ip) => enc.out.extend_from_slice(&ip.octets()),
                RData::Ns(n) | RData::Cname(n) => enc.put_name(n),
                RData::Mx(pref, host) => {
                    enc.out.extend_from_slice(&pref.to_be_bytes());
                    enc.put_name(host);
                }
                RData::Soa(soa) => {
                    enc.put_name(&soa.mname);
                    enc.put_name(&soa.rname);
                    for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                        enc.out.extend_from_slice(&v.to_be_bytes());
                    }
                }
                RData::Unknown(_, bytes) => enc.out.extend_from_slice(bytes),
                other => unreachable!("not generated by arb_crowded_record: {other:?}"),
            }
            let rdlen = (enc.out.len() - len_pos - 2) as u16;
            enc.out[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        }
        enc.out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compression_matches_the_suffix_map_oracle(
        questions in proptest::collection::vec(arb_crowded_name(), 0..3),
        answers in proptest::collection::vec(arb_crowded_record(), 0..6),
        authorities in proptest::collection::vec(arb_crowded_record(), 0..4),
        additionals in proptest::collection::vec(arb_crowded_record(), 0..4),
        pad_at in any::<prop::sample::Index>(),
    ) {
        let mut msg = Message::new(Header::query(7));
        msg.questions = questions.into_iter().map(|n| Question::new(n, RecordType::A)).collect();
        msg.answers = answers;
        msg.authorities = authorities;
        msg.additionals = additionals;
        // One case in four carries a 16 KiB opaque record among the answers:
        // every label written after it starts beyond the reach of a 14-bit
        // pointer and must neither be pointed at nor stop earlier targets
        // from being used.
        let at = pad_at.index(4 * (msg.answers.len() + 1));
        if at <= msg.answers.len() {
            let pad = ResourceRecord::new(DnsName::root(), 0, RData::Unknown(60000, vec![0xC0; 16_400]));
            msg.answers.insert(at, pad);
        }
        let bytes = msg.encode().unwrap();
        prop_assert_eq!(Message::decode(&bytes).unwrap(), msg.clone());
        prop_assert!(bytes == SuffixMapEncoder::encode(&bytes[..12], &msg), "encodings differ for {msg:?}");
    }
}
