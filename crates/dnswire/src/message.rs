//! DNS message structure and the wire codec, including name compression.

use crate::error::WireError;
use crate::name::DnsName;
use crate::nameref::NameRef;
use crate::rdata::{RData, RecordClass, RecordType};

/// Maximum encoded message size (16-bit length framing).
pub const MAX_MESSAGE_LEN: usize = 65_535;

/// Largest offset a 14-bit compression pointer can reference.
const MAX_POINTER_TARGET: u16 = 0x3FFF;

/// Query/response operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete, preserved for fidelity).
    IQuery,
    /// Server status request.
    Status,
    /// Anything else.
    Other(u8),
}

impl Opcode {
    /// 4-bit wire code.
    pub fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Other(c) => c & 0x0F,
        }
    }

    /// Maps a 4-bit wire code to an opcode.
    pub fn from_code(code: u8) -> Self {
        match code & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            c => Opcode::Other(c),
        }
    }
}

/// Response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// The server could not interpret the query.
    FormErr,
    /// Internal server failure.
    ServFail,
    /// Name does not exist (authoritative).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused by policy.
    Refused,
    /// Anything else.
    Other(u8),
}

impl Rcode {
    /// 4-bit wire code.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(c) => c & 0x0F,
        }
    }

    /// Maps a 4-bit wire code to an rcode.
    pub fn from_code(code: u8) -> Self {
        match code & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            c => Rcode::Other(c),
        }
    }
}

/// Header flag bits (everything in the second 16-bit word except opcode and
/// rcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// QR: this message is a response.
    pub response: bool,
    /// AA: the responding server is authoritative for the zone.
    pub authoritative: bool,
    /// TC: the response was truncated.
    pub truncated: bool,
    /// RD: recursion desired.
    pub recursion_desired: bool,
    /// RA: recursion available.
    pub recursion_available: bool,
}

/// Fixed 12-byte message header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier chosen by the querier.
    pub id: u16,
    /// Operation code.
    pub opcode: Opcode,
    /// Flag bits.
    pub flags: Flags,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// A query header with the given transaction id.
    pub fn query(id: u16) -> Self {
        Header {
            id,
            opcode: Opcode::Query,
            flags: Flags::default(),
            rcode: Rcode::NoError,
        }
    }

    fn encode(&self, counts: [u16; 4], out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut hi: u8 = 0;
        if self.flags.response {
            hi |= 0x80;
        }
        hi |= self.opcode.code() << 3;
        if self.flags.authoritative {
            hi |= 0x04;
        }
        if self.flags.truncated {
            hi |= 0x02;
        }
        if self.flags.recursion_desired {
            hi |= 0x01;
        }
        let mut lo: u8 = 0;
        if self.flags.recursion_available {
            lo |= 0x80;
        }
        lo |= self.rcode.code();
        out.push(hi);
        out.push(lo);
        for c in counts {
            out.extend_from_slice(&c.to_be_bytes());
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<(Header, [u16; 4]), WireError> {
        let id = cur.read_u16("header id")?;
        let hi = cur.read_u8("header flags")?;
        let lo = cur.read_u8("header flags")?;
        let header = Header {
            id,
            opcode: Opcode::from_code((hi >> 3) & 0x0F),
            flags: Flags {
                response: hi & 0x80 != 0,
                authoritative: hi & 0x04 != 0,
                truncated: hi & 0x02 != 0,
                recursion_desired: hi & 0x01 != 0,
                recursion_available: lo & 0x80 != 0,
            },
            rcode: Rcode::from_code(lo & 0x0F),
        };
        let mut counts = [0u16; 4];
        for c in &mut counts {
            *c = cur.read_u16("header counts")?;
        }
        Ok((header, counts))
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub qname: DnsName,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: RecordClass,
}

impl Question {
    /// An `IN`-class question.
    pub fn new(qname: DnsName, qtype: RecordType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RecordClass::In,
        }
    }
}

/// A resource record in the answer, authority, or additional section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: DnsName,
    /// Class (IN for everything in this simulation).
    pub class: RecordClass,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed record data; the record type is derived from it.
    pub rdata: RData,
}

impl ResourceRecord {
    /// An `IN`-class record.
    pub fn new(name: DnsName, ttl: u32, rdata: RData) -> Self {
        ResourceRecord {
            name,
            class: RecordClass::In,
            ttl,
            rdata,
        }
    }

    /// The record type, derived from the RDATA variant.
    pub fn record_type(&self) -> RecordType {
        self.rdata.record_type()
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header word.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authorities: Vec<ResourceRecord>,
    /// Additional section.
    pub additionals: Vec<ResourceRecord>,
}

impl Message {
    /// An empty message with the given header.
    pub fn new(header: Header) -> Self {
        Message {
            header,
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Encodes to wire format with name compression.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        for (len, what) in [
            (self.questions.len(), "question count"),
            (self.answers.len(), "answer count"),
            (self.authorities.len(), "authority count"),
            (self.additionals.len(), "additional count"),
        ] {
            if len > u16::MAX as usize {
                return Err(WireError::Unsupported(what));
            }
        }
        let mut out = Vec::with_capacity(128);
        self.header.encode(
            [
                self.questions.len() as u16,
                self.answers.len() as u16,
                self.authorities.len() as u16,
                self.additionals.len() as u16,
            ],
            &mut out,
        );
        let mut enc = NameEncoder::new(out);
        for q in &self.questions {
            enc.put_name(&q.qname);
            enc.put_u16(q.qtype.code());
            enc.put_u16(q.qclass.code());
        }
        for rr in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            enc.put_name(&rr.name);
            enc.put_u16(rr.rdata.record_type().code());
            enc.put_u16(rr.class.code());
            enc.put_u32(rr.ttl);
            // Reserve RDLENGTH, encode RDATA, then patch the length in.
            let len_pos = enc.reserve_u16();
            let rdata_start = enc.pos();
            rr.rdata.encode(&mut enc)?;
            let rdlen = enc.pos() - rdata_start;
            if rdlen > u16::MAX as usize {
                return Err(WireError::MessageTooLong(rdlen));
            }
            enc.patch_u16(len_pos, rdlen as u16);
        }
        let out = enc.finish();
        if out.len() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(out.len()));
        }
        Ok(out)
    }

    /// Decodes from wire format, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        let mut cur = Cursor::new(bytes);
        let (header, counts) = Header::decode(&mut cur)?;
        let mut questions = Vec::with_capacity(counts[0].min(64) as usize);
        for _ in 0..counts[0] {
            let qname = cur.read_name()?;
            let qtype = RecordType::from_code(cur.read_u16("qtype")?);
            let qclass = RecordClass::from_code(cur.read_u16("qclass")?);
            questions.push(Question {
                qname,
                qtype,
                qclass,
            });
        }
        let mut sections: [Vec<ResourceRecord>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, section) in sections.iter_mut().enumerate() {
            for _ in 0..counts[i + 1] {
                section.push(Self::decode_record(&mut cur)?);
            }
        }
        if cur.pos() != bytes.len() {
            return Err(WireError::TrailingBytes(bytes.len() - cur.pos()));
        }
        let [answers, authorities, additionals] = sections;
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }

    fn decode_record(cur: &mut Cursor<'_>) -> Result<ResourceRecord, WireError> {
        let name = cur.read_name()?;
        let rtype = RecordType::from_code(cur.read_u16("rr type")?);
        let class = RecordClass::from_code(cur.read_u16("rr class")?);
        let ttl = cur.read_u32("rr ttl")?;
        let rdlen = cur.read_u16("rr rdlength")? as usize;
        let rdata = RData::decode(cur, rtype, rdlen)?;
        Ok(ResourceRecord {
            name,
            class,
            ttl,
            rdata,
        })
    }

    /// All A-record addresses in the answer section, in order.
    pub fn answer_addrs(&self) -> Vec<std::net::Ipv4Addr> {
        self.answers
            .iter()
            .filter_map(|rr| rr.rdata.as_a())
            .collect()
    }

    /// Follows the CNAME chain in the answer section starting from `name`,
    /// returning the final canonical name.
    pub fn canonical_name(&self, name: &DnsName) -> DnsName {
        let mut current = name.clone();
        // Bounded by the answer count; each step must consume one CNAME.
        for _ in 0..=self.answers.len() {
            let next = self.answers.iter().find_map(|rr| {
                if rr.name == current {
                    rr.rdata.as_cname().cloned()
                } else {
                    None
                }
            });
            match next {
                Some(n) => current = n,
                None => break,
            }
        }
        current
    }
}

/// Bounds-checked reader over a received message buffer.
///
/// `read_name` handles compression pointers with strict backward-only
/// targets and a jump bound, so hostile input cannot loop the decoder.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn read_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::Truncated { context })?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn read_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub(crate) fn read_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::Truncated { context })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated { context });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a possibly-compressed name starting at the cursor.
    ///
    /// Decoding is zero-copy until the final conversion: the borrowed
    /// [`NameRef`] validates structure and alphabet in place, and
    /// [`NameRef::to_name`] then copies it out in one allocation.
    // detlint: hot
    pub(crate) fn read_name(&mut self) -> Result<DnsName, WireError> {
        let (name, consumed) = NameRef::parse(self.buf, self.pos)?;
        self.pos += consumed;
        Ok(name.to_name())
    }

    /// Reads a possibly-compressed name without converting to owned form.
    // detlint: hot
    pub(crate) fn read_name_ref(&mut self) -> Result<NameRef<'a>, WireError> {
        let (name, consumed) = NameRef::parse(self.buf, self.pos)?;
        self.pos += consumed;
        Ok(name)
    }
}

/// A cheap, allocation-free view over an encoded message: fixed header
/// fields plus the first question, parsed on demand straight out of the
/// buffer. Receive hot paths use this to reject mismatched or irrelevant
/// datagrams (wrong transaction id, wrong qname) before paying for a full
/// [`Message::decode`].
pub struct MessageView<'a> {
    buf: &'a [u8],
}

impl<'a> MessageView<'a> {
    /// Wraps `buf` if it is at least a full 12-byte header.
    // detlint: hot
    pub fn new(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < 12 {
            return Err(WireError::Truncated { context: "header" });
        }
        Ok(MessageView { buf })
    }

    /// Transaction id (first header word).
    pub fn id(&self) -> u16 {
        u16::from_be_bytes([self.buf[0], self.buf[1]])
    }

    /// QR bit: `true` when the message claims to be a response.
    pub fn is_response(&self) -> bool {
        self.buf[2] & 0x80 != 0
    }

    /// Question-section entry count.
    pub fn qdcount(&self) -> u16 {
        u16::from_be_bytes([self.buf[4], self.buf[5]])
    }

    /// Operation code from the header flags word.
    pub fn opcode(&self) -> Opcode {
        Opcode::from_code((self.buf[2] >> 3) & 0x0F)
    }

    /// Response code from the header flags word.
    pub fn rcode(&self) -> Rcode {
        Rcode::from_code(self.buf[3] & 0x0F)
    }

    /// RD bit: `true` when the querier asked for recursion.
    pub fn recursion_desired(&self) -> bool {
        self.buf[2] & 0x01 != 0
    }

    /// TC bit: `true` when the message claims to be truncated.
    pub fn truncated(&self) -> bool {
        self.buf[2] & 0x02 != 0
    }

    /// Classifies this message as a servable query — the single shared
    /// precheck every serving front end runs before paying for a full
    /// [`Message::decode`]. Exactly one place decides which malformed
    /// shapes earn which RFC rcode, so the wire server, the ground-truth
    /// replayer, and the chaos driver can never disagree.
    // detlint: hot
    pub fn precheck(&self) -> Precheck {
        if self.is_response() {
            return Precheck::Response;
        }
        if self.opcode() != Opcode::Query {
            return Precheck::NonQuery;
        }
        if self.qdcount() != 1 {
            return Precheck::BadQdCount;
        }
        match self.question() {
            Ok(Some(_)) => Precheck::Query,
            // qdcount said 1 but no question could be parsed out.
            Ok(None) | Err(_) => Precheck::Unparseable,
        }
    }

    /// Borrowed first question: `(qname, qtype, qclass)`, or `None` when
    /// the question section is empty.
    // detlint: hot
    pub fn question(&self) -> Result<Option<(NameRef<'a>, RecordType, RecordClass)>, WireError> {
        if self.qdcount() == 0 {
            return Ok(None);
        }
        let mut cur = Cursor {
            buf: self.buf,
            pos: 12,
        };
        let qname = cur.read_name_ref()?;
        let qtype = RecordType::from_code(cur.read_u16("qtype")?);
        let qclass = RecordClass::from_code(cur.read_u16("qclass")?);
        Ok(Some((qname, qtype, qclass)))
    }

    /// Walks the question and answer sections without decoding a record:
    /// each name is validated in place and each record's fixed fields and
    /// RDATA length are bounds-checked. RDATA contents are not read.
    pub fn answer_layout(&self) -> Result<AnswerLayout, WireError> {
        let mut cur = Cursor {
            buf: self.buf,
            pos: 12,
        };
        for _ in 0..self.qdcount() {
            cur.read_name_ref()?;
            cur.take(4, "qtype and qclass")?;
        }
        let question_end = cur.pos();
        let ancount = u16::from_be_bytes([self.buf[6], self.buf[7]]);
        let mut ttl_offsets = Vec::with_capacity(ancount.min(64) as usize);
        for _ in 0..ancount {
            cur.read_name_ref()?;
            cur.take(4, "rr type and class")?;
            ttl_offsets.push(cur.pos());
            cur.take(4, "rr ttl")?;
            let rdlen = cur.read_u16("rr rdlength")? as usize;
            cur.take(rdlen, "rr rdata")?;
        }
        Ok(AnswerLayout {
            question_end,
            answers_end: cur.pos(),
            ttl_offsets,
        })
    }
}

/// Where a message's question and answer sections end, and where each
/// answer's TTL sits ([`MessageView::answer_layout`]). Enough to keep a
/// reply as bytes and rewrite its TTLs later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerLayout {
    /// Offset just past the question section.
    pub question_end: usize,
    /// Offset just past the answer section.
    pub answers_end: usize,
    /// Offset of each answer record's 32-bit TTL, in order.
    pub ttl_offsets: Vec<usize>,
}

/// Writes transaction id `id` into an encoded message (a no-op on one
/// shorter than the id). A hop that changes nothing else relays encoder
/// output this way: the result is what setting the id and encoding again
/// would produce.
pub fn patch_id(msg: &mut [u8], id: u16) {
    if let Some(head) = msg.get_mut(..2) {
        head.copy_from_slice(&id.to_be_bytes());
    }
}

/// Verdict of [`MessageView::precheck`]: what a serving front end owes the
/// sender per RFC 1035 §4.1.1 before any resolver work happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precheck {
    /// A well-formed single-question QUERY; safe to hand to a resolver.
    Query,
    /// QR bit set: a stray/reflected response. Never answer (answering
    /// responses is how reflection loops start) — drop.
    Response,
    /// Unsupported opcode (IQUERY/STATUS/other) — answer NOTIMP.
    NonQuery,
    /// QDCOUNT is not exactly 1 — answer FORMERR.
    BadQdCount,
    /// The question section cannot be parsed — answer FORMERR.
    Unparseable,
}

impl Precheck {
    /// The rcode owed on the wire, or `None` for verdicts that must not
    /// be answered at all ([`Precheck::Response`]) or that proceed to
    /// resolution ([`Precheck::Query`]).
    pub fn reject_rcode(self) -> Option<Rcode> {
        match self {
            Precheck::Query | Precheck::Response => None,
            Precheck::NonQuery => Some(Rcode::NotImp),
            Precheck::BadQdCount | Precheck::Unparseable => Some(Rcode::FormErr),
        }
    }
}

/// Append-only writer that performs name compression against all names
/// already emitted into the message buffer.
pub(crate) struct NameEncoder {
    out: Vec<u8>,
    /// Offsets in `out` of the label starts written so far, ascending: each
    /// is the first (and only uncompressed) occurrence of the name suffix
    /// that begins there, and so a pointer target.
    label_starts: Vec<u16>,
}

impl NameEncoder {
    /// An encoder continuing after `out` (the message header).
    pub(crate) fn new(out: Vec<u8>) -> Self {
        NameEncoder {
            out,
            label_starts: Vec::with_capacity(16),
        }
    }

    /// The bytes written.
    pub(crate) fn finish(self) -> Vec<u8> {
        self.out
    }

    pub(crate) fn pos(&self) -> usize {
        self.out.len()
    }

    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a placeholder u16 and returns its offset for later patching.
    pub(crate) fn reserve_u16(&mut self) -> usize {
        let pos = self.out.len();
        self.out.extend_from_slice(&[0, 0]);
        pos
    }

    pub(crate) fn patch_u16(&mut self, pos: usize, v: u16) {
        self.out[pos..pos + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Writes `name`, compressing against previously written suffixes and
    /// registering newly written suffixes for future reuse.
    ///
    /// A suffix is looked up by walking the names already in `out` from each
    /// recorded label start — the same label walk and comparator the decode
    /// side uses — so nothing is allocated per suffix.
    // detlint: hot
    pub(crate) fn put_name(&mut self, name: &DnsName) {
        // Label starts of `name` itself are pointer targets only for later
        // names: its own tail is still unwritten when they would be walked.
        let known = self.label_starts.len();
        let mut suffix = name.as_ref();
        while let Some((label, rest)) = suffix.split_first() {
            let seen = self
                .label_starts
                .iter()
                .take(known)
                .find(|&&at| NameRef::at(&self.out, at as usize) == suffix);
            if let Some(&target) = seen {
                self.put_u16(0xC000 | target);
                return;
            }
            if let Ok(here @ 0..=MAX_POINTER_TARGET) = u16::try_from(self.out.len()) {
                self.label_starts.push(here);
            }
            self.out.push(label.len() as u8);
            self.out.extend_from_slice(label);
            suffix = rest;
        }
        self.out.push(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::SoaData;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn sample_response() -> Message {
        let mut msg = Message::new(Header {
            id: 0xBEEF,
            opcode: Opcode::Query,
            flags: Flags {
                response: true,
                authoritative: true,
                recursion_desired: true,
                recursion_available: true,
                truncated: false,
            },
            rcode: Rcode::NoError,
        });
        msg.questions
            .push(Question::new(name("www.example.com"), RecordType::A));
        msg.answers.push(ResourceRecord::new(
            name("www.example.com"),
            30,
            RData::Cname(name("cdn.provider.net")),
        ));
        msg.answers.push(ResourceRecord::new(
            name("cdn.provider.net"),
            20,
            RData::A(Ipv4Addr::new(192, 0, 2, 10)),
        ));
        msg.authorities.push(ResourceRecord::new(
            name("provider.net"),
            3600,
            RData::Ns(name("ns1.provider.net")),
        ));
        msg.additionals.push(ResourceRecord::new(
            name("ns1.provider.net"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        msg
    }

    #[test]
    fn encode_decode_roundtrip() {
        let msg = sample_response();
        let bytes = msg.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn compression_shrinks_repeated_suffixes() {
        let msg = sample_response();
        let bytes = msg.encode().unwrap();
        // Uncompressed, the three *.provider.net names cost 18 bytes each;
        // compression must beat the naive sum of wire lengths.
        let naive: usize = 12
            + msg
                .questions
                .iter()
                .map(|q| q.qname.wire_len() + 4)
                .sum::<usize>()
            + msg
                .answers
                .iter()
                .chain(&msg.authorities)
                .chain(&msg.additionals)
                .map(|rr| rr.name.wire_len() + 10 + 18)
                .sum::<usize>();
        assert!(bytes.len() < naive, "{} !< {}", bytes.len(), naive);
    }

    #[test]
    fn header_flags_roundtrip() {
        for response in [false, true] {
            for aa in [false, true] {
                for tc in [false, true] {
                    for rd in [false, true] {
                        for ra in [false, true] {
                            let mut msg = Message::new(Header {
                                id: 7,
                                opcode: Opcode::Status,
                                flags: Flags {
                                    response,
                                    authoritative: aa,
                                    truncated: tc,
                                    recursion_desired: rd,
                                    recursion_available: ra,
                                },
                                rcode: Rcode::Refused,
                            });
                            msg.questions
                                .push(Question::new(name("a.b"), RecordType::Txt));
                            let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
                            assert_eq!(decoded.header, msg.header);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn soa_roundtrip() {
        let mut msg = Message::new(Header::query(1));
        msg.authorities.push(ResourceRecord::new(
            name("example.com"),
            300,
            RData::Soa(SoaData {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 20_141_105,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 60,
            }),
        ));
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn txt_roundtrip_multiple_strings() {
        let mut msg = Message::new(Header::query(2));
        msg.answers.push(ResourceRecord::new(
            name("whoami.probe.example"),
            0,
            RData::Txt(vec!["resolver=10.1.2.3".into(), "t=99".into()]),
        ));
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn empty_message_roundtrip() {
        let msg = Message::new(Header::query(0));
        let bytes = msg.encode().unwrap();
        assert_eq!(bytes.len(), 12);
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn rejects_trailing_garbage() {
        let msg = Message::new(Header::query(0));
        let mut bytes = msg.encode().unwrap();
        bytes.push(0xFF);
        assert_eq!(
            Message::decode(&bytes).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn rejects_truncated_header() {
        assert!(matches!(
            Message::decode(&[0, 1, 2]).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn rejects_forward_pointer() {
        // Header claiming one question, then a name that points forward.
        let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&[0xC0, 0x20]); // pointer to offset 32 (forward)
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(
            Message::decode(&bytes).unwrap_err(),
            WireError::BadCompressionPointer { .. }
        ));
    }

    #[test]
    fn rejects_reserved_label_bits() {
        let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes.push(0x80); // reserved 0b10 prefix
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(
            Message::decode(&bytes).unwrap_err(),
            WireError::ReservedLabelType(_)
        ));
    }

    #[test]
    fn rejects_rdlength_mismatch() {
        // A record with declared rdlen 5 but A rdata consumes 4.
        let mut msg = Message::new(Header::query(3));
        msg.answers.push(ResourceRecord::new(
            name("x.y"),
            1,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        let mut bytes = msg.encode().unwrap();
        // Patch RDLENGTH (last 6 bytes are rdlen(2)+rdata(4)).
        let n = bytes.len();
        bytes[n - 6..n - 4].copy_from_slice(&5u16.to_be_bytes());
        bytes.push(9); // supply the extra byte so rdata isn't truncated
        assert!(matches!(
            Message::decode(&bytes).unwrap_err(),
            WireError::RdataLengthMismatch { .. } | WireError::TrailingBytes(_)
        ));
    }

    #[test]
    fn canonical_name_follows_cname_chain() {
        let msg = sample_response();
        let canon = msg.canonical_name(&name("www.example.com"));
        assert_eq!(canon, name("cdn.provider.net"));
        assert_eq!(msg.answer_addrs(), vec![Ipv4Addr::new(192, 0, 2, 10)]);
    }

    #[test]
    fn canonical_name_tolerates_cname_loop() {
        let mut msg = Message::new(Header::query(4));
        msg.answers.push(ResourceRecord::new(
            name("a.test"),
            1,
            RData::Cname(name("b.test")),
        ));
        msg.answers.push(ResourceRecord::new(
            name("b.test"),
            1,
            RData::Cname(name("a.test")),
        ));
        // Must terminate; the exact endpoint is unspecified but in the loop.
        let canon = msg.canonical_name(&name("a.test"));
        assert!(canon == name("a.test") || canon == name("b.test"));
    }

    #[test]
    fn unknown_record_type_is_preserved() {
        let mut msg = Message::new(Header::query(5));
        msg.answers.push(ResourceRecord::new(
            name("odd.example"),
            60,
            RData::Unknown(4242, vec![1, 2, 3, 4, 5]),
        ));
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn pointer_jump_bound_stops_adversarial_chains() {
        // Build a message body with a long chain of pointers, each pointing
        // one step backward to another pointer.
        let mut bytes = vec![0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let base = bytes.len();
        // First entry: a real label "x" then root.
        bytes.extend_from_slice(&[1, b'x', 0]);
        // 200 pointers, each pointing at the previous pointer (or the label).
        for i in 0..200usize {
            let target = if i == 0 { base } else { base + 3 + 2 * (i - 1) };
            bytes.extend_from_slice(&[0xC0 | ((target >> 8) as u8), target as u8]);
        }
        // The question name starts at the last pointer.
        let qname_ptr = base + 3 + 2 * 199;
        let mut msg = bytes[..12].to_vec();
        msg.extend_from_slice(&bytes[12..]);
        // Construct: question name = pointer to the chain end.
        msg.extend_from_slice(&[0xC0 | ((qname_ptr >> 8) as u8), qname_ptr as u8]);
        msg.extend_from_slice(&[0, 1, 0, 1]);
        let result = Message::decode(&msg);
        // Either rejected as a loop or as trailing bytes (the chain region
        // itself is not valid message structure); it must not hang or panic.
        assert!(result.is_err());
    }

    fn query_wire(id: u16, qname: &str) -> Vec<u8> {
        let mut msg = Message::new(Header::query(id));
        msg.questions
            .push(Question::new(name(qname), RecordType::A));
        msg.encode().unwrap()
    }

    #[test]
    fn precheck_accepts_a_single_question_query() {
        let wire = query_wire(9, "m.example.com");
        let view = MessageView::new(&wire).unwrap();
        assert_eq!(view.precheck(), Precheck::Query);
        assert_eq!(view.precheck().reject_rcode(), None);
    }

    #[test]
    fn precheck_drops_stray_responses_without_an_rcode() {
        let mut wire = query_wire(9, "m.example.com");
        wire[2] |= 0x80; // set QR
        let view = MessageView::new(&wire).unwrap();
        assert_eq!(view.precheck(), Precheck::Response);
        assert_eq!(view.precheck().reject_rcode(), None);
    }

    #[test]
    fn precheck_answers_notimp_for_unsupported_opcodes() {
        for opcode in [Opcode::IQuery, Opcode::Status, Opcode::Other(7)] {
            let mut wire = query_wire(9, "m.example.com");
            wire[2] = (wire[2] & !0x78) | (opcode.code() << 3);
            let view = MessageView::new(&wire).unwrap();
            assert_eq!(view.precheck(), Precheck::NonQuery, "{opcode:?}");
            assert_eq!(view.precheck().reject_rcode(), Some(Rcode::NotImp));
        }
    }

    #[test]
    fn precheck_answers_formerr_for_bad_qdcount() {
        // QDCOUNT = 0: no question at all.
        let empty = Message::new(Header::query(3)).encode().unwrap();
        let view = MessageView::new(&empty).unwrap();
        assert_eq!(view.precheck(), Precheck::BadQdCount);
        assert_eq!(view.precheck().reject_rcode(), Some(Rcode::FormErr));

        // QDCOUNT = 2: multi-question queries are never serviced.
        let mut msg = Message::new(Header::query(4));
        msg.questions
            .push(Question::new(name("a.example"), RecordType::A));
        msg.questions
            .push(Question::new(name("b.example"), RecordType::A));
        let wire = msg.encode().unwrap();
        let view = MessageView::new(&wire).unwrap();
        assert_eq!(view.precheck(), Precheck::BadQdCount);
        assert_eq!(view.precheck().reject_rcode(), Some(Rcode::FormErr));
    }

    #[test]
    fn precheck_answers_formerr_for_unparseable_questions() {
        // Claims one question but the name bytes are a truncated label.
        let mut wire = vec![0, 5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        wire.extend_from_slice(&[63, b'x']); // label says 63 bytes, has 1
        let view = MessageView::new(&wire).unwrap();
        assert_eq!(view.precheck(), Precheck::Unparseable);
        assert_eq!(view.precheck().reject_rcode(), Some(Rcode::FormErr));
    }

    #[test]
    fn view_header_accessors_match_full_decode() {
        let mut msg = Message::new(Header {
            id: 0x0102,
            opcode: Opcode::Status,
            flags: Flags {
                response: false,
                authoritative: false,
                truncated: false,
                recursion_desired: true,
                recursion_available: false,
            },
            rcode: Rcode::Refused,
        });
        msg.questions
            .push(Question::new(name("x.example"), RecordType::A));
        let wire = msg.encode().unwrap();
        let view = MessageView::new(&wire).unwrap();
        assert_eq!(view.opcode(), Opcode::Status);
        assert_eq!(view.rcode(), Rcode::Refused);
        assert!(view.recursion_desired());
    }

    #[test]
    fn answer_layout_finds_the_section_ends_and_each_answer_ttl() {
        let msg = sample_response();
        let wire = msg.encode().unwrap();
        let layout = MessageView::new(&wire).unwrap().answer_layout().unwrap();
        // The question: 17 octets of name, type, class.
        assert_eq!(layout.question_end, 12 + 17 + 4);
        // Re-encoding header, question and answers alone ends where the
        // walk says the answers end: nothing after points back into them.
        let mut prefix = msg.clone();
        prefix.authorities.clear();
        prefix.additionals.clear();
        let head = prefix.encode().unwrap();
        assert_eq!(layout.answers_end, head.len());
        assert_eq!(wire[12..layout.answers_end], head[12..]);
        let ttls: Vec<u32> = layout
            .ttl_offsets
            .iter()
            .map(|&at| u32::from_be_bytes(wire[at..at + 4].try_into().unwrap()))
            .collect();
        assert_eq!(ttls, vec![30, 20]);
        // A cut inside the answers is an error, not a short layout.
        let cut = MessageView::new(&wire[..layout.answers_end - 1]).unwrap();
        assert!(cut.answer_layout().is_err());
    }
}
