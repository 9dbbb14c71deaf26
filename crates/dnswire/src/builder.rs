//! Ergonomic construction of queries and responses.

use crate::error::WireError;
use crate::message::{Flags, Header, Message, Question, Rcode, ResourceRecord};
use crate::name::DnsName;
use crate::rdata::{RData, RecordClass, RecordType};
use std::net::Ipv4Addr;

/// Builds a standard query message.
///
/// ```
/// use dnswire::builder::QueryBuilder;
/// use dnswire::rdata::RecordType;
///
/// let q = QueryBuilder::new(7, "m.example.org", RecordType::A)
///     .recursion_desired(true)
///     .build()
///     .unwrap();
/// assert!(q.header.flags.recursion_desired);
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    id: u16,
    qname: String,
    qtype: RecordType,
    recursion_desired: bool,
}

impl QueryBuilder {
    /// Starts a query for `qname` with the given transaction id.
    pub fn new(id: u16, qname: impl Into<String>, qtype: RecordType) -> Self {
        QueryBuilder {
            id,
            qname: qname.into(),
            qtype,
            recursion_desired: false,
        }
    }

    /// Sets the RD bit.
    pub fn recursion_desired(mut self, rd: bool) -> Self {
        self.recursion_desired = rd;
        self
    }

    /// Validates the name and produces the message.
    pub fn build(self) -> Result<Message, WireError> {
        let qname = DnsName::parse(&self.qname)?;
        let mut header = Header::query(self.id);
        header.flags.recursion_desired = self.recursion_desired;
        let mut msg = Message::new(header);
        msg.questions.push(Question::new(qname, self.qtype));
        Ok(msg)
    }
}

/// Encodes the query a stub resolver sends: RD set, one IN-class question
/// for `qname`, and an OPT record advertising `udp_size`. One pass straight
/// from the name's wire form: the bytes equal a [`QueryBuilder`] query with
/// `recursion_desired(true)`, then [`Message::advertise_udp_size`] and
/// [`Message::encode`], without printing the name and parsing it back.
pub fn encode_stub_query(id: u16, qname: &DnsName, qtype: RecordType, udp_size: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + qname.wire.len() + 4 + 11);
    out.extend_from_slice(&id.to_be_bytes());
    // RD, then QDCOUNT 1, ANCOUNT 0, NSCOUNT 0, ARCOUNT 1.
    out.extend_from_slice(&[0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 1]);
    // The first name in a message has nothing to point back to, so its
    // uncompressed wire form is what the encoder writes.
    out.extend_from_slice(&qname.wire);
    out.extend_from_slice(&qtype.code().to_be_bytes());
    out.extend_from_slice(&RecordClass::In.code().to_be_bytes());
    // OPT: root owner, CLASS = payload size, TTL (extended rcode and
    // flags) 0, RDLENGTH 0.
    out.push(0);
    out.extend_from_slice(&RecordType::Opt.code().to_be_bytes());
    out.extend_from_slice(&udp_size.to_be_bytes());
    out.extend_from_slice(&[0; 6]);
    out
}

/// Builds a response to a given query, echoing its id and question.
#[derive(Debug, Clone)]
pub struct ResponseBuilder {
    msg: Message,
}

impl ResponseBuilder {
    /// Starts a response mirroring `query`'s id, RD bit, and question
    /// section.
    pub fn for_query(query: &Message) -> Self {
        let header = Header {
            id: query.header.id,
            opcode: query.header.opcode,
            flags: Flags {
                response: true,
                recursion_desired: query.header.flags.recursion_desired,
                ..Flags::default()
            },
            rcode: Rcode::NoError,
        };
        let mut msg = Message::new(header);
        msg.questions = query.questions.clone();
        ResponseBuilder { msg }
    }

    /// Starts a response from scratch (used by servers synthesizing errors
    /// for unparseable queries).
    pub fn new(id: u16) -> Self {
        let mut header = Header::query(id);
        header.flags.response = true;
        ResponseBuilder {
            msg: Message::new(header),
        }
    }

    /// Sets the AA bit.
    pub fn authoritative(mut self, aa: bool) -> Self {
        self.msg.header.flags.authoritative = aa;
        self
    }

    /// Sets the RA bit.
    pub fn recursion_available(mut self, ra: bool) -> Self {
        self.msg.header.flags.recursion_available = ra;
        self
    }

    /// Sets the response code.
    pub fn rcode(mut self, rcode: Rcode) -> Self {
        self.msg.header.rcode = rcode;
        self
    }

    /// Appends an answer record.
    pub fn answer(mut self, rr: ResourceRecord) -> Self {
        self.msg.answers.push(rr);
        self
    }

    /// Appends an A answer for `name`.
    pub fn answer_a(self, name: DnsName, ttl: u32, addr: Ipv4Addr) -> Self {
        self.answer(ResourceRecord::new(name, ttl, RData::A(addr)))
    }

    /// Appends an authority record.
    pub fn authority(mut self, rr: ResourceRecord) -> Self {
        self.msg.authorities.push(rr);
        self
    }

    /// Appends an additional record.
    pub fn additional(mut self, rr: ResourceRecord) -> Self {
        self.msg.additionals.push(rr);
        self
    }

    /// Finishes the message.
    pub fn build(self) -> Message {
        self.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_builder_produces_valid_query() {
        let q = QueryBuilder::new(42, "m.yelp.com", RecordType::A)
            .recursion_desired(true)
            .build()
            .unwrap();
        assert_eq!(q.header.id, 42);
        assert!(!q.header.flags.response);
        assert!(q.header.flags.recursion_desired);
        assert_eq!(q.questions.len(), 1);
        assert_eq!(q.questions[0].qtype, RecordType::A);
    }

    #[test]
    fn stub_query_equals_the_builders_bytes() {
        for (name, qtype, size) in [
            ("m.yelp.com", RecordType::A, 1232),
            (
                "x00000000deadbeef.whoami.probe.example",
                RecordType::A,
                4096,
            ),
            ("", RecordType::Txt, 512),
        ] {
            let mut q = QueryBuilder::new(0xBEEF, name, qtype)
                .recursion_desired(true)
                .build()
                .unwrap();
            q.advertise_udp_size(size);
            let qname = DnsName::parse(name).unwrap();
            assert_eq!(
                encode_stub_query(0xBEEF, &qname, qtype, size),
                q.encode().unwrap(),
                "{name:?}"
            );
        }
    }

    #[test]
    fn query_builder_rejects_invalid_name() {
        assert!(QueryBuilder::new(1, "bad name.com", RecordType::A)
            .build()
            .is_err());
    }

    #[test]
    fn response_builder_mirrors_query() {
        let q = QueryBuilder::new(9, "example.com", RecordType::A)
            .recursion_desired(true)
            .build()
            .unwrap();
        let r = ResponseBuilder::for_query(&q)
            .authoritative(true)
            .recursion_available(true)
            .answer_a(
                DnsName::parse("example.com").unwrap(),
                60,
                Ipv4Addr::new(198, 51, 100, 7),
            )
            .build();
        assert_eq!(r.header.id, q.header.id);
        assert!(r.header.flags.response);
        assert_eq!(r.questions, q.questions);
        assert!(r.header.flags.authoritative);
        assert!(r.header.flags.recursion_desired);
        assert_eq!(r.answer_addrs(), vec![Ipv4Addr::new(198, 51, 100, 7)]);
    }

    #[test]
    fn nxdomain_response() {
        let q = QueryBuilder::new(3, "missing.example.com", RecordType::A)
            .build()
            .unwrap();
        let r = ResponseBuilder::for_query(&q)
            .rcode(Rcode::NxDomain)
            .build();
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert!(r.answers.is_empty());
    }
}
