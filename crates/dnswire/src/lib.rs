#![warn(missing_docs)]

//! `dnswire` — a from-scratch implementation of the DNS wire format (RFC 1035,
//! with the EDNS0 OPT pseudo-record from RFC 6891).
//!
//! This crate is one of the substrates of the *Behind the Curtain* (IMC 2014)
//! reproduction: the measurement library issues real DNS messages end-to-end
//! through the simulated network, so we need a complete, robust codec:
//!
//! * [`name::DnsName`] — validated, owned domain names: one allocation
//!   holding the lowercased wire form.
//! * [`nameref::NameRef`] — a borrowed view of a wire name in any buffer (a
//!   received message, possibly compressed, or a `DnsName`'s own bytes),
//!   and the single home of the label walk, name order, `is_under` and
//!   `Display`; `DnsName` delegates to it.
//!   [`message::MessageView`] builds on it for allocation-free header and
//!   first-question peeks on receive hot paths.
//! * [`message::Message`] — full message encode/decode including name
//!   compression pointers (encode-side suffix reuse, decode-side loop and
//!   bounds protection).
//! * [`rdata::RData`] — typed record data for A, AAAA, NS, CNAME, SOA, PTR,
//!   TXT, MX and OPT records.
//! * [`builder`] — ergonomic query/response construction.
//!
//! The codec never panics on untrusted input: all decode paths return
//! [`WireError`].
//!
//! # Example
//!
//! ```
//! use dnswire::builder::QueryBuilder;
//! use dnswire::message::Message;
//! use dnswire::rdata::RecordType;
//!
//! let query = QueryBuilder::new(0x1234, "www.example.com", RecordType::A)
//!     .recursion_desired(true)
//!     .build()
//!     .unwrap();
//! let bytes = query.encode().unwrap();
//! let decoded = Message::decode(&bytes).unwrap();
//! assert_eq!(decoded.header.id, 0x1234);
//! assert_eq!(decoded.questions[0].qname.to_string(), "www.example.com");
//! ```

pub mod builder;
pub mod edns;
pub mod error;
pub mod message;
pub mod name;
pub mod nameref;
pub mod rdata;

pub use edns::EdnsOption;
pub use error::WireError;
pub use message::{
    Flags, Header, Message, MessageView, Opcode, Precheck, Question, Rcode, ResourceRecord,
};
pub use name::DnsName;
pub use nameref::NameRef;
pub use rdata::{RData, RecordClass, RecordType, SoaData};
