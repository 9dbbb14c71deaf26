//! Master-file (presentation format) zone parser — the RFC 1035 §5 subset
//! a downstream user needs to load real zone data into the simulator:
//! `$ORIGIN`/`$TTL` directives, comments, relative and absolute owner
//! names, `@`, optional TTL/class fields, and the record types the
//! simulation serves.

use crate::zone::Zone;
use dnswire::name::DnsName;
use dnswire::rdata::RData;
use std::net::{Ipv4Addr, Ipv6Addr};

/// A zone-file parsing error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zone file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Resolves a possibly-relative owner/target name against the origin.
fn resolve_name(token: &str, origin: &DnsName, line: usize) -> Result<DnsName, ParseError> {
    if token == "@" {
        return Ok(origin.clone());
    }
    if let Some(absolute) = token.strip_suffix('.') {
        return DnsName::parse(absolute).map_err(|e| err(line, format!("bad name: {e}")));
    }
    // Relative: the token's labels followed by the origin's.
    DnsName::parse(token)
        .and_then(|rel| rel.join(origin))
        .map_err(|e| err(line, format!("bad name: {e}")))
}

/// Parses presentation-format zone text into a [`Zone`].
///
/// ```
/// use dnssim::parse::parse_zone;
///
/// let zone = parse_zone(r#"
/// $ORIGIN example.com.
/// $TTL 300
/// www        IN A     192.0.2.1
/// www        IN A     192.0.2.2
/// m          IN CNAME www
/// "#).unwrap();
/// assert_eq!(zone.origin().to_string(), "example.com");
/// ```
pub fn parse_zone(text: &str) -> Result<Zone, ParseError> {
    let mut origin: Option<DnsName> = None;
    let mut default_ttl: u32 = 3600;
    let mut zone: Option<Zone> = None;
    let mut last_owner: Option<DnsName> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        // Strip comments; no quoted-string escapes for ';' needed except in
        // TXT, which we handle by splitting the quote out first.
        let (content, txt_quote) = match raw.find('"') {
            Some(q) => {
                let before = &raw[..q];
                let rest = &raw[q + 1..];
                let close = rest
                    .find('"')
                    .ok_or_else(|| err(line_no, "unterminated TXT string"))?;
                (before.to_string(), Some(rest[..close].to_string()))
            }
            None => {
                let c = raw.split(';').next().unwrap_or("");
                (c.to_string(), None)
            }
        };
        let starts_with_space = content.starts_with(' ') || content.starts_with('\t');
        let mut tokens: Vec<&str> = content.split_whitespace().collect();
        if tokens.is_empty() && txt_quote.is_none() {
            continue;
        }
        // Directives.
        match tokens.first() {
            Some(&"$ORIGIN") => {
                let name = tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, "$ORIGIN needs a name"))?;
                let parsed = DnsName::parse(name.trim_end_matches('.'))
                    .map_err(|e| err(line_no, format!("bad $ORIGIN: {e}")))?;
                origin = Some(parsed.clone());
                if zone.is_none() {
                    zone = Some(Zone::new(parsed));
                }
                continue;
            }
            Some(&"$TTL") => {
                default_ttl = tokens
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line_no, "$TTL needs a number"))?;
                continue;
            }
            _ => {}
        }
        let origin_name = origin
            .clone()
            .ok_or_else(|| err(line_no, "record before $ORIGIN"))?;
        // Owner: blank leading field repeats the previous owner.
        let owner = if starts_with_space {
            last_owner
                .clone()
                .ok_or_else(|| err(line_no, "continuation line with no previous owner"))?
        } else {
            let tok = tokens.remove(0);
            resolve_name(tok, &origin_name, line_no)?
        };
        last_owner = Some(owner.clone());
        // Optional TTL and class, in either order.
        let mut ttl = default_ttl;
        while let Some(&tok) = tokens.first() {
            if let Ok(t) = tok.parse::<u32>() {
                ttl = t;
                tokens.remove(0);
            } else if tok.eq_ignore_ascii_case("IN") {
                tokens.remove(0);
            } else {
                break;
            }
        }
        let rtype = tokens
            .first()
            .ok_or_else(|| err(line_no, "missing record type"))?
            .to_uppercase();
        tokens.remove(0);
        let rdata = match rtype.as_str() {
            "A" => {
                let addr: Ipv4Addr = tokens
                    .first()
                    .ok_or_else(|| err(line_no, "A needs an address"))?
                    .parse()
                    .map_err(|e| err(line_no, format!("bad A address: {e}")))?;
                RData::A(addr)
            }
            "AAAA" => {
                let addr: Ipv6Addr = tokens
                    .first()
                    .ok_or_else(|| err(line_no, "AAAA needs an address"))?
                    .parse()
                    .map_err(|e| err(line_no, format!("bad AAAA address: {e}")))?;
                RData::Aaaa(addr)
            }
            "CNAME" => {
                let target = tokens
                    .first()
                    .ok_or_else(|| err(line_no, "CNAME needs a target"))?;
                RData::Cname(resolve_name(target, &origin_name, line_no)?)
            }
            "NS" => {
                let host = tokens
                    .first()
                    .ok_or_else(|| err(line_no, "NS needs a host"))?;
                RData::Ns(resolve_name(host, &origin_name, line_no)?)
            }
            "PTR" => {
                let target = tokens
                    .first()
                    .ok_or_else(|| err(line_no, "PTR needs a target"))?;
                RData::Ptr(resolve_name(target, &origin_name, line_no)?)
            }
            "MX" => {
                let pref: u16 = tokens
                    .first()
                    .ok_or_else(|| err(line_no, "MX needs a preference"))?
                    .parse()
                    .map_err(|e| err(line_no, format!("bad MX preference: {e}")))?;
                let host = tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, "MX needs a host"))?;
                RData::Mx(pref, resolve_name(host, &origin_name, line_no)?)
            }
            "TXT" => {
                let s = txt_quote
                    .clone()
                    .or_else(|| tokens.first().map(|t| t.to_string()))
                    .ok_or_else(|| err(line_no, "TXT needs a string"))?;
                RData::Txt(vec![s])
            }
            "SOA" => {
                // SOA lines are accepted but the zone's built-in SOA is
                // kept; the simulation does not transfer zones.
                continue;
            }
            other => return Err(err(line_no, format!("unsupported record type {other}"))),
        };
        #[expect(
            clippy::expect_used,
            reason = "a record line before $ORIGIN was already rejected with an error earlier in this loop iteration"
        )]
        let z = zone.as_mut().expect("zone exists after $ORIGIN");
        if !owner.is_under(z.origin()) {
            return Err(err(line_no, format!("{owner} outside zone {}", z.origin())));
        }
        z.add(dnswire::message::ResourceRecord::new(owner, ttl, rdata));
    }
    zone.ok_or_else(|| err(0, "no $ORIGIN directive"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::message::Rcode;
    use dnswire::rdata::RecordType;

    fn n(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    const SAMPLE: &str = r#"
; the buzzfeed zone as the simulation serves it
$ORIGIN buzzfeed.com.
$TTL 300
@          IN NS    ns1
ns1        IN A     198.51.100.53
www        30 IN A  192.0.2.10
           30 IN A  192.0.2.11
m          IN CNAME www
ext        IN CNAME edge.cdn-a.example.
mail       IN MX    10 mx1
mx1        IN A     192.0.2.25
note       IN TXT   "hello; world"
"#;

    #[test]
    fn parses_a_complete_zone() {
        let zone = parse_zone(SAMPLE).unwrap();
        assert_eq!(zone.origin(), &n("buzzfeed.com"));
        let www = zone.lookup(&n("www.buzzfeed.com"), RecordType::A);
        assert_eq!(www.answers.len(), 2);
        assert_eq!(www.answers[0].ttl, 30);
    }

    #[test]
    fn relative_and_absolute_targets() {
        let zone = parse_zone(SAMPLE).unwrap();
        let m = zone.lookup(&n("m.buzzfeed.com"), RecordType::A);
        // CNAME chased in-zone to the two As.
        assert_eq!(m.answers.len(), 3);
        let ext = zone.lookup(&n("ext.buzzfeed.com"), RecordType::A);
        assert_eq!(
            ext.answers[0].rdata.as_cname().unwrap(),
            &n("edge.cdn-a.example")
        );
    }

    #[test]
    fn continuation_lines_repeat_the_owner() {
        let zone = parse_zone(SAMPLE).unwrap();
        let www = zone.lookup(&n("www.buzzfeed.com"), RecordType::A);
        let addrs: Vec<_> = www.answers.iter().filter_map(|r| r.rdata.as_a()).collect();
        assert!(addrs.contains(&Ipv4Addr::new(192, 0, 2, 11)));
    }

    #[test]
    fn txt_preserves_semicolons_inside_quotes() {
        let zone = parse_zone(SAMPLE).unwrap();
        let txt = zone.lookup(&n("note.buzzfeed.com"), RecordType::Txt);
        match &txt.answers[0].rdata {
            RData::Txt(strings) => assert_eq!(strings[0], "hello; world"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mx_and_ns_parse() {
        let zone = parse_zone(SAMPLE).unwrap();
        let mx = zone.lookup(&n("mail.buzzfeed.com"), RecordType::Mx);
        match &mx.answers[0].rdata {
            RData::Mx(10, host) => assert_eq!(host, &n("mx1.buzzfeed.com")),
            other => panic!("unexpected {other:?}"),
        }
        let ns = zone.lookup(&n("buzzfeed.com"), RecordType::Ns);
        assert_eq!(ns.answers.len(), 1);
    }

    #[test]
    fn default_ttl_applies() {
        let zone = parse_zone(SAMPLE).unwrap();
        let ns1 = zone.lookup(&n("ns1.buzzfeed.com"), RecordType::A);
        assert_eq!(ns1.answers[0].ttl, 300);
    }

    #[test]
    fn missing_names_are_nxdomain() {
        let zone = parse_zone(SAMPLE).unwrap();
        let out = zone.lookup(&n("nope.buzzfeed.com"), RecordType::A);
        assert_eq!(out.rcode, Rcode::NxDomain);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_zone("$ORIGIN x.test.\nwww IN A not-an-ip\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bad A address"));
        let e = parse_zone("www IN A 1.2.3.4\n").unwrap_err();
        assert!(e.message.contains("before $ORIGIN"));
        let e = parse_zone("$ORIGIN x.test.\nwww IN WKS 1.2.3.4\n").unwrap_err();
        assert!(e.message.contains("unsupported"));
        let e = parse_zone("$ORIGIN x.test.\nnote IN TXT \"oops\n").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn out_of_zone_owner_is_rejected() {
        let e = parse_zone("$ORIGIN x.test.\nwww.other.org. IN A 1.2.3.4\n").unwrap_err();
        assert!(e.message.contains("outside zone"));
    }

    #[test]
    fn parsed_zone_serves_through_an_authoritative_server() {
        use crate::authority::AuthoritativeServer;
        let zone = parse_zone(SAMPLE).unwrap();
        let mut srv = AuthoritativeServer::new();
        srv.add_zone(zone);
        // Smoke: the server accepts it (full serving covered elsewhere).
        assert_eq!(srv.queries, 0);
    }
}
