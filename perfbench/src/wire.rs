//! A minimal DNS wire encoder for the generated queries and a minimal
//! response parser for checking answers. Both are written here rather
//! than taken from the program, so the generator's cost and the checks'
//! verdicts do not depend on the code under test.

pub const TYPE_A: u16 = 1;
pub const TYPE_NS: u16 = 2;
pub const TYPE_SOA: u16 = 6;
pub const TYPE_TXT: u16 = 16;
pub const TYPE_AAAA: u16 = 28;
pub const TYPE_OPT: u16 = 41;

/// EDNS payload size advertised by every generated query.
pub const EDNS_PAYLOAD: u16 = 1232;

/// Encodes a non-recursive IN query with one EDNS(0) OPT record.
/// `qname` is dotted, without a trailing dot.
pub fn encode_query(id: u16, qname: &str, qtype: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + qname.len() + 2 + 4 + 11);
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // QR=0, opcode QUERY, RD=0
    out.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0, 1]); // qd=1 an=0 ns=0 ar=1
    for label in qname.split('.') {
        assert!(
            !label.is_empty() && label.len() < 64,
            "bad label in {qname}"
        );
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
    out.extend_from_slice(&qtype.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // class IN

    // OPT: root owner, type 41, class = payload size, ttl = 0, rdlen 0.
    out.push(0);
    out.extend_from_slice(&TYPE_OPT.to_be_bytes());
    out.extend_from_slice(&EDNS_PAYLOAD.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 0, 0, 0]);
    out
}

/// Length of the question section of a query made by [`encode_query`].
pub fn question_len(query: &[u8]) -> usize {
    let mut pos = 12;
    while query[pos] != 0 {
        pos += 1 + query[pos] as usize;
    }
    pos + 1 + 4 - 12
}

/// What the checks need from a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub qr: bool,
    pub aa: bool,
    pub tc: bool,
    pub rcode: u8,
    pub answer_types: Vec<u16>,
    pub authority_types: Vec<u16>,
    pub additional_types: Vec<u16>,
    /// First character-string of the first TXT answer.
    pub first_txt: Option<Vec<u8>>,
}

fn skip_name(msg: &[u8], mut pos: usize) -> Option<usize> {
    loop {
        let len = *msg.get(pos)?;
        match len {
            0 => return Some(pos + 1),
            l if l & 0xc0 == 0xc0 => return Some(pos + 2),
            l if l < 64 => pos += 1 + l as usize,
            _ => return None,
        }
    }
}

fn u16_at(msg: &[u8], pos: usize) -> Option<u16> {
    Some(u16::from_be_bytes([*msg.get(pos)?, *msg.get(pos + 1)?]))
}

/// Parses a response's header and record types; `None` when malformed.
pub fn parse_response(msg: &[u8]) -> Option<Response> {
    if msg.len() < 12 {
        return None;
    }
    let flags = u16_at(msg, 2)?;
    let counts = [
        u16_at(msg, 4)?,
        u16_at(msg, 6)?,
        u16_at(msg, 8)?,
        u16_at(msg, 10)?,
    ];
    let mut pos = 12;
    for _ in 0..counts[0] {
        pos = skip_name(msg, pos)? + 4;
    }
    let mut sections: [Vec<u16>; 3] = Default::default();
    let mut first_txt = None;
    for (s, &count) in counts[1..].iter().enumerate() {
        for _ in 0..count {
            pos = skip_name(msg, pos)?;
            let rtype = u16_at(msg, pos)?;
            let rdlen = u16_at(msg, pos + 8)? as usize;
            let rdata = msg.get(pos + 10..pos + 10 + rdlen)?;
            if s == 0 && rtype == TYPE_TXT && first_txt.is_none() {
                let n = *rdata.first()? as usize;
                first_txt = Some(rdata.get(1..1 + n)?.to_vec());
            }
            sections[s].push(rtype);
            pos += 10 + rdlen;
        }
    }
    if pos != msg.len() {
        return None;
    }
    let [answer_types, authority_types, additional_types] = sections;
    Some(Response {
        qr: flags & 0x8000 != 0,
        aa: flags & 0x0400 != 0,
        tc: flags & 0x0200 != 0,
        rcode: (flags & 0x000f) as u8,
        answer_types,
        authority_types,
        additional_types,
        first_txt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trips_through_the_program_decoder() {
        let wire = encode_query(0xbeef, "www.d17.ourtestdomain.nl", TYPE_A);
        let msg = dnswild_proto::Message::decode(&wire).expect("program decodes our query");
        assert_eq!(msg.header.id, 0xbeef);
        assert!(!msg.header.recursion_desired);
        let q = msg.question().unwrap();
        assert_eq!(
            q.qname,
            dnswild_proto::Name::parse("www.d17.ourtestdomain.nl").unwrap()
        );
        assert_eq!(q.qtype, dnswild_proto::RType::A);
        assert_eq!(msg.edns_payload_size(), Some(EDNS_PAYLOAD));
        assert_eq!(question_len(&wire), 1 + 3 + 1 + 3 + 1 + 13 + 1 + 2 + 1 + 4);
    }

    #[test]
    fn parses_a_program_encoded_response() {
        use dnswild_proto::rdata::{Ns, Txt};
        use dnswild_proto::{Message, Name, RData, RType, Rcode, Record};
        let query = Message::iterative_query(9, Name::parse("p1.x.nl").unwrap(), RType::Txt);
        let mut resp = Message::response_to(&query, Rcode::NoError);
        resp.header.authoritative = true;
        resp.answers.push(Record::new(
            Name::parse("p1.x.nl").unwrap(),
            5,
            RData::Txt(Txt::from_string("site=FRA").unwrap()),
        ));
        resp.authorities.push(Record::new(
            Name::parse("x.nl").unwrap(),
            5,
            RData::Ns(Ns::new(Name::parse("ns1.x.nl").unwrap())),
        ));
        let wire = resp.encode().unwrap();
        let parsed = parse_response(&wire).expect("parses");
        assert!(parsed.qr && parsed.aa && !parsed.tc);
        assert_eq!(parsed.rcode, 0);
        assert_eq!(parsed.answer_types, vec![TYPE_TXT]);
        assert_eq!(parsed.authority_types, vec![TYPE_NS]);
        assert_eq!(parsed.first_txt.as_deref(), Some(&b"site=FRA"[..]));
        assert!(
            parse_response(&wire[..wire.len() - 1]).is_none(),
            "truncated input rejected"
        );
    }
}
