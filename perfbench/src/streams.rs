//! Seeded inputs: the large delegation-heavy zone, the query streams the
//! socket workloads replay, and the checks each answer must pass.

use std::net::Ipv4Addr;

use dnswild_proto::rdata::{Ns, Txt, A};
use dnswild_proto::{Name, RData, Record};
use dnswild_zone::presets::probe_ttl_test_domain_zone;
use dnswild_zone::Zone;

use crate::wire::{self, Response, TYPE_A, TYPE_AAAA, TYPE_NS, TYPE_SOA, TYPE_TXT};

/// The paper's measurement zone.
pub const ORIGIN: &str = "ourtestdomain.nl";
/// Apex name servers (`ns1` … `ns4`), as a ccTLD has several.
pub const APEX_NS: usize = 4;
/// Delegated children, each with two in-bailiwick name servers and glue.
pub const CHILDREN: u64 = 50_000;
/// Label whose subtree holds no wildcard, so names below it are NXDOMAIN.
pub const VOID_LABEL: &str = "void";
/// Site code the server brands wildcard TXT answers with.
pub const SITE: &str = "FRA";

/// SplitMix64: a tiny seeded generator owned by the benchmark, so the
/// streams do not change when the program's own generators do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The measurement zone grown into a TLD-like zone: apex SOA, four apex
/// NS with glue, the wildcard probe TXT (TTL `probe_ttl`), an empty
/// `void` anchor and `children` delegations `d<k>` to `ns1.d<k>` and
/// `ns2.d<k>` with A glue.
pub fn tld_zone(children: u64, probe_ttl: u32) -> Zone {
    let origin = Name::parse(ORIGIN).expect("static origin");
    let mut zone = probe_ttl_test_domain_zone(&origin, APEX_NS, probe_ttl);
    zone.insert(Record::new(
        origin.prepend(VOID_LABEL).expect("short label"),
        3600,
        RData::Txt(Txt::from_string("nx-anchor").expect("short string")),
    ));
    for k in 0..children {
        let child = origin.prepend(&format!("d{k}")).expect("short label");
        for n in 1..=2u32 {
            let ns = child.prepend(&format!("ns{n}")).expect("short label");
            zone.insert(Record::new(
                child.clone(),
                86_400,
                RData::Ns(Ns::new(ns.clone())),
            ));
            let host = (k as u32) * 2 + n;
            let addr = Ipv4Addr::new(10, (host >> 16) as u8, (host >> 8) as u8, host as u8);
            zone.insert(Record::new(ns, 86_400, RData::A(A::new(addr))));
        }
    }
    zone
}

/// What an answer to a query must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `www.d<k>` A: a referral with two NS and their glue.
    Referral,
    /// `<label>.void` A: NXDOMAIN with the SOA.
    NxDomain,
    /// `ns<i>` AAAA: the name holds only an A, so NODATA with the SOA.
    NoData,
    /// Apex SOA.
    ApexSoa,
    /// Apex NS.
    ApexNs,
    /// A unique label under the apex wildcard: TXT naming the site.
    ProbeTxt,
}

impl Kind {
    /// Whether `resp` is a correct answer for this kind.
    pub fn accepts(self, resp: &Response) -> bool {
        if !resp.qr || resp.tc {
            return false;
        }
        let only =
            |types: &[u16], t: u16, n: usize| types.len() == n && types.iter().all(|&x| x == t);
        let glue = resp
            .additional_types
            .iter()
            .filter(|&&t| t == TYPE_A)
            .count();
        match self {
            Kind::Referral => {
                resp.rcode == 0
                    && !resp.aa
                    && resp.answer_types.is_empty()
                    && only(&resp.authority_types, TYPE_NS, 2)
                    && glue == 2
            }
            Kind::NxDomain | Kind::NoData => {
                resp.rcode == if self == Kind::NxDomain { 3 } else { 0 }
                    && resp.aa
                    && resp.answer_types.is_empty()
                    && only(&resp.authority_types, TYPE_SOA, 1)
            }
            Kind::ApexSoa => resp.rcode == 0 && resp.aa && only(&resp.answer_types, TYPE_SOA, 1),
            Kind::ApexNs => {
                resp.rcode == 0 && resp.aa && only(&resp.answer_types, TYPE_NS, APEX_NS)
            }
            Kind::ProbeTxt => {
                resp.rcode == 0
                    && resp.aa
                    && only(&resp.answer_types, TYPE_TXT, 1)
                    && resp.first_txt.as_deref() == Some(format!("site={SITE}").as_bytes())
            }
        }
    }
}

/// Whether `payload` correctly answers the query encoded in `query`,
/// which is of kind `kind`: same ID, the question echoed byte for byte,
/// and the shape the kind requires.
pub fn check(kind: Kind, query: &[u8], payload: &[u8]) -> bool {
    let qlen = wire::question_len(query);
    payload.len() >= 12 + qlen
        && payload[..2] == query[..2]
        && payload[4..6] == query[4..6]
        && payload[12..12 + qlen] == query[12..12 + qlen]
        && wire::parse_response(payload).is_some_and(|r| kind.accepts(&r))
}

/// A generated query stream: each query's kind and encoded datagram.
/// The datagrams sit end to end in one buffer, so the benchmark's own
/// inputs add little to the process's memory beside the server's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stream {
    kinds: Vec<Kind>,
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl Stream {
    fn with_capacity(count: u64) -> Stream {
        let n = count as usize;
        Stream {
            kinds: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n * 48),
            ends: Vec::with_capacity(n),
        }
    }

    /// Appends query `index` (its DNS ID is `index as u16`).
    fn push(&mut self, index: u64, kind: Kind, qname: &str, qtype: u16) {
        self.bytes
            .extend_from_slice(&wire::encode_query(index as u16, qname, qtype));
        self.ends.push(self.bytes.len() as u32);
        self.kinds.push(kind);
    }

    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// The encoded datagram of query `i`.
    pub fn wire(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// Queries of kind `kind`.
    pub fn count(&self, kind: Kind) -> u64 {
        self.kinds.iter().filter(|&&k| k == kind).count() as u64
    }

    /// Whether `payload` correctly answers query `i`.
    pub fn check(&self, i: usize, payload: &[u8]) -> bool {
        check(self.kinds[i], self.wire(i), payload)
    }
}

/// The ccTLD mix: mostly referrals to random children, plus NXDOMAIN,
/// NODATA and apex SOA/NS. Query `i` carries DNS ID `i as u16`.
pub fn tld_stream(seed: u64, count: u64, children: u64) -> Stream {
    let mut rng = Rng::new(seed ^ 0x7444_0000);
    let mut stream = Stream::with_capacity(count);
    for i in 0..count {
        let roll = rng.below(100);
        let (kind, qname, qtype) = match roll {
            0..=79 => (
                Kind::Referral,
                format!("www.d{}.{ORIGIN}", rng.below(children)),
                TYPE_A,
            ),
            80..=87 => (
                Kind::NxDomain,
                format!("x{:012x}.{VOID_LABEL}.{ORIGIN}", rng.next_u64() >> 16),
                TYPE_A,
            ),
            88..=93 => (
                Kind::NoData,
                format!("ns{}.{ORIGIN}", 1 + rng.below(APEX_NS as u64)),
                TYPE_AAAA,
            ),
            94..=96 => (Kind::ApexSoa, ORIGIN.to_string(), TYPE_SOA),
            _ => (Kind::ApexNs, ORIGIN.to_string(), TYPE_NS),
        };
        stream.push(i, kind, &qname, qtype);
    }
    stream
}

/// The paper's measurement traffic: a unique label per query, answered
/// by the apex wildcard TXT.
pub fn probe_stream(seed: u64, count: u64) -> Stream {
    let tag = Rng::new(seed ^ 0x7072_6f62).next_u64() & 0xffff_ffff;
    let mut stream = Stream::with_capacity(count);
    for i in 0..count {
        stream.push(
            i,
            Kind::ProbeTxt,
            &format!("p{tag:08x}-{i}.{ORIGIN}"),
            TYPE_TXT,
        );
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_server::{AnswerEngine, TransportKind};
    use std::sync::Arc;

    #[test]
    fn streams_are_seed_deterministic() {
        assert_eq!(tld_stream(7, 500, 1000), tld_stream(7, 500, 1000));
        assert_ne!(tld_stream(7, 500, 1000), tld_stream(8, 500, 1000));
        assert_eq!(probe_stream(7, 100), probe_stream(7, 100));
        assert_ne!(probe_stream(7, 100), probe_stream(8, 100));
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    }

    #[test]
    fn tld_mix_is_mostly_referrals_and_covers_every_kind() {
        let stream = tld_stream(1, 10_000, 1000);
        let share = |k: Kind| stream.count(k) as f64 / 1e4;
        assert!((share(Kind::Referral) - 0.80).abs() < 0.02);
        for k in [Kind::NxDomain, Kind::NoData, Kind::ApexSoa, Kind::ApexNs] {
            assert!(share(k) > 0.01, "{k:?} missing");
        }
        assert!((0..stream.len()).all(|i| stream.wire(i)[..2] == (i as u16).to_be_bytes()));
    }

    #[test]
    fn probe_labels_are_unique() {
        let stream = probe_stream(5, 5000);
        let wires: std::collections::HashSet<_> =
            (0..stream.len()).map(|i| &stream.wire(i)[12..]).collect();
        assert_eq!(wires.len(), 5000);
    }

    #[test]
    fn the_engine_answers_every_kind_as_the_checks_expect() {
        let zone = tld_zone(200, 5);
        assert_eq!(zone.rrset_count() as u64, 1 + 1 + 4 + 1 + 1 + 200 * 3);
        let mut engine = AnswerEngine::with_shared_zones(SITE, Arc::new(vec![zone]));
        let mut resp = Vec::new();
        for stream in [tld_stream(3, 400, 200), probe_stream(3, 50)] {
            for i in 0..stream.len() {
                engine.handle_packet(stream.wire(i), TransportKind::Udp, &mut resp);
                assert!(
                    stream.check(i, &resp),
                    "{:?} #{i} failed its check",
                    stream.kinds[i]
                );
            }
        }
        // A wrong answer fails: the probe check on a referral response.
        let stream = tld_stream(3, 400, 200);
        let referral = (0..stream.len())
            .find(|&i| stream.kinds[i] == Kind::Referral)
            .unwrap();
        engine.handle_packet(stream.wire(referral), TransportKind::Udp, &mut resp);
        assert!(stream.check(referral, &resp));
        assert!(!check(Kind::ProbeTxt, stream.wire(referral), &resp));
    }
}
