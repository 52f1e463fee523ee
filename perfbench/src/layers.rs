//! Per-layer costs, measured by replaying a workload's own inputs
//! through each crate's public functions from the benchmark's code.
//! Nothing inside the program is instrumented: each loop times many
//! calls into one layer and divides, so clock reads stay out of the
//! per-call figure.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use detrand::DetRng;
use dnswild_cache::{CacheTime, RecordCache};
use dnswild_netsim::{SimAddr, SimDuration, SimTime};
use dnswild_proto::{Message, Name, RType, Rcode, Record};
use dnswild_resolver::{InfraCache, PolicyKind};
use dnswild_server::{AnswerEngine, TransportKind};
use dnswild_zone::Zone;

use crate::stats::median;
use crate::sys::heap_growth;

/// Times each replay loop this many times and keeps the median.
const REPS: usize = 3;

fn per_call_ns(calls: usize, mut body: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&runs)
}

/// Wire coding, zone lookup and engine cost per query.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLayers {
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub lookup_ns: f64,
    /// `handle_packet` minus the decode and encode it contains.
    pub engine_self_ns: f64,
}

/// A query stream's answers, as the engine gives them.
pub struct Answered {
    pub keys: Vec<(Name, RType)>,
    pub responses: Vec<Message>,
}

/// Replays `queries` (encoded datagrams) through an engine over `zones`.
pub fn replay_server<Q: AsRef<[u8]>>(
    zones: &Arc<Vec<Zone>>,
    site: &str,
    queries: &[Q],
) -> (ServerLayers, Answered) {
    let queries: Vec<&[u8]> = queries.iter().map(AsRef::as_ref).collect();
    let queries = &queries[..];
    let decoded: Vec<Message> = queries
        .iter()
        .map(|q| Message::decode(q).expect("generated queries decode"))
        .collect();
    let keys: Vec<(Name, RType)> = decoded
        .iter()
        .map(|m| {
            let q = m.question().expect("generated queries carry a question");
            (q.qname.clone(), q.qtype)
        })
        .collect();
    let mut engine = AnswerEngine::with_shared_zones(site, Arc::clone(zones));
    let mut buf = Vec::with_capacity(1024);
    let responses: Vec<Message> = queries
        .iter()
        .map(|q| {
            engine.handle_packet(q, TransportKind::Udp, &mut buf);
            Message::decode(&buf).expect("engine responses decode")
        })
        .collect();
    let zone = &zones[0];

    let decode_ns = per_call_ns(queries.len(), || {
        for q in queries {
            black_box(Message::decode(black_box(q)).ok());
        }
    });
    let handle_ns = per_call_ns(queries.len(), || {
        for q in queries {
            black_box(engine.handle_packet(black_box(q), TransportKind::Udp, &mut buf));
        }
    });
    let encode_ns = per_call_ns(responses.len(), || {
        for r in &responses {
            black_box(r.encode_into(&mut buf).ok());
        }
    });
    let lookup_ns = per_call_ns(keys.len(), || {
        for (name, rtype) in &keys {
            black_box(zone.lookup(black_box(name), *rtype));
        }
    });
    let layers = ServerLayers {
        decode_ns,
        encode_ns,
        lookup_ns,
        engine_self_ns: (handle_ns - decode_ns - encode_ns).max(0.0),
    };
    (layers, Answered { keys, responses })
}

/// Record-cache cost per operation and memory per entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheLayers {
    pub miss_ns: f64,
    pub insert_ns: f64,
    pub hit_ns: f64,
    pub bytes_per_entry: f64,
    /// Share of the stream a cache in front of the server would answer:
    /// lookups of a key seen before.
    pub repeat_ratio: f64,
}

/// Replays a stream's questions and answers through a [`RecordCache`]:
/// misses on an empty cache, then one insert per distinct question, then
/// hits on every one of them.
pub fn replay_cache(answered: &Answered) -> CacheLayers {
    let mut seen = std::collections::HashSet::new();
    let mut entries: Vec<(Name, RType, Vec<Record>, Rcode)> = Vec::new();
    for ((name, rtype), resp) in answered.keys.iter().zip(&answered.responses) {
        if seen.insert((name.clone(), *rtype)) {
            entries.push((name.clone(), *rtype, resp.answers.clone(), resp.rcode()));
        }
    }
    let now = CacheTime::from_micros(1_000_000);
    let n = entries.len();
    let mut cache = RecordCache::new();
    let miss_ns = per_call_ns(n, || {
        for (name, rtype, _, _) in &entries {
            black_box(cache.get(name, *rtype, now));
        }
    });
    let mut inserts: Vec<f64> = Vec::new();
    let mut bytes = 0i64;
    for _ in 0..REPS {
        let batch = entries.clone();
        cache = RecordCache::new();
        let (elapsed, grew) = heap_growth(|| {
            let t = Instant::now();
            for (name, rtype, answers, rcode) in batch {
                cache.insert(name, rtype, answers, rcode, 300, now);
            }
            t.elapsed()
        });
        inserts.push(elapsed.as_nanos() as f64 / n.max(1) as f64);
        bytes = grew;
    }
    let hit_ns = per_call_ns(n, || {
        for (name, rtype, _, _) in &entries {
            black_box(cache.get(name, *rtype, now));
        }
    });
    CacheLayers {
        miss_ns,
        insert_ns: median(&inserts),
        hit_ns,
        bytes_per_entry: bytes as f64 / n.max(1) as f64,
        repeat_ratio: 1.0 - n as f64 / answered.keys.len().max(1) as f64,
    }
}

/// Server-selection cost per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolverLayers {
    pub select_ns: f64,
    pub observe_ns: f64,
}

/// Replays `selections` server choices among two authoritatives, one
/// per entry of `policies` (cycled), each followed later by an RTT
/// observation, as a recursive makes them for every query it sends.
pub fn replay_resolver(policies: &[PolicyKind], selections: usize, seed: u64) -> ResolverLayers {
    let tokens = [
        SimAddr::from_ipv4(std::net::Ipv4Addr::new(10, 0, 0, 1)).expect("10.x encodes"),
        SimAddr::from_ipv4(std::net::Ipv4Addr::new(10, 0, 0, 2)).expect("10.x encodes"),
    ];
    let mut states: Vec<_> = policies
        .iter()
        .map(|k| {
            (
                k.build(),
                InfraCache::new(k.default_infra_expiry(), k.smoothing()),
            )
        })
        .collect();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut picks = vec![tokens[0]; selections];
    // Simulated time only moves forward, across repetitions too.
    let mut clock_us = 0u64;
    let select_ns = per_call_ns(selections, || {
        for (i, pick) in picks.iter_mut().enumerate() {
            let (policy, infra) = &mut states[i % policies.len()];
            clock_us += 1_000;
            *pick = policy.select(
                &tokens,
                &[],
                infra,
                SimTime::from_micros(clock_us),
                &mut rng,
            );
        }
    });
    let observe_ns = per_call_ns(selections, || {
        for (i, pick) in picks.iter().enumerate() {
            let (_, infra) = &mut states[i % policies.len()];
            clock_us += 1_000;
            let rtt = SimDuration::from_micros(20_000 + (i as u64 * 7_919) % 180_000);
            infra.observe_rtt(*pick, rtt, SimTime::from_micros(clock_us));
        }
    });
    ResolverLayers {
        select_ns,
        observe_ns,
    }
}
