//! `resolve-warm`: the caching resolver client against two sites of
//! the TLD zone. Each cycle makes [`PASSES`] passes over the same
//! [`NAMES`] names through one shared cache: the first pass misses and
//! inserts every name, the rest hit every one, for an 89% hit ratio.
//! Nine passes rather than ten put the 90th percentile of transaction
//! time inside the cold pass instead of on the edge between the two.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use dnswild_metrics::Registry;
use dnswild_netio::{resolve, CacheConfig, ResolveConfig, SharedCache, DRAIN_WINDOW};
use dnswild_proto::Name;
use dnswild_resolver::PolicyKind;

use dnswild_zone::Zone;

use crate::layers;
use crate::procfs;
use crate::report::Outcome;
use crate::serving::{self, Delta, Served, Snapshot};
use crate::sim;
use crate::stats::{median, percentile, relative_spread};
use crate::streams::{CHILDREN, ORIGIN};
use crate::wire::{encode_query, TYPE_TXT};

/// Names per pass.
pub const NAMES: u64 = 50_000;
/// Passes per cycle: one cold, the rest warm.
pub const PASSES: usize = 9;
/// About how many seconds one cycle and its set-up take here. A run
/// makes `seconds / CYCLE_S` cycles, at least one: a fixed count, so the
/// nearest-rank p90 over pass times (the fastest cold pass) is always
/// taken over the same number of cold passes.
const CYCLE_S: u64 = 6;
/// Wildcard TTL, long enough that no entry expires within a cycle.
const TTL: u32 = 3_600;
const SITES: [&str; 2] = ["FRA", "GRU"];
/// Names replayed through the layers in a traced run.
const REPLAY: usize = 20_000;

/// What a set of cycles measured.
#[derive(Debug, Default)]
struct Cycles {
    /// Mean transaction time of each pass, µs (drain window excluded).
    pass_txn_us: Vec<f64>,
    miss_txn_us: Vec<f64>,
    hit_txn_us: Vec<f64>,
    txns: u64,
    /// Each cycle's transactions per busy second, shard CPU per server
    /// query and process CPU per transaction (µs).
    cycle_ops_per_s: Vec<f64>,
    cycle_server_cpu_us: Vec<f64>,
    cycle_cpu_us: Vec<f64>,
    miss_attempts: u64,
    cache_hits: u64,
    cache_misses: u64,
    delta: Delta,
    /// Process CPU seconds of each timed set-up.
    setup_s: Vec<f64>,
    bytes_per_rrset: f64,
}

/// One cycle against `served`: [`PASSES`] passes over the same names
/// through a fresh shared cache, every pass checked against its books.
fn cycle(
    served: &Served,
    seed: u64,
    registry: Option<&Arc<Registry>>,
    c: &mut Cycles,
    out: &mut Outcome,
) -> io::Result<()> {
    let servers: Vec<SocketAddr> = served.handles.iter().map(|h| h.local_addr()).collect();
    let origin = Name::parse(ORIGIN).expect("static origin");
    let before = Snapshot::take(served);
    let cache = SharedCache::new(CacheConfig::default());
    let mut miss_attempts = 0;
    let mut busy_s = 0.0;
    for pass in 0..PASSES {
        let mut cfg = ResolveConfig::new(servers.clone(), origin.clone())
            .concurrency(1)
            .transactions(NAMES)
            .cache(Arc::clone(&cache));
        cfg.seed = seed;
        if let Some(r) = registry {
            cfg = cfg.metrics(Arc::clone(r));
        }
        let report = resolve(cfg)?;
        let s = report.stats;
        let busy = report.elapsed.saturating_sub(DRAIN_WINDOW).as_secs_f64();
        let txn_us = busy * 1e6 / NAMES as f64;
        let want_hits = if pass == 0 { 0 } else { NAMES };
        let ok = s.check().is_ok()
            && s.servfails == 0
            && s.answered == NAMES
            && s.transactions == NAMES
            && s.cache_hits == want_hits;
        if !ok {
            eprintln!(
                "perfbench: resolve pass {pass} failed its books: {}",
                s.render()
            );
            out.failed += NAMES;
        }
        out.attempted += NAMES;
        c.txns += NAMES;
        busy_s += busy;
        c.pass_txn_us.push(txn_us);
        if pass == 0 {
            c.miss_txn_us.push(txn_us);
            miss_attempts += s.attempts;
        } else {
            c.hit_txn_us.push(txn_us);
        }
    }
    let cs = cache.stats();
    c.cache_hits += cs.hits;
    c.cache_misses += cs.misses;
    c.miss_attempts += miss_attempts;
    let delta = Delta::between(&before, &Snapshot::take(served));
    // Only the cold pass reaches the servers: each of its UDP attempts,
    // retries included, is one query the servers must count.
    if delta.queries != miss_attempts || delta.server_drops != 0 {
        eprintln!(
            "perfbench: servers counted {} queries for {} cold-pass attempts",
            delta.queries, miss_attempts
        );
        out.books_ok = false;
    }
    c.delta.add(&delta);
    let txns = NAMES * PASSES as u64;
    c.cycle_ops_per_s.push(txns as f64 / busy_s);
    c.cycle_server_cpu_us.push(delta.server_cpu_us_per_query());
    c.cycle_cpu_us
        .push(delta.process_cpu_us as f64 / txns as f64);
    Ok(())
}

fn log_cycles(c: &Cycles) {
    eprintln!(
        "cycles: pass txn us {:?} server {:.2}us/q",
        c.pass_txn_us
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        c.delta.server_cpu_us_per_query()
    );
}

/// `count` cycles, each after its own timed set-up of a fresh zone and
/// plane. Returns them with the last zone.
fn plain_cycles(
    seed: u64,
    count: u64,
    count_heap: bool,
    out: &mut Outcome,
) -> io::Result<(Cycles, Arc<Vec<Zone>>)> {
    let mut c = Cycles::default();
    let mut zones = None;
    for n in 0..count {
        let setup = serving::timed_setup(CHILDREN, TTL, &SITES, count_heap && n == 0);
        c.setup_s.push(setup.seconds);
        if let Some(b) = setup.bytes_per_rrset {
            c.bytes_per_rrset = b;
        }
        cycle(&setup.served, seed ^ n, None, &mut c, out)?;
        // Only the last zone is kept: an earlier one alive beside the
        // next build would count twice in the peak RSS.
        if n + 1 == count {
            zones = Some(Arc::clone(&setup.served.zones));
        }
        setup.served.shutdown();
    }
    log_cycles(&c);
    eprintln!(
        "setups: {:?} s, spread {:.3}",
        c.setup_s,
        relative_spread(&c.setup_s)
    );
    Ok((c, zones.expect("at least one cycle runs")))
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> io::Result<Outcome> {
    let mut out = Outcome::new();
    let count = (seconds / if traced { 2 } else { 1 } / CYCLE_S).max(1);
    let (plain, zones) = plain_cycles(seed, count, traced, &mut out)?;
    let d = plain.delta;
    let cpu_per_op = d.process_cpu_us as f64 / plain.txns as f64;
    if !traced {
        out.set("setup_s", median(&plain.setup_s));
        out.set("ops_per_s", median(&plain.cycle_ops_per_s));
        out.set("p50_us", percentile(&plain.pass_txn_us, 0.5));
        out.set("p90_us", percentile(&plain.pass_txn_us, 0.9));
        out.set(
            "answered_pct",
            100.0 * (out.attempted - out.failed) as f64 / out.attempted as f64,
        );
        out.set(
            "server_cpu_us_per_query",
            median(&plain.cycle_server_cpu_us),
        );
        out.set("cpu_us_per_op", median(&plain.cycle_cpu_us));
        out.set("rss_mb", procfs::peak_rss_kib() as f64 / 1024.0);
        return Ok(out);
    }

    let registry = Arc::new(Registry::new());
    let metered = serving::serve_sites(&zones, &SITES, Some(&registry));
    let stages_before = serving::stage_totals(&registry);
    let mut metered_cycles = Cycles::default();
    for n in 0..count {
        cycle(
            &metered,
            seed ^ n,
            Some(&registry),
            &mut metered_cycles,
            &mut out,
        )?;
    }
    log_cycles(&metered_cycles);
    let stages_after = serving::stage_totals(&registry);
    metered.shutdown();
    let metered_cpu_per_op =
        metered_cycles.delta.process_cpu_us as f64 / metered_cycles.txns as f64;

    // The names the client asks, as it encodes them.
    let wires: Vec<Vec<u8>> = (0..REPLAY as u64)
        .map(|t| encode_query(t as u16, &format!("c0-t{t}.{ORIGIN}"), TYPE_TXT))
        .collect();
    let (server, answered) = layers::replay_server(&zones, SITES[0], &wires);
    let cache = layers::replay_cache(&answered);
    let resolver = layers::replay_resolver(&[PolicyKind::BindSrtt], REPLAY, seed);

    out.set("proto.decode_ns", server.decode_ns);
    out.set("proto.encode_ns", server.encode_ns);
    out.set("zone.lookup_ns", server.lookup_ns);
    out.set("zone.bytes_per_rrset", plain.bytes_per_rrset);
    out.set("server.engine_self_ns", server.engine_self_ns);
    out.set("netio.queries_per_wakeup", d.queries_per_wakeup());
    out.set("netio.runq_wait_us_per_query", d.runq_wait_us_per_query());
    out.set("netio.kernel_drops", d.server_drops as f64);
    serving::set_stage_means(&mut out, &stages_before, &stages_after);
    out.set(
        "metrics.overhead_pct",
        100.0 * (metered_cpu_per_op / cpu_per_op - 1.0),
    );
    out.set("client.miss_txn_us", median(&plain.miss_txn_us));
    out.set(
        "client.attempts_per_miss",
        plain.miss_attempts as f64 / (plain.txns / PASSES as u64) as f64,
    );
    out.set("client.hit_txn_us", median(&plain.hit_txn_us));
    out.set("cache.hit_ns", cache.hit_ns);
    out.set("cache.insert_ns", cache.insert_ns);
    out.set("cache.miss_ns", cache.miss_ns);
    out.set(
        "cache.hit_ratio",
        plain.cache_hits as f64 / (plain.cache_hits + plain.cache_misses).max(1) as f64,
    );
    out.set("cache.bytes_per_entry", cache.bytes_per_entry);
    out.set("resolver.select_ns", resolver.select_ns);
    out.set("resolver.observe_ns", resolver.observe_ns);
    for name in ["load.late_p99_us", "load.p99_us"] {
        out.set(name, 0.0);
    }
    // The simulator exercises the same resolver and cache crates, in
    // simulated time; its own layers are measured here.
    sim::measure_layers(seed, &mut out);
    Ok(out)
}
