//! `auth-tld` and `auth-probe`: one authoritative shard serving the
//! TLD-sized zone to an open-loop generator at a fixed mean rate.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use dnswild_metrics::Registry;
use dnswild_resolver::PolicyKind;
use dnswild_zone::presets::PROBE_TTL;
use dnswild_zone::Zone;

use crate::layers;
use crate::openloop::{self, Pass};
use crate::procfs;
use crate::report::Outcome;
use crate::schedule::Schedule;
use crate::serving::{self, Delta, Served, Snapshot};
use crate::stats::{median, percentile, relative_spread};
use crate::streams::{self, Kind, Stream, CHILDREN, SITE};

/// Mean offered load of `auth-tld`. Referrals cost the shard 25-40 µs
/// each here, so 20k qps would run it 50-80% busy, and a slow spell on
/// a shared host then tips it into a growing queue; 10k keeps it a
/// third busy or less.
pub const TLD_RATE_QPS: u64 = 10_000;
/// Mean offered load of `auth-probe`.
pub const PROBE_RATE_QPS: u64 = 20_000;
/// Queries per back-to-back burst on `auth-probe`.
pub const PROBE_BURST: u64 = 32;
/// Unmeasured load before each measured phase.
const WARMUP: Duration = Duration::from_millis(500);
/// Queries replayed through the layers in a traced run.
const REPLAY: usize = 20_000;

/// Set-up and measurement alternate this many times per run, so the
/// set-ups sample the whole run rather than its first seconds.
const SEGMENTS: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Tld,
    Probe,
}

impl Mix {
    fn schedule(self) -> Schedule {
        match self {
            Mix::Tld => Schedule::new(TLD_RATE_QPS, 1),
            Mix::Probe => Schedule::new(PROBE_RATE_QPS, PROBE_BURST),
        }
    }

    fn stream(self, seed: u64, count: u64) -> Stream {
        match self {
            Mix::Tld => streams::tld_stream(seed, count, CHILDREN),
            Mix::Probe => streams::probe_stream(seed, count),
        }
    }
}

/// The seed of segment `segment`'s stream; segment 0 uses the run's.
fn segment_seed(seed: u64, segment: u64) -> u64 {
    seed ^ segment.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One measured phase: the generator's view and the server's books.
struct Phase {
    pass: Pass,
    delta: Delta,
}

fn measure(
    served: &Served,
    mix: Mix,
    warm: &Stream,
    main: &Stream,
    out: &mut Outcome,
) -> io::Result<Phase> {
    let addr = served.handles[0].local_addr();
    openloop::run(addr, warm, mix.schedule())?;
    let before = Snapshot::take(served);
    let pass = openloop::run(addr, main, mix.schedule())?;
    let after = Snapshot::take(served);
    let delta = Delta::between(&before, &after);
    let drops = delta.server_drops + pass.client_drops;

    // A datagram the kernel dropped from a full socket queue is load
    // shed, counted by the kernel: it is loss (it lowers answered_pct)
    // but not a wrong output. A loss the drop counters do not explain
    // is a failure, as is every wrong answer.
    out.attempted += pass.sent;
    out.failed += pass.wrong + pass.lost.saturating_sub(drops);
    // Every query the kernel delivered reached the engine, and each
    // answer kind the engine counted matches what was sent.
    let delivered = pass.sent - delta.server_drops;
    let mut books = pass.strays == 0 && delta.queries == delivered;
    if delta.server_drops == 0 {
        books &= delta.referrals == main.count(Kind::Referral)
            && delta.nxdomain == main.count(Kind::NxDomain)
            && delta.nodata == main.count(Kind::NoData)
            && delta.answers
                == main.count(Kind::ApexSoa)
                    + main.count(Kind::ApexNs)
                    + main.count(Kind::ProbeTxt);
    }
    if !books {
        eprintln!(
            "perfbench: server books do not balance: sent {} drops {} counted {:?} strays {}",
            pass.sent, delta.server_drops, delta, pass.strays
        );
    }
    out.books_ok &= books;
    eprintln!(
        "phase: sent {} correct {} wrong {} lost {} drops {}+{} late_p99 {:.1}us p50 {:.1}us server {:.2}us/q",
        pass.sent,
        pass.correct,
        pass.wrong,
        pass.lost,
        delta.server_drops,
        pass.client_drops,
        percentile(&pass.lateness_us, 0.99),
        latency(&pass, 0.5),
        delta.server_cpu_us_per_query(),
    );
    Ok(Phase { pass, delta })
}

fn latency(pass: &Pass, p: f64) -> f64 {
    if pass.latency_us.is_empty() {
        0.0
    } else {
        percentile(&pass.latency_us, p)
    }
}

/// The plain (unmetered) segments of a run, folded together.
struct Plain {
    /// The segments' counts; their per-query samples are not kept.
    pass: Pass,
    delta: Delta,
    /// Each segment's latency percentiles and generator lateness, µs.
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    p99_us: Vec<f64>,
    late_p99_us: Vec<f64>,
    /// Each segment's shard and process CPU per query, µs.
    server_cpu_us: Vec<f64>,
    cpu_us: Vec<f64>,
    setup_s: Vec<f64>,
    bytes_per_rrset: f64,
    /// The last segment's zone, kept for the traced run's replays.
    zones: Arc<Vec<Zone>>,
}

/// Alternates [`SEGMENTS`] timed set-ups with measured phases of
/// `measured_ns` in all. Each set-up builds a fresh zone and plane, and
/// each phase sends its own seeded stream, built before the set-up.
fn segments(
    mix: Mix,
    seed: u64,
    measured_ns: u64,
    count_heap: bool,
    out: &mut Outcome,
) -> io::Result<Plain> {
    let schedule = mix.schedule();
    let warm_n = schedule.count_within(WARMUP.as_nanos() as u64);
    let main_n = schedule.count_within(measured_ns / SEGMENTS);
    let mut pass = Pass::default();
    let mut delta = Delta::default();
    let mut setup_s = Vec::new();
    let (mut p50_us, mut p90_us, mut p99_us, mut late_p99_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut server_cpu_us, mut cpu_us) = (Vec::new(), Vec::new());
    let mut bytes_per_rrset = 0.0;
    let mut zones = None;
    for segment in 0..SEGMENTS {
        let warm = mix.stream(segment_seed(seed ^ 0x5741_524d, segment), warm_n);
        let main = mix.stream(segment_seed(seed, segment), main_n);
        let setup = serving::timed_setup(CHILDREN, PROBE_TTL, &[SITE], count_heap && segment == 0);
        setup_s.push(setup.seconds);
        if let Some(b) = setup.bytes_per_rrset {
            bytes_per_rrset = b;
        }
        let phase = measure(&setup.served, mix, &warm, &main, out)?;
        p50_us.push(latency(&phase.pass, 0.5));
        p90_us.push(latency(&phase.pass, 0.9));
        p99_us.push(latency(&phase.pass, 0.99));
        late_p99_us.push(percentile(&phase.pass.lateness_us, 0.99));
        server_cpu_us.push(phase.delta.server_cpu_us_per_query());
        cpu_us.push(phase.delta.process_cpu_us as f64 / phase.pass.sent as f64);
        pass.add_counts(&phase.pass);
        delta.add(&phase.delta);
        if segment + 1 == SEGMENTS {
            zones = Some(Arc::clone(&setup.served.zones));
        }
        setup.served.shutdown();
    }
    eprintln!(
        "setups: {setup_s:?} s, spread {:.3}",
        relative_spread(&setup_s)
    );
    Ok(Plain {
        pass,
        delta,
        p50_us,
        p90_us,
        p99_us,
        late_p99_us,
        server_cpu_us,
        cpu_us,
        setup_s,
        bytes_per_rrset,
        zones: zones.expect("at least one segment"),
    })
}

pub fn run(mix: Mix, seed: u64, seconds: u64, traced: bool) -> io::Result<Outcome> {
    let mut out = Outcome::new();
    let measured_ns = seconds * 1_000_000_000 / if traced { 2 } else { 1 };
    let plain = segments(mix, seed, measured_ns, traced, &mut out)?;
    let p = &plain.pass;
    let d = &plain.delta;
    if !traced {
        out.set("setup_s", median(&plain.setup_s));
        // The delivered rate of a fixed schedule: it falls only on loss,
        // which answered_pct already shows, so it carries no capacity
        // signal here; server_cpu_us_per_query is the capacity figure.
        out.set("ops_per_s", p.correct as f64 / p.span.as_secs_f64());
        out.set("p50_us", median(&plain.p50_us));
        out.set("p90_us", median(&plain.p90_us));
        out.set("answered_pct", 100.0 * p.correct as f64 / p.sent as f64);
        out.set("server_cpu_us_per_query", median(&plain.server_cpu_us));
        out.set("cpu_us_per_op", median(&plain.cpu_us));
        out.set("rss_mb", procfs::peak_rss_kib() as f64 / 1024.0);
        return Ok(out);
    }

    // Traced: the same load again on a plane with a metrics registry
    // attached, so the stage histograms fill.
    let zones = Arc::clone(&plain.zones);
    let registry = Arc::new(Registry::new());
    let metered = serving::serve_sites(&zones, &[SITE], Some(&registry));
    let stages_before = serving::stage_totals(&registry);
    let schedule = mix.schedule();
    let warm = mix.stream(
        seed ^ 0x5741_524d,
        schedule.count_within(WARMUP.as_nanos() as u64),
    );
    let main = mix.stream(seed ^ 0x5452_4143, schedule.count_within(measured_ns));
    let traced_phase = measure(&metered, mix, &warm, &main, &mut out)?;
    let stages_after = serving::stage_totals(&registry);
    metered.shutdown();

    let wires: Vec<&[u8]> = (0..main.len().min(REPLAY)).map(|i| main.wire(i)).collect();
    let (server, answered) = layers::replay_server(&zones, SITE, &wires);
    let cache = layers::replay_cache(&answered);
    let resolver = layers::replay_resolver(&[PolicyKind::BindSrtt], REPLAY, seed);

    out.set("proto.decode_ns", server.decode_ns);
    out.set("proto.encode_ns", server.encode_ns);
    out.set("zone.lookup_ns", server.lookup_ns);
    out.set("zone.bytes_per_rrset", plain.bytes_per_rrset);
    out.set("server.engine_self_ns", server.engine_self_ns);
    out.set("netio.queries_per_wakeup", d.queries_per_wakeup());
    out.set("netio.runq_wait_us_per_query", d.runq_wait_us_per_query());
    out.set(
        "netio.kernel_drops",
        (d.server_drops + p.client_drops) as f64,
    );
    serving::set_stage_means(&mut out, &stages_before, &stages_after);
    let untraced_cost = d.server_cpu_us_per_query();
    let traced_cost = traced_phase.delta.server_cpu_us_per_query();
    out.set(
        "metrics.overhead_pct",
        100.0 * (traced_cost / untraced_cost - 1.0),
    );
    for name in [
        "client.miss_txn_us",
        "client.attempts_per_miss",
        "client.hit_txn_us",
    ] {
        out.set(name, 0.0);
    }
    out.set("cache.hit_ns", cache.hit_ns);
    out.set("cache.insert_ns", cache.insert_ns);
    out.set("cache.miss_ns", cache.miss_ns);
    out.set("cache.hit_ratio", cache.repeat_ratio);
    out.set("cache.bytes_per_entry", cache.bytes_per_entry);
    out.set("resolver.select_ns", resolver.select_ns);
    out.set("resolver.observe_ns", resolver.observe_ns);
    for name in [
        "atlas.build_ms",
        "netsim.residual_us_per_probe",
        "analysis.figures_ms",
    ] {
        out.set(name, 0.0);
    }
    out.set("load.late_p99_us", median(&plain.late_p99_us));
    out.set("load.p99_us", median(&plain.p99_us));
    Ok(out)
}
