//! What every socket workload shares: timed set-up of a zone plus its
//! serving plane, and the counters read from outside the server around
//! a measured phase.

use std::sync::Arc;
use std::time::Duration;

use dnswild_metrics::Registry;
use dnswild_netio::{serve, ServeConfig, ServeHandle};
use dnswild_server::ServerStats;
use dnswild_zone::Zone;

use crate::procfs::{self, ThreadCounters};
use crate::report::Outcome;
use crate::streams::tld_zone;
use crate::sys::{heap_growth, process_cpu_ns};

/// Shard threads are named `netio-shard-<i>` by the serving plane.
const SHARD_PREFIX: &str = "netio-shard-";
/// Lets shards fold their last batch into the stats cells before a read.
const SETTLE: Duration = Duration::from_millis(30);

/// A zone set plus the sites serving it.
pub struct Served {
    pub zones: Arc<Vec<Zone>>,
    pub handles: Vec<ServeHandle>,
}

impl Served {
    pub fn shutdown(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}

/// Serves `zones` at each of `sites`, one shard each (one generator
/// socket, and reuseport sends each 4-tuple to a single shard).
pub fn serve_sites(
    zones: &Arc<Vec<Zone>>,
    sites: &[&str],
    registry: Option<&Arc<Registry>>,
) -> Served {
    let handles = sites
        .iter()
        .map(|site| {
            let mut cfg = ServeConfig::new("127.0.0.1:0", *site, Arc::clone(zones)).threads(1);
            if let Some(r) = registry {
                cfg = cfg.metrics(Arc::clone(r));
            }
            serve(cfg).expect("bind a loopback serving plane")
        })
        .collect();
    Served {
        zones: Arc::clone(zones),
        handles,
    }
}

/// One timed set-up: the zone build plus `serve`.
pub struct Setup {
    pub served: Served,
    /// Process CPU seconds the set-up took.
    pub seconds: f64,
    /// Net heap bytes per RRset of the zone, when counted.
    pub bytes_per_rrset: Option<f64>,
}

/// Builds the zone and serves it at `sites`, timing both by the process
/// CPU clock: nothing else in the process is busy during a set-up, so
/// it reads close to wall time but leaves out any wait for a CPU. With
/// `count_heap` the build's heap growth is measured; untraced runs leave
/// it off, so their timings carry no counting.
pub fn timed_setup(children: u64, probe_ttl: u32, sites: &[&str], count_heap: bool) -> Setup {
    let t = process_cpu_ns();
    let (zone, bytes_per_rrset) = if count_heap {
        let (zone, grew) = heap_growth(|| tld_zone(children, probe_ttl));
        let per = grew as f64 / zone.rrset_count() as f64;
        (zone, Some(per))
    } else {
        (tld_zone(children, probe_ttl), None)
    };
    let served = serve_sites(&Arc::new(vec![zone]), sites, None);
    Setup {
        served,
        seconds: (process_cpu_ns() - t) as f64 / 1e9,
        bytes_per_rrset,
    }
}

/// Server-side counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub stats: ServerStats,
    pub shards: ThreadCounters,
    pub drops: u64,
    pub process_cpu_us: u64,
}

impl Snapshot {
    pub fn take(served: &Served) -> Snapshot {
        std::thread::sleep(SETTLE);
        let tids = procfs::thread_ids(SHARD_PREFIX);
        Snapshot {
            stats: served.handles.iter().map(ServeHandle::stats).sum(),
            shards: procfs::thread_counters(&tids),
            drops: served
                .handles
                .iter()
                .map(|h| procfs::udp_drops(h.local_addr().port()))
                .sum(),
            process_cpu_us: process_cpu_ns() / 1_000,
        }
    }
}

/// Counter growth over a measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    pub queries: u64,
    pub answers: u64,
    pub referrals: u64,
    pub nxdomain: u64,
    pub nodata: u64,
    pub shards: ThreadCounters,
    pub server_drops: u64,
    pub process_cpu_us: u64,
}

impl Delta {
    pub fn between(a: &Snapshot, b: &Snapshot) -> Delta {
        Delta {
            queries: b.stats.queries - a.stats.queries,
            answers: b.stats.answers - a.stats.answers,
            referrals: b.stats.referrals - a.stats.referrals,
            nxdomain: b.stats.nxdomain - a.stats.nxdomain,
            nodata: b.stats.nodata - a.stats.nodata,
            shards: b.shards.since(&a.shards),
            server_drops: b.drops - a.drops,
            process_cpu_us: b.process_cpu_us - a.process_cpu_us,
        }
    }

    /// Adds `other`'s growth to this one's.
    pub fn add(&mut self, other: &Delta) {
        self.queries += other.queries;
        self.answers += other.answers;
        self.referrals += other.referrals;
        self.nxdomain += other.nxdomain;
        self.nodata += other.nodata;
        self.shards = self.shards.plus(&other.shards);
        self.server_drops += other.server_drops;
        self.process_cpu_us += other.process_cpu_us;
    }

    /// Shard on-CPU time per query the servers counted.
    pub fn server_cpu_us_per_query(&self) -> f64 {
        self.shards.sched.run_ns as f64 / 1e3 / self.queries.max(1) as f64
    }

    /// Queries handled per shard wake-up.
    pub fn queries_per_wakeup(&self) -> f64 {
        self.queries as f64 / self.shards.voluntary.max(1) as f64
    }

    /// Run-queue wait of the shards per query.
    pub fn runq_wait_us_per_query(&self) -> f64 {
        self.shards.sched.wait_ns as f64 / 1e3 / self.queries.max(1) as f64
    }
}

/// `(stage, sum ns, records)` of each UDP serving stage, read from the
/// registry's `dnswild_stage_ns` histograms.
pub type StageTotals = Vec<(String, u64, u64)>;

pub fn stage_totals(registry: &Registry) -> StageTotals {
    registry
        .histograms("dnswild_stage_ns")
        .into_iter()
        .filter(|(labels, _)| labels.len() == 1 && labels[0].0 == "stage")
        .map(|(labels, h)| (labels[0].1.clone(), h.sum(), h.count()))
        .collect()
}

/// Sets `netio.stage_<stage>_ns` to each stage's mean nanoseconds per
/// record between two readings.
pub fn set_stage_means(out: &mut Outcome, before: &StageTotals, after: &StageTotals) {
    for (name, stage) in [
        ("netio.stage_recv_ns", "recv"),
        ("netio.stage_decode_ns", "decode"),
        ("netio.stage_engine_ns", "engine"),
        ("netio.stage_encode_ns", "encode"),
        ("netio.stage_send_ns", "send"),
    ] {
        let find = |t: &StageTotals| {
            t.iter()
                .find(|(s, _, _)| s == stage)
                .map_or((0, 0), |&(_, s, c)| (s, c))
        };
        let ((s0, c0), (s1, c1)) = (find(before), find(after));
        out.set(name, (s1 - s0) as f64 / (c1 - c0).max(1) as f64);
    }
}
