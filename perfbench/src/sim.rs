//! The simulator's layers: the paper's measurement run in the simulator
//! — population and topology build, every probe through wire coding,
//! resolver, cache, engine and the event engine, then the Figure 3
//! share and the §4.3 preference analysis. No kernel is involved.
//!
//! These are per-layer figures only, measured in the `resolve-warm`
//! traced run. A simulator workload with end-to-end bounds was tried and
//! dropped: on a shared host its CPU-bound timings drift by more than a
//! quarter between runs (see README.md).

use std::sync::Arc;

use dnswild::{Experiment, StandardConfig};
use dnswild_analysis::{preference, query_share};
use dnswild_atlas::MeasurementResult;
use dnswild_proto::Name;
use dnswild_zone::presets::test_domain_zone;

use crate::layers;
use crate::report::Outcome;
use crate::stats::median;
use crate::streams::ORIGIN;
use crate::sys::thread_cpu_ns;
use crate::wire::{encode_query, TYPE_TXT};

/// Two authoritatives far apart (Frankfurt, Sydney): the preference
/// analysis is defined for two-NS configurations.
const CONFIG: StandardConfig = StandardConfig::C2C;
/// Vantage points per experiment.
pub const VPS: usize = 2_000;
/// Probe rounds per vantage point, at the standard 2-minute interval.
pub const ROUNDS: u32 = 8;
/// Experiments per measurement; each repeats the first one's seed.
const EXPERIMENTS: usize = 3;

fn experiment(seed: u64, rounds: u32) -> Experiment {
    Experiment::standard(CONFIG, seed)
        .vantage_points(VPS)
        .rounds(rounds)
}

/// The queries the authoritatives answered: one iterative TXT query per
/// successful probe, named as the vantage points name them.
fn probe_queries(result: &MeasurementResult) -> Vec<Vec<u8>> {
    result
        .vps
        .iter()
        .flat_map(|vp| {
            vp.probes.iter().map(move |p| {
                encode_query(
                    p.round as u16,
                    &format!("v{}-r{}.{ORIGIN}", vp.index, p.round),
                    TYPE_TXT,
                )
            })
        })
        .collect()
}

/// CPU seconds of this thread since `t0` (a [`thread_cpu_ns`] reading).
/// The simulator runs on the calling thread alone.
fn cpu_s_since(t0: u64) -> f64 {
    (thread_cpu_ns() - t0) as f64 / 1e9
}

/// One experiment: the zero-round build, the measured run and its
/// analysis, each timed by the thread's CPU clock.
struct Run {
    build_s: f64,
    sim_s: f64,
    figures_s: f64,
    probes: u64,
    digest: String,
}

fn iteration(seed: u64) -> (Run, MeasurementResult) {
    // The same experiment with zero rounds builds the population and
    // topology and runs an empty schedule.
    let t = thread_cpu_ns();
    std::hint::black_box(experiment(seed, 0).run());
    let build_s = cpu_s_since(t);
    let t = thread_cpu_ns();
    let report = experiment(seed, ROUNDS).run();
    let sim_s = cpu_s_since(t);
    let t = thread_cpu_ns();
    let shares = query_share(&report.result);
    let pref = preference(&report.result);
    let figures_s = cpu_s_since(t);
    let digest = format!(
        "{shares:?} {:?} {} {} {}",
        pref.table,
        pref.weak_pct,
        pref.strong_pct,
        pref.vps.len()
    );
    let probes = report.result.probe_count() as u64;
    (
        Run {
            build_s,
            sim_s,
            figures_s,
            probes,
            digest,
        },
        report.result,
    )
}

fn med(runs: &[Run], f: impl Fn(&Run) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// Runs [`EXPERIMENTS`] experiments of one seed and sets the
/// simulator's per-layer metrics: `atlas.build_ms`,
/// `netsim.residual_us_per_probe` and `analysis.figures_ms`. Each
/// experiment's probes count as attempted; every probe of an experiment
/// whose tables differ from the first one's counts as failed.
pub fn measure_layers(seed: u64, out: &mut Outcome) {
    let (runs, results): (Vec<Run>, Vec<MeasurementResult>) =
        (0..EXPERIMENTS).map(|_| iteration(seed)).unzip();
    for r in &runs {
        out.attempted += r.probes;
        if r.digest != runs[0].digest || r.probes != runs[0].probes {
            eprintln!("perfbench: experiment tables differ between runs of one seed");
            out.failed += r.probes;
        }
    }
    let result = &results[0];
    let shares = query_share(result);
    if shares.len() != 2 || shares.iter().any(|s| !(s.share > 0.0 && s.share < 1.0)) {
        eprintln!("perfbench: implausible query share {shares:?}");
        out.books_ok = false;
    }

    let queries = probe_queries(result);
    let origin = Name::parse(ORIGIN).expect("static origin");
    let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
    let (server, answered) = layers::replay_server(&zones, "FRA@FRA", &queries);
    let cache = layers::replay_cache(&answered);
    let policies: Vec<_> = result.vps.iter().map(|vp| vp.policy).collect();
    let resolver = layers::replay_resolver(&policies, queries.len(), seed);

    // Per probe: the stub's query and the recursive's query and both
    // responses are each encoded once and decoded once; the recursive
    // misses its cache, inserts, selects and observes once; the
    // authoritative's engine answers once.
    let sim_us_per_probe = med(&runs, |r| r.sim_s * 1e6 / r.probes as f64);
    let replayed_ns = 4.0 * (server.decode_ns + server.encode_ns)
        + server.engine_self_ns
        + cache.miss_ns
        + cache.insert_ns
        + resolver.select_ns
        + resolver.observe_ns;
    eprintln!(
        "simulator: {} experiments, {} probes each, {sim_us_per_probe:.2} us/probe",
        runs.len(),
        runs[0].probes
    );
    out.set("atlas.build_ms", med(&runs, |r| r.build_s * 1e3));
    out.set(
        "netsim.residual_us_per_probe",
        sim_us_per_probe - replayed_ns / 1e3,
    );
    out.set("analysis.figures_ms", med(&runs, |r| r.figures_s * 1e3));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> MeasurementResult {
        Experiment::standard(CONFIG, seed)
            .vantage_points(30)
            .rounds(4)
            .run()
            .result
    }

    #[test]
    fn probe_stream_and_tables_are_seed_deterministic() {
        let (a, b, c) = (small(11), small(11), small(12));
        assert_eq!(probe_queries(&a), probe_queries(&b));
        assert_eq!(
            format!("{:?}", query_share(&a)),
            format!("{:?}", query_share(&b))
        );
        assert_ne!(
            format!("{:?}", query_share(&a)),
            format!("{:?}", query_share(&c))
        );
        assert!(!probe_queries(&a).is_empty());
    }
}
