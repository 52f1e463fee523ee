//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and the metrics by name.

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("answered_pct", "%"),
    ("server_cpu_us_per_query", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MiB"),
];

/// The per-layer metrics, printed by every traced run. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("proto.decode_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("zone.lookup_ns", "ns"),
    ("zone.bytes_per_rrset", "B"),
    ("server.engine_self_ns", "ns"),
    ("netio.queries_per_wakeup", "count"),
    ("netio.runq_wait_us_per_query", "us"),
    ("netio.kernel_drops", "count"),
    ("netio.stage_recv_ns", "ns"),
    ("netio.stage_decode_ns", "ns"),
    ("netio.stage_engine_ns", "ns"),
    ("netio.stage_encode_ns", "ns"),
    ("netio.stage_send_ns", "ns"),
    ("metrics.overhead_pct", "%"),
    ("client.miss_txn_us", "us"),
    ("client.attempts_per_miss", "count"),
    ("client.hit_txn_us", "us"),
    ("cache.hit_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.miss_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_per_entry", "B"),
    ("resolver.select_ns", "ns"),
    ("resolver.observe_ns", "ns"),
    ("atlas.build_ms", "ms"),
    ("netsim.residual_us_per_probe", "us"),
    ("analysis.figures_ms", "ms"),
    ("load.late_p99_us", "us"),
    ("load.p99_us", "us"),
];

/// A run's outcome: operation books plus named metric values.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when a check beyond per-operation answers failed (server
    /// books that do not balance, stray datagrams).
    pub books_ok: bool,
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            books_ok: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The JSON result line for the metric set the trace flag selects.
    /// A metric the run did not set is an error in the benchmark itself.
    pub fn to_json(&self, traced: bool) -> String {
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut ok = self.books_ok && self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = set
            .iter()
            .map(|&(name, unit)| {
                let v = match self.value(name) {
                    Some(v) if v.is_finite() => v,
                    _ => {
                        eprintln!("perfbench: metric {name} missing or not finite");
                        ok = false;
                        0.0
                    }
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_selected_metric() {
        let mut o = Outcome::new();
        o.attempted = 10;
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"p50_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // Per-layer metrics were never set, so a traced line is not correct.
        assert!(o.to_json(true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome::new();
        o.attempted = 10;
        o.failed = 1;
        for (name, _) in END_TO_END {
            o.set(name, 2.0);
        }
        assert!(o.to_json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, _)| n)
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
