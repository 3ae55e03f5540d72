//! The result line and the human-readable summary.

use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`: every `--trace 0` run prints each.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("phase_s", "s"),
    ("peak_rss_mb", "MB"),
    ("create_p50_ms", "ms"),
    ("create_tail_ms", "ms"),
    ("notify_p50_ms", "ms"),
    ("notify_tail_ms", "ms"),
    ("msgs_per_node_s", "1/s"),
    ("bytes_per_node_s", "B/s"),
];

/// Per-layer metrics, `(name, unit)`: every `--trace 1` run prints each,
/// zero where the workload does not run the layer.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.events", "count"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.self_share", "frac"),
    ("net.unicast_calls", "count"),
    ("net.unicast_ns", "ns"),
    ("net.share", "frac"),
    ("net.route_misses", "count"),
    ("net.route_miss_frac", "frac"),
    ("net.breaks", "count"),
    ("net.drops", "count"),
    ("overlay.calls", "count"),
    ("overlay.ns_per_call", "ns"),
    ("overlay.share", "frac"),
    ("core.calls", "count"),
    ("core.ns_per_call", "ns"),
    ("core.share", "frac"),
    ("core.hashes_computed", "count"),
    ("core.repairs_started", "count"),
    ("core.hard_sent", "count"),
    ("core.msgs_per_notification", "msgs"),
    ("liveness.calls", "count"),
    ("liveness.ns_per_call", "ns"),
    ("liveness.share", "frac"),
    ("liveness.suspects", "count"),
    ("liveness.refutations", "count"),
    ("harness.trace_share", "frac"),
    ("harness.check_share", "frac"),
    ("wire.bytes_per_msg", "B"),
    ("setup.topology_s", "s"),
    ("setup.tables_s", "s"),
    ("setup.populate_s", "s"),
    ("setup.warmup_s", "s"),
    ("node.cpu_ms_per_op", "ms"),
    ("node.tcp_segs_per_op", "count"),
    ("node.data_segs_per_op", "count"),
    ("node.ctx_switches_per_op", "count"),
    ("node.wire_bytes_per_op", "B"),
    ("node.threads", "count"),
    ("node.cpu_util", "cpus"),
    ("load.gen_cpu_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Reference or caveat printed beside it (informational, not gated).
    pub note: String,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Whether every correctness and determinism check passed.
    pub correct: bool,
}

impl Outcome {
    /// Adds a metric without a note.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    /// Adds a metric with a reference note.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Puts the metrics of `set` in its order, with zero for any the
    /// workload did not measure. Panics on a metric outside `set` or a
    /// unit that disagrees with it: the printed set is the declared set.
    pub fn conform(&mut self, set: &[(&'static str, &'static str)]) {
        for m in &self.metrics {
            let declared = set.iter().find(|(n, _)| *n == m.name);
            assert_eq!(
                declared.map(|(_, u)| *u),
                Some(m.unit),
                "metric {} ({}) is not declared so",
                m.name,
                m.unit
            );
        }
        let mut ordered = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None => ordered.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                    note: "not run by this workload".into(),
                }),
            }
        }
        self.metrics = ordered;
    }

    /// Human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = write!(s, "  {:<30} {:>16.6} {:<8}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                let _ = write!(s, "  {}", m.note);
            }
            s.push('\n');
        }
        s
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` prints the shortest string that reads back as the same
            // f64: every measured digit, and always a valid JSON number.
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_sets_have_unique_names() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("{\"name\": \"")
                .skip(1)
                .map(|m| {
                    let name = m[..m.find('"').unwrap()].to_string();
                    let unit = m.split("\"unit\": \"").nth(1).unwrap();
                    (name, unit[..unit.find('"').unwrap()].to_string())
                })
                .collect()
        };
        let ours = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn conform_orders_and_zero_fills() {
        let mut o = Outcome::default();
        o.put("net.share", 0.25, "frac");
        o.put("sim.events", 10.0, "count");
        o.conform(&PER_LAYER);
        assert_eq!(o.metrics.len(), PER_LAYER.len());
        assert_eq!(o.metrics[0].name, "sim.events");
        assert_eq!(o.metrics[0].value, 10.0);
        assert_eq!(o.metrics[1].value, 0.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn conform_rejects_undeclared_metrics() {
        let mut o = Outcome::default();
        o.put("net.share", 0.25, "ms");
        o.conform(&PER_LAYER);
    }

    #[test]
    fn json_has_the_contract_keys_and_full_digits() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            correct: true,
            ..Outcome::default()
        };
        o.put("latency_ms", 1.203_456_789, "ms");
        o.put("setup_s", 2.0, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
