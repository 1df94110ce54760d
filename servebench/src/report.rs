//! The metric registry (every name `BENCHMARK.json` declares, with its
//! unit) and the result line the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, emitted with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sustainable_rps", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("completed_ratio", "1"),
    ("coord_cpu_ms_per_job", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, emitted with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("asm.instr_per_s", "1/s"),
    ("asm.us_per_program", "us"),
    ("microarch.ns_per_cycle", "ns"),
    ("microarch.cycles_per_shot", "cycles"),
    ("microarch.load_us", "us"),
    ("microarch.prefix_build_us", "us"),
    ("microarch.fork_us", "us"),
    ("quantum.density.ns_per_gate", "ns"),
    ("quantum.pure.ns_per_gate", "ns"),
    ("quantum.stabilizer.ns_per_gate", "ns"),
    ("prefix.hit_ratio", "1"),
    ("prefix.fork_share", "1"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.active_p50_ms", "ms"),
    ("serve.program_cache_hit_ratio", "1"),
    ("serve.queue_depth_end", "count"),
    ("exec.us_per_batch", "us"),
    ("exec.us_per_shot", "us"),
    ("aggregate.merge_ns", "ns"),
    ("wire.submission_encode_us", "us"),
    ("wire.submission_decode_us", "us"),
    ("wire.submission_bytes", "B"),
    ("wire.partial_encode_us", "us"),
    ("wire.frames_per_job", "count"),
    ("wire.bytes_per_job", "B"),
    ("net.ping_rtt_us", "us"),
    ("net.wakeups_per_job", "count"),
    ("net.snapshots_per_job", "count"),
    ("journal.records_per_job", "count"),
    ("journal.bytes_per_job", "B"),
    ("journal.records_per_fsync", "count"),
    ("journal.submit_overhead_us", "us"),
    ("client.submit_rtt_us", "us"),
    ("gen.cpu_share", "1"),
    ("gen.late_p90_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The benchmark's verdict and measurements for one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The one-line JSON object the benchmark prints last. Only
    /// registered metric names are accepted.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = unit_of(name).ok_or_else(|| format!("unregistered metric `{name}`"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` keeps every digit and always writes a decimal point.
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
        let body = &BENCHMARK_JSON[start..];
        let end = body.find(']').expect("list closes");
        let body = &body[..end];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("field present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("string value");
            let rest = &rest[open + 1..];
            rest[..rest.find('"').expect("string closes")].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), registry(END_TO_END));
        assert_eq!(declared("per_layer"), registry(PER_LAYER));
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit() {
        for list in [END_TO_END, PER_LAYER] {
            let outcome = Outcome {
                correct: true,
                attempted: 3,
                failed: 0,
                metrics: list.iter().map(|(n, _)| (*n, 1.25)).collect(),
            };
            let json = outcome.to_json().expect("registered");
            for (name, unit) in list {
                let entry = format!("\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}");
                assert!(json.contains(&entry), "{entry} missing from {json}");
            }
            assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        }
    }

    #[test]
    fn unregistered_or_non_finite_metrics_are_refused() {
        let mut outcome = Outcome::default();
        outcome.metrics.insert("made_up", 1.0);
        assert!(outcome.to_json().is_err());
        let mut outcome = Outcome::default();
        outcome.metrics.insert("setup_s", f64::NAN);
        assert!(outcome.to_json().is_err());
        // Whole numbers still carry a decimal point.
        let mut outcome = Outcome::default();
        outcome.metrics.insert("setup_s", 2.0);
        assert!(outcome.to_json().unwrap().contains("\"value\": 2.0,"));
    }
}
