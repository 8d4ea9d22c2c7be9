//! Metric names, units and the result lines a run prints.

use atsq_service::json::{obj, Value};
use atsq_service::percentile_sorted;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p90_ms", "ms"),
    ("atsq_p50_ms", "ms"),
    ("oatsq_p50_ms", "ms"),
    ("atsq_range_p50_ms", "ms"),
    ("oatsq_range_p50_ms", "ms"),
    ("server_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.reply_bytes", "bytes"),
    ("server.outside_us", "us"),
    ("cache.hit_rate", "share"),
    ("cache.stage_us", "us"),
    ("service.admission_us", "us"),
    ("service.queue_ms", "ms"),
    ("service.assembly_ms", "ms"),
    ("service.reply_us", "us"),
    ("service.batch_size", "count"),
    ("service.coalesced_share", "share"),
    ("engine.stage_ms", "ms"),
    ("gat.atsq_ms", "ms"),
    ("gat.oatsq_ms", "ms"),
    ("gat.range_ms", "ms"),
    ("gat.candidates", "count"),
    ("gat.tas_pruned", "count"),
    ("gat.tas_false_positives", "count"),
    ("gat.apl_reads", "count"),
    ("gat.distance_evals", "count"),
    ("gat.cold_reads", "count"),
    ("gat.results", "count"),
    ("gat.apl_yield", "share"),
    ("gat.candidate_yield", "share"),
    ("sharded.router_ms", "ms"),
    ("sharded.shard_critical_ms", "ms"),
    ("sharded.shard_sum_ms", "ms"),
    ("sharded.candidate_imbalance", "ratio"),
    ("il.atsq_ms", "ms"),
    ("il.oatsq_ms", "ms"),
    ("il.candidates", "count"),
    ("gat_il.atsq_ratio", "ratio"),
    ("gat_il.oatsq_ratio", "ratio"),
    ("setup.dataset_read_s", "s"),
    ("setup.index_build_s", "s"),
    ("setup.index_mb", "MiB"),
    ("trace.overhead", "ratio"),
];

/// Exact nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(mut samples: Vec<f64>, p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile_sorted(&samples, p)
}

/// Mean of samples (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one run found: metric values with their sample counts,
/// request tallies, failed self-checks, and provenance.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    pub provenance: Vec<(&'static str, Value)>,
}

impl Report {
    /// Sets a metric measured over `samples` samples.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    /// Records a failed check; the run then reports `correct: false`.
    pub fn problem(&mut self, message: String) {
        eprintln!("perfbench: {message}");
        self.problems.push(message);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints the provenance line, then the result line (last).
    pub fn print(mut self, table: &[(&'static str, &'static str)]) -> bool {
        let mut values = Vec::new();
        let mut samples = Vec::new();
        for &(name, unit) in table {
            match self.metrics.iter().find(|m| m.0 == name) {
                Some(&(_, value, n)) if value.is_finite() => {
                    values.push((
                        name,
                        obj(vec![
                            ("value", Value::Num(value)),
                            ("unit", Value::Str(unit.into())),
                        ]),
                    ));
                    samples.push((name, Value::Num(n as f64)));
                }
                _ => self.problem(format!("metric `{name}` was not measured")),
            }
        }
        let failed_share = ratio(self.failed as f64, self.attempted as f64);
        let mut provenance = std::mem::take(&mut self.provenance);
        provenance.push(("failed_share", Value::Num(failed_share)));
        provenance.push(("samples", obj(samples)));
        let problems = self
            .problems
            .iter()
            .map(|p| Value::Str(p.clone()))
            .collect();
        provenance.push(("problems", Value::Arr(problems)));
        println!("{}", obj(vec![("provenance", obj(provenance))]).to_json());
        let correct = self.correct();
        let result = obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", obj(values)),
        ]);
        println!("{}", result.to_json());
        correct
    }
}
