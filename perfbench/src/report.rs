//! Metric names and units, summary statistics, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("label_precision", "ratio"),
    ("label_recall", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("input.read_ms", "ms"),
    ("splitter.ms", "ms"),
    ("splitter.materialize_ms", "ms"),
    ("splitter.mb_per_s", "MB/s"),
    ("splitter.unique_texts", "count"),
    ("splitter.unique_templates", "count"),
    ("parser.ms", "ms"),
    ("parser.us_per_unique", "us"),
    ("annotate.ms", "ms"),
    ("context.self_ms", "ms"),
    ("frontend.allocs_per_unique", "count"),
    ("detect.ms", "ms"),
    ("detect.intra_ms", "ms"),
    ("detect.inter_ms", "ms"),
    ("detect.detections", "count"),
    ("sched.parallel_overhead_ms", "ms"),
    ("sched.busy_imbalance", "ratio"),
    ("rank.ms", "ms"),
    ("rank.us_per_detection", "us"),
    ("fix.ms", "ms"),
    ("fix.us_per_detection", "us"),
    ("cli.wall_ms", "ms"),
    ("cli.unattributed_ms", "ms"),
    ("cli.stdout_mb", "MB"),
    ("session.incremental_ms", "ms"),
    ("session.fallback_ms", "ms"),
    ("session.fallbacks", "count"),
    ("session.cold_reverts", "count"),
    ("session.dirty_statements", "count"),
    ("session.growth_kb_per_recheck", "kB"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a known-answer check, or whose CLI
    /// exit code was not the findings code.
    pub failed: u64,
    /// `(name, value)` pairs; units come from the metric tables.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result line: exactly the metrics of `table`, in its order, with
    /// their units. A metric the run did not set, or set to a non-finite
    /// value, makes the run incorrect rather than printing a made-up value.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}
