//! Metric names and the result line.
//!
//! Every workload reports every metric below. A per-layer metric of a layer
//! the workload does not exercise reads 0 (no net layer in process, no WAL
//! without durability); the end-to-end metrics apply to every workload.

/// End-to-end metrics (untraced run): name and unit. Tail percentiles
/// are per-layer metrics: on the reference host they swing with its slow
/// spells several times more than medians do, too much for a fixed bound.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_pts_s", "pts/s"),
    ("batch_p50_us", "us"),
    ("read_p50_us", "us"),
    ("recover_s", "s"),
    ("rss_peak_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("batch_p99_us", "us"),
    ("core.update_ns_p50", "ns"),
    ("core.update_ns_p99", "ns"),
    ("core.init_us_p50", "us"),
    ("core.init_us_p99", "us"),
    ("core.shift_trials_per_kpt", "trials/kpt"),
    ("core.trials_per_search", "trials/search"),
    ("core.anomaly_pct", "%"),
    ("engine.submit_us_p50", "us"),
    ("engine.submit_us_p99", "us"),
    ("engine.collect_us_p50", "us"),
    ("engine.collect_us_p99", "us"),
    ("engine.route_ns_per_pt", "ns/pt"),
    ("engine.queue_depth_max", "count"),
    ("engine.stats_us", "us"),
    ("engine.forecast_us_p50", "us"),
    ("engine.forecast_us_p90", "us"),
    ("net.rtt_us_p50", "us"),
    ("net.rtt_us_p99", "us"),
    ("net.encode_ns_per_pt", "ns/pt"),
    ("net.decode_ns_per_pt", "ns/pt"),
    ("net.frame_bytes_per_pt", "B/pt"),
    ("net.forecast_us_p50", "us"),
    ("net.forecast_us_p99", "us"),
    ("net.unattributed_us_p50", "us"),
    ("codec.snapshot_bytes_per_series", "B/series"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.restore_s", "s"),
    ("wal.fsyncs_per_batch", "fsync/batch"),
    ("wal.bytes_per_pt", "B/pt"),
    ("persist.snapshot_batch_us_p50", "us"),
    ("persist.ordinary_batch_us_p50", "us"),
    ("persist.disk_mib", "MiB"),
    ("persist.replayed_batches", "count"),
    ("cold.spills_per_kpt", "spills/kpt"),
    ("cold.rehydrations_per_kpt", "rehyd/kpt"),
    ("cold.rehydrate_per_spill", "ratio"),
    ("cold.errors", "count"),
    ("cold.rehydrate_batch_us_p50", "us"),
    ("cold.file_mib", "MiB"),
    ("mem.rss_after_setup_mib", "MiB"),
    ("mem.rss_growth_mib", "MiB"),
    ("gen.send_lag_us_p99", "us"),
    ("open.batch_us_p50", "us"),
    ("open.batch_us_p99", "us"),
    ("open.read_us_p50", "us"),
    ("open.read_us_p90", "us"),
    ("trace.uncovered_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("base.points", "count"),
    ("base.batches", "count"),
    ("base.shift_searches", "count"),
    ("base.spills", "count"),
    ("samples.batch", "count"),
    ("samples.read", "count"),
    ("samples.update", "count"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name; names outside the reported set are ignored.
    pub values: Vec<(&'static str, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output checks failed (reference mismatches, bad recovery, ...).
    pub wrong: Vec<String>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The result object: `traced` picks the per-layer set. An end-to-end
    /// metric that is missing, zero or not finite makes the run incorrect,
    /// as does a per-layer metric that is not finite.
    pub fn result_json(&self, traced: bool) -> (bool, String) {
        let mut correct = self.wrong.is_empty();
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut parts = Vec::new();
        for (name, unit) in set {
            let v = match self.get(name) {
                Some(v) if v.is_finite() && (traced || v > 0.0) => v,
                Some(_) if traced => {
                    correct = false;
                    0.0
                }
                None if traced => 0.0,
                _ => {
                    correct = false;
                    0.0
                }
            };
            parts.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
        }
        let json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        );
        (correct, json)
    }
}
