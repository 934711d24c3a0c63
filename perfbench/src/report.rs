//! Metric names, units and the result line.
//!
//! Every workload reports every metric of the list its mode selects, so
//! the names are generic where workloads differ; `README.md` maps them
//! onto each workload's own quantities (for example `op_ms_p50` is
//! `hmult_ms_p50` on `ks-ops`, `segment_ms_p50` on `coeff-to-slot` and
//! `req_ms_p50.low` on `serve-open`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (tracing off): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("precision_bits", "bits"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("op2_ms_p50", "ms"),
    ("op2_ms_tail", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics (traced run): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ntt.fwd_us", "us"),
    ("ntt.inv_us", "us"),
    ("ntt.butterflies_per_hmult", "count"),
    ("ntt.butterflies_per_hrotate", "count"),
    ("bconv.modup_us", "us"),
    ("bconv.recover_us", "us"),
    ("bconv.moddown_us", "us"),
    ("mod_macs_per_keyswitch", "count"),
    ("kernels.bconv_matrix_us", "us"),
    ("kernels.ip_matrix_us", "us"),
    ("kernels.ip_original_us", "us"),
    ("gemm_macs_per_keyswitch", "count"),
    ("keyswitch.klss_ms", "ms"),
    ("keyswitch.share_of_hmult", "ratio"),
    ("hmult.total_ms", "ms"),
    ("hmult.tensor_ms", "ms"),
    ("hmult.unattributed_ms", "ms"),
    ("hrotate.total_ms", "ms"),
    ("hrotate.unattributed_ms", "ms"),
    ("rescale_ms", "ms"),
    ("pmult_ms", "ms"),
    ("hadd_us", "us"),
    ("encode_us", "us"),
    ("keys.ksk_gen_ms", "ms"),
    ("keys.ksk_count", "count"),
    ("keys.ksk_mb_computed", "MB"),
    ("alloc.count_per_hmult", "count"),
    ("alloc.mb_per_hmult", "MB"),
    ("alloc.count_per_request", "count"),
    ("admission.submit_us", "us"),
    ("admission.price_us", "us"),
    ("admission.coalesce_us_per_batch", "us"),
    ("sched.estimate_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.batch_requests_mean", "count"),
    ("serve.attempted", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("generator.lag_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Prints a note when `n` samples leave fewer than ten beyond the
/// `q`-quantile, so a tail computed from them rests on too few. This
/// concerns the statistic, not the program's outputs: the run stays
/// correct.
pub fn note_support(what: &str, n: usize, q: f64) {
    if !crate::stats::supports(n, q) {
        println!(
            "note: {n} {what} leave fewer than ten samples beyond the p{:.0}",
            q * 100.0
        );
    }
}

/// One run's result: correctness, op counts and metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (or requests) attempted.
    pub attempted: u64,
    /// Attempted operations that errored, were shed, or failed a check.
    pub failed: u64,
    /// Failed checks that are not per-operation (e.g. a counter that did
    /// not repeat); any makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Why the run cannot be scored (an open-loop generator that ran
    /// late measures the generator, not the service).
    pub invalid: Option<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric value; `name` must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Counts one attempted operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Notes a failed whole-run check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// Whether the run passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0
    }

    /// The names of `list` this report lacks or holds a non-finite value
    /// for.
    pub fn missing<'a>(&self, list: &[(&'a str, &str)]) -> Vec<&'a str> {
        list.iter()
            .map(|&(name, _)| name)
            .filter(|name| !self.metrics.get(name).is_some_and(|v| v.is_finite()))
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of `list`, in list order.
    pub fn json(&self, list: &[(&str, &str)]) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, &(name, unit)) in list.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lists here and in `BENCHMARK.json` must name the same metrics
    /// with the same units.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        r.op(true);
        r.set("setup_s", 1.25);
        let line = r.json(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
