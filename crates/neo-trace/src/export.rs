//! Registry exporters: Prometheus text exposition and a self-contained
//! JSON document, both hand-rolled so the crate stays dependency-free.
//!
//! Histograms export as Prometheus *summaries* — a `{quantile="..."}`
//! series per tracked quantile plus `_count` / `_sum` / `_max` — rather
//! than as the raw 1 920 log-linear buckets, which would dominate the
//! exposition for no scrape-side benefit (the registry snapshot keeps the
//! full buckets for in-process consumers).

use crate::hist::HistogramSnapshot;
use crate::jsonv::escape as json_escape;
use crate::registry::{MetricKey, MetricValue, MetricsSnapshot};
use std::fmt::Write as _;

/// Quantiles exported for every histogram, in ascending order.
pub const EXPORT_QUANTILES: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

/// Escapes a Prometheus label *value*: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}` for a label set, with an optional extra pair
/// appended (used for the summary `quantile` label). Empty label sets
/// render as the empty string.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Formats an `f64` the way Prometheus expects (no exponent for the
/// common cases; `NaN`/`+Inf`/`-Inf` spelled out).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// One `# TYPE` line per metric family (counter, gauge, or summary),
/// then a sample line per series. Families are emitted in sorted-key
/// order so the output is deterministic.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for (key, value) in &snap.metrics {
        if last_family != Some(key.name.as_str()) {
            let ty = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
            };
            let _ = writeln!(out, "# TYPE {} {ty}", key.name);
            last_family = Some(key.name.as_str());
        }
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", key.name, label_block(&key.labels, None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    key.name,
                    label_block(&key.labels, None),
                    fmt_f64(*v)
                );
            }
            MetricValue::Histogram(h) => {
                for q in EXPORT_QUANTILES {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        key.name,
                        label_block(&key.labels, Some(("quantile", &fmt_f64(q)))),
                        h.quantile(q)
                    );
                }
                let plain = label_block(&key.labels, None);
                let _ = writeln!(out, "{}_count{plain} {}", key.name, h.count);
                let _ = writeln!(out, "{}_sum{plain} {}", key.name, h.sum);
                let _ = writeln!(out, "{}_max{plain} {}", key.name, h.max);
            }
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{}",
        h.count,
        h.sum,
        if h.count == 0 { 0 } else { h.min },
        h.max,
        json_f64(h.mean())
    );
    let _ = write!(
        out,
        ",\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}",
        h.p50(),
        h.p90(),
        h.p95(),
        h.p99()
    );
    out.push_str(",\"buckets\":[");
    for (i, (lo, hi, c)) in h.nonzero_buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"low\":{lo},\"high\":{hi},\"count\":{c}}}");
    }
    out.push_str("]}");
    out
}

fn key_json(key: &MetricKey) -> String {
    let mut out = String::new();
    let _ = write!(out, "\"name\":\"{}\",\"labels\":{{", json_escape(&key.name));
    for (i, (k, v)) in key.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

/// Renders a snapshot as a self-contained JSON document:
/// `{"metrics":[{"name":...,"labels":{...},"type":...,"value"|"histogram":...}]}`.
pub fn json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, (key, value)) in snap.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        out.push_str(&key_json(key));
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, ",\"type\":\"gauge\",\"value\":{}", json_f64(*v));
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    ",\"type\":\"histogram\",\"histogram\":{}",
                    histogram_json(h)
                );
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let (snap, _) = crate::record(|| {
            let r = MetricsRegistry::new();
            r.counter("ops_total", &[("op", "hmult")]).add(7);
            r.gauge("cache_entries", &[]).set(3.0);
            let h = r.histogram("lat_ns", &[("op", "hmult")]);
            for v in [100u64, 200, 300, 4_000] {
                h.record(v);
            }
            r.snapshot()
        });
        snap
    }

    #[test]
    fn prometheus_text_shape() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total{op=\"hmult\"} 7"));
        assert!(text.contains("# TYPE cache_entries gauge"));
        assert!(text.contains("cache_entries 3"));
        assert!(text.contains("# TYPE lat_ns summary"));
        assert!(text.contains("lat_ns{op=\"hmult\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_ns_count{op=\"hmult\"} 4"));
        assert!(text.contains("lat_ns_sum{op=\"hmult\"} 4600"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        crate::record(|| r.counter("esc_total", &[("path", "a\\b\"c\nd")]).inc());
        let text = prometheus_text(&r.snapshot());
        assert!(
            text.contains(r#"esc_total{path="a\\b\"c\nd"} 1"#),
            "escaping failed: {text}"
        );
        // And the JSON stays parseable despite the hostile value.
        let doc = json(&r.snapshot());
        assert!(doc.contains(r#""path":"a\\b\"c\nd""#), "json: {doc}");
    }

    #[test]
    fn json_document_shape() {
        let doc = json(&sample_snapshot());
        assert!(doc.starts_with("{\"metrics\":["));
        assert!(doc.contains("\"type\":\"counter\",\"value\":7"));
        assert!(doc.contains("\"type\":\"histogram\""));
        assert!(doc.contains("\"p99\":"));
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "balanced braces"
        );
    }
}
