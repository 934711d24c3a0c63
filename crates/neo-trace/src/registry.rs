//! Labeled metric registry: counters, gauges, and histograms keyed by
//! `(name, labels)`.
//!
//! Handles returned by [`MetricsRegistry::counter`] /
//! [`MetricsRegistry::gauge`] / [`MetricsRegistry::histogram`] are
//! cheap `Arc`s over the live atomics — hot paths cache them (in a
//! `LazyLock`, a plan, or an engine) so the registry's map lock is paid
//! once per series, not per observation. A series, once registered, is
//! never removed: [`MetricsRegistry::reset`] zeroes it in place, so a
//! cached handle always feeds the series snapshots read. All mutation
//! methods obey the crate-wide gate ([`crate::enabled`]).

use crate::hist::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, RwLock};

/// A metric's identity: name plus sorted label pairs.
///
/// Names follow Prometheus conventions (`[a-zA-Z_][a-zA-Z0-9_]*`,
/// enforced by debug assertion); labels are sorted at construction so
/// `(a=1, b=2)` and `(b=2, a=1)` are the same series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric (family) name.
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        debug_assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                && !name.starts_with(|c: char| c.is_ascii_digit()),
            "invalid metric name {name:?}"
        );
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct CounterHandle(AtomicU64);

impl CounterHandle {
    /// Adds `delta` if the telemetry gate is on.
    #[inline]
    pub fn add(&self, delta: u64) {
        if crate::enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds 1 if the telemetry gate is on.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (stored as `f64` bits).
#[derive(Debug)]
pub struct GaugeHandle(AtomicU64);

impl Default for GaugeHandle {
    fn default() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }
}

impl GaugeHandle {
    /// Sets the gauge if the telemetry gate is on.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The live metric behind a registry entry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<CounterHandle>),
    Gauge(Arc<GaugeHandle>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time value of one metric inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// Counters, gauges, and histograms keyed by `(name, labels)`.
///
/// Most code uses the process-wide default via [`registry`] (and the
/// free-function shortcuts [`counter`]/[`gauge`]/[`histogram`]), which
/// [`crate::reset`] zeroes; tests that need isolation can construct their
/// own.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RwLock<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter for `(name, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric
    /// type — a programming error worth failing loudly on.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<CounterHandle> {
        match self.get_or_insert(name, labels, || {
            Metric::Counter(Arc::new(CounterHandle::default()))
        }) {
            Metric::Counter(c) => c,
            other => panic!("{name} is registered as {}", kind_name(&other)),
        }
    }

    /// Returns (registering on first use) the gauge for `(name, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric type.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<GaugeHandle> {
        match self.get_or_insert(name, labels, || {
            Metric::Gauge(Arc::new(GaugeHandle::default()))
        }) {
            Metric::Gauge(g) => g,
            other => panic!("{name} is registered as {}", kind_name(&other)),
        }
    }

    /// Returns (registering on first use) the histogram for
    /// `(name, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric type.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("{name} is registered as {}", kind_name(&other)),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = MetricKey::new(name, labels);
        if let Some(m) = self
            .inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            return m.clone();
        }
        let mut map = self.inner.write().unwrap_or_else(|e| e.into_inner());
        map.entry(key).or_insert_with(make).clone()
    }

    /// Snapshot of every registered metric at one instant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let metrics = map
            .iter()
            .map(|(k, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (k.clone(), v)
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// Zeroes every registered series in place (counters and gauges to
    /// 0, histograms emptied). Series stay registered, so handles cached
    /// before the reset keep recording into what snapshots read.
    pub fn reset(&self) {
        let map = self.inner.read().unwrap_or_else(|e| e.into_inner());
        for m in map.values() {
            match m {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0f64.to_bits(), Ordering::Relaxed),
                Metric::Histogram(h) => h.clear(),
            }
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no series is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "a counter",
        Metric::Gauge(_) => "a gauge",
        Metric::Histogram(_) => "a histogram",
    }
}

/// A consistent view of every metric at one instant, ordered by key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(key, value)` pairs, sorted by key.
    pub metrics: Vec<(MetricKey, MetricValue)>,
}

impl MetricsSnapshot {
    /// Looks up one metric by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let key = MetricKey::new(name, labels);
        self.metrics
            .binary_search_by(|(k, _)| k.cmp(&key))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// Counter value, if `(name, labels)` is a registered counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value, if `(name, labels)` is a registered gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(name, labels) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state, if `(name, labels)` is a registered histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.get(name, labels) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Every metric of one family, with its labels.
    pub fn family(&self, name: &str) -> Vec<(&MetricKey, &MetricValue)> {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, v)| (k, v))
            .collect()
    }

    /// Delta `self - earlier`: counters and histogram buckets subtract
    /// (saturating), gauges keep `self`'s value (a gauge is a level, not
    /// a flow). Metrics absent from `earlier` pass through unchanged.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let before: BTreeMap<&MetricKey, &MetricValue> =
            earlier.metrics.iter().map(|(k, v)| (k, v)).collect();
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| {
                let v = match (v, before.get(k)) {
                    (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                        MetricValue::Counter(a.saturating_sub(*b))
                    }
                    (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => {
                        MetricValue::Histogram(a.since(b))
                    }
                    (v, _) => v.clone(),
                };
                (k.clone(), v)
            })
            .collect();
        MetricsSnapshot { metrics }
    }
}

static GLOBAL: LazyLock<MetricsRegistry> = LazyLock::new(MetricsRegistry::default);

/// The process-wide default registry every instrumented crate records
/// into.
pub fn registry() -> &'static MetricsRegistry {
    &GLOBAL
}

/// Counter in the default registry.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Arc<CounterHandle> {
    registry().counter(name, labels)
}

/// Gauge in the default registry.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Arc<GaugeHandle> {
    registry().gauge(name, labels)
}

/// Histogram in the default registry.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    registry().histogram(name, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_order_insensitive() {
        let r = MetricsRegistry::new();
        let a = r.counter("requests_total", &[("op", "hmult"), ("tier", "a")]);
        let b = r.counter("requests_total", &[("tier", "a"), ("op", "hmult")]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn snapshot_and_since_cover_all_kinds() {
        let r = MetricsRegistry::new();
        let (before, _) = crate::record(|| {
            r.counter("ops_total", &[]).add(5);
            r.gauge("depth", &[]).set(2.5);
            r.histogram("lat_ns", &[]).record(100);
            let before = r.snapshot();
            r.counter("ops_total", &[]).add(3);
            r.gauge("depth", &[]).set(4.0);
            r.histogram("lat_ns", &[]).record(200);
            before
        });
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.counter("ops_total", &[]), Some(3));
        assert_eq!(delta.gauge("depth", &[]), Some(4.0));
        assert_eq!(delta.histogram("lat_ns", &[]).map(|h| h.count), Some(1));
    }

    #[test]
    fn reset_zeroes_in_place() {
        let r = MetricsRegistry::new();
        let c = r.counter("kept_total", &[]);
        crate::record(|| {
            c.add(4);
            r.gauge("kept_depth", &[]).set(1.5);
            r.histogram("kept_ns", &[]).record(9);
            r.reset();
            c.inc();
        });
        let snap = r.snapshot();
        assert_eq!(r.len(), 3, "reset keeps every series registered");
        assert_eq!(snap.counter("kept_total", &[]), Some(1));
        assert_eq!(snap.gauge("kept_depth", &[]), Some(0.0));
        assert_eq!(snap.histogram("kept_ns", &[]).map(|h| h.count), Some(0));
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn type_confusion_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("confused_metric", &[]);
        let _ = r.gauge("confused_metric", &[]);
    }

    #[test]
    fn family_collects_label_variants() {
        let r = MetricsRegistry::new();
        crate::record(|| {
            r.counter("fam_total", &[("op", "a")]).inc();
            r.counter("fam_total", &[("op", "b")]).inc();
            r.counter("other_total", &[]).inc();
        });
        let snap = r.snapshot();
        assert_eq!(snap.family("fam_total").len(), 2);
    }
}
