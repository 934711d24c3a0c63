//! # neo-trace — the one telemetry layer of the Neo workspace
//!
//! Everything below sits behind **one gate** ([`enable`] / [`disable`] /
//! [`enabled`], off by default) and is cleared by **one** [`reset`].
//! When the gate is off every instrumentation site is a single relaxed
//! atomic load: no clock read, no lock, no allocation.
//!
//! * **Work counters** ([`counters`]): a fixed set of process-wide
//!   `AtomicU64` tallies recorded *from inside* the hot paths — modular
//!   MACs, NTT butterflies, fragment MMAs, split/merge ops, bytes moved,
//!   ABFT checks. They answer *"how much work did this section do"*.
//! * **Spans** ([`mod@span`]): timed regions entered with the [`span!`]
//!   macro. Spans are the only timer in the workspace: a closing span
//!   records its duration into the [`SPAN_DURATION_NS`] histogram family,
//!   keyed by span name (`span_duration_ns{span="ckks.hmult"}`). Inside
//!   [`record`] spans and point events additionally build a tree (per-span
//!   counter deltas, noise-budget events) exportable as a tree report,
//!   JSON, or Chrome `chrome://tracing` format ([`report`]). Outside
//!   `record` nothing accumulates per span, so a long run with the gate on
//!   holds bounded memory.
//! * **Registry** ([`registry()`][fn@registry]): labeled counters, gauges,
//!   and lock-free log-linear [`Histogram`]s keyed by `(name, labels)`,
//!   snapshotted at one instant ([`MetricsRegistry::snapshot`]) and
//!   exported as Prometheus text or JSON ([`export`]). They answer the
//!   questions a serving layer asks: p99 HMult latency, noise-budget
//!   drain, stream utilization, plan-cache hit rate.
//! * **Error tallies** ([`errors`]): per-`ErrorKind` counts of every
//!   typed error the fallible API constructs, recorded even when the gate
//!   is off (errors are cold, and a refused op is exactly when telemetry
//!   must not be blind).
//!
//! Every JSON document the crate writes goes through one string escaper
//! ([`jsonv::escape`]), and [`jsonv::parse`] is the strict parser the
//! round-trip tests validate them with. Its tree, [`jsonv::JsonValue`],
//! is the workspace's one JSON tree: built with [`json!`], it prints the
//! benchmark documents.
//!
//! The canonical measurement pattern is [`record`], which serialises
//! measured sections behind a global mutex so parallel test threads
//! cannot pollute each other's counter deltas:
//!
//! ```rust
//! let (_out, work) = neo_trace::record(|| {
//!     let _s = neo_trace::span!("demo.op");
//!     // run a kernel
//! });
//! assert_eq!(work.get(neo_trace::Counter::NttButterflies), 0);
//! let hist = neo_trace::span::duration_histogram("demo.op");
//! assert!(hist.count() >= 1);
//! ```

#![deny(clippy::unwrap_used)]

pub mod counters;
pub mod errors;
pub mod export;
pub mod hist;
pub mod jsonv;
pub mod registry;
pub mod report;
pub mod span;

pub use counters::{add, lock, record, recording, snapshot, Counter, WorkCounters, N_COUNTERS};
pub use errors::{count_error, error_count, error_counts};
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{
    counter, gauge, histogram, registry, CounterHandle, GaugeHandle, MetricKey, MetricValue,
    MetricsRegistry, MetricsSnapshot,
};
pub use report::{chrome_trace_from, SimSpan};
pub use span::{event, Event, SpanGuard, SpanNode, SPAN_DURATION_NS};

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide telemetry gate. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry currently enabled?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry on: counters accumulate, spans record durations,
/// registry series record values.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns telemetry off. Recorded data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all counters, error tallies, spans, events, and registry
/// values (the gate is left untouched). Registry series are zeroed in
/// place, so handles cached by instrumented crates keep feeding the
/// series every snapshot reads.
pub fn reset() {
    counters::reset_counters();
    errors::reset_errors();
    span::reset_spans();
    registry().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles() {
        let (_, w) = record(|| add(Counter::GemmMacs, 7));
        assert_eq!(w.get(Counter::GemmMacs), 7);
        // With the gate off nothing accumulates (inside `record` so no
        // concurrent test can flip the gate under us).
        let ((), _) = record(|| {
            disable();
            let before = snapshot();
            add(Counter::GemmMacs, 9);
            assert_eq!(
                snapshot().get(Counter::GemmMacs),
                before.get(Counter::GemmMacs)
            );
            enable();
        });
    }

    #[test]
    fn gate_toggles_registry_recording() {
        // Unique metric name: tests share the process-wide registry.
        // Snapshots are taken inside `record`: another test's reset() runs
        // under the same lock, so it cannot zero the series mid-check.
        let h = histogram("gate_toggles_recording_ns", &[]);
        let (snap, _) = record(|| {
            disable();
            h.record(10);
            enable();
            h.record(20);
            registry().snapshot()
        });
        let hist = snap
            .histogram("gate_toggles_recording_ns", &[])
            .expect("registered");
        assert_eq!(hist.count, 1, "only the gated-on record must land");
    }

    #[test]
    fn record_is_isolated() {
        let (_, w1) = record(|| add(Counter::BytesRead, 64));
        let (_, w2) = record(|| add(Counter::BytesWritten, 32));
        assert_eq!(w1.get(Counter::BytesRead), 64);
        assert_eq!(w1.get(Counter::BytesWritten), 0);
        assert_eq!(w2.get(Counter::BytesWritten), 32);
        assert_eq!(w2.get(Counter::BytesRead), 0);
    }

    #[test]
    fn reset_keeps_cached_handles_reachable() {
        // reset() must zero series in place: a handle cached in a static
        // before the reset has to keep feeding what snapshots read.
        let h = histogram("reset_keeps_cached_ns", &[]);
        let c = counter("reset_keeps_cached_total", &[]);
        let (snap, _) = record(|| {
            h.record(5);
            c.inc();
            reset();
            h.record(7);
            c.inc();
            registry().snapshot()
        });
        let hist = snap
            .histogram("reset_keeps_cached_ns", &[])
            .expect("series survives reset");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.max, 7);
        assert_eq!(snap.counter("reset_keeps_cached_total", &[]), Some(1));
    }
}
