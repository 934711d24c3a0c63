//! `neo-trace` registry integration for the serving layer.
//!
//! * `serve_requests_total` / `serve_shed_total{reason}` — admission
//!   outcomes (`reason` ∈ `queue_depth`, `retry_budget`,
//!   `tenant_inflight`, `channel`);
//! * `serve_batches_total` / `serve_coalesced_requests_total` — the
//!   ratio is the coalescing factor;
//! * `serve_request_latency_ns` / `serve_queue_wait_ns` — per-request
//!   end-to-end and queue-only latency histograms;
//! * `serve_batch_requests` — per-batch size (the batch's wall time is
//!   its `serve_batch` span, `span_duration_ns{span="serve_batch"}`);
//! * `serve_queue_depth` — pending requests (gauge).
//!
//! Everything follows the gate discipline: one relaxed load and no work
//! while [`neo_trace::enabled`] is off.

use neo_trace::{CounterHandle, GaugeHandle, Histogram};
use std::sync::{Arc, LazyLock};

/// Shed reasons, fixed so the counter family has a closed label set.
pub(crate) const SHED_REASONS: [&str; 4] =
    ["queue_depth", "retry_budget", "tenant_inflight", "channel"];

static REQUESTS: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("serve_requests_total", &[]));
static SHED: LazyLock<[Arc<CounterHandle>; 4]> = LazyLock::new(|| {
    SHED_REASONS.map(|r| neo_trace::counter("serve_shed_total", &[("reason", r)]))
});
static BATCHES: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("serve_batches_total", &[]));
static COALESCED: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("serve_coalesced_requests_total", &[]));
static LATENCY: LazyLock<Arc<Histogram>> =
    LazyLock::new(|| neo_trace::histogram("serve_request_latency_ns", &[]));
static QUEUE_WAIT: LazyLock<Arc<Histogram>> =
    LazyLock::new(|| neo_trace::histogram("serve_queue_wait_ns", &[]));
static BATCH_REQS: LazyLock<Arc<Histogram>> =
    LazyLock::new(|| neo_trace::histogram("serve_batch_requests", &[]));
static QUEUE_DEPTH: LazyLock<Arc<GaugeHandle>> =
    LazyLock::new(|| neo_trace::gauge("serve_queue_depth", &[]));

/// One admitted request.
pub(crate) fn note_request() {
    if neo_trace::enabled() {
        REQUESTS.inc();
    }
}

/// One shed request; `reason` must be in [`SHED_REASONS`].
pub(crate) fn note_shed(reason: &'static str) {
    if !neo_trace::enabled() {
        return;
    }
    if let Some(i) = SHED_REASONS.iter().position(|r| *r == reason) {
        SHED[i].inc();
    }
}

/// One executed batch of `requests` requests.
pub(crate) fn note_batch(requests: usize) {
    if !neo_trace::enabled() {
        return;
    }
    BATCHES.inc();
    COALESCED.add(requests as u64);
    BATCH_REQS.record(requests as u64);
}

/// One completed request's latency split.
pub(crate) fn note_response(queue_ns: u64, total_ns: u64) {
    if !neo_trace::enabled() {
        return;
    }
    QUEUE_WAIT.record(queue_ns);
    LATENCY.record(total_ns);
}

/// Current admission-queue depth.
pub(crate) fn set_queue_depth(depth: usize) {
    if neo_trace::enabled() {
        QUEUE_DEPTH.set(depth as f64);
    }
}
