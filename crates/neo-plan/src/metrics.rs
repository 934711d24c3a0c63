//! `neo-trace` registry integration for the plan cache.
//!
//! * `plan_store_hits_total` / `plan_store_misses_total` — lookup
//!   outcomes; the hit ratio is the autotuner amortization factor;
//! * `plan_store_size` — resident plans (gauge).
//!
//! Named `plan_store_*` (not `plan_cache_*`) to stay clear of the
//! NTT-twiddle plan-cache metrics in `neo-ntt`. Gate discipline: one
//! relaxed load and no work while [`neo_trace::enabled`] is off.

use neo_trace::{CounterHandle, GaugeHandle};
use std::sync::{Arc, LazyLock};

static HITS: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("plan_store_hits_total", &[]));
static MISSES: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("plan_store_misses_total", &[]));
static SIZE: LazyLock<Arc<GaugeHandle>> =
    LazyLock::new(|| neo_trace::gauge("plan_store_size", &[]));

/// One cache lookup outcome.
pub(crate) fn note_lookup(hit: bool) {
    if !neo_trace::enabled() {
        return;
    }
    if hit {
        HITS.inc();
    } else {
        MISSES.inc();
    }
}

/// Current number of cached plans.
pub(crate) fn set_size(n: usize) {
    if neo_trace::enabled() {
        SIZE.set(n as f64);
    }
}
