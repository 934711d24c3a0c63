//! `neo-trace` registry integration for the persistent store.
//!
//! * `store_quarantined_total` — records refused at open or get because
//!   their integrity could not be established and no seed-recovery path
//!   existed;
//! * `store_recovered_total` — damaged records regenerated from seed
//!   (and rewritten on the next commit);
//! * `store_hits_total` / `store_misses_total` — typed `get` outcomes;
//! * `store_commit_bytes` — size of the last committed file (gauge).
//!
//! Gate discipline: one relaxed load and no work while
//! [`neo_trace::enabled`] is off.

use neo_trace::{CounterHandle, GaugeHandle};
use std::sync::{Arc, LazyLock};

static QUARANTINED: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("store_quarantined_total", &[]));
static RECOVERED: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("store_recovered_total", &[]));
static HITS: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("store_hits_total", &[]));
static MISSES: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("store_misses_total", &[]));
static COMMIT_BYTES: LazyLock<Arc<GaugeHandle>> =
    LazyLock::new(|| neo_trace::gauge("store_commit_bytes", &[]));

/// Records quarantined (at open, or on a failed integrity re-check).
pub(crate) fn note_quarantined(n: u64) {
    if neo_trace::enabled() && n > 0 {
        QUARANTINED.add(n);
    }
}

/// A damaged record regenerated from seed.
pub(crate) fn note_recovered() {
    if neo_trace::enabled() {
        RECOVERED.inc();
    }
}

/// One `get` outcome.
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

/// Size of the last committed file image.
pub(crate) fn set_commit_bytes(n: usize) {
    if neo_trace::enabled() {
        COMMIT_BYTES.set(n as f64);
    }
}
