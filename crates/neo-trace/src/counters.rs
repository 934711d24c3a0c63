//! Process-wide work counters.
//!
//! A fixed enum of counters backed by one `AtomicU64` each. Hot paths call
//! [`add`] with a pre-computed delta (per call or per loop trip, never per
//! element), so the disabled-path cost is a single relaxed load and the
//! enabled-path cost is one relaxed fetch-add per instrumented region.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of distinct counters (length of the backing array).
pub const N_COUNTERS: usize = 14;

/// Everything the instrumented kernels tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Modular multiply-accumulates in scalar CUDA-core-style loops
    /// (BConv residue accumulation, original-form inner product).
    ModMacs = 0,
    /// Standalone modular multiplications (scaling `x·q̂⁻¹`, exact-BConv
    /// corrections, pointwise products).
    ModMuls = 1,
    /// Radix-2 butterflies actually executed (forward + inverse NTT).
    NttButterflies = 2,
    /// Scalar-GEMM multiply-accumulates (`m·k·n` per call).
    GemmMacs = 3,
    /// FP64 fragment MACs (256 per `mma_fp64` call).
    TcuFp64Macs = 4,
    /// INT8 fragment MACs (`m·n·k` per `mma_int8` call).
    TcuInt8Macs = 5,
    /// Element extractions when splitting operands into planes.
    SplitOps = 6,
    /// Per-element shift-reduce-add merge operations after fragment GEMMs.
    MergeOps = 7,
    /// Element moves in data-layout reordering (coefficient↔limb major).
    ReorderOps = 8,
    /// Bytes read by instrumented kernels.
    BytesRead = 9,
    /// Bytes written by instrumented kernels.
    BytesWritten = 10,
    /// Kernel-launch equivalents (one per logical GPU kernel).
    Launches = 11,
    /// ABFT verifications executed (GEMM checksum or NTT spot check).
    AbftChecks = 12,
    /// Modular MACs spent computing ABFT checksums and spot checks —
    /// the arithmetic overhead of verification, kept separate so the
    /// cost model can price it explicitly.
    AbftMacs = 13,
}

impl Counter {
    /// All counters in index order.
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::ModMacs,
        Counter::ModMuls,
        Counter::NttButterflies,
        Counter::GemmMacs,
        Counter::TcuFp64Macs,
        Counter::TcuInt8Macs,
        Counter::SplitOps,
        Counter::MergeOps,
        Counter::ReorderOps,
        Counter::BytesRead,
        Counter::BytesWritten,
        Counter::Launches,
        Counter::AbftChecks,
        Counter::AbftMacs,
    ];

    /// Stable snake_case name used in reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ModMacs => "mod_macs",
            Counter::ModMuls => "mod_muls",
            Counter::NttButterflies => "ntt_butterflies",
            Counter::GemmMacs => "gemm_macs",
            Counter::TcuFp64Macs => "tcu_fp64_macs",
            Counter::TcuInt8Macs => "tcu_int8_macs",
            Counter::SplitOps => "split_ops",
            Counter::MergeOps => "merge_ops",
            Counter::ReorderOps => "reorder_ops",
            Counter::BytesRead => "bytes_read",
            Counter::BytesWritten => "bytes_written",
            Counter::Launches => "launches",
            Counter::AbftChecks => "abft_checks",
            Counter::AbftMacs => "abft_macs",
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)] // array-init pattern only
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];

/// Adds `delta` to `counter` if tracing is enabled; a no-op otherwise.
#[inline(always)]
pub fn add(counter: Counter, delta: u64) {
    if crate::enabled() {
        COUNTERS[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Zeroes every counter.
pub(crate) fn reset_counters() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

/// An immutable snapshot of all counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    values: [u64; N_COUNTERS],
}

impl WorkCounters {
    /// The value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// `(name, value)` pairs for the non-zero counters, in index order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .filter(|&&c| self.get(c) != 0)
            .map(|&c| (c.name(), self.get(c)))
            .collect()
    }

    /// Saturating element-wise difference `self - earlier`.
    pub fn since(&self, earlier: &WorkCounters) -> WorkCounters {
        let mut values = [0u64; N_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        WorkCounters { values }
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Counters as a JSON object string (non-zero entries only).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .nonzero()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Snapshot of the live counters.
pub fn snapshot() -> WorkCounters {
    let mut values = [0u64; N_COUNTERS];
    for (i, v) in values.iter_mut().enumerate() {
        *v = COUNTERS[i].load(Ordering::Relaxed);
    }
    WorkCounters { values }
}

/// Serialises measured sections process-wide so concurrent `record` calls
/// (e.g. parallel test threads) cannot pollute each other.
static RECORD_LOCK: Mutex<()> = Mutex::new(());

/// True while a [`record`] section runs: spans and events build the tree
/// only then. `Relaxed` suffices: the flag publishes no data (the arena
/// and event list it admits writes to have their own mutexes).
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Is a [`record`] section running? Spans and point events are kept in
/// the tree only while it is; outside it spans just time themselves into
/// the span histogram.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Takes the process-wide lock [`record`] holds, without touching the
/// gate: for tests that flip the gate by hand and must not race a
/// concurrent `record` section.
pub fn lock() -> MutexGuard<'static, ()> {
    RECORD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the gate and ends the recording section on drop, so a
/// panicking closure cannot leave either switched on.
struct Recording {
    was_enabled: bool,
}

impl Drop for Recording {
    fn drop(&mut self) {
        RECORDING.store(false, Ordering::Relaxed);
        if !self.was_enabled {
            crate::disable();
        }
    }
}

/// Runs `f` with telemetry enabled and the span tree recording, and
/// returns its output together with the counter deltas it produced.
///
/// Holds a process-wide lock for the duration of `f`, enabling the gate
/// on entry and restoring its previous state on exit, so counter deltas
/// are attributable to `f` alone (as long as all *traced* work in the
/// process goes through `record`). Work spawned by `f` onto rayon workers
/// is still captured — the counters are global, not thread-local.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, WorkCounters) {
    let _guard = lock();
    let _recording = Recording {
        was_enabled: crate::enabled(),
    };
    crate::enable();
    RECORDING.store(true, Ordering::Relaxed);
    let before = snapshot();
    let out = f();
    (out, snapshot().since(&before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_saturates() {
        let (_, a) = record(|| add(Counter::Launches, 3));
        let zero = WorkCounters::default();
        assert_eq!(zero.since(&a).get(Counter::Launches), 0);
        assert_eq!(a.since(&zero).get(Counter::Launches), 3);
    }

    #[test]
    fn json_lists_nonzero_only() {
        let (_, w) = record(|| {
            add(Counter::ModMacs, 5);
            add(Counter::BytesRead, 80);
        });
        let j = w.to_json();
        assert!(j.contains("\"mod_macs\":5"));
        assert!(j.contains("\"bytes_read\":80"));
        assert!(!j.contains("tcu_fp64_macs"));
    }
}
