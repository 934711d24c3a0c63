//! Telemetry for the CKKS layer beyond the op spans themselves.
//!
//! Per-op latency is the op's span: `span_duration_ns{span="ckks.hmult"}`
//! (likewise `ckks.hadd`, `ckks.hrotate`, `ckks.rescale`), recorded by
//! `neo-trace` when the span closes. This module adds what a span cannot
//! measure:
//!
//! * `fhe_noise_consumed_bits{op}` — noise-budget bits an op consumed
//!   (the drop from the weakest operand's budget to the result's, via
//!   [`crate::ops::noise_budget_bits`]), labeled by op kind
//!   (`hmult`/`hadd`/`hrotate`/`rescale`);
//! * `fhe_batch_*` counters from the [`crate::batch::BatchReport`]
//!   recovery accounting.
//!
//! Both cost one relaxed load while the [`neo_trace::enabled`] gate is off.

use crate::batch::BatchReport;
use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::ops::noise_budget_bits;
use neo_trace::{CounterHandle, Histogram};
use std::sync::{Arc, LazyLock};

/// The op kinds whose noise consumption is recorded, indexing the
/// histogram array in label order `hmult`, `hadd`, `hrotate`, `rescale`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    HMult = 0,
    HAdd = 1,
    HRotate = 2,
    Rescale = 3,
}

static NOISE: LazyLock<[Arc<Histogram>; 4]> = LazyLock::new(|| {
    ["hmult", "hadd", "hrotate", "rescale"]
        .map(|op| neo_trace::histogram("fhe_noise_consumed_bits", &[("op", op)]))
});

static BATCH_OPS: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("fhe_batch_ops_total", &[]));
static BATCH_FAILED: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("fhe_batch_op_failures_total", &[]));
static BATCH_RETRIES: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("fhe_batch_retries_total", &[]));
static BATCH_RECOVERED: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("fhe_batch_faults_recovered_total", &[]));
static BATCH_QUARANTINED: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("fhe_batch_plans_quarantined_total", &[]));

/// Records the noise budget `out` consumed relative to the weakest of
/// `operands`. A no-op while the gate is off.
pub(crate) fn note_noise(
    kind: OpKind,
    ctx: &CkksContext,
    operands: &[&Ciphertext],
    out: &Ciphertext,
) {
    if !neo_trace::enabled() {
        return;
    }
    let in_budget = operands
        .iter()
        .map(|ct| noise_budget_bits(ctx, ct))
        .fold(f64::INFINITY, f64::min);
    let consumed = (in_budget - noise_budget_bits(ctx, out)).max(0.0);
    NOISE[kind as usize].record(consumed.round() as u64);
}

/// Records a rotation's noise consumption (HRotate's or a BSGS stage's):
/// a rotation keeps level and scale, so it consumes no budget. A no-op
/// while the gate is off.
pub(crate) fn note_rotation() {
    if neo_trace::enabled() {
        NOISE[OpKind::HRotate as usize].record(0);
    }
}

/// Folds a batch execution's recovery accounting into the `fhe_batch_*`
/// counters and refreshes the NTT plan-cache gauges. A no-op while the
/// gate is off.
pub(crate) fn record_batch_report(report: &BatchReport) {
    if !neo_trace::enabled() {
        return;
    }
    BATCH_OPS.add(report.results.len() as u64);
    BATCH_FAILED.add(report.results.iter().filter(|r| r.is_err()).count() as u64);
    BATCH_RETRIES.add(u64::from(report.total_retries()));
    BATCH_RECOVERED.add(u64::from(report.total_recovered()));
    BATCH_QUARANTINED.add(report.plans_quarantined);
    neo_ntt::cache::publish_cache_metrics();
}
