//! Admission: priority ordering, batch coalescing, and the sim-priced
//! cut-off.
//!
//! Queued requests are ordered by urgency — lowest remaining noise
//! budget first (closest to exhaustion), then deepest level consumed,
//! then FIFO — and coalesced greedily in that order. The noise term is
//! *aged* by queue wait ([`AdmissionConfig::aging_bits_per_sec`]), so a
//! healthy request cannot be starved indefinitely by a stream of
//! noise-poor arrivals. Pricing is two-tier so admission stays cheap at
//! high request rates:
//!
//! 1. at submission each request is priced **once** with a
//!    single-stream run of the discrete-event simulator over its own
//!    kernel graph ([`price_request`]); the coalescing cut then uses
//!    the *additive* sum of solo estimates against
//!    [`AdmissionConfig::makespan_budget`] — a conservative bound,
//!    since it ignores cross-request stream overlap;
//! 2. the admitted set's graphs are merged into one [`OpGraph`]
//!    (disjoint union: requests share no edges, so the multi-stream
//!    scheduler is free to overlap them) and a single
//!    [`neo_sched::estimate_makespan_best`] sweep refines the estimate
//!    and picks the stream count that travels with the batch to the
//!    executor.
//!
//! The batch is cut at the first candidate that would push the summed
//! estimate past the budget, or at the window/op caps.

use crate::tenant::TenantId;
use neo_ckks::cost::CostConfig;
use neo_ckks::{BatchProgram, Ciphertext, KsMethod, NeoError};
use neo_gpu_sim::DeviceModel;
use neo_sched::{estimate_makespan, estimate_makespan_best, OpGraph};
use std::time::{Duration, Instant};

/// Prices one request: the simulated single-stream makespan of its
/// kernel graph at `level` on `dev`. Computed once per request at
/// submission, under Neo's cost configuration with the tenant's
/// key-switching method; the coalescing cut sums these.
pub fn price_request(
    program: &BatchProgram,
    params: &neo_ckks::CkksParams,
    level: usize,
    cost: &CostConfig,
    dev: &DeviceModel,
) -> Duration {
    let g = program.kernel_graph(params, level, cost);
    estimate_makespan(&g, dev, 1)
}

/// The kernel cost model a request is priced under: Neo's configuration
/// with the key-switching method the tenant's engine runs.
pub(crate) fn cost_config(method: KsMethod) -> CostConfig {
    CostConfig {
        method,
        ..CostConfig::neo()
    }
}

/// Knobs of the admission policy.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum requests coalesced into one batch (the coalescing
    /// window).
    pub coalesce_window: usize,
    /// Maximum total [`neo_ckks::BatchOp`]s across a coalesced batch.
    pub max_batch_ops: usize,
    /// Pending-queue bound; submissions beyond it are shed with
    /// [`NeoError::Overloaded`] (`what = "queue_depth"`).
    pub max_queue_depth: usize,
    /// Simulated-makespan budget per coalesced batch: the cost oracle's
    /// cut-off. The head-of-queue request is always admitted even if it
    /// alone exceeds the budget (otherwise it could starve forever).
    pub makespan_budget: Duration,
    /// Stream counts the cost oracle sweeps (`1..=max_streams`); the
    /// winner is recorded on the batch.
    pub max_streams: usize,
    /// Parameter set the cost oracle prices against. `None` prices on
    /// the registry's functional parameters; a deployment whose host
    /// runs reduced functional parameters (the usual testing setup in
    /// this repo) should point this at the accelerator's real set (e.g.
    /// `ParamSet::C.params()`) so makespans — and therefore batch
    /// cut-offs and stream choices — reflect the device being scheduled,
    /// not the host-side stand-in. Request levels are mapped by distance
    /// from the top of the chain: a request `d` levels below the
    /// functional ceiling prices `d` levels below the pricing ceiling.
    pub pricing_params: Option<neo_ckks::CkksParams>,
    /// Priority aging: bits of urgency credit per second of queue wait.
    /// Each coalesce sorts by *effective* noise budget —
    /// `noise_bits − aging_bits_per_sec × waited` — so a healthy request
    /// stuck behind a stream of noise-starved arrivals eventually
    /// becomes the most urgent itself instead of starving. `0.0`
    /// disables aging (the pre-0.4 static ordering).
    pub aging_bits_per_sec: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            coalesce_window: 32,
            max_batch_ops: 512,
            max_queue_depth: 4096,
            makespan_budget: Duration::from_secs(30),
            max_streams: 4,
            aging_bits_per_sec: 1.0,
            pricing_params: None,
        }
    }
}

/// Maps a request level on the functional chain onto the pricing chain,
/// preserving distance from the top: serving traffic arrives near the
/// chain ceiling, so a request `d` levels into its budget prices `d`
/// levels into the accelerator's budget.
pub fn pricing_level(
    level: usize,
    functional: &neo_ckks::CkksParams,
    pricing: &neo_ckks::CkksParams,
) -> usize {
    let depth = functional.max_level.saturating_sub(level);
    pricing.max_level.saturating_sub(depth)
}

/// A submitted request waiting for admission.
#[derive(Debug)]
pub struct QueuedRequest {
    /// Service-assigned sequence number (FIFO tiebreak + response key).
    pub id: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// The program to run.
    pub program: BatchProgram,
    /// Batch inputs (all at one level, per [`BatchProgram`] contract).
    pub inputs: Vec<Ciphertext>,
    /// Common input level (drives key warm-up and graph costing).
    pub level: usize,
    /// The tenant engine's key-switching method: the request's kernel
    /// graph is priced under it.
    pub method: KsMethod,
    /// Minimum noise budget across the inputs, in bits — the urgency
    /// signal: ciphertexts nearest exhaustion run first.
    pub noise_bits: f64,
    /// The request's solo single-stream makespan estimate (see
    /// [`price_request`]), summed by the coalescing cut.
    pub solo_est: Duration,
    /// Enqueue timestamp (queue-latency accounting).
    pub submitted: Instant,
}

impl QueuedRequest {
    /// Priority key: lower sorts first. Noise-starved requests, then
    /// deeper (more-consumed) levels, then FIFO order. Queue wait ages
    /// the noise term down at `aging_bits_per_sec`, so long-waiting
    /// requests converge on the front of the queue; `now` is captured
    /// once per coalesce so one sort sees one consistent clock.
    fn priority(&self, now: Instant, aging_bits_per_sec: f64) -> (u64, usize, u64) {
        let waited = now.saturating_duration_since(self.submitted).as_secs_f64();
        // f64 → order-preserving u64 for a total order without NaN traps
        // (budgets are finite and non-negative).
        let bits = (self.noise_bits - aging_bits_per_sec * waited)
            .max(0.0)
            .to_bits();
        (bits, self.level, self.id)
    }
}

/// A coalesced batch ready for execution: the admitted requests, their
/// merged kernel graph, and the cost oracle's verdict.
#[derive(Debug)]
pub struct CoalescedBatch {
    /// Admitted requests, in priority order.
    pub requests: Vec<QueuedRequest>,
    /// Disjoint union of the requests' kernel graphs.
    pub graph: OpGraph,
    /// Stream count the simulator found best for this batch.
    pub streams: usize,
    /// Simulated makespan at that stream count.
    pub est_makespan: Duration,
    /// Total `BatchOp`s across the batch.
    pub total_ops: usize,
}

impl CoalescedBatch {
    /// Requests per batch — the coalescing factor contribution.
    pub fn coalesced(&self) -> usize {
        self.requests.len()
    }
}

/// The pending-request queue plus the coalescing policy.
#[derive(Debug)]
pub struct AdmissionQueue {
    cfg: AdmissionConfig,
    pending: Vec<QueuedRequest>,
}

impl AdmissionQueue {
    /// Empty queue under `cfg`.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            pending: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Pending requests not yet coalesced.
    pub fn depth(&self) -> usize {
        self.pending.len()
    }

    /// Accepts a request, or sheds it when the queue is at its bound.
    ///
    /// # Errors
    ///
    /// [`NeoError::Overloaded`] (`what = "queue_depth"`) when
    /// `depth() >= max_queue_depth`.
    pub fn try_enqueue(&mut self, req: QueuedRequest) -> Result<(), NeoError> {
        if self.pending.len() >= self.cfg.max_queue_depth {
            return Err(NeoError::overloaded(
                "queue_depth",
                format!(
                    "admission queue at bound {} — request {} from tenant {} shed",
                    self.cfg.max_queue_depth, req.id, req.tenant
                ),
            ));
        }
        self.pending.push(req);
        Ok(())
    }

    /// Forms the next batch: sorts pending requests by urgency, admits
    /// the head unconditionally, then greedily admits candidates while
    /// the summed solo estimates stay within budget and the window/op
    /// caps hold. The admitted set's merged graph is then priced once
    /// with a full stream sweep. Returns `None` on an empty queue.
    ///
    /// The cut is *ordered*: the first over-budget candidate ends the
    /// batch rather than being skipped, so admission never reorders a
    /// cheap request past an urgent expensive one.
    pub fn coalesce(
        &mut self,
        params: &neo_ckks::CkksParams,
        dev: &DeviceModel,
    ) -> Option<CoalescedBatch> {
        if self.pending.is_empty() {
            return None;
        }
        let now = Instant::now();
        let aging = self.cfg.aging_bits_per_sec;
        self.pending.sort_by_key(|r| r.priority(now, aging));

        // Head of queue: always admitted, even over budget (it would
        // otherwise starve forever).
        let mut total_ops = self.pending[0].program.ops.len();
        let mut summed_est = self.pending[0].solo_est;
        let mut admitted = 1usize;
        while admitted < self.pending.len() && admitted < self.cfg.coalesce_window {
            let cand = &self.pending[admitted];
            let cand_ops = cand.program.ops.len();
            if total_ops + cand_ops > self.cfg.max_batch_ops {
                break;
            }
            if summed_est + cand.solo_est > self.cfg.makespan_budget {
                break;
            }
            summed_est += cand.solo_est;
            total_ops += cand_ops;
            admitted += 1;
        }

        let requests: Vec<QueuedRequest> = self.pending.drain(..admitted).collect();
        let pricing = self.cfg.pricing_params.as_ref().unwrap_or(params);
        let mut graph = OpGraph::default();
        for (i, req) in requests.iter().enumerate() {
            let lvl = pricing_level(req.level, params, pricing);
            req.program
                .append_kernel_graph(&mut graph, pricing, lvl, &cost_config(req.method), i);
        }
        let (streams, est) = estimate_makespan_best(&graph, dev, self.cfg.max_streams);
        Some(CoalescedBatch {
            requests,
            graph,
            streams,
            est_makespan: est,
            total_ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_ckks::{BatchOp, CkksParams, FheEngine, Slot};

    fn req(
        id: u64,
        tenant: TenantId,
        noise_bits: f64,
        level: usize,
        n_ops: usize,
    ) -> QueuedRequest {
        let engine = FheEngine::new(CkksParams::test_tiny(), 42).expect("engine");
        let ct = engine.encrypt_f64(&[1.0], level).expect("enc");
        let mut program = BatchProgram::new();
        for _ in 0..n_ops {
            program
                .try_push(BatchOp::HAdd(Slot::Input(0), Slot::Input(0)))
                .expect("push");
        }
        let solo_est = price_request(
            &program,
            &CkksParams::test_tiny(),
            level,
            &cost_config(engine.method()),
            &DeviceModel::a100(),
        );
        QueuedRequest {
            id,
            tenant,
            program,
            inputs: vec![ct],
            level,
            method: engine.method(),
            noise_bits,
            solo_est,
            submitted: Instant::now(),
        }
    }

    #[test]
    fn queue_bound_sheds_with_typed_error() {
        let cfg = AdmissionConfig {
            max_queue_depth: 2,
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        q.try_enqueue(req(0, 1, 50.0, 3, 1)).expect("fits");
        q.try_enqueue(req(1, 1, 50.0, 3, 1)).expect("fits");
        let err = q.try_enqueue(req(2, 1, 50.0, 3, 1)).expect_err("bound");
        assert_eq!(err.kind().name(), "overloaded");
    }

    #[test]
    fn coalesce_orders_by_urgency_and_respects_window() {
        let params = CkksParams::test_tiny();
        let dev = DeviceModel::a100();
        let cfg = AdmissionConfig {
            coalesce_window: 2,
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        // Submitted in id order, but 2 is the most noise-starved.
        q.try_enqueue(req(0, 1, 80.0, 3, 2)).expect("enqueue");
        q.try_enqueue(req(1, 2, 60.0, 3, 2)).expect("enqueue");
        q.try_enqueue(req(2, 3, 10.0, 3, 2)).expect("enqueue");
        let batch = q.coalesce(&params, &dev).expect("batch");
        assert_eq!(batch.requests.len(), 2, "window of 2");
        assert_eq!(batch.requests[0].id, 2, "most urgent first");
        assert_eq!(batch.requests[1].id, 1);
        assert_eq!(q.depth(), 1, "one left behind");
        assert!(batch.streams >= 1 && batch.est_makespan > Duration::ZERO);
        assert_eq!(batch.total_ops, 4);
    }

    #[test]
    fn aging_prevents_starvation_of_healthy_requests() {
        let params = CkksParams::test_tiny();
        let dev = DeviceModel::a100();
        let cfg = AdmissionConfig {
            coalesce_window: 1,
            aging_bits_per_sec: 1.0,
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        // A healthy request (80 bits of budget) that has waited 100s,
        // against a freshly-arrived noise-starved one (10 bits). Without
        // aging the fresh request wins every round and the healthy one
        // starves; with aging the effective budget 80 − 100 < 10 puts
        // the old request in front.
        let mut old = req(0, 1, 80.0, 3, 1);
        old.submitted = Instant::now() - Duration::from_secs(100);
        q.try_enqueue(old).expect("enqueue");
        q.try_enqueue(req(1, 2, 10.0, 3, 1)).expect("enqueue");
        let batch = q.coalesce(&params, &dev).expect("batch");
        assert_eq!(
            batch.requests[0].id, 0,
            "the long-waiting request must be served first"
        );

        // With aging disabled, the static order reasserts itself.
        let cfg = AdmissionConfig {
            coalesce_window: 1,
            aging_bits_per_sec: 0.0,
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        let mut old = req(0, 1, 80.0, 3, 1);
        old.submitted = Instant::now() - Duration::from_secs(100);
        q.try_enqueue(old).expect("enqueue");
        q.try_enqueue(req(1, 2, 10.0, 3, 1)).expect("enqueue");
        let batch = q.coalesce(&params, &dev).expect("batch");
        assert_eq!(batch.requests[0].id, 1, "no aging: raw noise order");
    }

    #[test]
    fn makespan_budget_cuts_batch_but_head_always_admitted() {
        let params = CkksParams::test_tiny();
        let dev = DeviceModel::a100();
        // Budget so small nothing fits: the head must still be admitted.
        let cfg = AdmissionConfig {
            makespan_budget: Duration::from_nanos(1),
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        q.try_enqueue(req(0, 1, 50.0, 3, 3)).expect("enqueue");
        q.try_enqueue(req(1, 2, 50.0, 3, 3)).expect("enqueue");
        let batch = q.coalesce(&params, &dev).expect("batch");
        assert_eq!(batch.requests.len(), 1, "budget cuts after the head");
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn op_cap_cuts_batch() {
        let params = CkksParams::test_tiny();
        let dev = DeviceModel::a100();
        let cfg = AdmissionConfig {
            max_batch_ops: 5,
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        q.try_enqueue(req(0, 1, 50.0, 3, 3)).expect("enqueue");
        q.try_enqueue(req(1, 2, 50.0, 3, 3)).expect("enqueue");
        let batch = q.coalesce(&params, &dev).expect("batch");
        assert_eq!(batch.requests.len(), 1, "3 + 3 > 5");
        assert_eq!(batch.total_ops, 3);
    }
}
