//! Admission: priority ordering and batch coalescing, plus the device
//! model's prices for the callers that report them.
//!
//! Queued requests are ordered by urgency — lowest remaining noise
//! budget first (closest to exhaustion), then deepest level consumed,
//! then FIFO — and coalesced greedily in that order. The noise term is
//! *aged* by queue wait, one bit per second, so a healthy request cannot
//! be starved indefinitely by a stream of noise-poor arrivals. The batch
//! is cut at the coalescing window or at the op cap, whichever binds
//! first; the head of the queue is always admitted.
//!
//! Admission is host work and reads no device model. The modelled A100
//! prices live beside it for the callers that report them, outside the
//! serving path: [`price_request`] prices one request on one stream, and
//! [`price_batch`] prices a coalesced batch as the disjoint union of its
//! requests' kernel graphs over a stream sweep.

use crate::tenant::TenantId;
use neo_ckks::cost::CostConfig;
use neo_ckks::{BatchProgram, Ciphertext, CkksParams, KsMethod, NeoError};
use neo_gpu_sim::DeviceModel;
use neo_sched::{estimate_makespan, estimate_makespan_best, OpGraph};
use std::time::{Duration, Instant};

/// Bits of urgency credit per second of queue wait. Each coalesce sorts
/// by *effective* noise budget — `noise_bits − AGING_BITS_PER_SEC ×
/// waited` — so a healthy request stuck behind a stream of noise-starved
/// arrivals eventually becomes the most urgent itself.
const AGING_BITS_PER_SEC: f64 = 1.0;

/// Refuses to price KLSS key switching on parameters without a KLSS
/// configuration, before any kernel graph is built.
fn check_priceable(params: &CkksParams, method: KsMethod) -> Result<(), NeoError> {
    if method == KsMethod::Klss && params.klss.is_none() {
        return Err(NeoError::invalid_params(
            "KLSS key switching cannot be priced on parameters without a KLSS configuration",
        ));
    }
    Ok(())
}

/// Prices one request: the simulated single-stream makespan of its
/// kernel graph at `level` on `dev`, under `cost`.
///
/// # Errors
///
/// [`NeoError::InvalidParams`] when `cost` switches keys with KLSS and
/// `params` carry no KLSS configuration.
pub fn price_request(
    program: &BatchProgram,
    params: &CkksParams,
    level: usize,
    cost: &CostConfig,
    dev: &DeviceModel,
) -> Result<Duration, NeoError> {
    check_priceable(params, cost.method)?;
    let g = program.kernel_graph(params, level, cost);
    Ok(estimate_makespan(&g, dev, 1))
}

/// Prices a coalesced batch on `dev`: the disjoint union of the
/// requests' kernel graphs, in admission order with request `i` tagged
/// `i`, swept over `1..=cfg.max_streams` streams. Each request is
/// `(program, level, method)`, its level on the `functional` chain; it
/// prices at [`pricing_level`] on `cfg.pricing_params` (on `functional`
/// when that is `None`), under Neo's cost configuration with the
/// request's key-switching method. Returns the best stream count and its
/// makespan.
///
/// # Errors
///
/// [`NeoError::InvalidParams`] when `cfg.max_streams` is 0, or when a
/// request switches keys with KLSS and the pricing parameters carry no
/// KLSS configuration.
pub fn price_batch(
    requests: &[(&BatchProgram, usize, KsMethod)],
    functional: &CkksParams,
    cfg: &AdmissionConfig,
    dev: &DeviceModel,
) -> Result<(usize, Duration), NeoError> {
    if cfg.max_streams == 0 {
        return Err(NeoError::invalid_params(
            "a batch is priced over 1..=max_streams streams; max_streams is 0",
        ));
    }
    let pricing = cfg.pricing_params.as_ref().unwrap_or(functional);
    for &(_, _, method) in requests {
        check_priceable(pricing, method)?;
    }
    let mut graph = OpGraph::default();
    for (i, &(program, level, method)) in requests.iter().enumerate() {
        let cost = CostConfig {
            method,
            ..CostConfig::neo()
        };
        let lvl = pricing_level(level, functional, pricing);
        program.append_kernel_graph(&mut graph, pricing, lvl, &cost, i);
    }
    Ok(estimate_makespan_best(&graph, dev, cfg.max_streams))
}

/// Knobs of the admission policy.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum requests coalesced into one batch (the coalescing
    /// window).
    pub coalesce_window: usize,
    /// Maximum total [`neo_ckks::BatchOp`]s across a coalesced batch.
    /// The head of the queue is admitted even when its own ops exceed
    /// it (it would otherwise starve forever).
    pub max_batch_ops: usize,
    /// Pending-queue bound; submissions beyond it are shed with
    /// [`NeoError::Overloaded`] (`what = "queue_depth"`).
    pub max_queue_depth: usize,
    /// Stream counts [`price_batch`] sweeps (`1..=max_streams`).
    pub max_streams: usize,
    /// Parameter set [`price_batch`] prices at. `None` prices on the
    /// registry's functional parameters; a deployment whose host runs
    /// reduced functional parameters (the usual testing setup in this
    /// repo) should point this at the accelerator's real set (e.g.
    /// `ParamSet::C.params()`) so makespans reflect the device being
    /// modelled, not the host-side stand-in. Request levels are mapped by
    /// distance from the top of the chain: a request `d` levels below the
    /// functional ceiling prices `d` levels below the pricing ceiling.
    pub pricing_params: Option<CkksParams>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            coalesce_window: 32,
            max_batch_ops: 512,
            max_queue_depth: 4096,
            max_streams: 4,
            pricing_params: None,
        }
    }
}

/// Maps a request level on the functional chain onto the pricing chain,
/// preserving distance from the top: serving traffic arrives near the
/// chain ceiling, so a request `d` levels into its budget prices `d`
/// levels into the accelerator's budget.
pub fn pricing_level(level: usize, functional: &CkksParams, pricing: &CkksParams) -> usize {
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
    /// Common input level (drives key warm-up and the priority order).
    pub level: usize,
    /// Minimum noise budget across the inputs, in bits — the urgency
    /// signal: ciphertexts nearest exhaustion run first.
    pub noise_bits: f64,
    /// Enqueue timestamp (queue-latency accounting).
    pub submitted: Instant,
}

impl QueuedRequest {
    /// Priority key: lower sorts first. Noise-starved requests, then
    /// deeper (more-consumed) levels, then FIFO order. Queue wait ages
    /// the noise term down at [`AGING_BITS_PER_SEC`], so long-waiting
    /// requests converge on the front of the queue; `now` is captured
    /// once per coalesce so one sort sees one consistent clock.
    fn priority(&self, now: Instant) -> (u64, usize, u64) {
        let waited = now.saturating_duration_since(self.submitted).as_secs_f64();
        // f64 → order-preserving u64 for a total order without NaN traps
        // (budgets are finite and non-negative).
        let bits = (self.noise_bits - AGING_BITS_PER_SEC * waited)
            .max(0.0)
            .to_bits();
        (bits, self.level, self.id)
    }
}

/// A coalesced batch ready for execution.
#[derive(Debug)]
pub struct CoalescedBatch {
    /// Admitted requests, in priority order.
    pub requests: Vec<QueuedRequest>,
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
    /// the window and op caps hold. Returns `None` on an empty queue.
    ///
    /// The cut is *ordered*: the first candidate over the op cap ends the
    /// batch rather than being skipped, so admission never reorders a
    /// small request past an urgent large one.
    pub fn coalesce(&mut self) -> Option<CoalescedBatch> {
        if self.pending.is_empty() {
            return None;
        }
        let now = Instant::now();
        self.pending.sort_by_key(|r| r.priority(now));

        let mut total_ops = self.pending[0].program.ops.len();
        let mut admitted = 1usize;
        while admitted < self.pending.len() && admitted < self.cfg.coalesce_window {
            let cand_ops = self.pending[admitted].program.ops.len();
            if total_ops + cand_ops > self.cfg.max_batch_ops {
                break;
            }
            total_ops += cand_ops;
            admitted += 1;
        }
        Some(CoalescedBatch {
            requests: self.pending.drain(..admitted).collect(),
            total_ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_ckks::{BatchOp, FheEngine, ParamSet, Slot};

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
        QueuedRequest {
            id,
            tenant,
            program,
            inputs: vec![ct],
            level,
            noise_bits,
            submitted: Instant::now(),
        }
    }

    /// HMult → Rescale: the shape whose key switch prices differently
    /// under KLSS and Hybrid.
    fn hmult_rescale() -> BatchProgram {
        let mut p = BatchProgram::new();
        let m = p
            .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
            .expect("push");
        p.try_push(BatchOp::Rescale(m)).expect("push");
        p
    }

    fn klss_free() -> CkksParams {
        CkksParams {
            klss: None,
            ..CkksParams::test_small()
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
        let cfg = AdmissionConfig {
            coalesce_window: 2,
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        // Submitted in id order, but 2 is the most noise-starved.
        q.try_enqueue(req(0, 1, 80.0, 3, 2)).expect("enqueue");
        q.try_enqueue(req(1, 2, 60.0, 3, 2)).expect("enqueue");
        q.try_enqueue(req(2, 3, 10.0, 3, 2)).expect("enqueue");
        let batch = q.coalesce().expect("batch");
        assert_eq!(batch.requests.len(), 2, "window of 2");
        assert_eq!(batch.requests[0].id, 2, "most urgent first");
        assert_eq!(batch.requests[1].id, 1);
        assert_eq!(q.depth(), 1, "one left behind");
        assert_eq!(batch.total_ops, 4);
    }

    #[test]
    fn aging_prevents_starvation_of_healthy_requests() {
        let cfg = AdmissionConfig {
            coalesce_window: 1,
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
        let batch = q.coalesce().expect("batch");
        assert_eq!(
            batch.requests[0].id, 0,
            "the long-waiting request must be served first"
        );
    }

    #[test]
    fn op_cap_cuts_batch() {
        let cfg = AdmissionConfig {
            max_batch_ops: 5,
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg.clone());
        q.try_enqueue(req(0, 1, 50.0, 3, 3)).expect("enqueue");
        q.try_enqueue(req(1, 2, 50.0, 3, 3)).expect("enqueue");
        let batch = q.coalesce().expect("batch");
        assert_eq!(batch.requests.len(), 1, "3 + 3 > 5");
        assert_eq!(batch.total_ops, 3);

        // A head whose own ops exceed the cap is still admitted, alone.
        let mut q = AdmissionQueue::new(cfg);
        q.try_enqueue(req(0, 1, 10.0, 3, 7)).expect("enqueue");
        q.try_enqueue(req(1, 2, 50.0, 3, 1)).expect("enqueue");
        let batch = q.coalesce().expect("batch");
        assert_eq!(batch.requests.len(), 1, "the head runs alone");
        assert_eq!(batch.requests[0].id, 0);
        assert_eq!(batch.total_ops, 7);
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn klss_pricing_on_klss_free_params_is_refused_typed() {
        let params = klss_free();
        let dev = DeviceModel::a100();
        let prog = hmult_rescale();
        let err = price_request(&prog, &params, 2, &CostConfig::neo(), &dev)
            .expect_err("KLSS cannot be priced without a KLSS configuration");
        assert_eq!(err.kind().name(), "invalid_params");
        let err = price_batch(
            &[(&prog, 2, KsMethod::Klss)],
            &params,
            &AdmissionConfig::default(),
            &dev,
        )
        .expect_err("KLSS cannot be priced without a KLSS configuration");
        assert_eq!(err.kind().name(), "invalid_params");
    }

    #[test]
    fn hybrid_pricing_on_klss_free_params_is_priced() {
        let params = klss_free();
        let dev = DeviceModel::a100();
        let prog = hmult_rescale();
        let hybrid = CostConfig {
            method: KsMethod::Hybrid,
            ..CostConfig::neo()
        };
        let solo = price_request(&prog, &params, 2, &hybrid, &dev).expect("Hybrid prices");
        assert!(solo > Duration::ZERO);
        let (streams, makespan) = price_batch(
            &[(&prog, 2, KsMethod::Hybrid), (&prog, 2, KsMethod::Hybrid)],
            &params,
            &AdmissionConfig::default(),
            &dev,
        )
        .expect("Hybrid prices");
        assert!((1..=4).contains(&streams) && makespan > Duration::ZERO);
    }

    #[test]
    fn price_batch_without_streams_is_refused_typed() {
        let cfg = AdmissionConfig {
            max_streams: 0,
            ..AdmissionConfig::default()
        };
        let prog = hmult_rescale();
        let err = price_batch(
            &[(&prog, 3, KsMethod::Klss)],
            &CkksParams::test_tiny(),
            &cfg,
            &DeviceModel::a100(),
        )
        .expect_err("no stream count to sweep");
        assert_eq!(err.kind().name(), "invalid_params");
    }

    #[test]
    fn price_batch_of_one_at_one_stream_is_price_request() {
        let functional = CkksParams::test_tiny();
        let pricing = ParamSet::C.params();
        let dev = DeviceModel::a100();
        let cfg = AdmissionConfig {
            max_streams: 1,
            pricing_params: Some(pricing.clone()),
            ..AdmissionConfig::default()
        };
        let prog = hmult_rescale();
        for method in [KsMethod::Klss, KsMethod::Hybrid] {
            let cost = CostConfig {
                method,
                ..CostConfig::neo()
            };
            let plevel = pricing_level(3, &functional, &pricing);
            let solo = price_request(&prog, &pricing, plevel, &cost, &dev).expect("priced");
            let batch =
                price_batch(&[(&prog, 3, method)], &functional, &cfg, &dev).expect("priced");
            assert_eq!(batch, (1, solo), "{method:?}");
        }
    }
}
