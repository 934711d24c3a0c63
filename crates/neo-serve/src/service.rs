//! The service loop: a deterministic synchronous core plus a threaded
//! front-end.
//!
//! [`ServiceCore`] is single-threaded and deterministic — given the same
//! submission sequence it forms the same batches, sheds the same
//! requests, and (because per-request execution is bit-exact regardless
//! of the rayon schedule) returns the same ciphertexts. The benchmark
//! and the isolation tests drive it directly.
//!
//! [`NeoService`] wraps the core in a worker thread behind a *bounded*
//! channel: `submit` never blocks — a full channel is backpressure,
//! answered immediately with [`NeoError::Overloaded`] — and each
//! accepted request resolves through its own [`ResponseHandle`].

use crate::admission::{AdmissionConfig, AdmissionQueue, QueuedRequest};
use crate::executor::{execute_coalesced, BatchStats, Response};
use crate::tenant::{TenantId, TenantRegistry};
use neo_ckks::{BatchProgram, Ciphertext, NeoError};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission policy (window, caps, queue bound, pricing
    /// parameters).
    pub admission: AdmissionConfig,
    /// Threaded front-end only: how long the worker waits for more
    /// arrivals before cutting a partial batch.
    pub linger: Duration,
    /// Threaded front-end only: submission-channel bound; `submit`
    /// sheds with [`NeoError::Overloaded`] (`what = "channel"`) when
    /// it is full.
    pub channel_bound: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionConfig::default(),
            linger: Duration::from_micros(200),
            channel_bound: 1024,
        }
    }
}

/// Cumulative service counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered after execution.
    pub completed: u64,
    /// Shed: admission queue at bound.
    pub shed_queue: u64,
    /// Shed: tenant recovery budget exhausted.
    pub shed_budget: u64,
    /// Shed: tenant inflight cap.
    pub shed_inflight: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests across all executed batches.
    pub coalesced_requests: u64,
    /// Engine retries across all requests.
    pub retries: u64,
    /// Faults absorbed by retry across all requests.
    pub faults_recovered: u64,
}

impl ServeStats {
    /// Total requests shed at admission.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue + self.shed_budget + self.shed_inflight
    }

    /// Mean requests per executed batch.
    pub fn coalescing_factor(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.coalesced_requests as f64 / self.batches as f64
        }
    }
}

/// The synchronous, deterministic service core.
pub struct ServiceCore {
    registry: Arc<TenantRegistry>,
    queue: AdmissionQueue,
    next_id: u64,
    stats: ServeStats,
}

impl ServiceCore {
    /// A core over `registry` with policy `cfg`.
    pub fn new(registry: Arc<TenantRegistry>, cfg: ServeConfig) -> Self {
        Self {
            registry,
            queue: AdmissionQueue::new(cfg.admission),
            next_id: 1,
            stats: ServeStats::default(),
        }
    }

    /// The tenant registry.
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// Pending (admitted, not yet executed) requests.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Submits a request for `tenant`; returns its request id.
    ///
    /// # Errors
    ///
    /// * [`NeoError::InvalidParams`] — unknown tenant.
    /// * [`NeoError::Overloaded`] — shed: tenant recovery budget
    ///   exhausted (`retry_budget`), tenant inflight cap
    ///   (`tenant_inflight`), or queue at bound (`queue_depth`).
    pub fn submit(
        &mut self,
        tenant: TenantId,
        program: BatchProgram,
        inputs: Vec<Ciphertext>,
    ) -> Result<u64, NeoError> {
        let session = self.registry.get(tenant).ok_or_else(|| {
            NeoError::invalid_params(format!("tenant {tenant} is not registered"))
        })?;
        let engine = session.engine();
        if session.budget_exhausted() {
            session.note_shed();
            self.stats.shed_budget += 1;
            crate::metrics::note_shed("retry_budget");
            return Err(NeoError::overloaded(
                "retry_budget",
                format!(
                    "tenant {tenant} spent {} recovery units against a budget of {}",
                    session.recovery_spend(),
                    session.config().fault_budget
                ),
            ));
        }
        if !session.try_acquire_inflight() {
            session.note_shed();
            self.stats.shed_inflight += 1;
            crate::metrics::note_shed("tenant_inflight");
            return Err(NeoError::overloaded(
                "tenant_inflight",
                format!(
                    "tenant {tenant} at its inflight cap of {}",
                    session.config().max_inflight
                ),
            ));
        }

        let level = inputs
            .first()
            .map_or_else(|| engine.max_level(), Ciphertext::level);
        let noise_bits = inputs
            .iter()
            .map(|ct| engine.noise_budget_bits(ct))
            .fold(f64::INFINITY, f64::min);
        let id = self.next_id;
        let req = QueuedRequest {
            id,
            tenant,
            program,
            inputs,
            level,
            noise_bits,
            submitted: Instant::now(),
        };
        if let Err(e) = self.queue.try_enqueue(req) {
            session.release_inflight();
            session.note_shed();
            self.stats.shed_queue += 1;
            crate::metrics::note_shed("queue_depth");
            return Err(e);
        }
        self.next_id += 1;
        self.stats.submitted += 1;
        crate::metrics::note_request();
        crate::metrics::set_queue_depth(self.queue.depth());
        Ok(id)
    }

    /// Coalesces and executes one batch off the queue, or `None` when
    /// the queue is empty.
    pub fn drain_batch(&mut self) -> Option<(Vec<Response>, BatchStats)> {
        let batch = self.queue.coalesce()?;
        let (responses, stats) = execute_coalesced(&self.registry, batch);
        self.stats.batches += 1;
        self.stats.coalesced_requests += stats.requests as u64;
        self.stats.completed += responses.len() as u64;
        for r in &responses {
            self.stats.retries += u64::from(r.retries);
            self.stats.faults_recovered += u64::from(r.faults_recovered);
        }
        crate::metrics::set_queue_depth(self.queue.depth());
        Some((responses, stats))
    }

    /// Drains the queue to empty; responses in execution order.
    pub fn run_until_idle(&mut self) -> Vec<Response> {
        let mut out = Vec::new();
        while let Some((responses, _)) = self.drain_batch() {
            out.extend(responses);
        }
        out
    }
}

enum Msg {
    Submit {
        tenant: TenantId,
        program: BatchProgram,
        inputs: Vec<Ciphertext>,
        reply: mpsc::Sender<Response>,
    },
}

/// Handle to one accepted request's eventual response.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: mpsc::Receiver<Response>,
}

impl ResponseHandle {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// [`NeoError::Overloaded`] (`what = "service_stopped"`) if the
    /// service shut down before answering.
    pub fn wait(self) -> Result<Response, NeoError> {
        self.rx.recv().map_err(|_| {
            NeoError::overloaded("service_stopped", "service shut down before responding")
        })
    }
}

/// Threaded front-end over [`ServiceCore`]: bounded-channel submission,
/// one worker thread forming and executing batches.
#[derive(Debug)]
pub struct NeoService {
    tx: Option<mpsc::SyncSender<Msg>>,
    worker: Option<JoinHandle<ServeStats>>,
}

impl NeoService {
    /// Spawns the worker thread.
    pub fn spawn(registry: Arc<TenantRegistry>, cfg: ServeConfig) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.channel_bound.max(1));
        let linger = cfg.linger;
        let window = cfg.admission.coalesce_window.max(1);
        let worker = std::thread::spawn(move || {
            let mut core = ServiceCore::new(registry, cfg);
            let mut waiters: HashMap<u64, mpsc::Sender<Response>> = HashMap::new();
            let dispatch =
                |responses: Vec<Response>, waiters: &mut HashMap<u64, mpsc::Sender<Response>>| {
                    for resp in responses {
                        if let Some(reply) = waiters.remove(&resp.request_id) {
                            let _ = reply.send(resp);
                        }
                    }
                };
            loop {
                match rx.recv_timeout(linger) {
                    Ok(Msg::Submit {
                        tenant,
                        program,
                        inputs,
                        reply,
                    }) => {
                        match core.submit(tenant, program, inputs) {
                            Ok(id) => {
                                waiters.insert(id, reply);
                            }
                            Err(e) => {
                                let _ = reply.send(Response::shed(tenant, e));
                            }
                        }
                        if core.queue_depth() >= window {
                            if let Some((responses, _)) = core.drain_batch() {
                                dispatch(responses, &mut waiters);
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if core.queue_depth() > 0 {
                            if let Some((responses, _)) = core.drain_batch() {
                                dispatch(responses, &mut waiters);
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        let responses = core.run_until_idle();
                        dispatch(responses, &mut waiters);
                        break;
                    }
                }
            }
            core.stats()
        });
        Self {
            tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// Submits without blocking; a full channel is immediate
    /// backpressure.
    ///
    /// # Errors
    ///
    /// [`NeoError::Overloaded`] (`what = "channel"`) when the submission
    /// channel is full, (`what = "service_stopped"`) after shutdown.
    pub fn submit(
        &self,
        tenant: TenantId,
        program: BatchProgram,
        inputs: Vec<Ciphertext>,
    ) -> Result<ResponseHandle, NeoError> {
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| NeoError::overloaded("service_stopped", "service already shut down"))?;
        let (reply, rx) = mpsc::channel();
        match tx.try_send(Msg::Submit {
            tenant,
            program,
            inputs,
            reply,
        }) {
            Ok(()) => Ok(ResponseHandle { rx }),
            Err(mpsc::TrySendError::Full(_)) => {
                crate::metrics::note_shed("channel");
                Err(NeoError::overloaded(
                    "channel",
                    "submission channel full — retry with backoff",
                ))
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Err(NeoError::overloaded(
                "service_stopped",
                "service worker exited",
            )),
        }
    }

    /// Stops accepting, drains the queue, and returns final counters.
    pub fn shutdown(mut self) -> ServeStats {
        drop(self.tx.take());
        self.worker
            .take()
            .map(|w| w.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for NeoService {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}
