//! Executor bridge: runs a coalesced batch against the tenants' engines.
//!
//! Key warm-up runs **serially, in admission order, before any request
//! executes**: each tenant's key chest draws from its own deterministic
//! RNG, and warming from worker threads would make the generated keys
//! depend on thread timing. With every key cached up front, the requests
//! run concurrently on the rayon pool — they are independent (separate
//! tenants or separate programs), and each is a pure function of its
//! inputs and keys, so results are bit-identical to a serial pass.
//!
//! The ABFT verify policy is process-wide
//! ([`neo_fault::VerifyScope`]), so requests whose tenants verify
//! differently must not overlap: each group of requests sharing a policy
//! runs concurrently under one scope, one group after another.

use crate::admission::{CoalescedBatch, QueuedRequest};
use crate::tenant::{TenantId, TenantRegistry};
use neo_ckks::{Ciphertext, NeoError, VerifyPolicy};
use neo_fault::VerifyScope;
use neo_trace::SpanGuard;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// The service's answer to one request.
#[derive(Debug)]
pub struct Response {
    /// The id [`crate::ServiceCore::submit`] returned, or `0` if the
    /// request was shed at admission (it never entered the queue).
    pub request_id: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Whole-batch outcome: per-op results on success, or the structural
    /// error (shed, warm-up failure, malformed program) that prevented
    /// execution.
    pub outcome: Result<Vec<Result<Ciphertext, NeoError>>, NeoError>,
    /// Retries the engine attempted across the program's ops.
    pub retries: u32,
    /// Detected faults retry absorbed (results still bit-exact).
    pub faults_recovered: u32,
    /// Time from submission to batch formation.
    pub queue: Duration,
    /// Time executing the request inside its batch.
    pub exec: Duration,
    /// Requests in the coalesced batch this one ran in (0 when shed).
    pub batch_requests: usize,
}

impl Response {
    /// A response for a request shed before entering the queue.
    pub(crate) fn shed(tenant: TenantId, err: NeoError) -> Self {
        Self {
            request_id: 0,
            tenant,
            outcome: Err(err),
            retries: 0,
            faults_recovered: 0,
            queue: Duration::ZERO,
            exec: Duration::ZERO,
            batch_requests: 0,
        }
    }
}

/// Wall-clock accounting for one executed batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchStats {
    /// Requests coalesced into the batch.
    pub requests: usize,
    /// Total `BatchOp`s across the batch.
    pub total_ops: usize,
    /// Host wall time actually spent executing the batch.
    pub exec_wall: Duration,
}

/// Executes a coalesced batch: serial deterministic warm-up, then the
/// requests concurrently, one verify-policy group at a time. Responses
/// come back in admission order.
pub fn execute_coalesced(
    registry: &TenantRegistry,
    batch: CoalescedBatch,
) -> (Vec<Response>, BatchStats) {
    let _span = SpanGuard::enter("serve_batch", || {
        format!("requests={} ops={}", batch.requests.len(), batch.total_ops)
    });
    let t0 = Instant::now();
    let n_requests = batch.requests.len();
    let total_ops = batch.total_ops;

    // Phase 1 — deterministic warm-up, admission order. A request whose
    // warm-up fails is answered with the error and skipped in phase 2
    // (its key material may be incomplete).
    let mut warm: Vec<Option<NeoError>> = Vec::with_capacity(n_requests);
    for req in &batch.requests {
        let res = match registry.get(req.tenant) {
            Some(session) => session.engine().warm_program(&req.program, req.level).err(),
            None => Some(NeoError::invalid_params(format!(
                "tenant {} vanished between admission and execution",
                req.tenant
            ))),
        };
        warm.push(res);
    }

    // Phase 2 — execute, one verify-policy group after another.
    let run_one = |idx: usize, req: &QueuedRequest| -> Response {
        let _rspan = SpanGuard::enter("serve_request", || {
            format!("tenant={} request={}", req.tenant, req.id)
        });
        let queued = t0.saturating_duration_since(req.submitted);
        let e0 = Instant::now();
        let (outcome, retries, recovered) = match (&warm[idx], registry.get(req.tenant)) {
            (Some(err), _) => (Err(err.clone()), 0, 0),
            (None, None) => (
                Err(NeoError::invalid_params(format!(
                    "tenant {} vanished between admission and execution",
                    req.tenant
                ))),
                0,
                0,
            ),
            (None, Some(session)) => {
                match session.engine().execute_batch_with_report(
                    &req.program,
                    &req.inputs,
                    session.config().max_retries,
                ) {
                    Ok(report) => {
                        let r = report.total_retries();
                        let f = report.total_recovered();
                        (Ok(report.results), r, f)
                    }
                    Err(e) => (Err(e), 0, 0),
                }
            }
        };
        Response {
            request_id: req.id,
            tenant: req.tenant,
            outcome,
            retries,
            faults_recovered: recovered,
            queue: queued,
            exec: e0.elapsed(),
            batch_requests: n_requests,
        }
    };

    let mut groups: Vec<(VerifyPolicy, Vec<usize>)> = Vec::new();
    for (idx, req) in batch.requests.iter().enumerate() {
        let policy = registry
            .get(req.tenant)
            .map_or(VerifyPolicy::Off, |s| s.engine().policy().verify);
        match groups.iter_mut().find(|(p, _)| *p == policy) {
            Some((_, members)) => members.push(idx),
            None => groups.push((policy, vec![idx])),
        }
    }
    let mut slots: Vec<Option<Response>> = Vec::new();
    slots.resize_with(n_requests, || None);
    for (policy, members) in groups {
        let _verify = VerifyScope::enter(policy);
        let answered: Vec<Response> = members
            .par_iter()
            .map(|&idx| run_one(idx, &batch.requests[idx]))
            .collect();
        for (idx, resp) in members.into_iter().zip(answered) {
            slots[idx] = Some(resp);
        }
    }
    let responses: Vec<Response> = slots.into_iter().flatten().collect();

    // Post-execution accounting, serial so budget charges are ordered.
    for resp in &responses {
        if let Some(session) = registry.get(resp.tenant) {
            session.charge_recovery(u64::from(resp.retries) + u64::from(resp.faults_recovered));
            session.note_completed();
            session.release_inflight();
        }
    }

    let exec_wall = t0.elapsed();
    crate::metrics::note_batch(n_requests);
    for resp in &responses {
        crate::metrics::note_response(
            resp.queue.as_nanos() as u64,
            (resp.queue + resp.exec).as_nanos() as u64,
        );
    }

    (
        responses,
        BatchStats {
            requests: n_requests,
            total_ops,
            exec_wall,
        },
    )
}
