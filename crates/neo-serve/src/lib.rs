//! # neo-serve — multi-tenant serving over the Neo CKKS engine
//!
//! The serving layer the Neo paper's accelerator implies but never
//! spells out: many mutually distrusting tenants share one parameter
//! set's tables (and, on real hardware, one GPU), each with its own
//! keys, guardrail policy, and recovery budget.
//!
//! Four modules, four responsibilities:
//!
//! * [`tenant`] — [`TenantRegistry`] / [`TenantSession`]: per-tenant
//!   [`neo_ckks::FheEngine`]s sharing one `Arc<CkksContext>`
//!   (registering 10k tenants costs 10k key generations, not 10k
//!   parameter setups), plus inflight caps and the retry/fault budget.
//!   Every tenant runs the registry's parameters' key-switching method
//!   and verifies under its own [`neo_ckks::OpPolicy`]; a planned
//!   method is a registry built from the plan's parameters.
//! * [`admission`] — [`AdmissionQueue`]: noise/level-aware priority
//!   ordering and batch coalescing, cut at the coalescing window and the
//!   op cap. Admission is host work and consults no device model; the
//!   modelled A100 prices ([`price_request`], [`price_batch`], on the
//!   [`neo_sched`] discrete-event simulator) are for the callers that
//!   report them, outside the serving path.
//! * [`executor`] — bridges coalesced batches onto the engines:
//!   deterministic serial key warm-up, then bit-identical concurrent
//!   per-request execution, one verify-policy group at a time.
//! * [`service`] — [`ServiceCore`], the single-threaded deterministic
//!   loop (benchmarks, tests), and [`NeoService`], the bounded-channel
//!   threaded front-end whose `submit` never blocks: overload is always
//!   answered immediately with [`neo_error::NeoError::Overloaded`].
//!
//! Observability rides the existing rails: `serve_*` histograms and
//! counters plus `serve_batch` / `serve_request` spans, all in
//! [`neo_trace`] behind its one gate (zero overhead while it is off).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

pub mod admission;
pub mod executor;
mod metrics;
pub mod service;
pub mod tenant;

pub use admission::{
    price_batch, price_request, pricing_level, AdmissionConfig, AdmissionQueue, CoalescedBatch,
    QueuedRequest,
};
pub use executor::{execute_coalesced, BatchStats, Response};
pub use service::{NeoService, ResponseHandle, ServeConfig, ServeStats, ServiceCore};
pub use tenant::{TenantConfig, TenantId, TenantRegistry, TenantSession};

#[cfg(test)]
mod tests {
    use super::*;
    use neo_ckks::{BatchOp, BatchProgram, CkksParams, Slot};
    use std::sync::Arc;

    fn square_plus_self() -> BatchProgram {
        let mut p = BatchProgram::new();
        let sq = p
            .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
            .expect("push");
        let rs = p.try_push(BatchOp::Rescale(sq)).expect("push");
        p.try_push(BatchOp::HAdd(rs, rs)).expect("push");
        p
    }

    #[test]
    fn core_round_trip_two_tenants() {
        let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("params"));
        let a = registry.register_default(1, 101).expect("tenant 1");
        let b = registry.register_default(2, 202).expect("tenant 2");
        let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());

        let level = a.engine().max_level();
        let ca = a.engine().encrypt_f64(&[3.0], level).expect("enc");
        let cb = b.engine().encrypt_f64(&[5.0], level).expect("enc");
        core.submit(1, square_plus_self(), vec![ca])
            .expect("submit");
        core.submit(2, square_plus_self(), vec![cb])
            .expect("submit");

        let responses = core.run_until_idle();
        assert_eq!(responses.len(), 2);
        for resp in &responses {
            let results = resp.outcome.as_ref().expect("executed");
            let last = results.last().expect("ops").as_ref().expect("ok");
            let session = registry.get(resp.tenant).expect("session");
            let got = session.engine().decrypt_f64(last).expect("dec")[0];
            let x = if resp.tenant == 1 { 3.0 } else { 5.0 };
            let want = 2.0 * x * x;
            assert!(
                (got - want).abs() < 0.05 * want.abs(),
                "tenant {} expected {want}, got {got}",
                resp.tenant
            );
        }
        let stats = core.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.batches, 1, "two requests coalesced into one batch");
        assert!((stats.coalescing_factor() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn threaded_service_answers_handles() {
        let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("params"));
        let t = registry.register_default(1, 7).expect("tenant");
        let level = t.engine().max_level();
        let ct = t.engine().encrypt_f64(&[2.0], level).expect("enc");

        let svc = NeoService::spawn(Arc::clone(&registry), ServeConfig::default());
        let handle = svc.submit(1, square_plus_self(), vec![ct]).expect("submit");
        let resp = handle.wait().expect("response");
        let results = resp.outcome.expect("executed");
        let last = results.last().expect("ops").as_ref().expect("ok");
        let got = t.engine().decrypt_f64(last).expect("dec")[0];
        assert!((got - 8.0).abs() < 0.5, "2·2² = 8, got {got}");
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn unknown_tenant_is_invalid_params_not_shed() {
        let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("params"));
        let mut core = ServiceCore::new(registry, ServeConfig::default());
        let err = core
            .submit(99, BatchProgram::new(), vec![])
            .expect_err("unknown tenant");
        assert_eq!(err.kind().name(), "invalid_params");
        assert_eq!(core.stats().shed_total(), 0);
    }
}
