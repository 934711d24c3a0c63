//! Multi-tenant NTT plan-cache regression: one tenant's traffic must not
//! evict, quarantine, or rebuild the plans another tenant's traffic
//! already cached.
//!
//! The global plan cache is keyed `(q, n, backend)` — *parameter* state,
//! not tenant state — so every tenant of one parameter set shares one
//! resident plan family. Two regressions are pinned here:
//!
//! 1. warm-up/execution for later tenants over the same context must be
//!    pure cache hits (no rebuild, no eviction), and
//! 2. recovery from a *non-NTT* fault (a TCU fragment flip) must not
//!    trigger the plan-cache quarantine sweep: the sweep takes the
//!    global write lock and, under armed injection, can evict healthy
//!    tenants' plans — it is reserved for faults detected at NTT sites.
//!
//! Own binary: the assertions read process-global cache statistics, which
//! parallel tests inside a shared binary would pollute.

use neo::fault::{FaultPlan, FaultScope, FaultSite, FaultSpec};
use neo::ntt::cache;
use neo::prelude::*;
use neo::serve::{ServeConfig, ServiceCore, TenantRegistry};
use std::sync::Arc;

fn square_and_add() -> BatchProgram {
    let mut p = BatchProgram::new();
    let sq = p
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
        .expect("push");
    let rs = p.try_push(BatchOp::Rescale(sq)).expect("push");
    p.try_push(BatchOp::HAdd(rs, rs)).expect("push");
    p
}

/// Interleaved multi-tenant traffic is hit-only once the plan family is
/// resident: no evictions, no discarded builds, stable entry count.
#[test]
fn interleaved_tenants_do_not_disturb_plan_cache() {
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("params"));
    for id in 0..4u64 {
        registry.register_default(id, 1000 + id).expect("register");
    }
    let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());
    let level = 3usize;

    // Tenant 0 warms the plan family for this parameter set.
    {
        let s = registry.get(0).expect("tenant");
        let ct = s.engine().encrypt_f64(&[0.5], level).expect("enc");
        core.submit(0, square_and_add(), vec![ct]).expect("submit");
        let responses = core.run_until_idle();
        assert!(responses[0].outcome.is_ok());
    }
    let warmed = cache::stats();
    assert!(warmed.entries > 0, "tenant 0 should have populated plans");

    // Tenants 1..4, interleaved twice each: pure hits against the same
    // resident plans.
    for round in 0..2 {
        for id in 1..4u64 {
            let s = registry.get(id).expect("tenant");
            let ct = s
                .engine()
                .encrypt_f64(&[0.25 * (id as f64 + 1.0)], level)
                .expect("enc");
            core.submit(id, square_and_add(), vec![ct]).expect("submit");
            let responses = core.run_until_idle();
            let results = responses[0].outcome.as_ref().expect("served");
            assert!(
                results.iter().all(Result::is_ok),
                "round {round} tenant {id}: clean execution"
            );
        }
    }
    let after = cache::stats();
    assert_eq!(
        after.entries, warmed.entries,
        "later tenants must not grow or shrink the resident plan set"
    );
    assert_eq!(
        after.evictions, warmed.evictions,
        "no tenant's traffic may evict another's cached plans"
    );
    assert_eq!(
        after.discarded_builds, warmed.discarded_builds,
        "no rebuild races once the family is resident"
    );
    assert!(
        after.hits > warmed.hits,
        "interleaved tenants should be served from cache"
    );
}

/// Recovery from a fault detected at a *non-NTT* site (an op-level
/// spurious-result fault) must not run the plan-cache quarantine
/// sweep — the sweep is the
/// cross-tenant hazard the serve layer exists to contain.
#[test]
fn op_fault_recovery_leaves_plan_cache_alone() {
    let engine = FheEngine::new(CkksParams::test_tiny(), 77)
        .expect("engine")
        .with_policy(OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        });
    let level = 3usize;
    let ct = engine.encrypt_f64(&[0.5, -0.5], level).expect("enc");
    let prog = square_and_add();
    engine.warm_program(&prog, level).expect("warm");

    // Clean reference first (also settles the cache).
    let clean = engine
        .execute_batch(&prog, std::slice::from_ref(&ct), false)
        .expect("clean run");
    let before = cache::stats();

    // One detected-and-recovered op-level fault.
    let plan = Arc::new(FaultPlan::new(0xc0de).with_site(FaultSite::CkksOp, FaultSpec::once()));
    let scope = FaultScope::install(Arc::clone(&plan));
    let report = engine
        .execute_batch_with_report(&prog, std::slice::from_ref(&ct), 3)
        .expect("recovered run");
    drop(scope);
    assert!(
        plan.injected(FaultSite::CkksOp) >= 1,
        "trial is vacuous: the fault never fired"
    );

    let after = cache::stats();
    assert_eq!(
        after.evictions, before.evictions,
        "op-fault recovery must not evict NTT plans (quarantine sweep is NTT-site-gated)"
    );
    assert_eq!(
        report.plans_quarantined, 0,
        "no plans may be quarantined for a non-NTT fault"
    );
    // And the recovery itself was clean: bit-identical to the reference.
    for (got, want) in report.results.iter().zip(&clean) {
        assert_eq!(
            got.as_ref().expect("recovered"),
            want.as_ref().expect("clean"),
            "recovered output must be bit-identical"
        );
    }
}
