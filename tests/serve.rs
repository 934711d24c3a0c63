//! Serving-layer contract: backpressure is typed, shedding is per-tenant,
//! and a faulty tenant can never corrupt — or starve — a healthy one.
//!
//! The isolation claim mirrors the fault matrix, one layer up: every op a
//! tenant gets back is either **bit-identical** to that tenant's serial
//! fault-free reference, or a **typed** error; and shedding decisions
//! (queue depth, inflight cap, retry budget) name their reason so clients
//! can distinguish "slow down" from "wrong answer".
//!
//! Own binary: fault plans and the verify policy install
//! process-globally, so every test — and every proptest case —
//! serializes on `test_lock` to keep clean baseline phases out of
//! another test's armed window.

use neo::fault::{FaultPlan, FaultScope, FaultSite, FaultSpec};
use neo::prelude::*;
use neo::serve::{ServeConfig, ServiceCore, TenantConfig, TenantRegistry};
use neo_bench::run_sequential;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// HMult → Rescale chain plus an independent HAdd: one failing op leaves
/// a clean subset, so partial recovery is observable.
fn mixed_program() -> BatchProgram {
    let mut p = BatchProgram::new();
    let m = p
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
        .expect("push");
    p.try_push(BatchOp::Rescale(m)).expect("push");
    p.try_push(BatchOp::HAdd(Slot::Input(0), Slot::Input(0)))
        .expect("push");
    p
}

fn always_verify() -> TenantConfig {
    TenantConfig {
        policy: OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        },
        ..TenantConfig::default()
    }
}

/// Typed outcomes a response op may legitimately carry under injection.
fn assert_typed(err: &NeoError, ctx: &str) {
    assert!(
        matches!(
            err.kind(),
            ErrorKind::FaultDetected | ErrorKind::PoisonedInput | ErrorKind::Overloaded
        ),
        "{ctx}: untyped failure {err}"
    );
}

/// Queue-depth shedding surfaces as `Overloaded {{ what: "queue_depth" }}`
/// at submit — before any tenant state is charged.
#[test]
fn queue_depth_backpressure_is_typed() {
    let _l = test_lock();
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("params"));
    registry.register_default(0, 7).expect("register");
    let mut cfg = ServeConfig::default();
    cfg.admission.max_queue_depth = 2;
    let mut core = ServiceCore::new(Arc::clone(&registry), cfg);

    let s = registry.get(0).expect("tenant");
    let ct = s.engine().encrypt_f64(&[1.0], 3).expect("enc");
    for _ in 0..2 {
        core.submit(0, mixed_program(), vec![ct.clone()])
            .expect("under the bound");
    }
    let err = core
        .submit(0, mixed_program(), vec![ct.clone()])
        .expect_err("third submit must shed");
    match &err {
        NeoError::Overloaded { what, .. } => assert_eq!(*what, "queue_depth"),
        other => panic!("expected Overloaded, got {other}"),
    }
    assert_eq!(err.kind().name(), "overloaded");

    // Shedding must not leak the inflight slot it briefly acquired.
    let responses = core.run_until_idle();
    assert_eq!(responses.len(), 2);
    assert_eq!(s.inflight(), 0, "shed submit leaked an inflight slot");
}

/// The per-tenant inflight cap sheds only the noisy tenant; a quieter
/// tenant on the same queue is untouched.
#[test]
fn inflight_cap_sheds_only_the_noisy_tenant() {
    let _l = test_lock();
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("params"));
    registry
        .register(
            0,
            11,
            TenantConfig {
                max_inflight: 1,
                ..TenantConfig::default()
            },
        )
        .expect("register");
    registry.register_default(1, 12).expect("register");
    let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());

    let ct0 = registry
        .get(0)
        .expect("t0")
        .engine()
        .encrypt_f64(&[1.0], 3)
        .expect("enc");
    let ct1 = registry
        .get(1)
        .expect("t1")
        .engine()
        .encrypt_f64(&[2.0], 3)
        .expect("enc");

    core.submit(0, mixed_program(), vec![ct0.clone()])
        .expect("first fits the cap");
    let err = core
        .submit(0, mixed_program(), vec![ct0.clone()])
        .expect_err("second exceeds tenant 0's cap");
    match &err {
        NeoError::Overloaded { what, .. } => assert_eq!(*what, "tenant_inflight"),
        other => panic!("expected Overloaded, got {other}"),
    }
    // Tenant 1 is not collateral damage.
    core.submit(1, mixed_program(), vec![ct1])
        .expect("tenant 1 unaffected");

    let responses = core.run_until_idle();
    assert_eq!(responses.len(), 2);
    // The cap frees once the request completes.
    core.submit(0, mixed_program(), vec![ct0])
        .expect("slot released after completion");
    core.run_until_idle();
}

/// A tenant that burns its recovery budget is shed with
/// `Overloaded {{ what: "retry_budget" }}` until the window resets;
/// other tenants keep being served.
#[test]
fn retry_budget_exhaustion_sheds_until_reset() {
    let _l = test_lock();
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("params"));
    registry
        .register(
            0,
            21,
            TenantConfig {
                fault_budget: 0, // any recovery work exhausts the window
                ..always_verify()
            },
        )
        .expect("register");
    registry.register_default(1, 22).expect("register");
    let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());
    let s0 = registry.get(0).expect("t0");
    let ct0 = s0.engine().encrypt_f64(&[0.5, -0.5], 3).expect("enc");
    let clean = run_sequential(
        &mixed_program(),
        s0.engine().chest(),
        std::slice::from_ref(&ct0),
        s0.engine().method(),
    );

    // One recovered fault while tenant 0's request executes.
    core.submit(0, mixed_program(), vec![ct0.clone()])
        .expect("submit");
    let plan = Arc::new(FaultPlan::new(0xbad9e7).with_site(FaultSite::CkksOp, FaultSpec::once()));
    let scope = FaultScope::install(Arc::clone(&plan));
    let responses = core.run_until_idle();
    drop(scope);
    assert!(
        plan.injected(FaultSite::CkksOp) >= 1,
        "trial is vacuous: the fault never fired"
    );
    // Recovery succeeded (bit-identical) — but it cost budget.
    let results = responses[0].outcome.as_ref().expect("served");
    for (got, want) in results.iter().zip(&clean) {
        assert_eq!(
            got.as_ref().expect("recovered"),
            want.as_ref().expect("clean"),
            "recovered output must be bit-identical"
        );
    }
    assert!(s0.budget_exhausted(), "recovery must charge the budget");

    let err = core
        .submit(0, mixed_program(), vec![ct0.clone()])
        .expect_err("exhausted tenant must be shed");
    match &err {
        NeoError::Overloaded { what, .. } => assert_eq!(*what, "retry_budget"),
        other => panic!("expected Overloaded, got {other}"),
    }
    // Healthy tenant 1 is still served while 0 is shed.
    let ct1 = registry
        .get(1)
        .expect("t1")
        .engine()
        .encrypt_f64(&[1.5], 3)
        .expect("enc");
    core.submit(1, mixed_program(), vec![ct1])
        .expect("tenant 1 served");
    assert!(core.run_until_idle()[0].outcome.is_ok());

    // An operator-driven window reset restores service.
    s0.reset_budget_window();
    core.submit(0, mixed_program(), vec![ct0])
        .expect("restored");
    core.run_until_idle();
}

/// The serve-layer fault matrix, in miniature: many trials of mixed
/// 4-tenant traffic under probabilistic op faults. Every op every tenant
/// gets back is bit-identical to that tenant's serial reference or a
/// typed error, and every submitted request is answered in the same
/// drain — a faulty neighbour neither corrupts nor starves.
#[test]
fn faulty_tenant_never_corrupts_or_starves_neighbours() {
    let _l = test_lock();
    const TRIALS: u64 = 40;
    const TENANTS: u64 = 4;
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("params"));
    let mut refs = Vec::new();
    for id in 0..TENANTS {
        let s = registry
            .register(id, 400 + id, always_verify())
            .expect("register");
        let ct = s
            .engine()
            .encrypt_f64(&[0.5 + id as f64, -1.0], 3)
            .expect("enc");
        let clean: Vec<Ciphertext> = run_sequential(
            &mixed_program(),
            s.engine().chest(),
            std::slice::from_ref(&ct),
            s.engine().method(),
        )
        .into_iter()
        .map(|r| r.expect("clean op"))
        .collect();
        refs.push((ct, clean));
    }
    let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());

    let mut injected = 0u64;
    for trial in 0..TRIALS {
        for id in 0..TENANTS {
            core.submit(id, mixed_program(), vec![refs[id as usize].0.clone()])
                .expect("submit");
        }
        let plan = Arc::new(FaultPlan::new(0x5e17e + trial).with_site(
            FaultSite::CkksOp,
            FaultSpec::with_probability_ppm(300_000).max_fires(2),
        ));
        let scope = FaultScope::install(Arc::clone(&plan));
        let responses = core.run_until_idle();
        drop(scope);
        injected += plan.injected(FaultSite::CkksOp);

        // No starvation: every submitted request is answered this drain.
        assert_eq!(
            responses.len(),
            TENANTS as usize,
            "trial {trial}: lost responses"
        );
        for resp in &responses {
            let clean = &refs[resp.tenant as usize].1;
            match &resp.outcome {
                Ok(results) => {
                    for (i, r) in results.iter().enumerate() {
                        match r {
                            Ok(ct) => assert_eq!(
                                ct, &clean[i],
                                "trial {trial} tenant {}: SILENT CORRUPTION at op {i}",
                                resp.tenant
                            ),
                            Err(e) => {
                                assert_typed(e, &format!("trial {trial} tenant {}", resp.tenant));
                            }
                        }
                    }
                }
                Err(e) => assert_typed(e, &format!("trial {trial} tenant {}", resp.tenant)),
            }
        }
        // Trials are independent budget windows.
        for id in 0..TENANTS {
            registry.get(id).expect("tenant").reset_budget_window();
        }
    }
    assert!(
        injected >= TRIALS / 4,
        "matrix is vacuous: only {injected} injections over {TRIALS} trials"
    );
}

/// Tenants that verify differently share one batch without leaking
/// their policy: the process-wide verify policy reads `Off` again after
/// every batch of alternating `Always`/`Off` tenants, and every request
/// is served the sequential reference's bits.
#[test]
fn mixed_verify_policies_leave_the_process_policy_alone() {
    let _l = test_lock();
    const BATCHES: usize = 60;
    const TENANTS: u64 = 4;
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("params"));
    let mut refs = Vec::new();
    for id in 0..TENANTS {
        let cfg = if id % 2 == 0 {
            always_verify()
        } else {
            TenantConfig::default()
        };
        let s = registry.register(id, 600 + id, cfg).expect("register");
        let ct = s.engine().encrypt_f64(&[0.25, id as f64], 3).expect("enc");
        let clean = run_sequential(
            &shaped_program(1),
            s.engine().chest(),
            std::slice::from_ref(&ct),
            s.engine().method(),
        );
        refs.push((ct, clean));
    }
    let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());
    assert_eq!(neo::fault::verify_policy(), VerifyPolicy::Off);
    for batch in 0..BATCHES {
        for id in 0..TENANTS {
            core.submit(id, shaped_program(1), vec![refs[id as usize].0.clone()])
                .expect("submit");
        }
        let (responses, _) = core.drain_batch().expect("one batch");
        assert_eq!(responses.len(), TENANTS as usize, "batch {batch}");
        assert_eq!(
            neo::fault::verify_policy(),
            VerifyPolicy::Off,
            "batch {batch}: a tenant's verify policy outlived the batch"
        );
        for resp in &responses {
            let results = resp.outcome.as_ref().expect("served");
            assert_eq!(results, &refs[resp.tenant as usize].1, "batch {batch}");
        }
    }
}

/// A tenant on parameters without a KLSS configuration runs Hybrid key
/// switching: an HMult → Rescale request is served, bit-identical to the
/// Hybrid serial reference.
#[test]
fn klss_free_tenant_hmult_is_served() {
    let _l = test_lock();
    let params = CkksParams {
        klss: None,
        ..CkksParams::test_tiny()
    };
    let registry = Arc::new(TenantRegistry::new(params).expect("params"));
    let s = registry.register_default(0, 31).expect("register");
    assert_eq!(s.engine().method(), KsMethod::Hybrid);
    let ct = s.engine().encrypt_f64(&[0.5, -1.5], 3).expect("enc");
    let prog = shaped_program(2);
    let clean = run_sequential(
        &prog,
        s.engine().chest(),
        std::slice::from_ref(&ct),
        KsMethod::Hybrid,
    );
    let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());
    core.submit(0, prog, vec![ct]).expect("submit");
    let responses = core.run_until_idle();
    assert_eq!(responses.len(), 1);
    let results = responses[0].outcome.as_ref().expect("served");
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(results, &clean);
}

// --- property: coalesced serving is observationally serial -----------------

/// Program shapes the generator picks from — each valid at level ≥ 2.
fn shaped_program(idx: usize) -> BatchProgram {
    let mut p = BatchProgram::new();
    match idx {
        0 => {
            p.try_push(BatchOp::HAdd(Slot::Input(0), Slot::Input(0)))
                .expect("push");
        }
        1 => {
            let r = p
                .try_push(BatchOp::HRotate(Slot::Input(0), 1))
                .expect("push");
            p.try_push(BatchOp::HAdd(r, Slot::Input(0))).expect("push");
        }
        2 => {
            let m = p
                .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
                .expect("push");
            p.try_push(BatchOp::Rescale(m)).expect("push");
        }
        _ => {
            let m = p
                .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
                .expect("push");
            let rs = p.try_push(BatchOp::Rescale(m)).expect("push");
            p.try_push(BatchOp::HAdd(rs, rs)).expect("push");
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary tenant mixes, program shapes, and submit orders,
    /// coalesced execution returns exactly what each tenant's own engine
    /// returns serially — byte for byte, in the presence of neighbours.
    #[test]
    fn coalesced_serving_matches_serial_reference(
        shapes in prop::collection::vec(0..4usize, 2..6),
        values in prop::collection::vec(-2.0f64..2.0, 2..6),
        seed in 0u64..1024,
    ) {
        let _l = test_lock();
        let n = shapes.len().min(values.len());
        let registry = Arc::new(
            TenantRegistry::new(CkksParams::test_tiny()).expect("params"),
        );
        let mut expected = Vec::new();
        for id in 0..n as u64 {
            let s = registry.register_default(id, seed ^ (0xa5a5 + id)).expect("register");
            let prog = shaped_program(shapes[id as usize]);
            let ct = s
                .engine()
                .encrypt_f64(&[values[id as usize], 0.25], 3)
                .expect("enc");
            let clean: Vec<Ciphertext> = run_sequential(
                &prog,
                s.engine().chest(),
                std::slice::from_ref(&ct),
                s.engine().method(),
            )
            .into_iter()
            .map(|r| r.expect("clean op"))
            .collect();
            expected.push((prog, ct, clean));
        }
        let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());
        // Submit order rotates with the seed — admission must not care.
        for k in 0..n {
            let id = ((k as u64 + seed) % n as u64) as usize;
            core.submit(id as u64, expected[id].0.clone(), vec![expected[id].1.clone()])
                .expect("submit");
        }
        let responses = core.run_until_idle();
        prop_assert_eq!(responses.len(), n);
        for resp in &responses {
            let clean = &expected[resp.tenant as usize].2;
            let results = resp.outcome.as_ref().expect("served");
            prop_assert_eq!(results.len(), clean.len());
            for (i, r) in results.iter().enumerate() {
                let got = r.as_ref().expect("clean traffic must not fail");
                prop_assert_eq!(
                    got, &clean[i],
                    "tenant {} op {} diverged from serial reference", resp.tenant, i
                );
            }
        }
    }
}
