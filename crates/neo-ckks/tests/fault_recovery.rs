//! End-to-end fault injection and recovery through the engine/batch
//! layer. These live in their own integration binary (own process) so
//! the globally armed fault plans cannot contaminate the library's unit
//! tests; within the binary every test holds `test_lock` so clean
//! baseline phases never overlap another test's armed window.

use neo_ckks::encoding::Complex64;
use neo_ckks::{
    BatchOp, BatchProgram, Ciphertext, CkksParams, ErrorKind, FheEngine, LinearTransform, NeoError,
    OpPolicy, Slot, VerifyPolicy,
};
use neo_fault::{FaultPlan, FaultScope, FaultSite, FaultSpec};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn engine(seed: u64, verify: VerifyPolicy) -> FheEngine {
    FheEngine::new(CkksParams::test_tiny(), seed)
        .unwrap()
        .with_policy(OpPolicy {
            verify,
            ..OpPolicy::default()
        })
}

/// HMult → Rescale chain plus an independent HAdd, so one failing op
/// leaves a clean subset.
fn program() -> BatchProgram {
    let mut prog = BatchProgram::new();
    let m = prog
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(1)))
        .unwrap();
    prog.try_push(BatchOp::Rescale(m)).unwrap();
    prog.try_push(BatchOp::HAdd(Slot::Input(0), Slot::Input(1)))
        .unwrap();
    prog
}

fn inputs(e: &FheEngine) -> Vec<Ciphertext> {
    let a = e.encrypt_f64(&[1.5, -0.5, 2.0], e.max_level()).unwrap();
    let b = e.encrypt_f64(&[0.5, 3.0, -1.0], e.max_level()).unwrap();
    vec![a, b]
}

fn unwrap_all(results: Vec<Result<Ciphertext, NeoError>>) -> Vec<Ciphertext> {
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[test]
fn verify_always_matches_verify_off_on_clean_runs() {
    let _l = test_lock();
    let e_off = engine(5, VerifyPolicy::Off);
    let e_on = engine(5, VerifyPolicy::Always);
    let prog = program();
    let (r_off, w_off) = neo_trace::record(|| {
        unwrap_all(e_off.execute_batch(&prog, &inputs(&e_off), false).unwrap())
    });
    let (r_on, w_on) =
        neo_trace::record(|| unwrap_all(e_on.execute_batch(&prog, &inputs(&e_on), false).unwrap()));
    // Same seed, same program: verification must not perturb results.
    assert_eq!(r_off, r_on);
    // The overhead is visible — and only on the verifying engine.
    assert_eq!(w_off.get(neo_trace::Counter::AbftChecks), 0);
    assert!(w_on.get(neo_trace::Counter::AbftChecks) > 0);
    assert!(w_on.get(neo_trace::Counter::AbftMacs) > 0);
}

/// HMult's per-limb tensor, HRotate and a BSGS transform, the fused
/// T-basis inverses included, return the same ciphertexts when every
/// transform is spot-checked as when none is, and the checks ran.
#[test]
fn hmult_hrotate_and_bsgs_match_across_verify_policies() {
    let _l = test_lock();
    let run = |verify| {
        let e = FheEngine::new(CkksParams::test_small(), 23)
            .unwrap()
            .with_policy(OpPolicy {
                verify,
                ..OpPolicy::default()
            });
        let cts = inputs(&e);
        let slots = e.slots();
        let diagonals = [0, 1, 2, 5, slots - 1]
            .into_iter()
            .map(|d| {
                let diag = (0..slots)
                    .map(|i| Complex64::new(((i * 7 + d) % 5) as f64 * 0.1, 0.0))
                    .collect();
                (d, diag)
            })
            .collect();
        let lt = LinearTransform::try_from_diagonals(slots, diagonals).unwrap();
        neo_trace::record(|| {
            [
                e.hmult(&cts[0], &cts[1]).unwrap(),
                e.hrotate(&cts[0], 3).unwrap(),
                e.apply_transform_bsgs(&lt, &cts[1]).unwrap(),
            ]
        })
    };
    let (off, w_off) = run(VerifyPolicy::Off);
    let (on, w_on) = run(VerifyPolicy::Always);
    assert_eq!(off, on);
    assert_eq!(w_off.get(neo_trace::Counter::AbftChecks), 0);
    assert!(w_on.get(neo_trace::Counter::AbftChecks) > 0);
}

#[test]
fn transient_op_fault_is_retried_bit_identically() {
    let _l = test_lock();
    let e = engine(7, VerifyPolicy::Off);
    let prog = program();
    let cts = inputs(&e);
    let clean = unwrap_all(e.execute_batch(&prog, &cts, false).unwrap());

    let plan = Arc::new(FaultPlan::new(11).with_site(FaultSite::CkksOp, FaultSpec::once()));
    let scope = FaultScope::install(plan.clone());
    let report = e.execute_batch_with_report(&prog, &cts, 2).unwrap();
    drop(scope);

    assert_eq!(plan.injected(FaultSite::CkksOp), 1);
    assert_eq!(report.total_retries(), 1);
    assert_eq!(report.total_recovered(), 1);
    assert_eq!(plan.recovered(FaultSite::CkksOp), 1);
    assert_eq!(
        unwrap_all(report.results),
        clean,
        "retry must be bit-identical"
    );
}

#[test]
fn exhausted_retries_isolate_the_op_and_complete_the_clean_subset() {
    let _l = test_lock();
    let e = engine(13, VerifyPolicy::Always);
    let prog = program();
    let cts = inputs(&e);
    let clean = unwrap_all(e.execute_batch(&prog, &cts, false).unwrap());

    // Every transform output is corrupted, so op 0 (the hmult) fails its
    // first attempt and its single retry; the rescale is poisoned
    // downstream. The independent hadd runs no transform, so the fault
    // cannot reach it whichever worker it shares the first wave with.
    let plan = Arc::new(FaultPlan::new(23).with_site(FaultSite::NttStage, FaultSpec::always()));
    let scope = FaultScope::install(plan.clone());
    let report = e.execute_batch_with_report(&prog, &cts, 1).unwrap();
    drop(scope);

    assert!(plan.injected(FaultSite::NttStage) >= 2);
    assert_eq!(report.retries_attempted, vec![1, 0, 0]);
    assert_eq!(report.faults_recovered, vec![0, 0, 0]);
    let kinds: Vec<_> = report
        .results
        .iter()
        .map(|r| r.as_ref().map_err(NeoError::kind).err())
        .collect();
    assert_eq!(kinds[0], Some(ErrorKind::FaultDetected));
    assert_eq!(kinds[1], Some(ErrorKind::PoisonedInput));
    assert_eq!(kinds[2], None);
    assert_eq!(
        report.results[2].as_ref().unwrap(),
        &clean[2],
        "untainted op must be bit-identical to the fault-free run"
    );
}

#[test]
fn poisoned_plan_is_quarantined_and_recovered() {
    let _l = test_lock();
    let e = engine(29, VerifyPolicy::Always);
    let prog = program();
    let cts = inputs(&e);
    let clean = unwrap_all(e.execute_batch(&prog, &cts, false).unwrap());
    let evictions_before = neo_ntt::cache::stats().evictions;

    let plan = Arc::new(FaultPlan::new(31).with_site(FaultSite::NttPlan, FaultSpec::once()));
    let scope = FaultScope::install(plan.clone());
    let report = e.execute_batch_with_report(&prog, &cts, 2).unwrap();
    drop(scope);

    assert_eq!(plan.injected(FaultSite::NttPlan), 1);
    assert!(report.total_retries() >= 1);
    assert!(
        report.plans_quarantined >= 1,
        "poisoned entry must be swept"
    );
    assert!(neo_ntt::cache::stats().evictions > evictions_before);
    assert_eq!(
        unwrap_all(report.results),
        clean,
        "recovery after quarantine must be bit-identical"
    );
}

#[test]
fn injected_ntt_stage_fault_is_detected_not_silent() {
    let _l = test_lock();
    let e = engine(37, VerifyPolicy::Always);
    let a = e.encrypt_f64(&[1.0, 2.0], e.max_level()).unwrap();
    let b = e.encrypt_f64(&[3.0, 4.0], e.max_level()).unwrap();

    let plan = Arc::new(FaultPlan::new(41).with_site(FaultSite::NttStage, FaultSpec::once()));
    let scope = FaultScope::install(plan.clone());
    let err = e.hmult(&a, &b).unwrap_err();
    drop(scope);

    assert_eq!(plan.injected(FaultSite::NttStage), 1);
    assert_eq!(err.kind(), ErrorKind::FaultDetected);
    let NeoError::FaultDetected { site, .. } = err else {
        panic!("expected FaultDetected, got {err}");
    };
    assert!(
        site.starts_with("ntt_"),
        "detection site should name the NTT, got {site}"
    );
}
