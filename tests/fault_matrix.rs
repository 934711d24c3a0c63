//! The fault matrix: ≥ 1000 seeded injection trials across every
//! [`neo::fault::FaultSite`], asserting the stack's end-to-end safety
//! contract — **no silent corruption, ever**. Each trial arms a
//! deterministic fault plan, runs the affected layer, and requires one of
//! exactly two outcomes:
//!
//! 1. a result **bit-identical** to the fault-free run (the fault was
//!    detected and recovered — retry, quarantine, resynthesis, dedup), or
//! 2. a **typed** error naming the site ([`NeoError::FaultDetected`], or
//!    [`ErrorKind::PoisonedInput`] for ops downstream of a detected one).
//!
//! A trial where the output differs from clean without a typed error is a
//! silent corruption and fails the matrix; the failing seed is printed so
//! the trial reproduces exactly.
//!
//! This binary is its own process, so the globally armed plans cannot leak
//! into other test binaries; within the binary every test serializes on
//! `test_lock` because clean baseline phases must not overlap another
//! test's armed window.

mod common;

use neo::fault::{FaultPlan, FaultScope, FaultSite, FaultSpec};
use neo::gpu_sim::{DeviceModel, DeviceSpec, KernelProfile};
use neo::math::{primes, Modulus, RnsPoly};
use neo::prelude::*;
use neo::sched::{simulate, try_simulate, NodeId, OpGraph, SimConfig};
use neo::tcu::{CheckedGemm, Fp64TcuGemm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

const TCU_TRIALS: u64 = 300;
const NTT_STAGE_TRIALS: u64 = 300;
const NTT_KEYGEN_TRIALS: u64 = 60;
const NTT_BSGS_TRIALS: u64 = 60;
const NTT_PLAN_TRIALS: u64 = 100;
const SCHED_TRIALS: u64 = 250;
const CKKS_TRIALS: u64 = 100;
const SERVE_TRIALS: u64 = 50;
const STORE_WRITE_TRIALS: u64 = 400;
const STORE_READ_TRIALS: u64 = 300;
const STORE_TORN_TRIALS: u64 = 350;

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Detection sites an error may legitimately name.
const DETECTION_SITES: [&str; 8] = [
    "tcu_gemm",
    "ntt_forward",
    "ntt_inverse",
    "ntt_plan",
    "ckks_op",
    "sched_completion",
    "store_record",
    "store_read",
];

fn assert_detected(err: &NeoError, trial: u64, seed: u64) {
    match err {
        NeoError::FaultDetected { site, .. } => assert!(
            DETECTION_SITES.contains(site),
            "trial {trial} (seed {seed}): unknown detection site {site}"
        ),
        other => assert_eq!(
            other.kind(),
            ErrorKind::PoisonedInput,
            "trial {trial} (seed {seed}): untyped failure {other}"
        ),
    }
}

/// Every batch op either matches the clean run bit-for-bit or fails with
/// a typed fault/poison error — the core no-silent-corruption check.
fn assert_batch_sound(report: &BatchReport, clean: &[Ciphertext], trial: u64, seed: u64) {
    for (i, r) in report.results.iter().enumerate() {
        match r {
            Ok(ct) => assert_eq!(
                ct, &clean[i],
                "trial {trial} (seed {seed}): SILENT CORRUPTION at op {i}"
            ),
            Err(e) => assert_detected(e, trial, seed),
        }
    }
}

#[test]
#[allow(clippy::assertions_on_constants)] // the point: pin the trial-count floor
fn the_matrix_covers_at_least_1000_trials() {
    assert!(
        TCU_TRIALS
            + NTT_STAGE_TRIALS
            + NTT_KEYGEN_TRIALS
            + NTT_BSGS_TRIALS
            + NTT_PLAN_TRIALS
            + SCHED_TRIALS
            + CKKS_TRIALS
            + SERVE_TRIALS
            >= 1000,
        "fault matrix shrank below the 1000-trial floor"
    );
    assert!(
        STORE_WRITE_TRIALS + STORE_READ_TRIALS + STORE_TORN_TRIALS >= 1000,
        "store fault matrix shrank below its own 1000-trial floor"
    );
}

/// Bit flips in tensor-core fragment accumulators across random GEMM
/// shapes: the Huang–Abraham checksum must catch every one.
#[test]
fn tcu_fragment_matrix() {
    let _l = test_lock();
    let q = Modulus::new(primes::ntt_primes(36, 8, 1).unwrap()[0]).unwrap();
    let gemm = CheckedGemm::new(Fp64TcuGemm::for_word_size(36));
    let mut injected = 0u64;
    for trial in 0..TCU_TRIALS {
        let seed = 0x7c00 + trial;
        let mut rng = StdRng::seed_from_u64(seed);
        let (m, k, n) = (
            rng.gen_range(1..12usize),
            rng.gen_range(1..12usize),
            rng.gen_range(1..12usize),
        );
        let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
        let mut clean = vec![0u64; m * n];
        gemm.gemm_verified(&q, &a, &b, m, k, n, &mut clean).unwrap();

        let plan =
            Arc::new(FaultPlan::new(seed).with_site(FaultSite::TcuFragment, FaultSpec::once()));
        let scope = FaultScope::install(plan.clone());
        let mut out = vec![0u64; m * n];
        let res = gemm.gemm_verified(&q, &a, &b, m, k, n, &mut out);
        drop(scope);
        injected += plan.injected(FaultSite::TcuFragment);
        match res {
            Ok(()) => assert_eq!(
                out, clean,
                "trial {trial} (seed {seed}): SILENT CORRUPTION in {m}x{k}x{n} GEMM"
            ),
            Err(e) => assert_detected(&e, trial, seed),
        }
    }
    assert!(
        injected >= TCU_TRIALS / 2,
        "matrix is vacuous: only {injected} injections over {TCU_TRIALS} trials"
    );
}

/// Corrupted limbs after NTT stage execution: the spot check must flag
/// the transform whenever the output deviates from clean.
#[test]
fn ntt_stage_matrix() {
    let _l = test_lock();
    let q = primes::ntt_primes(36, 256, 1).unwrap()[0];
    let plan_fwd = neo::ntt::cache::get_or_build(q, 128).unwrap();
    let modulus = Modulus::new(q).unwrap();
    let mut injected = 0u64;
    for trial in 0..NTT_STAGE_TRIALS {
        let seed = 0x57a6e00 + trial;
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs: Vec<u64> = (0..128)
            .map(|_| rng.gen_range(0..modulus.value()))
            .collect();
        let forward = trial % 2 == 0;
        let transform = |x: &mut [u64]| {
            if forward {
                neo::ntt::radix2::forward(&plan_fwd, x);
            } else {
                neo::ntt::radix2::inverse(&plan_fwd, x);
            }
        };
        let mut clean = coeffs.clone();
        transform(&mut clean);

        let plan = Arc::new(FaultPlan::new(seed).with_site(FaultSite::NttStage, FaultSpec::once()));
        let scope = FaultScope::install(plan.clone());
        let mut out = coeffs.clone();
        transform(&mut out);
        drop(scope);
        injected += plan.injected(FaultSite::NttStage);

        let check = if forward {
            neo::ntt::spot_check_transform(&plan_fwd, &coeffs, &out, seed, true)
        } else {
            neo::ntt::spot_check_transform(&plan_fwd, &out, &coeffs, seed, false)
        };
        match check {
            Ok(()) => assert_eq!(
                out, clean,
                "trial {trial} (seed {seed}): SILENT CORRUPTION in NTT output"
            ),
            Err(e) => assert_detected(&e, trial, seed),
        }
    }
    assert!(
        injected >= NTT_STAGE_TRIALS / 2,
        "matrix is vacuous: only {injected} injections over {NTT_STAGE_TRIALS} trials"
    );
}

/// One corrupted NTT limb inside cold key generation or the secret's
/// transform, through an always-verifying engine: a cold HRotate (which
/// generates its Galois key before any other transform), a cold HMult
/// (its relinearisation key, after the tensor's seven transforms) and a
/// decrypt (the secret's limbs come first), in turn. A detected fault must
/// leave no key cached, and a disarmed retry must reproduce the clean
/// result.
#[test]
fn ntt_stage_keygen_matrix() {
    let _l = test_lock();
    let e = FheEngine::new(CkksParams::test_tiny(), engine_seed())
        .unwrap()
        .with_policy(OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        });
    let (_, cts) = batch_fixture(&e);
    let level = e.max_level();
    let targets = [
        KeyTarget::Galois(neo::ckks::ops::galois_element(e.context().degree(), 1)),
        KeyTarget::Relin,
    ];
    let limbs = level as u64 + 1;
    // Per op, the (first, count) limb transforms that generate its key or,
    // for the decrypt, transform the secret.
    let windows = [
        (0, keygen_transforms(&e, targets[0])),
        (7 * limbs, keygen_transforms(&e, targets[1])),
        (0, limbs),
    ];
    let clean: Vec<_> = (0..3).map(|op| cold_op(&e, op, &cts).unwrap()).collect();
    let mut injected = 0u64;
    for trial in 0..NTT_KEYGEN_TRIALS {
        let seed = 0x6e9e_e000 + trial;
        let op = (trial % 3) as usize;
        let (first, len) = windows[op];
        let skip = first + neo::fault::splitmix64(seed) % len;
        let plan = Arc::new(
            FaultPlan::new(seed).with_site(FaultSite::NttStage, FaultSpec::once_after(skip)),
        );
        let scope = FaultScope::install(plan.clone());
        let got = cold_op(&e, op, &cts);
        drop(scope);
        injected += plan.injected(FaultSite::NttStage);
        match got {
            Ok(polys) => assert_eq!(
                polys, clean[op],
                "trial {trial} (seed {seed}): SILENT CORRUPTION in cold op {op}"
            ),
            Err(err) => {
                assert_detected(&err, trial, seed);
                if let Some(&target) = targets.get(op) {
                    assert!(
                        !e.chest().has_key(level, target, e.method()),
                        "trial {trial} (seed {seed}): a key from a faulty generation stayed cached"
                    );
                }
                assert_eq!(
                    cold_op(&e, op, &cts).unwrap(),
                    clean[op],
                    "trial {trial} (seed {seed}): disarmed retry differs from clean"
                );
            }
        }
    }
    assert!(
        injected >= NTT_KEYGEN_TRIALS / 2,
        "matrix is vacuous: only {injected} injections over {NTT_KEYGEN_TRIALS} trials"
    );
}

/// One corrupted NTT limb inside the plaintext transforms of a cold BSGS
/// application, through an always-verifying engine. A transform encodes
/// its diagonals before it rotates anything, so the window opens at the
/// first limb transform and spans what a cold application runs beyond a
/// warm one. A detected fault must leave no encoding cached: a disarmed
/// retry on the same transform must reproduce the clean result.
#[test]
fn ntt_stage_bsgs_matrix() {
    let _l = test_lock();
    let e = FheEngine::new(CkksParams::test_tiny(), engine_seed())
        .unwrap()
        .with_policy(OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        });
    let (_, cts) = batch_fixture(&e);
    let warm = bsgs_fixture(&e);
    // The first application also generates the Galois keys.
    let clean = e.apply_transform_bsgs(&warm, &cts[0]).unwrap();
    let window =
        bsgs_transforms(&e, &bsgs_fixture(&e), &cts[0]) - bsgs_transforms(&e, &warm, &cts[0]);
    assert!(window > 0, "a cold application ran no plaintext transform");
    let mut injected = 0u64;
    for trial in 0..NTT_BSGS_TRIALS {
        let seed = 0x6e9e_b000 + trial;
        let lt = bsgs_fixture(&e);
        let skip = neo::fault::splitmix64(seed) % window;
        let plan = Arc::new(
            FaultPlan::new(seed).with_site(FaultSite::NttStage, FaultSpec::once_after(skip)),
        );
        let scope = FaultScope::install(plan.clone());
        let got = e.apply_transform_bsgs(&lt, &cts[0]);
        drop(scope);
        injected += plan.injected(FaultSite::NttStage);
        match got {
            Ok(ct) => assert_eq!(
                ct, clean,
                "trial {trial} (seed {seed}): SILENT CORRUPTION in a cold transform"
            ),
            Err(err) => {
                assert_detected(&err, trial, seed);
                assert_eq!(
                    e.apply_transform_bsgs(&lt, &cts[0]).unwrap(),
                    clean,
                    "trial {trial} (seed {seed}): disarmed retry differs from clean"
                );
            }
        }
    }
    assert!(
        injected >= NTT_BSGS_TRIALS / 2,
        "matrix is vacuous: only {injected} injections over {NTT_BSGS_TRIALS} trials"
    );
}

/// Poisoned plan-cache entries under an always-verifying engine: batches
/// must quarantine the entry and recover, or fail typed — never return a
/// ciphertext computed with corrupt twiddles.
#[test]
fn ntt_plan_matrix() {
    let _l = test_lock();
    let e = FheEngine::new(CkksParams::test_tiny(), engine_seed())
        .unwrap()
        .with_policy(OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        });
    let (prog, cts) = batch_fixture(&e);
    let clean = unwrap_all(common::run_sequential(&prog, e.chest(), &cts, e.method()));
    let mut injected = 0u64;
    for trial in 0..NTT_PLAN_TRIALS {
        let seed = 0x91a700 + trial;
        let plan = Arc::new(FaultPlan::new(seed).with_site(FaultSite::NttPlan, FaultSpec::once()));
        let scope = FaultScope::install(plan.clone());
        let report = e.execute_batch_with_report(&prog, &cts, 2).unwrap();
        drop(scope);
        injected += plan.injected(FaultSite::NttPlan);
        assert_batch_sound(&report, &clean, trial, seed);
        // Sweep any leftover poisoned entry so trials stay independent.
        neo::ntt::cache::quarantine_corrupt();
    }
    assert!(
        injected >= NTT_PLAN_TRIALS / 2,
        "matrix is vacuous: only {injected} injections over {NTT_PLAN_TRIALS} trials"
    );
}

/// Dropped/duplicated kernel completions in the timeline simulator:
/// watchdog resynthesis and dedup must keep the schedule bit-identical.
#[test]
fn sched_completion_matrix() {
    let _l = test_lock();
    let dev = DeviceModel::new(DeviceSpec::a100());
    let mut injected = 0u64;
    for trial in 0..SCHED_TRIALS {
        let seed = 0x5c4ed00 + trial;
        let g = random_graph(seed);
        let clean = simulate(&g, &dev, SimConfig::streams(2));

        let plan = Arc::new(FaultPlan::new(seed).with_site(
            FaultSite::SchedCompletion,
            FaultSpec::with_probability_ppm(500_000),
        ));
        let scope = FaultScope::install(plan.clone());
        let faulty = try_simulate(&g, &dev, SimConfig::streams(2));
        drop(scope);
        injected += plan.injected(FaultSite::SchedCompletion);
        match faulty {
            Ok(s) => {
                assert_eq!(
                    s.timeline, clean.timeline,
                    "trial {trial} (seed {seed}): SILENT TIMELINE CORRUPTION"
                );
                assert_eq!(s.makespan_s, clean.makespan_s);
            }
            Err(e) => assert_detected(&e, trial, seed),
        }
    }
    assert!(
        injected >= SCHED_TRIALS / 4,
        "matrix is vacuous: only {injected} injections over {SCHED_TRIALS} trials"
    );
}

/// Spurious transient op errors in the CKKS layer: bounded retry must
/// recover them bit-identically or isolate them with typed errors.
#[test]
fn ckks_op_matrix() {
    let _l = test_lock();
    let e = FheEngine::new(CkksParams::test_tiny(), engine_seed()).unwrap();
    let (prog, cts) = batch_fixture(&e);
    let clean = unwrap_all(common::run_sequential(&prog, e.chest(), &cts, e.method()));
    let mut injected = 0u64;
    for trial in 0..CKKS_TRIALS {
        let seed = 0xcc5500 + trial;
        let plan = Arc::new(FaultPlan::new(seed).with_site(
            FaultSite::CkksOp,
            FaultSpec::with_probability_ppm(400_000).max_fires(3),
        ));
        let scope = FaultScope::install(plan.clone());
        let report = e.execute_batch_with_report(&prog, &cts, 2).unwrap();
        drop(scope);
        injected += plan.injected(FaultSite::CkksOp);
        assert_batch_sound(&report, &clean, trial, seed);
    }
    assert!(
        injected >= CKKS_TRIALS / 4,
        "matrix is vacuous: only {injected} injections over {CKKS_TRIALS} trials"
    );
}

/// The same no-silent-corruption contract, asserted through the serving
/// layer: coalesced multi-tenant batches under spurious op faults must
/// return, per tenant, either that tenant's serial fault-free bits or a
/// typed error — never a neighbour's fault leaking across sessions.
#[test]
fn serve_layer_matrix() {
    let _l = test_lock();
    use neo::serve::{ServeConfig, ServiceCore, TenantConfig, TenantRegistry};
    const TENANTS: u64 = 3;
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny()).unwrap());
    let mut clean = Vec::new();
    for id in 0..TENANTS {
        let cfg = TenantConfig {
            policy: OpPolicy {
                verify: VerifyPolicy::Always,
                ..OpPolicy::default()
            },
            fault_budget: u64::MAX, // budget shedding is tested elsewhere
            ..TenantConfig::default()
        };
        let s = registry.register(id, engine_seed() + id, cfg).unwrap();
        let (prog, cts) = batch_fixture(s.engine());
        let reference = unwrap_all(common::run_sequential(
            &prog,
            s.engine().chest(),
            &cts,
            s.engine().method(),
        ));
        clean.push((prog, cts, reference));
    }
    let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());

    let mut injected = 0u64;
    for trial in 0..SERVE_TRIALS {
        let seed = 0x5e77e00 + trial;
        for id in 0..TENANTS {
            let (prog, cts, _) = &clean[id as usize];
            core.submit(id, prog.clone(), cts.clone()).unwrap();
        }
        let plan = Arc::new(FaultPlan::new(seed).with_site(
            FaultSite::CkksOp,
            FaultSpec::with_probability_ppm(400_000).max_fires(3),
        ));
        let scope = FaultScope::install(plan.clone());
        let responses = core.run_until_idle();
        drop(scope);
        injected += plan.injected(FaultSite::CkksOp);

        assert_eq!(
            responses.len(),
            TENANTS as usize,
            "trial {trial} (seed {seed}): a tenant was starved"
        );
        for resp in &responses {
            let reference = &clean[resp.tenant as usize].2;
            match &resp.outcome {
                Ok(results) => {
                    for (i, r) in results.iter().enumerate() {
                        match r {
                            Ok(ct) => assert_eq!(
                                ct, &reference[i],
                                "trial {trial} (seed {seed}): SILENT CORRUPTION for tenant {} op {i}",
                                resp.tenant
                            ),
                            Err(e) => assert_detected(e, trial, seed),
                        }
                    }
                }
                Err(e) => assert_detected(e, trial, seed),
            }
        }
    }
    assert!(
        injected >= SERVE_TRIALS / 4,
        "matrix is vacuous: only {injected} injections over {SERVE_TRIALS} trials"
    );
}

/// Bit flips in the serialized store image at commit time: the next
/// open's recovery scan must classify every damaged record — whatever a
/// later `get` serves must be bit-identical to what was written.
#[test]
fn store_write_matrix() {
    let _l = test_lock();
    let path = store_matrix_path("write");
    let mut injected = 0u64;
    for trial in 0..STORE_WRITE_TRIALS {
        let seed = 0x0005_704e_0000 + trial;
        let (store, clean) = store_fixture(seed, &path);
        let plan =
            Arc::new(FaultPlan::new(seed).with_site(FaultSite::StoreWrite, FaultSpec::once()));
        let scope = FaultScope::install(plan.clone());
        store.commit().unwrap();
        drop(scope);
        injected += plan.injected(FaultSite::StoreWrite);
        assert_store_sound(&path, &clean, trial, seed);
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        injected >= STORE_WRITE_TRIALS / 2,
        "matrix is vacuous: only {injected} injections over {STORE_WRITE_TRIALS} trials"
    );
}

/// Truncation of the committed image at a seeded offset — the torn-write
/// crash model: the scan keeps the intact prefix and classifies the
/// tail, never parses past the cut.
#[test]
fn store_torn_matrix() {
    let _l = test_lock();
    let path = store_matrix_path("torn");
    let mut injected = 0u64;
    for trial in 0..STORE_TORN_TRIALS {
        let seed = 0x0005_704e_1000 + trial;
        let (store, clean) = store_fixture(seed, &path);
        let plan =
            Arc::new(FaultPlan::new(seed).with_site(FaultSite::StoreTorn, FaultSpec::once()));
        let scope = FaultScope::install(plan.clone());
        store.commit().unwrap();
        drop(scope);
        injected += plan.injected(FaultSite::StoreTorn);
        assert_store_sound(&path, &clean, trial, seed);
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        injected >= STORE_TORN_TRIALS / 2,
        "matrix is vacuous: only {injected} injections over {STORE_TORN_TRIALS} trials"
    );
}

/// Bit rot on the read path: every `get` re-verifies the payload
/// checksum, so a flipped bit surfaces as a typed error, never as
/// corrupt bytes.
#[test]
fn store_read_matrix() {
    let _l = test_lock();
    let path = store_matrix_path("read");
    let (store, clean) = store_fixture(0x5704e, &path);
    store.commit().unwrap();
    let reopened = neo::store::Store::open(&path).unwrap();
    let mut injected = 0u64;
    for trial in 0..STORE_READ_TRIALS {
        let seed = 0x0005_704e_2000 + trial;
        let plan =
            Arc::new(FaultPlan::new(seed).with_site(FaultSite::StoreRead, FaultSpec::once()));
        let scope = FaultScope::install(plan.clone());
        for (id, want) in &clean {
            match reopened.get(*id) {
                Ok(Some(got)) => assert_eq!(
                    &got, want,
                    "trial {trial} (seed {seed}): SILENT CORRUPTION reading {:?}",
                    id
                ),
                Ok(None) => panic!("trial {trial} (seed {seed}): clean record vanished"),
                Err(e) => assert_detected(&e, trial, seed),
            }
        }
        drop(scope);
        injected += plan.injected(FaultSite::StoreRead);
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        injected >= STORE_READ_TRIALS / 2,
        "matrix is vacuous: only {injected} injections over {STORE_READ_TRIALS} trials"
    );
}

// --- fixtures -------------------------------------------------------------

fn store_matrix_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "neo-fault-matrix-store-{tag}-{}.neostore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A store with a deterministic mixed-kind record set (seed-recoverable
/// KSK material plus quarantine-only ciphertext/plan records), ready to
/// commit, paired with the exact bytes each record must serve.
fn store_fixture(
    seed: u64,
    path: &std::path::Path,
) -> (neo::store::Store, Vec<(neo::store::RecordId, Vec<u8>)>) {
    use neo::store::{RecordId, RecordKind, Store};
    let _ = std::fs::remove_file(path);
    let mut store = Store::open(path).unwrap();
    let mut clean = Vec::new();
    for (i, kind) in [
        RecordKind::SecretKey,
        RecordKind::HybridKsk,
        RecordKind::KlssKsk,
        RecordKind::ExecPlan,
        RecordKind::Ciphertext,
    ]
    .into_iter()
    .enumerate()
    {
        let h = neo::fault::splitmix64(seed ^ ((i as u64 + 1) << 12));
        let len = 32 + (h % 224) as usize;
        let payload: Vec<u8> = (0..len)
            .map(|j| (neo::fault::splitmix64(h ^ j as u64) & 0xFF) as u8)
            .collect();
        let id = RecordId {
            kind,
            tenant: 1,
            level: i as u64,
            aux: i as u64,
        };
        store.put(id, h, 0xF1F1, payload.clone());
        clean.push((id, payload));
    }
    (store, clean)
}

/// Reopens the store file and demands exact-or-classified for every
/// record: a served payload must be bit-identical to what was written;
/// anything else must be an absence or a typed error.
fn assert_store_sound(
    path: &std::path::Path,
    clean: &[(neo::store::RecordId, Vec<u8>)],
    trial: u64,
    seed: u64,
) {
    let store = neo::store::Store::open(path).unwrap();
    for (id, want) in clean {
        // Ok(None)/Err is classified: recoverable, quarantined, or lost tail.
        if let Ok(Some(got)) = store.get(*id) {
            assert_eq!(
                &got, want,
                "trial {trial} (seed {seed}): SILENT CORRUPTION in {:?}",
                id
            );
        }
    }
}

/// Engine seed shared by the engine-level matrices (clean baselines are
/// computed once per test against this seed).
fn engine_seed() -> u64 {
    20250
}

/// HMult → Rescale chain plus an independent HAdd, so one failing op
/// leaves a clean subset to complete.
fn batch_fixture(e: &FheEngine) -> (BatchProgram, Vec<Ciphertext>) {
    let mut prog = BatchProgram::new();
    let m = prog
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(1)))
        .unwrap();
    prog.try_push(BatchOp::Rescale(m)).unwrap();
    prog.try_push(BatchOp::HAdd(Slot::Input(0), Slot::Input(1)))
        .unwrap();
    let a = e.encrypt_f64(&[1.25, -0.75, 2.0], e.max_level()).unwrap();
    let b = e.encrypt_f64(&[0.5, 3.0, -1.5], e.max_level()).unwrap();
    (prog, vec![a, b])
}

/// Limb transforms one cold generation of the top-level `target` key runs,
/// counted under a plan that never fires.
fn keygen_transforms(e: &FheEngine, target: KeyTarget) -> u64 {
    e.chest().clear_cache(e.method());
    let plan = Arc::new(
        FaultPlan::new(0).with_site(FaultSite::NttStage, FaultSpec::with_probability_ppm(0)),
    );
    let scope = FaultScope::install(plan.clone());
    e.chest().warm(e.max_level(), target, e.method()).unwrap();
    drop(scope);
    plan.opportunities(FaultSite::NttStage)
}

/// A fresh seven-diagonal transform, so its first application is cold.
fn bsgs_fixture(e: &FheEngine) -> LinearTransform {
    let slots = e.slots();
    let diagonals = [0, 1, 3, 8, 9, 17, slots - 1]
        .into_iter()
        .map(|d| {
            let diag = (0..slots)
                .map(|i| Complex64::new(((i * 31 + d * 7) % 11) as f64 * 0.05, 0.0))
                .collect();
            (d, diag)
        })
        .collect();
    LinearTransform::try_from_diagonals(slots, diagonals).unwrap()
}

/// Limb transforms one application of `lt` to `ct` runs, counted under a
/// plan that never fires.
fn bsgs_transforms(e: &FheEngine, lt: &LinearTransform, ct: &Ciphertext) -> u64 {
    let plan = Arc::new(
        FaultPlan::new(0).with_site(FaultSite::NttStage, FaultSpec::with_probability_ppm(0)),
    );
    let scope = FaultScope::install(plan.clone());
    e.apply_transform_bsgs(lt, ct).unwrap();
    drop(scope);
    plan.opportunities(FaultSite::NttStage)
}

/// Op 0 is a cold HRotate by one slot, op 1 a cold HMult, op 2 a decrypt;
/// the result's polynomials.
fn cold_op(e: &FheEngine, op: usize, cts: &[Ciphertext]) -> Result<Vec<RnsPoly>, NeoError> {
    e.chest().clear_cache(e.method());
    let ct = match op {
        0 => e.hrotate(&cts[0], 1)?,
        1 => e.hmult(&cts[0], &cts[1])?,
        _ => return Ok(vec![e.decrypt(&cts[0])?.poly().clone()]),
    };
    Ok(vec![ct.c0().clone(), ct.c1().clone()])
}

fn unwrap_all(results: Vec<Result<Ciphertext, NeoError>>) -> Vec<Ciphertext> {
    results.into_iter().map(|r| r.unwrap()).collect()
}

/// Deterministic pseudo-random kernel DAG: 4–8 nodes with mixed
/// CUDA/TCU/memory work and forward edges.
fn random_graph(seed: u64) -> OpGraph {
    let h0 = neo::fault::splitmix64(seed);
    let mut g = OpGraph::new();
    let nodes = 4 + (h0 % 5) as usize;
    let mut ids: Vec<NodeId> = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let h = neo::fault::splitmix64(seed ^ ((i as u64 + 1) << 8));
        let profile = KernelProfile::new(format!("k{i}"))
            .cuda_modmacs((h % 2048) as f64)
            .tcu_fp64_macs(((h >> 16) % 2048) as f64)
            .bytes(((h >> 32) % 4096) as f64, 0.0)
            .launches(1.0);
        let id = g.add(profile, false, i);
        if i > 0 && !h.is_multiple_of(3) {
            let from = ids[(h >> 48) as usize % i];
            g.depend(from, id);
        }
        ids.push(id);
    }
    g
}
