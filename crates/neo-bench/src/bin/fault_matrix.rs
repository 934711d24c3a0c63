//! `fault_matrix` — seeded fault-injection sweep over every
//! [`neo_fault::FaultSite`], checking the stack's no-silent-corruption
//! contract and writing a machine-readable fault report.
//!
//! Each trial arms a deterministic [`neo_fault::FaultPlan`], runs the
//! affected layer, and classifies the outcome:
//!
//! - **identical** — the result is bit-identical to the fault-free run
//!   (fault not fired, or detected and recovered via retry / plan
//!   quarantine / completion resynthesis or dedup);
//! - **detected** — a typed `FaultDetected` / `PoisonedInput` error named
//!   the site;
//! - **silent** — the result differed from clean with no error. Any
//!   silent outcome fails the run with a nonzero exit code.
//!
//! The base seed comes from `FAULT_MATRIX_SEED` (default fixed) and is
//! printed up front so a failing randomized CI run reproduces exactly.
//! Artifact: `results/fault_report.json`.

use neo_ckks::encoding::Complex64;
use neo_ckks::{
    BatchOp, BatchProgram, Ciphertext, CkksParams, FheEngine, KeyTarget, LinearTransform, NeoError,
    OpPolicy, Slot, VerifyPolicy,
};
use neo_error::ErrorKind;
use neo_fault::{splitmix64, FaultPlan, FaultScope, FaultSite, FaultSpec};
use neo_gpu_sim::{DeviceModel, DeviceSpec, KernelProfile};
use neo_math::{primes, Modulus, RnsPoly};
use neo_sched::{simulate, try_simulate, NodeId, OpGraph, SimConfig};
use neo_tcu::{CheckedGemm, Fp64TcuGemm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::process::ExitCode;
use std::sync::Arc;

const TCU_TRIALS: u64 = 300;
const NTT_STAGE_TRIALS: u64 = 300;
const NTT_KEYGEN_TRIALS: u64 = 60;
const NTT_BSGS_TRIALS: u64 = 60;
const NTT_PLAN_TRIALS: u64 = 100;
const SCHED_TRIALS: u64 = 250;
const CKKS_TRIALS: u64 = 100;

/// Per-site outcome tallies.
#[derive(Default)]
struct Tally {
    trials: u64,
    injected: u64,
    recovered: u64,
    identical: u64,
    detected: u64,
    /// Seeds of trials that corrupted silently (must stay empty).
    silent_seeds: Vec<u64>,
}

impl Tally {
    fn classify(&mut self, seed: u64, identical: bool, err: Option<&NeoError>) {
        self.trials += 1;
        match err {
            None if identical => self.identical += 1,
            None => self.silent_seeds.push(seed),
            Some(e) => match e {
                NeoError::FaultDetected { .. } => self.detected += 1,
                other if other.kind() == ErrorKind::PoisonedInput => self.detected += 1,
                _ => self.silent_seeds.push(seed),
            },
        }
    }

    fn absorb_plan(&mut self, plan: &FaultPlan, site: FaultSite) {
        self.injected += plan.injected(site);
        self.recovered += plan.recovered(site);
    }
}

fn trial_seed(base: u64, site: FaultSite, trial: u64) -> u64 {
    splitmix64(base ^ ((site as u64 + 1) << 32) ^ trial)
}

fn tcu_matrix(base: u64) -> Tally {
    let mut t = Tally::default();
    let q = Modulus::new(primes::ntt_primes(36, 8, 1).unwrap()[0]).unwrap();
    let gemm = CheckedGemm::new(Fp64TcuGemm::for_word_size(36));
    for trial in 0..TCU_TRIALS {
        let seed = trial_seed(base, FaultSite::TcuFragment, trial);
        let mut rng = StdRng::seed_from_u64(seed);
        let (m, k, n) = (
            rng.gen_range(1..12usize),
            rng.gen_range(1..12usize),
            rng.gen_range(1..12usize),
        );
        let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
        let mut clean = vec![0u64; m * n];
        gemm.gemm_verified(&q, &a, &b, m, k, n, &mut clean)
            .expect("clean GEMM verifies");

        let plan =
            Arc::new(FaultPlan::new(seed).with_site(FaultSite::TcuFragment, FaultSpec::once()));
        let scope = FaultScope::install(plan.clone());
        let mut out = vec![0u64; m * n];
        let res = gemm.gemm_verified(&q, &a, &b, m, k, n, &mut out);
        drop(scope);
        t.absorb_plan(&plan, FaultSite::TcuFragment);
        t.classify(seed, out == clean, res.as_ref().err());
    }
    t
}

fn ntt_stage_matrix(base: u64) -> Tally {
    let mut t = Tally::default();
    let q = primes::ntt_primes(36, 256, 1).unwrap()[0];
    let ntt_plan = neo_ntt::cache::get_or_build(q, 128).expect("plan builds");
    for trial in 0..NTT_STAGE_TRIALS {
        let seed = trial_seed(base, FaultSite::NttStage, trial);
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs: Vec<u64> = (0..128).map(|_| rng.gen_range(0..q)).collect();
        let forward = trial % 2 == 0;
        let transform = |x: &mut [u64]| {
            if forward {
                neo_ntt::radix2::forward(&ntt_plan, x);
            } else {
                neo_ntt::radix2::inverse(&ntt_plan, x);
            }
        };
        let mut clean = coeffs.clone();
        transform(&mut clean);

        let plan = Arc::new(FaultPlan::new(seed).with_site(FaultSite::NttStage, FaultSpec::once()));
        let scope = FaultScope::install(plan.clone());
        let mut out = coeffs.clone();
        transform(&mut out);
        drop(scope);
        t.absorb_plan(&plan, FaultSite::NttStage);
        let check = if forward {
            neo_ntt::spot_check_transform(&ntt_plan, &coeffs, &out, seed, true)
        } else {
            neo_ntt::spot_check_transform(&ntt_plan, &out, &coeffs, seed, false)
        };
        t.classify(seed, out == clean, check.as_ref().err());
    }
    t
}

/// Limb transforms one cold generation of the top-level `target` key runs,
/// counted under a plan that never fires.
fn keygen_transforms(e: &FheEngine, target: KeyTarget) -> u64 {
    e.chest().clear_cache(e.method());
    let plan = Arc::new(
        FaultPlan::new(0).with_site(FaultSite::NttStage, FaultSpec::with_probability_ppm(0)),
    );
    let scope = FaultScope::install(plan.clone());
    e.chest()
        .warm(e.max_level(), target, e.method())
        .expect("clean key generation");
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

/// One corrupted NTT limb inside cold key generation or the secret's
/// transform, through an always-verifying engine: a cold HRotate (its
/// Galois key comes first), a cold HMult (its relinearisation key, after
/// the tensor's seven transforms) and a decrypt (the secret's limbs come
/// first), in turn. A detected fault that leaves a key cached, or whose
/// disarmed retry differs from clean, counts as silent.
fn ntt_keygen_matrix(base: u64) -> Tally {
    let mut t = Tally::default();
    let e = FheEngine::new(CkksParams::test_tiny(), 20250)
        .expect("engine")
        .with_policy(OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        });
    let (_, cts) = batch_fixture(&e);
    let level = e.max_level();
    let targets = [
        KeyTarget::Galois(neo_ckks::ops::galois_element(e.context().degree(), 1)),
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
    let clean: Vec<_> = (0..3)
        .map(|op| cold_op(&e, op, &cts).expect("clean run succeeds"))
        .collect();
    for trial in 0..NTT_KEYGEN_TRIALS {
        // Continues the ntt_stage row's seed sequence.
        let seed = trial_seed(base, FaultSite::NttStage, NTT_STAGE_TRIALS + trial);
        let op = (trial % 3) as usize;
        let (first, len) = windows[op];
        let plan = Arc::new(FaultPlan::new(seed).with_site(
            FaultSite::NttStage,
            FaultSpec::once_after(first + splitmix64(seed) % len),
        ));
        let scope = FaultScope::install(plan.clone());
        let got = cold_op(&e, op, &cts);
        drop(scope);
        t.absorb_plan(&plan, FaultSite::NttStage);
        match got {
            Ok(polys) => t.classify(seed, polys == clean[op], None),
            Err(err) => {
                let stale_key = targets
                    .get(op)
                    .is_some_and(|&target| e.chest().has_key(level, target, e.method()));
                let retry_clean = cold_op(&e, op, &cts).is_ok_and(|p| p == clean[op]);
                let sound = (!stale_key && retry_clean).then_some(&err);
                t.classify(seed, false, sound);
            }
        }
    }
    t
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
    LinearTransform::try_from_diagonals(slots, diagonals).expect("legal transform")
}

/// Limb transforms one application of `lt` to `ct` runs, counted under a
/// plan that never fires.
fn bsgs_transforms(e: &FheEngine, lt: &LinearTransform, ct: &Ciphertext) -> u64 {
    let plan = Arc::new(
        FaultPlan::new(0).with_site(FaultSite::NttStage, FaultSpec::with_probability_ppm(0)),
    );
    let scope = FaultScope::install(plan.clone());
    e.apply_transform_bsgs(lt, ct).expect("clean transform");
    drop(scope);
    plan.opportunities(FaultSite::NttStage)
}

/// One corrupted NTT limb inside the plaintext transforms of a cold BSGS
/// application, through an always-verifying engine. The transform encodes
/// its diagonals before it rotates anything, so the window opens at the
/// first limb transform and spans what a cold application runs beyond a
/// warm one. A detected fault whose disarmed retry on the same transform
/// differs from clean (a faulty encoding stayed cached) counts as silent.
fn ntt_bsgs_matrix(base: u64) -> Tally {
    let mut t = Tally::default();
    let e = FheEngine::new(CkksParams::test_tiny(), 20250)
        .expect("engine")
        .with_policy(OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        });
    let (_, cts) = batch_fixture(&e);
    let warm = bsgs_fixture(&e);
    // The first application also generates the Galois keys.
    let clean = e
        .apply_transform_bsgs(&warm, &cts[0])
        .expect("clean run succeeds");
    let window =
        bsgs_transforms(&e, &bsgs_fixture(&e), &cts[0]) - bsgs_transforms(&e, &warm, &cts[0]);
    for trial in 0..NTT_BSGS_TRIALS {
        // Continues the ntt_stage_keygen row's seed sequence.
        let seed = trial_seed(
            base,
            FaultSite::NttStage,
            NTT_STAGE_TRIALS + NTT_KEYGEN_TRIALS + trial,
        );
        let lt = bsgs_fixture(&e);
        let plan = Arc::new(FaultPlan::new(seed).with_site(
            FaultSite::NttStage,
            FaultSpec::once_after(splitmix64(seed) % window),
        ));
        let scope = FaultScope::install(plan.clone());
        let got = e.apply_transform_bsgs(&lt, &cts[0]);
        drop(scope);
        t.absorb_plan(&plan, FaultSite::NttStage);
        match got {
            Ok(ct) => t.classify(seed, ct == clean, None),
            Err(err) => {
                let retry_clean = e
                    .apply_transform_bsgs(&lt, &cts[0])
                    .is_ok_and(|ct| ct == clean);
                t.classify(seed, false, retry_clean.then_some(&err));
            }
        }
    }
    t
}

/// HMult → Rescale chain plus an independent HAdd.
fn batch_fixture(e: &FheEngine) -> (BatchProgram, Vec<Ciphertext>) {
    let mut prog = BatchProgram::new();
    let m = prog
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(1)))
        .expect("legal op");
    prog.try_push(BatchOp::Rescale(m)).expect("legal op");
    prog.try_push(BatchOp::HAdd(Slot::Input(0), Slot::Input(1)))
        .expect("legal op");
    let a = e
        .encrypt_f64(&[1.25, -0.75, 2.0], e.max_level())
        .expect("encrypt");
    let b = e
        .encrypt_f64(&[0.5, 3.0, -1.5], e.max_level())
        .expect("encrypt");
    (prog, vec![a, b])
}

fn batch_matrix(
    site: FaultSite,
    spec: FaultSpec,
    verify: VerifyPolicy,
    trials: u64,
    base: u64,
) -> Tally {
    let mut t = Tally::default();
    let e = FheEngine::new(CkksParams::test_tiny(), 20250)
        .expect("engine")
        .with_policy(OpPolicy {
            verify,
            ..OpPolicy::default()
        });
    let (prog, cts) = batch_fixture(&e);
    let clean: Vec<Ciphertext> = e
        .execute_batch(&prog, &cts, false)
        .expect("legal program")
        .into_iter()
        .map(|r| r.expect("clean run succeeds"))
        .collect();
    for trial in 0..trials {
        let seed = trial_seed(base, site, trial);
        let plan = Arc::new(FaultPlan::new(seed).with_site(site, spec));
        let scope = FaultScope::install(plan.clone());
        let report = e
            .execute_batch_with_report(&prog, &cts, 2)
            .expect("legal program");
        drop(scope);
        t.absorb_plan(&plan, site);
        t.trials += 1;
        for (i, r) in report.results.iter().enumerate() {
            match r {
                Ok(ct) if ct == &clean[i] => t.identical += 1,
                Ok(_) => t.silent_seeds.push(seed),
                Err(e) => match e {
                    NeoError::FaultDetected { .. } => t.detected += 1,
                    other if other.kind() == ErrorKind::PoisonedInput => t.detected += 1,
                    _ => t.silent_seeds.push(seed),
                },
            }
        }
        // Sweep any leftover poisoned plan so trials stay independent.
        neo_ntt::cache::quarantine_corrupt();
    }
    t
}

/// Deterministic pseudo-random kernel DAG: 4–8 nodes, forward edges.
fn random_graph(seed: u64) -> OpGraph {
    let h0 = splitmix64(seed);
    let mut g = OpGraph::new();
    let nodes = 4 + (h0 % 5) as usize;
    let mut ids: Vec<NodeId> = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let h = splitmix64(seed ^ ((i as u64 + 1) << 8));
        let profile = KernelProfile::new(format!("k{i}"))
            .cuda_modmacs((h % 2048) as f64)
            .tcu_fp64_macs(((h >> 16) % 2048) as f64)
            .bytes(((h >> 32) % 4096) as f64, 0.0)
            .launches(1.0);
        let id = g.add(profile, false, i);
        if i > 0 && !h.is_multiple_of(3) {
            g.depend(ids[(h >> 48) as usize % i], id);
        }
        ids.push(id);
    }
    g
}

fn sched_matrix(base: u64) -> Tally {
    let mut t = Tally::default();
    let dev = DeviceModel::new(DeviceSpec::a100());
    for trial in 0..SCHED_TRIALS {
        let seed = trial_seed(base, FaultSite::SchedCompletion, trial);
        let g = random_graph(seed);
        let clean = simulate(&g, &dev, SimConfig::streams(2));
        let plan = Arc::new(FaultPlan::new(seed).with_site(
            FaultSite::SchedCompletion,
            FaultSpec::with_probability_ppm(500_000),
        ));
        let scope = FaultScope::install(plan.clone());
        let faulty = try_simulate(&g, &dev, SimConfig::streams(2));
        drop(scope);
        t.absorb_plan(&plan, FaultSite::SchedCompletion);
        match faulty {
            Ok(s) => t.classify(seed, s.timeline == clean.timeline, None),
            Err(e) => t.classify(seed, false, Some(&e)),
        }
    }
    t
}

fn main() -> ExitCode {
    let base_seed: u64 = std::env::var("FAULT_MATRIX_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_250_807);
    println!("fault-matrix base seed: {base_seed} (set FAULT_MATRIX_SEED to reproduce)");

    let sites = [
        ("tcu_fragment", tcu_matrix(base_seed)),
        ("ntt_stage", ntt_stage_matrix(base_seed)),
        ("ntt_stage_keygen", ntt_keygen_matrix(base_seed)),
        ("ntt_stage_bsgs", ntt_bsgs_matrix(base_seed)),
        (
            "ntt_plan",
            batch_matrix(
                FaultSite::NttPlan,
                FaultSpec::once(),
                VerifyPolicy::Always,
                NTT_PLAN_TRIALS,
                base_seed,
            ),
        ),
        ("sched_completion", sched_matrix(base_seed)),
        (
            "ckks_op",
            batch_matrix(
                FaultSite::CkksOp,
                FaultSpec::with_probability_ppm(400_000).max_fires(3),
                VerifyPolicy::Off,
                CKKS_TRIALS,
                base_seed,
            ),
        ),
    ];

    let mut total_trials = 0u64;
    let mut total_silent = 0usize;
    let mut rows = Vec::new();
    println!(
        "\n{:<18} {:>7} {:>9} {:>10} {:>10} {:>9} {:>7}",
        "site", "trials", "injected", "recovered", "identical", "detected", "silent"
    );
    for (name, tally) in &sites {
        total_trials += tally.trials;
        total_silent += tally.silent_seeds.len();
        println!(
            "{:<18} {:>7} {:>9} {:>10} {:>10} {:>9} {:>7}",
            name,
            tally.trials,
            tally.injected,
            tally.recovered,
            tally.identical,
            tally.detected,
            tally.silent_seeds.len(),
        );
        rows.push(json!({
            "site": name,
            "trials": tally.trials,
            "injected": tally.injected,
            "recovered": tally.recovered,
            "identical": tally.identical,
            "detected": tally.detected,
            "silent": tally.silent_seeds.len(),
            "silent_seeds": tally.silent_seeds.clone(),
        }));
    }
    println!("\n{total_trials} trials, {total_silent} silent corruptions");

    let report = json!({
        "bench": "fault_matrix",
        "base_seed": base_seed,
        "total_trials": total_trials,
        "silent_corruptions": total_silent,
        "sites": rows,
    });
    if std::fs::create_dir_all("results").is_ok() {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => match std::fs::write("results/fault_report.json", s) {
                Ok(()) => eprintln!("[wrote results/fault_report.json]"),
                Err(e) => eprintln!("warning: could not write results/fault_report.json: {e}"),
            },
            Err(e) => eprintln!("warning: could not serialize: {e}"),
        }
    }

    if total_silent > 0 {
        eprintln!(
            "FAIL: {total_silent} silent corruption(s) — reproduce with FAULT_MATRIX_SEED={base_seed}"
        );
        return ExitCode::FAILURE;
    }
    println!("PASS: zero silent corruptions across {total_trials} seeded trials");
    ExitCode::SUCCESS
}
