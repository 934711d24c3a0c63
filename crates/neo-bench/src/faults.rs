//! The fault matrix: seeded injection trials at every
//! [`neo_fault::FaultSite`], each outcome held to one contract — **no
//! silent corruption**.
//!
//! A [`Row`] arms a deterministic [`FaultPlan`] per trial, runs the layer
//! its site lives in, and sorts every outcome into one of two bins:
//!
//! - **identical** — bit-identical to the fault-free run (the fault was
//!   vacuous, or detected and recovered by retry, plan quarantine,
//!   completion resynthesis or dedup);
//! - **detected** — a typed error: a `FaultDetected` naming one of
//!   [`DETECTION_SITES`], or a `PoisonedInput` downstream of one. After
//!   damage to a store's commit image, a record the recovery scan
//!   withholds (`Ok(None)`: recoverable from seed, quarantined, or lost
//!   with a torn tail) is classified too.
//!
//! Anything else is **silent** and fails the run: a result that differs
//! from clean, an untyped error, a record that vanishes on the read path,
//! a tenant left without a response. A detected fault must also leave
//! nothing behind: a disarmed retry reproduces the clean result, and no
//! key or encoding from the faulty run stays cached. A run also fails
//! when a row sees fewer injections than its floor, or when the compute
//! rows or the store rows make fewer than [`TRIAL_FLOOR`] trials.
//!
//! The `fault_matrix` binary runs every row from one base seed and writes
//! the report; `tests/fault_matrix.rs` runs each row at [`DEFAULT_SEED`].

use crate::run_sequential;
use neo_ckks::encoding::Complex64;
use neo_ckks::{
    BatchOp, BatchProgram, Ciphertext, CkksParams, ErrorKind, FheEngine, KeyTarget,
    LinearTransform, NeoError, OpPolicy, Slot, VerifyPolicy,
};
use neo_fault::{splitmix64, FaultPlan, FaultScope, FaultSite, FaultSpec};
use neo_gpu_sim::{DeviceModel, DeviceSpec, KernelProfile};
use neo_math::{primes, Modulus, RnsPoly};
use neo_sched::{simulate, try_simulate, NodeId, OpGraph, SimConfig};
use neo_serve::{ServeConfig, ServiceCore, TenantConfig, TenantRegistry};
use neo_store::{RecordId, RecordKind, Store};
use neo_tcu::{CheckedGemm, Fp64TcuGemm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// The base seed the test suite runs and the binary defaults to.
pub const DEFAULT_SEED: u64 = 20_250_807;

/// Fewest trials one run makes over the compute rows, and separately
/// over the store rows.
pub const TRIAL_FLOOR: u64 = 1000;

/// Detection sites a `FaultDetected` may name.
pub const DETECTION_SITES: [&str; 8] = [
    "tcu_gemm",
    "ntt_forward",
    "ntt_inverse",
    "ntt_plan",
    "ckks_op",
    "sched_completion",
    "store_record",
    "store_read",
];

const TCU_TRIALS: u64 = 300;
const NTT_STAGE_TRIALS: u64 = 300;
const NTT_KEYGEN_TRIALS: u64 = 60;
const NTT_BSGS_TRIALS: u64 = 60;
const NTT_PLAN_TRIALS: u64 = 100;
const SCHED_TRIALS: u64 = 250;
const CKKS_TRIALS: u64 = 100;
const SERVE_TRIALS: u64 = 50;
const STORE_WRITE_TRIALS: u64 = 400;
const STORE_TORN_TRIALS: u64 = 350;
const STORE_READ_TRIALS: u64 = 300;

/// Engine seed of the engine-level rows; tenant `i` of `serve_layer`
/// uses this plus `i`.
const ENGINE_SEED: u64 = 20250;

/// One row of the matrix: an injection site, seen through one layer, and
/// its trial loop.
pub struct Row {
    /// Stable name, used in the table and the report.
    pub name: &'static str,
    /// Trials one run makes.
    pub trials: u64,
    /// Fewest injections one run must see; below it the row proves
    /// nothing.
    pub injection_floor: u64,
    /// Store rows answer to their own [`TRIAL_FLOOR`].
    pub store: bool,
    trial_loop: fn(u64) -> Tally,
}

/// Every row, in report order.
pub const ROWS: [Row; 11] = [
    row("tcu_fragment", TCU_TRIALS, 2, false, tcu_fragment),
    row("ntt_stage", NTT_STAGE_TRIALS, 2, false, ntt_stage),
    row(
        "ntt_stage_keygen",
        NTT_KEYGEN_TRIALS,
        2,
        false,
        ntt_stage_keygen,
    ),
    row("ntt_stage_bsgs", NTT_BSGS_TRIALS, 2, false, ntt_stage_bsgs),
    row("ntt_plan", NTT_PLAN_TRIALS, 2, false, ntt_plan),
    row("sched_completion", SCHED_TRIALS, 4, false, sched_completion),
    row("ckks_op", CKKS_TRIALS, 4, false, ckks_op),
    row("serve_layer", SERVE_TRIALS, 4, false, serve_layer),
    row("store_write", STORE_WRITE_TRIALS, 2, true, store_write),
    row("store_torn", STORE_TORN_TRIALS, 2, true, store_torn),
    row("store_read", STORE_READ_TRIALS, 2, true, store_read),
];

/// A row whose injection floor is `1 / per` of its trials.
const fn row(
    name: &'static str,
    trials: u64,
    per: u64,
    store: bool,
    trial_loop: fn(u64) -> Tally,
) -> Row {
    Row {
        name,
        trials,
        injection_floor: trials / per,
        store,
        trial_loop,
    }
}

impl Row {
    /// Runs the row's trials from base seed `base`. Rows serialize on one
    /// process-wide lock: a clean baseline must not overlap another row's
    /// armed window. The lock guards no data, so a row that panicked
    /// leaves nothing for the next one to distrust.
    pub fn run(&self, base: u64) -> Tally {
        static SERIAL: Mutex<()> = Mutex::new(());
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        (self.trial_loop)(base)
    }
}

/// What one run of a row saw.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Trials made.
    pub trials: u64,
    /// Faults the plans injected.
    pub injected: u64,
    /// Injected faults the stack reported recovered.
    pub recovered: u64,
    /// Outcomes bit-identical to the clean run.
    pub identical: u64,
    /// Outcomes that were typed errors or classified store records.
    pub detected: u64,
    /// The seed of every silent outcome; the run fails unless empty.
    pub silent_seeds: Vec<u64>,
}

impl Tally {
    /// Every reason this run of `row` fails the matrix; empty when it
    /// passes.
    pub fn failures(&self, row: &Row) -> Vec<String> {
        let mut out = Vec::new();
        if !self.silent_seeds.is_empty() {
            out.push(format!(
                "{}: {} silent outcome(s), trial seeds {:?}",
                row.name,
                self.silent_seeds.len(),
                self.silent_seeds
            ));
        }
        if self.injected < row.injection_floor {
            out.push(format!(
                "{}: vacuous, {} injections over {} trials (floor {})",
                row.name, self.injected, self.trials, row.injection_floor
            ));
        }
        out
    }

    /// One trial: runs `f` with `spec` armed at `site` under `seed`, then
    /// counts the trial and what its plan injected and recovered.
    fn trial<R>(
        &mut self,
        seed: u64,
        site: FaultSite,
        spec: FaultSpec,
        f: impl FnOnce() -> R,
    ) -> R {
        let plan = Arc::new(FaultPlan::new(seed).with_site(site, spec));
        let scope = FaultScope::install(plan.clone());
        let out = f();
        drop(scope);
        self.trials += 1;
        self.injected += plan.injected(site);
        self.recovered += plan.recovered(site);
        out
    }

    /// One outcome: whether a returned result equals clean, or the error
    /// returned in its place, which must be typed.
    fn outcome(&mut self, seed: u64, outcome: Result<bool, &NeoError>) {
        match outcome {
            Ok(true) => self.identical += 1,
            Err(e) if is_typed(e) => self.detected += 1,
            Ok(false) | Err(_) => self.silent_seeds.push(seed),
        }
    }

    /// A batch's per-op results against the clean run's outputs.
    fn batch(&mut self, seed: u64, results: &[Result<Ciphertext, NeoError>], clean: &[Ciphertext]) {
        for (r, want) in results.iter().zip(clean) {
            self.outcome(seed, r.as_ref().map(|ct| ct == want));
        }
    }

    /// A detected fault `err`, given whether a key from the faulty run
    /// stayed `cached` and whether a disarmed retry reproduced clean.
    fn recovery(&mut self, seed: u64, err: &NeoError, cached: bool, retry_clean: bool) {
        if cached || !retry_clean {
            self.silent_seeds.push(seed);
        } else {
            self.outcome(seed, Err(err));
        }
    }

    /// One store record read back as `got`. A withheld record (`Ok(None)`)
    /// is classified only where the damage `may_withhold` it; every
    /// record on the read path was committed clean and must come back.
    fn record(
        &mut self,
        seed: u64,
        want: &[u8],
        got: Result<Option<Vec<u8>>, NeoError>,
        may_withhold: bool,
    ) {
        match got {
            Ok(Some(p)) => self.outcome(seed, Ok(p == want)),
            Ok(None) if may_withhold => self.detected += 1,
            Ok(None) => self.silent_seeds.push(seed),
            Err(e) => self.outcome(seed, Err(&e)),
        }
    }
}

/// Whether `err` is a typed fault: a `FaultDetected` naming a known
/// detection site, or a `PoisonedInput` downstream of one.
fn is_typed(err: &NeoError) -> bool {
    match err {
        NeoError::FaultDetected { site, .. } => DETECTION_SITES.contains(site),
        other => other.kind() == ErrorKind::PoisonedInput,
    }
}

/// The [`TRIAL_FLOOR`] checks over `(row, trials made)` pairs, the
/// compute rows and the store rows counted apart; empty when both hold.
pub fn trial_floor_failures<'a>(runs: impl IntoIterator<Item = (&'a Row, u64)>) -> Vec<String> {
    let (mut compute, mut store) = (0, 0);
    for (row, trials) in runs {
        if row.store {
            store += trials;
        } else {
            compute += trials;
        }
    }
    [("compute", compute), ("store", store)]
        .into_iter()
        .filter(|&(_, trials)| trials < TRIAL_FLOOR)
        .map(|(group, trials)| {
            format!("the {group} rows made {trials} trials, under the {TRIAL_FLOOR}-trial floor")
        })
        .collect()
}

fn trial_seed(base: u64, site: FaultSite, trial: u64) -> u64 {
    splitmix64(base ^ ((site as u64 + 1) << 32) ^ trial)
}

/// Bit flips in tensor-core fragment accumulators across random GEMM
/// shapes: the Huang–Abraham checksum must catch every one.
fn tcu_fragment(base: u64) -> Tally {
    let mut t = Tally::default();
    let q = Modulus::new(primes::ntt_primes(36, 8, 1).expect("a 36-bit prime")[0])
        .expect("a prime modulus");
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
        let mut out = vec![0u64; m * n];
        let got = t.trial(seed, FaultSite::TcuFragment, FaultSpec::once(), || {
            gemm.gemm_verified(&q, &a, &b, m, k, n, &mut out)
        });
        t.outcome(seed, got.as_ref().map(|_| out == clean));
    }
    t
}

/// Corrupted limbs after NTT stage execution: the spot check must flag
/// the transform whenever the output deviates from clean. Trials take
/// turns: a forward kernel; an inverse kernel, plain or scaled by a
/// seeded factor as KLSS's T-basis inverses are; and a warm HMult through
/// an always-verifying engine, its one corrupted limb landing in the
/// per-limb tensor or in the switch's T-basis inverses.
fn ntt_stage(base: u64) -> Tally {
    let mut t = Tally::default();
    let q = primes::ntt_primes(36, 256, 1).expect("a 36-bit prime")[0];
    let plan = neo_ntt::cache::get_or_build(q, 128).expect("plan builds");
    let e = engine(VerifyPolicy::Always);
    let (_, cts) = batch_fixture(&e);
    let hmult = || e.hmult(&cts[0], &cts[1]);
    // Also generates the relinearisation key, so every trial runs warm.
    let clean_ct = hmult().expect("clean run succeeds");
    let windows = hmult_windows(&e, ntt_transforms(|| drop(hmult())));
    for trial in 0..NTT_STAGE_TRIALS {
        let seed = trial_seed(base, FaultSite::NttStage, trial);
        if let Some(&(first, len)) = windows.get((trial % 4) as usize) {
            let spec = FaultSpec::once_after(first + splitmix64(seed) % len);
            match t.trial(seed, FaultSite::NttStage, spec, hmult) {
                Ok(ct) => t.outcome(seed, Ok(ct == clean_ct)),
                Err(err) => {
                    let retry_clean = hmult().is_ok_and(|ct| ct == clean_ct);
                    t.recovery(seed, &err, false, retry_clean);
                }
            }
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs: Vec<u64> = (0..128).map(|_| rng.gen_range(0..q)).collect();
        let forward = trial % 4 == 2;
        let factor = if forward || trial % 8 == 3 {
            1
        } else {
            rng.gen_range(2..q)
        };
        let transform = |x: &mut [u64]| {
            if forward {
                neo_ntt::radix2::forward(&plan, x);
            } else {
                neo_ntt::radix2::inverse_scaled(&plan, x, factor);
            }
        };
        let mut clean = coeffs.clone();
        transform(&mut clean);
        let mut out = coeffs.clone();
        t.trial(seed, FaultSite::NttStage, FaultSpec::once(), || {
            transform(&mut out)
        });
        let (c, evals) = if forward {
            (&coeffs, &out)
        } else {
            (&out, &coeffs)
        };
        let check = neo_ntt::spot_check_transform(&plan, c, evals, seed, forward, factor);
        t.outcome(seed, check.as_ref().map(|_| out == clean));
    }
    t
}

/// The `(first, count)` limb transforms of a warm top-level HMult that
/// `total` counts: the per-limb tensor's seven per limb, then, after the
/// switch's Mod Up, its T-basis inverses, two per output digit and `T`
/// limb.
fn hmult_windows(e: &FheEngine, total: u64) -> [(u64, u64); 2] {
    let params = e.context().params();
    let level = e.max_level();
    let t_limbs = e.context().t_primes().len() as u64;
    let tensor = 7 * (level as u64 + 1);
    let mod_up = params.beta(level) as u64 * t_limbs;
    let inverses = 2 * params.beta_tilde(level) as u64 * t_limbs;
    assert_eq!(tensor + mod_up + inverses, total, "HMult transform count");
    [(0, tensor), (tensor + mod_up, inverses)]
}

/// One corrupted NTT limb inside cold key generation or the secret's
/// transform, through an always-verifying engine: a cold HRotate (which
/// generates its Galois key before any other transform), a cold HMult
/// (its relinearisation key, after the tensor's seven transforms) and a
/// decrypt (the secret's limbs come first), in turn.
fn ntt_stage_keygen(base: u64) -> Tally {
    let mut t = Tally::default();
    let e = engine(VerifyPolicy::Always);
    let (_, cts) = batch_fixture(&e);
    let level = e.max_level();
    let targets = [
        KeyTarget::Galois(neo_ckks::ops::galois_element(e.context().degree(), 1)),
        KeyTarget::Relin,
    ];
    let keygen = |target| {
        e.chest().clear_cache(e.method());
        ntt_transforms(|| {
            e.chest()
                .warm(level, target, e.method())
                .expect("clean key generation");
        })
    };
    let limbs = level as u64 + 1;
    // Per op, the (first, count) limb transforms that generate its key
    // or, for the decrypt, transform the secret.
    let windows = [
        (0, keygen(targets[0])),
        (7 * limbs, keygen(targets[1])),
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
        let spec = FaultSpec::once_after(first + splitmix64(seed) % len);
        match t.trial(seed, FaultSite::NttStage, spec, || cold_op(&e, op, &cts)) {
            Ok(polys) => t.outcome(seed, Ok(polys == clean[op])),
            Err(err) => {
                let cached = targets
                    .get(op)
                    .is_some_and(|&target| e.chest().has_key(level, target, e.method()));
                let retry_clean = cold_op(&e, op, &cts).is_ok_and(|p| p == clean[op]);
                t.recovery(seed, &err, cached, retry_clean);
            }
        }
    }
    t
}

/// One corrupted NTT limb inside the plaintext transforms of a cold BSGS
/// application, through an always-verifying engine. A transform encodes
/// its diagonals before it rotates anything, so the window opens at the
/// first limb transform and spans what a cold application runs beyond a
/// warm one. A faulty encoding must not stay cached: the disarmed retry
/// runs on the same transform.
fn ntt_stage_bsgs(base: u64) -> Tally {
    let mut t = Tally::default();
    let e = engine(VerifyPolicy::Always);
    let (_, cts) = batch_fixture(&e);
    let warm = bsgs_fixture(&e);
    // The first application also generates the Galois keys.
    let clean = e
        .apply_transform_bsgs(&warm, &cts[0])
        .expect("clean run succeeds");
    let transforms = |lt: &LinearTransform| {
        ntt_transforms(|| {
            e.apply_transform_bsgs(lt, &cts[0])
                .expect("clean transform");
        })
    };
    let window = transforms(&bsgs_fixture(&e)) - transforms(&warm);
    assert!(window > 0, "a cold application ran no plaintext transform");
    for trial in 0..NTT_BSGS_TRIALS {
        // Continues the ntt_stage_keygen row's seed sequence.
        let seed = trial_seed(
            base,
            FaultSite::NttStage,
            NTT_STAGE_TRIALS + NTT_KEYGEN_TRIALS + trial,
        );
        let lt = bsgs_fixture(&e);
        let spec = FaultSpec::once_after(splitmix64(seed) % window);
        match t.trial(seed, FaultSite::NttStage, spec, || {
            e.apply_transform_bsgs(&lt, &cts[0])
        }) {
            Ok(ct) => t.outcome(seed, Ok(ct == clean)),
            Err(err) => {
                let retry_clean = e
                    .apply_transform_bsgs(&lt, &cts[0])
                    .is_ok_and(|ct| ct == clean);
                t.recovery(seed, &err, false, retry_clean);
            }
        }
    }
    t
}

/// Poisoned plan-cache entries under an always-verifying engine: a batch
/// must quarantine the entry and recover, or fail typed — never return a
/// ciphertext computed with corrupt twiddles.
fn ntt_plan(base: u64) -> Tally {
    batch_row(
        FaultSite::NttPlan,
        FaultSpec::once(),
        VerifyPolicy::Always,
        NTT_PLAN_TRIALS,
        base,
    )
}

/// Spurious transient op errors in the CKKS layer: bounded retry must
/// recover them bit-identically or isolate them with typed errors.
fn ckks_op(base: u64) -> Tally {
    batch_row(
        FaultSite::CkksOp,
        FaultSpec::with_probability_ppm(400_000).max_fires(3),
        VerifyPolicy::Off,
        CKKS_TRIALS,
        base,
    )
}

fn batch_row(
    site: FaultSite,
    spec: FaultSpec,
    verify: VerifyPolicy,
    trials: u64,
    base: u64,
) -> Tally {
    let mut t = Tally::default();
    let e = engine(verify);
    let (prog, cts) = batch_fixture(&e);
    let clean = clean_run(&e, &prog, &cts);
    for trial in 0..trials {
        let seed = trial_seed(base, site, trial);
        let report = t.trial(seed, site, spec, || {
            e.execute_batch_with_report(&prog, &cts, 2)
                .expect("legal program")
        });
        t.batch(seed, &report.results, &clean);
        // Sweep any leftover poisoned entry so trials stay independent.
        neo_ntt::cache::quarantine_corrupt();
    }
    t
}

/// The no-silent-corruption contract through the serving layer:
/// coalesced multi-tenant batches under spurious op faults must answer
/// every tenant exactly once, per op with that tenant's sequential
/// fault-free bits or a typed error — never a neighbour's fault leaking
/// across sessions.
fn serve_layer(base: u64) -> Tally {
    const TENANTS: u64 = 3;
    let mut t = Tally::default();
    let registry =
        Arc::new(TenantRegistry::new(CkksParams::test_tiny()).expect("test_tiny registry"));
    let cfg = TenantConfig {
        policy: OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        },
        fault_budget: u64::MAX, // budget shedding is tested in tests/serve.rs
        ..TenantConfig::default()
    };
    let tenants: Vec<_> = (0..TENANTS)
        .map(|id| {
            let session = registry
                .register(id, ENGINE_SEED + id, cfg)
                .expect("tenant registers");
            let (prog, cts) = batch_fixture(session.engine());
            let clean = clean_run(session.engine(), &prog, &cts);
            (prog, cts, clean)
        })
        .collect();
    let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());
    for trial in 0..SERVE_TRIALS {
        // Continues the ckks_op row's seed sequence.
        let seed = trial_seed(base, FaultSite::CkksOp, CKKS_TRIALS + trial);
        for (id, (prog, cts, _)) in (0..).zip(&tenants) {
            core.submit(id, prog.clone(), cts.clone())
                .expect("an idle service admits three requests");
        }
        let spec = FaultSpec::with_probability_ppm(400_000).max_fires(3);
        let responses = t.trial(seed, FaultSite::CkksOp, spec, || core.run_until_idle());
        let mut answered: Vec<u64> = responses.iter().map(|r| r.tenant).collect();
        answered.sort_unstable();
        if !answered.iter().copied().eq(0..TENANTS) {
            t.silent_seeds.push(seed);
        }
        for resp in &responses {
            match &resp.outcome {
                Ok(results) => t.batch(seed, results, &tenants[resp.tenant as usize].2),
                Err(e) => t.outcome(seed, Err(e)),
            }
        }
    }
    t
}

/// Dropped/duplicated kernel completions in the timeline simulator:
/// watchdog resynthesis and dedup must keep the schedule — timeline and
/// makespan — bit-identical.
fn sched_completion(base: u64) -> Tally {
    let mut t = Tally::default();
    let dev = DeviceModel::new(DeviceSpec::a100());
    for trial in 0..SCHED_TRIALS {
        let seed = trial_seed(base, FaultSite::SchedCompletion, trial);
        let g = random_graph(seed);
        let clean = simulate(&g, &dev, SimConfig::streams(2));
        let spec = FaultSpec::with_probability_ppm(500_000);
        let got = t.trial(seed, FaultSite::SchedCompletion, spec, || {
            try_simulate(&g, &dev, SimConfig::streams(2))
        });
        t.outcome(
            seed,
            got.as_ref()
                .map(|s| s.timeline == clean.timeline && s.makespan_s == clean.makespan_s),
        );
    }
    t
}

/// Bit flips in the serialized store image at commit time: the next
/// open's recovery scan must classify every damaged record.
fn store_write(base: u64) -> Tally {
    store_commit(FaultSite::StoreWrite, STORE_WRITE_TRIALS, base, "write")
}

/// Truncation of the committed image at a seeded offset — the torn-write
/// crash model: the scan keeps the intact prefix and classifies the tail.
fn store_torn(base: u64) -> Tally {
    store_commit(FaultSite::StoreTorn, STORE_TORN_TRIALS, base, "torn")
}

/// Commit-side damage, then a fresh open and a read of every record:
/// whatever a `get` serves must be bit-identical to what was written.
fn store_commit(site: FaultSite, trials: u64, base: u64, tag: &str) -> Tally {
    let mut t = Tally::default();
    let path = store_path(tag);
    for trial in 0..trials {
        let seed = trial_seed(base, site, trial);
        let (store, clean) = store_fixture(seed, &path);
        t.trial(seed, site, FaultSpec::once(), || store.commit())
            .expect("a commit (faults damage bytes, not the file system)");
        match Store::open(&path) {
            Ok(reopened) => {
                for (id, want) in &clean {
                    t.record(seed, want, reopened.get(*id), true);
                }
            }
            // The recovery scan must open any damaged image.
            Err(_) => t.silent_seeds.push(seed),
        }
    }
    let _ = std::fs::remove_file(&path);
    t
}

/// Bit rot on the read path: every `get` re-verifies the payload
/// checksum, so a flipped bit surfaces as a typed error, never as
/// corrupt bytes.
fn store_read(base: u64) -> Tally {
    let mut t = Tally::default();
    let path = store_path("read");
    let (store, clean) = store_fixture(base, &path);
    store.commit().expect("a clean commit");
    let reopened = Store::open(&path).expect("a clean open");
    for trial in 0..STORE_READ_TRIALS {
        let seed = trial_seed(base, FaultSite::StoreRead, trial);
        let got: Vec<_> = t.trial(seed, FaultSite::StoreRead, FaultSpec::once(), || {
            clean.iter().map(|(id, _)| reopened.get(*id)).collect()
        });
        for ((_, want), got) in clean.iter().zip(got) {
            t.record(seed, want, got, false);
        }
    }
    let _ = std::fs::remove_file(&path);
    t
}

// --- fixtures -------------------------------------------------------------

fn engine(verify: VerifyPolicy) -> FheEngine {
    FheEngine::new(CkksParams::test_tiny(), ENGINE_SEED)
        .expect("test_tiny engine")
        .with_policy(OpPolicy {
            verify,
            ..OpPolicy::default()
        })
}

/// HMult → Rescale chain plus an independent HAdd, so one failing op
/// leaves a clean subset to complete.
fn batch_fixture(e: &FheEngine) -> (BatchProgram, Vec<Ciphertext>) {
    let mut prog = BatchProgram::new();
    let m = prog
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(1)))
        .expect("legal op");
    prog.try_push(BatchOp::Rescale(m)).expect("legal op");
    prog.try_push(BatchOp::HAdd(Slot::Input(0), Slot::Input(1)))
        .expect("legal op");
    let inputs = [[1.25, -0.75, 2.0], [0.5, 3.0, -1.5]]
        .map(|v| e.encrypt_f64(&v, e.max_level()).expect("encrypt"));
    (prog, inputs.into())
}

/// The fault-free outputs of `prog`, from the sequential reference.
fn clean_run(e: &FheEngine, prog: &BatchProgram, cts: &[Ciphertext]) -> Vec<Ciphertext> {
    run_sequential(prog, e.chest(), cts, e.method())
        .into_iter()
        .map(|r| r.expect("clean run succeeds"))
        .collect()
}

/// NTT limb transforms `f` runs, counted under a plan that never fires.
fn ntt_transforms(f: impl FnOnce()) -> u64 {
    let plan = Arc::new(
        FaultPlan::new(0).with_site(FaultSite::NttStage, FaultSpec::with_probability_ppm(0)),
    );
    let scope = FaultScope::install(plan.clone());
    f();
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

/// Deterministic pseudo-random kernel DAG: 4–8 nodes with mixed
/// CUDA/TCU/memory work and forward edges.
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

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "neo-fault-matrix-store-{tag}-{}.neostore",
        std::process::id()
    ))
}

/// A fresh store at `path` holding a deterministic mixed-kind record set
/// (seed-recoverable KSK material plus two quarantine-only ciphertext
/// records), ready to commit, with the bytes each record must serve.
fn store_fixture(seed: u64, path: &Path) -> (Store, Vec<(RecordId, Vec<u8>)>) {
    let _ = std::fs::remove_file(path);
    let mut store = Store::open(path).expect("open a fresh store");
    let kinds = [
        RecordKind::SecretKey,
        RecordKind::HybridKsk,
        RecordKind::KlssKsk,
        RecordKind::Ciphertext,
        RecordKind::Ciphertext,
    ];
    let clean = (0u64..)
        .zip(kinds)
        .map(|(i, kind)| {
            let h = splitmix64(seed ^ ((i + 1) << 12));
            let payload: Vec<u8> = (0..32 + h % 224)
                .map(|j| (splitmix64(h ^ j) & 0xFF) as u8)
                .collect();
            let id = RecordId {
                kind,
                tenant: 1,
                level: i,
                aux: i,
            };
            store.put(id, h, 0xF1F1, payload.clone());
            (id, payload)
        })
        .collect();
    (store, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `t`'s outcomes fail a `tcu_fragment` run that met its
    /// injection floor.
    fn fails(t: &Tally) -> bool {
        let row = &ROWS[0];
        let run = Tally {
            injected: row.injection_floor,
            ..t.clone()
        };
        !run.failures(row).is_empty()
    }

    fn detected() -> NeoError {
        NeoError::fault_detected("ntt_forward", "spot check")
    }

    #[test]
    fn a_fault_must_name_a_known_detection_site() {
        let mut t = Tally::default();
        t.outcome(1, Err(&detected()));
        assert!(!fails(&t));
        t.outcome(2, Err(&NeoError::fault_detected("somewhere_else", "")));
        assert_eq!(t.silent_seeds, [2]);
        assert!(fails(&t));
    }

    #[test]
    fn an_untyped_error_fails_and_a_poisoned_input_does_not() {
        let mut t = Tally::default();
        t.outcome(1, Err(&NeoError::poisoned(2, 0)));
        assert!(!fails(&t));
        t.outcome(2, Err(&NeoError::invalid_params("not a fault")));
        assert_eq!(t.silent_seeds, [2]);
        assert!(fails(&t));
    }

    #[test]
    fn a_clean_record_vanishing_on_the_read_path_fails() {
        let mut t = Tally::default();
        t.record(1, b"key", Ok(None), true);
        t.record(1, b"key", Ok(Some(b"key".to_vec())), false);
        t.record(
            1,
            b"key",
            Err(NeoError::fault_detected("store_read", "")),
            false,
        );
        assert_eq!((t.identical, t.detected), (1, 2));
        assert!(!fails(&t));
        t.record(2, b"key", Ok(None), false);
        assert_eq!(t.silent_seeds, [2]);
        assert!(fails(&t));
    }

    #[test]
    fn a_detected_fault_must_retry_clean_and_leave_no_key_cached() {
        let mut t = Tally::default();
        t.recovery(1, &detected(), false, true);
        assert!(!fails(&t));
        t.recovery(2, &detected(), false, false);
        t.recovery(3, &detected(), true, true);
        assert_eq!(t.silent_seeds, [2, 3]);
        assert!(fails(&t));
    }

    #[test]
    fn a_row_under_its_injection_floor_fails() {
        for row in &ROWS {
            let at = Tally {
                trials: row.trials,
                injected: row.injection_floor,
                ..Tally::default()
            };
            assert!(at.failures(row).is_empty(), "{}", row.name);
            let under = Tally {
                injected: row.injection_floor - 1,
                ..at
            };
            assert_eq!(under.failures(row).len(), 1, "{}", row.name);
        }
    }

    #[test]
    fn compute_and_store_rows_each_make_1000_trials() {
        let declared = || ROWS.iter().map(|r| (r, r.trials));
        assert!(trial_floor_failures(declared()).is_empty());
        let no_store = trial_floor_failures(declared().filter(|(r, _)| !r.store));
        assert_eq!(no_store.len(), 1);
        assert!(no_store[0].contains("store rows"));
    }
}
