//! `ks-ops`: one `FheEngine` session at N = 2^14, L = 11, 36-bit words,
//! dnum = 4, KLSS (`WordSize_T` = 48, α̃ = 2). One closed-loop caller
//! runs a fixed seeded cycle of HMult→Rescale and HRotate at the top
//! level and a middle level over a small pool of distinct ciphertexts.
//! Every key the cycle uses is generated during set-up; the session runs
//! with `require_warm_keys`, so a missed key is a counted failure.
//!
//! End-to-end mapping: `op_ms_*` is HMult (p50, p90), `op2_ms_*` is
//! HRotate (p50, p90), `rate_per_s` is cycle operations per second of
//! operation time. Op times are process CPU time, which leaves out what
//! the hypervisor steals from a shared VM; wall-clock times are printed
//! beside them.

use crate::report::note_support;
use crate::report::Report;
use crate::serving::{self, Spec};
use crate::stats::{median, quantile};
use crate::{
    cpu_ms, layers, measured, precision_bits, random_slots, repeat_setup, run_precision, timed,
    wall_ms, Args, Digest, Times,
};
use neo_ckks::encoding::Complex64;
use neo_ckks::ops::galois_element;
use neo_ckks::{
    BatchOp, BatchProgram, Ciphertext, CkksParams, FheEngine, KeyTarget, NeoError, OpPolicy, Slot,
};
use neo_serve::{NeoService, TenantConfig, TenantRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const TOP: usize = 11;
const MID: usize = 6;
/// Distinct ciphertexts per level.
const POOL: usize = 3;
/// Samples of each op measured at least, so the p90 has ten beyond it.
const MIN_SAMPLES: usize = 110;

/// The workload's parameter set.
pub fn params() -> Result<CkksParams, NeoError> {
    CkksParams::builder()
        .log_n(14)
        .max_level(TOP)
        .word_size(36)
        .dnum(4)
        .klss(48, 2)
        .build()
}

/// A warmed session with its ciphertext pool.
pub struct Session {
    /// The engine, keys warm, `require_warm_keys` on.
    pub engine: FheEngine,
    /// `pool[0]` at the top level, `pool[1]` at the middle level: each a
    /// ciphertext with the slots it encrypts.
    pub pool: [Vec<(Ciphertext, Vec<Complex64>)>; 2],
    /// The two rotation steps the cycle uses.
    pub steps: [usize; 2],
    /// Wall time of each key generation, ms.
    pub keygen_ms: Vec<f64>,
}

const LEVELS: [usize; 2] = [TOP, MID];

/// Builds the session: context, keys, every KSK the cycle uses, pool.
///
/// # Errors
///
/// Propagates parameter, key generation and encryption errors.
pub fn setup(seed: u64) -> Result<Session, NeoError> {
    let engine = FheEngine::new(params()?, seed)?.with_policy(OpPolicy {
        require_warm_keys: true,
        ..OpPolicy::default()
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b73_2d6f_7073);
    let first = rng.gen_range(1..=32usize);
    let second = (first + rng.gen_range(1..32usize) - 1) % 32 + 1;
    let steps = [first, second];
    let n = engine.context().degree();
    let mut keygen_ms = Vec::new();
    for level in LEVELS {
        let mut targets = vec![KeyTarget::Relin];
        targets.extend(steps.map(|s| KeyTarget::Galois(galois_element(n, s))));
        for target in targets {
            let (r, ms) = timed(|| engine.chest().warm(level, target, engine.method()));
            r?;
            keygen_ms.push(ms);
        }
    }
    let mut pool = [Vec::new(), Vec::new()];
    for (slot, level) in pool.iter_mut().zip(LEVELS) {
        for _ in 0..POOL {
            let z = random_slots(&mut rng, engine.slots(), 1.0);
            slot.push((engine.encrypt_values(&z, level)?, z));
        }
    }
    Ok(Session {
        engine,
        pool,
        steps,
        keygen_ms,
    })
}

/// One operation of the cycle, on level `lv` (0 top, 1 middle).
#[derive(Debug, Clone, Copy)]
enum Op {
    MultRescale { lv: usize, a: usize, b: usize },
    Rotate { lv: usize, a: usize, step: usize },
}

/// The cycle: a fixed multiset (6 top and 2 middle HMult→Rescale, as
/// many HRotates) in seeded order, with seeded operands and steps. The
/// fixed multiset keeps each latency distribution's shape independent
/// of the seed.
fn cycle(rng: &mut StdRng, steps: [usize; 2]) -> Vec<Op> {
    let mut ops = Vec::new();
    for lv in [0, 0, 0, 0, 0, 0, 1, 1] {
        ops.push(Op::MultRescale {
            lv,
            a: rng.gen_range(0..POOL),
            b: rng.gen_range(0..POOL),
        });
        ops.push(Op::Rotate {
            lv,
            a: rng.gen_range(0..POOL),
            step: steps[rng.gen_range(0..2usize)],
        });
    }
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_range(0..=i));
    }
    ops
}

/// Left rotation of slot values by `step`, the HRotate oracle.
fn rotate(z: &[Complex64], step: usize) -> Vec<Complex64> {
    (0..z.len()).map(|i| z[(i + step) % z.len()]).collect()
}

/// Runs one cycle operation; returns the op's times, the times of the
/// rescale that follows an HMult, the output and the oracle.
fn run_op(s: &Session, op: Op) -> Result<(Times, Times, Ciphertext, Vec<Complex64>), NeoError> {
    let e = &s.engine;
    match op {
        Op::MultRescale { lv, a, b } => {
            let ((ca, za), (cb, zb)) = (&s.pool[lv][a], &s.pool[lv][b]);
            let (m, t) = measured(|| e.hmult(ca, cb));
            let m = m?;
            let (r, rs) = measured(|| e.rescale(&m));
            let want = za.iter().zip(zb).map(|(x, y)| *x * *y).collect();
            Ok((t, rs, r?, want))
        }
        Op::Rotate { lv, a, step } => {
            let (ca, za) = &s.pool[lv][a];
            let (r, t) = measured(|| e.hrotate(ca, step));
            Ok((t, Times::default(), r?, rotate(za, step)))
        }
    }
}

/// The untraced run: set-up `SETUP_REPS` times, then the timed cycle.
///
/// # Errors
///
/// Propagates set-up errors; operation errors count as failures.
pub fn run(args: &Args) -> Result<Report, NeoError> {
    let mut report = Report::default();
    let (s, setup_t) = repeat_setup(crate::SETUP_REPS, || setup(args.seed));
    let s = s?;
    report.set("setup_s", median(&cpu_ms(&setup_t)) / 1e3);
    let keys_before = s.engine.chest().cached_keys(s.engine.method()).len();

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0063_7963_6c65);
    let ops = cycle(&mut rng, s.steps);
    let (mut mult, mut rot) = (Vec::new(), Vec::new());
    // Precision of checked outputs: [HMult→Rescale, HRotate].
    let mut precision = [Vec::new(), Vec::new()];
    let mut busy_cpu_ms = 0.0;
    let mut digest = Digest::default();
    let start = Instant::now();
    'timed: for round in 0.. {
        for &op in &ops {
            let elapsed = start.elapsed().as_secs_f64();
            let enough = mult.len().min(rot.len()) >= MIN_SAMPLES;
            if (elapsed >= args.seconds && enough) || elapsed >= crate::MAX_STRETCH * args.seconds {
                break 'timed;
            }
            let Ok((t, rs, out, want)) = run_op(&s, op) else {
                report.op(false);
                continue;
            };
            busy_cpu_ms += t.cpu_ms + rs.cpu_ms;
            let kind = match op {
                Op::MultRescale { .. } => {
                    mult.push(t);
                    0
                }
                Op::Rotate { .. } => {
                    rot.push(t);
                    1
                }
            };
            // Every output of the first round, then a seeded sixteenth.
            let mut ok = true;
            if round == 0 || rng.gen_range(0..16) == 0 {
                match s.engine.decrypt_values(&out) {
                    Ok(got) => {
                        let (worst, bits) = precision_bits(&got, &want);
                        ok = worst >= crate::MIN_PRECISION_BITS;
                        // Later rounds repeat the first round's outputs.
                        if round == 0 {
                            precision[kind].push(bits);
                            digest.add(&got);
                        }
                    }
                    Err(_) => ok = false,
                }
            }
            report.op(ok);
        }
    }
    let keys_after = s.engine.chest().cached_keys(s.engine.method()).len();
    report.check(
        keys_after == keys_before,
        "a key was generated during the timed phase",
    );
    note_support("HMults", mult.len(), 0.9);
    note_support("HRotates", rot.len(), 0.9);
    let (mult_cpu, rot_cpu) = (cpu_ms(&mult), cpu_ms(&rot));
    report.set("op_ms_p50", quantile(&mult_cpu, 0.5));
    report.set("op_ms_tail", quantile(&mult_cpu, 0.9));
    report.set("op2_ms_p50", quantile(&rot_cpu, 0.5));
    report.set("op2_ms_tail", quantile(&rot_cpu, 0.9));
    report.set(
        "rate_per_s",
        (mult.len() + rot.len()) as f64 / (busy_cpu_ms / 1e3),
    );
    let bits = run_precision(&[&precision[0], &precision[1]]);
    report.set("precision_bits", bits);
    report.set("peak_rss_mb", crate::peak_rss_mb());
    let (mult_wall, rot_wall) = (wall_ms(&mult), wall_ms(&rot));
    println!(
        "ks-ops: {} HMults, {} HRotates; precision {bits:.2} bits; digest {:016x}\n\
         ks-ops cpu:  hmult_ms_p50 {:.3}, hmult_ms_p90 {:.3}, hrotate_ms_p50 {:.3}, \
         hrotate_ms_p90 {:.3}, setup {:.3} s\n\
         ks-ops wall: hmult_ms_p50 {:.3}, hmult_ms_p90 {:.3}, hrotate_ms_p50 {:.3}, \
         hrotate_ms_p90 {:.3}, setup {:.3} s",
        mult.len(),
        rot.len(),
        digest.value(),
        quantile(&mult_cpu, 0.5),
        quantile(&mult_cpu, 0.9),
        quantile(&rot_cpu, 0.5),
        quantile(&rot_cpu, 0.9),
        median(&cpu_ms(&setup_t)) / 1e3,
        quantile(&mult_wall, 0.5),
        quantile(&mult_wall, 0.9),
        quantile(&rot_wall, 0.5),
        quantile(&rot_wall, 0.9),
        median(&wall_ms(&setup_t)) / 1e3,
    );
    Ok(report)
}

/// The traced run: one set-up, the layer probes at the top level, a
/// short serve probe with HMult→Rescale and HRotate requests from one
/// tenant on this context, and the tracing overhead of the cycle.
///
/// # Errors
///
/// Propagates set-up and probe errors.
pub fn trace(args: &Args) -> Result<Report, NeoError> {
    let mut report = Report::default();
    neo_ntt::cache::clear();
    let s = setup(args.seed)?;
    let e = &s.engine;
    report.set("keys.ksk_gen_ms", median(&s.keygen_ms));
    let (count, mb) = layers::key_stats([e.chest()]);
    report.set("keys.ksk_count", count as f64);
    report.set("keys.ksk_mb_computed", mb);

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0074_7261_6365);
    let (a, b) = (&s.pool[0][0].0, &s.pool[0][1].0);
    layers::ckks_layers(e, a, b, s.steps[0], 5, &mut rng, &mut report)?;
    let hmult_ms = report.get("hmult.total_ms").unwrap_or(100.0);

    // Serve probe: one tenant on this context, both request shapes.
    let registry = Arc::new(TenantRegistry::with_context(Arc::clone(e.context())));
    let tenant = registry.register(1, args.seed, TenantConfig::default())?;
    let programs = [mult_rescale_program()?, rotate_program(s.steps[0])?];
    for p in &programs {
        tenant.engine().warm_program(p, TOP)?;
    }
    let inputs = [tenant
        .engine()
        .encrypt_values(&random_slots(&mut rng, e.slots(), 1.0), TOP)?];
    let rate = 500.0 / hmult_ms;
    let times = serving::poisson(&mut rng, rate, 0.0, 16.0 / rate);
    let arrivals: Vec<(f64, Spec)> = times
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let spec = Spec {
                tenant: 1,
                program: i % 2,
                input: 0,
            };
            (t, spec)
        })
        .collect();
    let service = NeoService::spawn(Arc::clone(&registry), serving::serve_config());
    let records = serving::open_loop(&service, &arrivals, &programs, &inputs, |_| false);
    service.shutdown();
    serving::set_service_metrics(&records, &mut report);
    for r in &records {
        report.op(r.ok);
    }
    serving::core_layers(&registry, &arrivals, &programs, &inputs, &mut report);

    // Tracing overhead over the first eight cycle operations.
    let ops = cycle(&mut rng, s.steps);
    let mut i = 0;
    let overhead = layers::trace_overhead_pct(2, 4, || {
        let op = ops[i % 8];
        i += 1;
        run_op(&s, op).map_or(f64::NAN, |(t, rs, _, _)| t.cpu_ms + rs.cpu_ms)
    });
    report.set("trace.overhead_pct", overhead);
    Ok(report)
}

/// `HMult(x, x) → Rescale`, the served shape of the cycle's multiply.
fn mult_rescale_program() -> Result<BatchProgram, NeoError> {
    let mut p = BatchProgram::new();
    let m = p.try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))?;
    p.try_push(BatchOp::Rescale(m))?;
    Ok(p)
}

/// `HRotate(x, step)`, the served shape of the cycle's rotation.
fn rotate_program(step: usize) -> Result<BatchProgram, NeoError> {
    let mut p = BatchProgram::new();
    p.try_push(BatchOp::HRotate(Slot::Input(0), step))?;
    Ok(p)
}
