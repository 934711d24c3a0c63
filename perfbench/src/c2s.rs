//! `coeff-to-slot`: a CoeffToSlot-shaped bootstrap segment at N = 2^13.
//! Three sparse radix-4 linear transforms (7 diagonals each, strides 1,
//! 4 and 16) are applied in turn with `LinearTransform::try_apply_bsgs`,
//! one level each, to one ciphertext. Set-up generates every Galois key
//! of every stage level; the timed phase fails an operation if a key is
//! generated lazily.
//!
//! End-to-end mapping: `op_ms_*` is the segment (p50, p80), `op2_ms_*`
//! is one stage (p50, p80), `rate_per_s` is segments per second of
//! segment time, all in process CPU time as in `ks_ops`. A segment
//! takes over half a second, so a run holds too few for a p90 with ten
//! samples beyond it; p80 is the highest that has them.

use crate::layers;
use crate::report::note_support;
use crate::report::Report;
use crate::serving::{self, Spec};
use crate::stats::{median, quantile};
use crate::{
    cpu_ms, measured, precision_bits, random_slots, repeat_setup, run_precision, timed, wall_ms,
    Args, Digest, Times,
};
use neo_ckks::encoding::Complex64;
use neo_ckks::ops::{self, galois_element};
use neo_ckks::{
    BatchOp, BatchProgram, Ciphertext, CkksParams, FheEngine, KeyTarget, LinearTransform, NeoError,
    OpPolicy, Slot,
};
use neo_serve::{NeoService, TenantConfig, TenantRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

const TOP: usize = 5;
/// Radix of each stage: `2r - 1` diagonals.
const RADIX: usize = 4;
/// Stage strides.
const STRIDES: [usize; 3] = [1, 4, 16];
/// Distinct input ciphertexts.
const POOL: usize = 8;
/// Segments measured at least, so the p80 has ten samples beyond it.
const MIN_SEGMENTS: usize = 60;

/// The workload's parameter set.
pub fn params() -> Result<CkksParams, NeoError> {
    CkksParams::builder()
        .log_n(13)
        .max_level(TOP)
        .word_size(36)
        .dnum(3)
        .klss(48, 2)
        .build()
}

/// One stage: its transform, its diagonals, and the level it runs at.
pub struct Stage {
    /// The transform applied homomorphically.
    pub lt: LinearTransform,
    /// Its diagonals (kept for the replayed breakdown).
    pub diagonals: BTreeMap<usize, Vec<Complex64>>,
    /// Input level.
    pub level: usize,
}

impl Stage {
    /// Baby-step size, as `FheEngine::apply_transform_bsgs` picks it.
    fn baby(&self) -> usize {
        ((self.diagonals.len() as f64).sqrt().ceil() as usize).max(1)
    }

    /// The rotation steps `try_apply_bsgs` performs at this stage.
    fn rotations(&self) -> BTreeSet<usize> {
        let baby = self.baby();
        let slots = self.lt.slots();
        let mut steps = BTreeSet::new();
        for &d in self.diagonals.keys() {
            steps.insert(d % baby);
            steps.insert((d / baby) * baby % slots);
        }
        steps.remove(&0);
        steps
    }
}

/// A warmed session: engine, stages, input pool and oracles.
pub struct Session {
    /// The engine, every stage key warm.
    pub engine: FheEngine,
    /// The segment's stages, in order.
    pub stages: Vec<Stage>,
    /// Input ciphertexts with the segment's plaintext result for each.
    pub pool: Vec<(Ciphertext, Vec<Complex64>)>,
    /// Wall time of each key generation, ms.
    pub keygen_ms: Vec<f64>,
}

/// Builds the session: context, stages, every stage key, inputs.
///
/// # Errors
///
/// Propagates parameter, key generation and encryption errors.
pub fn setup(seed: u64) -> Result<Session, NeoError> {
    let engine = FheEngine::new(params()?, seed)?.with_policy(OpPolicy {
        require_warm_keys: true,
        ..OpPolicy::default()
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0063_3273);
    let slots = engine.slots();
    // Entries bounded so each stage is a contraction: 7 terms of modulus
    // at most √2·bound.
    let bound = 1.0 / ((2 * RADIX - 1) as f64 * 2f64.sqrt());
    let mut stages = Vec::new();
    for (k, stride) in STRIDES.into_iter().enumerate() {
        let mut diagonals = BTreeMap::new();
        for j in 0..RADIX {
            for d in [j * stride, slots - j * stride] {
                diagonals.insert(d % slots, random_slots(&mut rng, slots, bound));
            }
        }
        let lt = LinearTransform::try_from_diagonals(slots, diagonals.clone())?;
        stages.push(Stage {
            lt,
            diagonals,
            level: TOP - k,
        });
    }
    let n = engine.context().degree();
    let mut keygen_ms = Vec::new();
    for st in &stages {
        for step in st.rotations() {
            let target = KeyTarget::Galois(galois_element(n, step));
            let (r, ms) = timed(|| engine.chest().warm(st.level, target, engine.method()));
            r?;
            keygen_ms.push(ms);
        }
    }
    let mut pool = Vec::new();
    for _ in 0..POOL {
        let z = random_slots(&mut rng, slots, 1.0);
        let want = stages.iter().fold(z.clone(), |v, st| st.lt.apply_plain(&v));
        pool.push((engine.encrypt_values(&z, TOP)?, want));
    }
    Ok(Session {
        engine,
        stages,
        pool,
        keygen_ms,
    })
}

/// Runs the segment on `ct`; returns the output and each stage's times.
fn segment(s: &Session, ct: &Ciphertext) -> Result<(Ciphertext, Vec<Times>), NeoError> {
    let e = &s.engine;
    let mut cur = ct.clone();
    let mut stages = Vec::with_capacity(s.stages.len());
    for st in &s.stages {
        let (r, t) = measured(|| {
            st.lt
                .try_apply_bsgs(e.chest(), e.encoder(), &cur, st.baby(), e.method())
        });
        cur = r?;
        stages.push(t);
    }
    Ok((cur, stages))
}

/// The sum of `times`.
fn total(times: &[Times]) -> Times {
    times.iter().fold(Times::default(), |a, t| Times {
        wall_ms: a.wall_ms + t.wall_ms,
        cpu_ms: a.cpu_ms + t.cpu_ms,
    })
}

/// The untraced run: set-up `SETUP_REPS` times, then timed segments.
///
/// # Errors
///
/// Propagates set-up errors; segment errors count as failures.
pub fn run(args: &Args) -> Result<Report, NeoError> {
    let mut report = Report::default();
    let (s, setup_t) = repeat_setup(crate::SETUP_REPS, || setup(args.seed));
    let s = s?;
    report.set("setup_s", median(&cpu_ms(&setup_t)) / 1e3);
    let keys_before = s.engine.chest().cached_keys(s.engine.method()).len();

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7365_676d);
    let (mut segs, mut stages, mut precision) = (Vec::new(), Vec::new(), Vec::new());
    let mut digest = Digest::default();
    let start = Instant::now();
    let mut i = 0usize;
    while (start.elapsed().as_secs_f64() < args.seconds || segs.len() < MIN_SEGMENTS)
        && start.elapsed().as_secs_f64() < crate::MAX_STRETCH * args.seconds
    {
        let (ct, want) = &s.pool[i % POOL];
        let first = i < POOL;
        i += 1;
        let Ok((out, per_stage)) = segment(&s, ct) else {
            report.op(false);
            continue;
        };
        segs.push(total(&per_stage));
        stages.extend(per_stage);
        // Every input's first segment, then a seeded quarter.
        let mut ok = true;
        if first || rng.gen_range(0..4) == 0 {
            match s.engine.decrypt_values(&out) {
                Ok(got) => {
                    let (worst, bits) = precision_bits(&got, want);
                    ok = worst >= crate::MIN_PRECISION_BITS;
                    // Later segments of an input repeat its first output.
                    if first {
                        precision.push(bits);
                        digest.add(&got);
                    }
                }
                Err(_) => ok = false,
            }
        }
        report.op(ok);
    }
    let keys_after = s.engine.chest().cached_keys(s.engine.method()).len();
    report.check(
        keys_after == keys_before,
        "a key was generated during the timed phase",
    );
    note_support("segments", segs.len(), 0.8);
    let (seg_cpu, stage_cpu) = (cpu_ms(&segs), cpu_ms(&stages));
    report.set("op_ms_p50", quantile(&seg_cpu, 0.5));
    report.set("op_ms_tail", quantile(&seg_cpu, 0.8));
    report.set("op2_ms_p50", quantile(&stage_cpu, 0.5));
    report.set("op2_ms_tail", quantile(&stage_cpu, 0.8));
    report.set(
        "rate_per_s",
        segs.len() as f64 / (total(&segs).cpu_ms / 1e3),
    );
    let bits = run_precision(&[&precision]);
    report.set("precision_bits", bits);
    report.set("peak_rss_mb", crate::peak_rss_mb());
    let (seg_wall, stage_wall) = (wall_ms(&segs), wall_ms(&stages));
    println!(
        "coeff-to-slot: {} segments, {} stages, {keys_before} keys; precision {bits:.2} bits; \
         digest {:016x}\n\
         coeff-to-slot cpu:  segment_ms_p50 {:.3}, segment_ms_p80 {:.3}, stage_ms_p50 {:.3}, \
         setup {:.3} s\n\
         coeff-to-slot wall: segment_ms_p50 {:.3}, segment_ms_p80 {:.3}, stage_ms_p50 {:.3}, \
         setup {:.3} s",
        segs.len(),
        s.stages.len(),
        digest.value(),
        quantile(&seg_cpu, 0.5),
        quantile(&seg_cpu, 0.8),
        quantile(&stage_cpu, 0.5),
        median(&cpu_ms(&setup_t)) / 1e3,
        quantile(&seg_wall, 0.5),
        quantile(&seg_wall, 0.8),
        quantile(&stage_wall, 0.5),
        median(&wall_ms(&setup_t)) / 1e3,
    );
    Ok(report)
}

/// Child times of one stage replayed from public calls, in the order
/// `try_apply_bsgs` makes them: `[rotate, encode, pmult, hadd, rescale]`.
fn replay_stage(s: &Session, st: &Stage, ct: &Ciphertext) -> Result<[f64; 5], NeoError> {
    let e = &s.engine;
    let ctx = e.context();
    let baby = st.baby();
    let slots = st.lt.slots();
    let scale = ctx.params().scale();
    let mut t = [0.0; 5];
    let mut babies = BTreeMap::new();
    for &d in st.diagonals.keys() {
        let i = d % baby;
        if let std::collections::btree_map::Entry::Vacant(v) = babies.entry(i) {
            v.insert(if i == 0 {
                ct.clone()
            } else {
                let (r, ms) = timed(|| ops::try_hrotate(e.chest(), ct, i, e.method()));
                t[0] += ms;
                r?
            });
        }
    }
    let mut giants: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &d in st.diagonals.keys() {
        giants.entry(d / baby).or_default().push(d);
    }
    let mut acc: Option<Ciphertext> = None;
    for (&j, ds) in &giants {
        let shift = j * baby;
        let mut inner: Option<Ciphertext> = None;
        for &d in ds {
            let diag = &st.diagonals[&d];
            let pre: Vec<Complex64> = (0..slots)
                .map(|k| diag[(k + slots - shift % slots) % slots])
                .collect();
            let b: &Ciphertext = &babies[&(d % baby)];
            let (pt, ms) = timed(|| e.encoder().encode(ctx, &pre, scale, b.level()));
            t[1] += ms;
            let (term, ms) = timed(|| ops::try_pmult(ctx, b, &pt));
            t[2] += ms;
            let term = term?;
            inner = Some(match inner {
                None => term,
                Some(a) => {
                    let (r, ms) = timed(|| ops::try_hadd(ctx, &a, &term));
                    t[3] += ms;
                    r?
                }
            });
        }
        let mut g = inner.expect("every giant group holds a diagonal");
        if !shift.is_multiple_of(slots) {
            let (r, ms) = timed(|| ops::try_hrotate(e.chest(), &g, shift % slots, e.method()));
            t[0] += ms;
            g = r?;
        }
        acc = Some(match acc {
            None => g,
            Some(a) => {
                let (r, ms) = timed(|| ops::try_hadd(ctx, &a, &g));
                t[3] += ms;
                r?
            }
        });
    }
    let acc = acc.expect("a stage has diagonals");
    let (r, ms) = timed(|| ops::try_rescale(ctx, &acc));
    r?;
    t[4] += ms;
    Ok(t)
}

/// The traced run: one set-up, the layer probes at the top level, the
/// segment breakdown, a serve probe of rotate-accumulate requests on
/// this context, and the tracing overhead of whole segments.
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

    // The layer probes multiply, which this workload never does: warm
    // the top-level relinearisation key for them only.
    e.chest().warm(TOP, KeyTarget::Relin, e.method())?;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0074_7261_6365);
    let (a, b) = (&s.pool[0].0, &s.pool[1].0);
    layers::ckks_layers(e, a, b, 1, 5, &mut rng, &mut report)?;

    // Segment breakdown: whole segments against replayed children.
    let (mut whole, mut parts) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (out, stage_times) = segment(&s, a)?;
        report.op(true);
        whole.push(total(&stage_times).wall_ms);
        let mut cur = a.clone();
        let mut sum = [0.0; 5];
        for st in &s.stages {
            let t = replay_stage(&s, st, &cur)?;
            sum.iter_mut().zip(t).for_each(|(x, y)| *x += y);
            cur = st
                .lt
                .try_apply_bsgs(e.chest(), e.encoder(), &cur, st.baby(), e.method())?;
        }
        report.check(
            cur == out,
            "replayed segment differs from the timed segment",
        );
        parts.push(sum);
    }
    let child = |k: usize| median(&parts.iter().map(|p| p[k]).collect::<Vec<_>>());
    layers::print_breakdown(
        "segment",
        median(&whole),
        &[
            ("hrotate", child(0)),
            ("encode", child(1)),
            ("pmult", child(2)),
            ("hadd", child(3)),
            ("rescale", child(4)),
        ],
    );

    // Serve probe: rotate-accumulate requests from one tenant.
    let registry = Arc::new(TenantRegistry::with_context(Arc::clone(e.context())));
    let tenant = registry.register(1, args.seed, TenantConfig::default())?;
    let mut p = BatchProgram::new();
    let r = p.try_push(BatchOp::HRotate(Slot::Input(0), 1))?;
    p.try_push(BatchOp::HAdd(r, Slot::Input(0)))?;
    tenant.engine().warm_program(&p, TOP)?;
    let programs = [p];
    let inputs = [tenant
        .engine()
        .encrypt_values(&random_slots(&mut rng, e.slots(), 1.0), TOP)?];
    let rot_ms = report.get("hrotate.total_ms").unwrap_or(20.0);
    let rate = 500.0 / rot_ms;
    let arrivals: Vec<(f64, Spec)> = serving::poisson(&mut rng, rate, 0.0, 24.0 / rate)
        .into_iter()
        .map(|t| {
            let spec = Spec {
                tenant: 1,
                program: 0,
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

    let overhead = layers::trace_overhead_pct(2, 2, || {
        segment(&s, a).map_or(f64::NAN, |(_, t)| total(&t).cpu_ms)
    });
    report.set("trace.overhead_pct", overhead);
    Ok(report)
}
