//! `serve-open`: 256 tenants with their own keys on `test_small`
//! (N = 2^10), served through `NeoService`. A seeded mix of requests,
//! 90% rotate-accumulate and 10% square-rescale-add (the `serve_bench`
//! programs), is sent by one generator thread on a Poisson schedule:
//! first at [`LOW_RPS`], then at [`HIGH_RPS`], then up the fixed
//! [`LADDER_RPS`]. Latency runs from the scheduled send time to the
//! response; a shed or failed request misses every limit.
//!
//! End-to-end mapping: `op_ms_p50`/`op_ms_tail` are the p50/p90 latency
//! at `low`, `op2_ms_*` the same at `high`, `rate_per_s` is
//! `max_rate_rps`: the achieved send rate of the highest ladder step
//! whose p99 meets [`P99_LIMIT_MS`] with no growing backlog. Each phase
//! holds over a thousand requests, so the p99s are printed too; they
//! are not scored because on a shared two-core host a few stalls move
//! them by more than a quarter between runs.

use crate::report::note_support;
use crate::report::Report;
use crate::serving::{self, Record, Spec, WINDOW};
use crate::stats::{median, quantile};
use crate::{
    cpu_ms, layers, precision_bits, random_slots, repeat_setup, run_precision, timed, Args, Digest,
};
use neo_ckks::encoding::Complex64;
use neo_ckks::{BatchOp, BatchProgram, Ciphertext, CkksParams, NeoError, OpPolicy, Slot};
use neo_serve::{NeoService, ServiceCore, TenantConfig, TenantRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Registered tenants.
pub const TENANTS: u64 = 256;
/// Level every request's input sits at.
const LEVEL: usize = 3;
/// Share of square-rescale-add requests, percent.
const HEAVY_PCT: u32 = 10;
/// The `low` rate, requests per second.
pub const LOW_RPS: f64 = 100.0;
/// The `high` rate, requests per second.
pub const HIGH_RPS: f64 = 250.0;
/// The rate ladder for `max_rate_rps`, ascending.
pub const LADDER_RPS: [f64; 12] = [
    300.0, 400.0, 500.0, 600.0, 650.0, 700.0, 750.0, 800.0, 850.0, 900.0, 1000.0, 1100.0,
];
/// Seconds each ladder step lasts.
const STEP_S: f64 = 1.0;
/// p99 latency limit of a ladder step, ms.
pub const P99_LIMIT_MS: f64 = 50.0;
/// A run whose generator sent its p99 request later than this is
/// invalid and not scored.
pub const LAG_BOUND_MS: f64 = 10.0;
/// Seconds of `low` traffic sent first and not scored.
const WARMUP_S: f64 = 0.5;
/// The scored tail percentile.
const TAIL_Q: f64 = 0.9;

/// Rotate-accumulate: `rot(x, 1) + x`.
fn light_program() -> Result<BatchProgram, NeoError> {
    let mut p = BatchProgram::new();
    let r = p.try_push(BatchOp::HRotate(Slot::Input(0), 1))?;
    p.try_push(BatchOp::HAdd(r, Slot::Input(0)))?;
    Ok(p)
}

/// Square-rescale-add: `rescale(x·x) + rescale(x·x)`.
fn heavy_program() -> Result<BatchProgram, NeoError> {
    let mut p = BatchProgram::new();
    let sq = p.try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))?;
    let rs = p.try_push(BatchOp::Rescale(sq))?;
    p.try_push(BatchOp::HAdd(rs, rs))?;
    Ok(p)
}

/// The slot-arithmetic oracle of program `program` on input slots `z`.
fn oracle(program: usize, z: &[Complex64]) -> Vec<Complex64> {
    let n = z.len();
    (0..n)
        .map(|i| {
            if program == 0 {
                z[(i + 1) % n] + z[i]
            } else {
                let sq = z[i] * z[i];
                sq + sq
            }
        })
        .collect()
}

/// The tenants, their inputs and the request programs.
pub struct Session {
    /// Every tenant, keys warm for both programs.
    pub registry: Arc<TenantRegistry>,
    /// `[light, heavy]`.
    pub programs: [BatchProgram; 2],
    /// Tenant `t`'s input ciphertext is `inputs[t]`.
    pub inputs: Vec<Ciphertext>,
    /// The slots each input encrypts.
    pub plain: Vec<Vec<Complex64>>,
    /// Wall time of each key generation, ms.
    pub keygen_ms: Vec<f64>,
}

/// Registers every tenant, warms both programs' keys, encrypts inputs.
///
/// # Errors
///
/// Propagates registration, key generation and encryption errors.
pub fn setup(seed: u64) -> Result<Session, NeoError> {
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_small())?);
    let programs = [light_program()?, heavy_program()?];
    let cfg = TenantConfig {
        policy: OpPolicy {
            require_warm_keys: true,
            ..OpPolicy::default()
        },
        ..TenantConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0073_6572_7665);
    let (mut inputs, mut plain, mut keygen_ms) = (Vec::new(), Vec::new(), Vec::new());
    for id in 0..TENANTS {
        let tenant = registry.register(id, seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15), cfg)?;
        let engine = tenant.engine();
        for p in &programs {
            let (r, ms) = timed(|| engine.warm_program(p, LEVEL));
            r?;
            keygen_ms.push(ms);
        }
        let z = random_slots(&mut rng, engine.slots(), 1.0);
        inputs.push(engine.encrypt_values(&z, LEVEL)?);
        plain.push(z);
    }
    Ok(Session {
        registry,
        programs,
        inputs,
        plain,
        keygen_ms,
    })
}

/// Seeded arrivals at `rate` over `[from_s, to_s)`.
fn arrivals(rng: &mut StdRng, rate: f64, from_s: f64, to_s: f64) -> Vec<(f64, Spec)> {
    serving::poisson(rng, rate, from_s, to_s)
        .into_iter()
        .map(|t| {
            let tenant = rng.gen_range(0..TENANTS);
            let program = usize::from(rng.gen_range(0..100u32) < HEAVY_PCT);
            let spec = Spec {
                tenant,
                program,
                input: tenant as usize,
            };
            (t, spec)
        })
        .collect()
}

/// Sum of the cached keys across every tenant.
fn key_count(s: &Session) -> usize {
    let chests: Vec<_> = s.registry.tenant_ids();
    chests
        .into_iter()
        .filter_map(|id| s.registry.get(id))
        .map(|t| t.engine().chest().cached_keys(t.engine().method()).len())
        .sum()
}

/// One phase of open-loop traffic on a fresh `NeoService`.
struct Phase {
    arrivals: Vec<(f64, Spec)>,
    records: Vec<Record>,
    from_s: f64,
    to_s: f64,
}

impl Phase {
    fn run(
        s: &Session,
        arrivals: Vec<(f64, Spec)>,
        from_s: f64,
        to_s: f64,
        keep: impl Fn(usize) -> bool + Sync,
    ) -> Self {
        let service = NeoService::spawn(Arc::clone(&s.registry), serving::serve_config());
        let records = serving::open_loop(&service, &arrivals, &s.programs, &s.inputs, keep);
        service.shutdown();
        Self {
            arrivals,
            records,
            from_s,
            to_s,
        }
    }

    /// Records sent in the scored window.
    fn scored(&self) -> impl Iterator<Item = (usize, &Record)> {
        self.records
            .iter()
            .enumerate()
            .filter(move |(_, r)| r.due_s >= self.from_s)
    }

    fn latencies(&self) -> Vec<f64> {
        self.scored().map(|(_, r)| r.latency_ms()).collect()
    }

    /// Outstanding requests a tenth into the window and at its end.
    fn depths(&self) -> (usize, usize) {
        let t0 = self.from_s + 0.1 * (self.to_s - self.from_s);
        (
            serving::outstanding(&self.records, t0),
            serving::outstanding(&self.records, self.to_s),
        )
    }
}

/// Checks the sampled outputs of `phase`: bit-identity with a serial
/// replay through the tenant's engine and precision against the slot
/// oracle, filed by program. Returns the failures.
fn verify(s: &Session, phase: &Phase, precision: &mut [Vec<f64>; 2], digest: &mut Digest) -> u64 {
    let mut failed = 0;
    for (i, r) in phase.scored() {
        let Some(outputs) = &r.outputs else {
            continue;
        };
        let spec = phase.arrivals[i].1;
        let Some(tenant) = s.registry.get(spec.tenant) else {
            failed += 1;
            continue;
        };
        let engine = tenant.engine();
        let program = &s.programs[spec.program];
        let input = std::slice::from_ref(&s.inputs[spec.input]);
        let serial: Option<Vec<Ciphertext>> = engine
            .execute_batch(program, input, false)
            .ok()
            .and_then(|ops| ops.into_iter().collect::<Result<_, _>>().ok());
        let identical = serial.as_ref() == Some(outputs);
        let got = outputs.last().and_then(|ct| engine.decrypt_values(ct).ok());
        let (worst, bits) = got.as_ref().map_or((0.0, 0.0), |g| {
            precision_bits(g, &oracle(spec.program, &s.plain[spec.input]))
        });
        if let Some(g) = &got {
            digest.add(g);
        }
        precision[spec.program].push(bits);
        if !identical || worst < crate::MIN_PRECISION_BITS {
            failed += 1;
        }
    }
    failed
}

/// The untraced run: set-up `SETUP_REPS` times, then the `low`, `high`
/// and ladder phases, each on a fresh service.
///
/// # Errors
///
/// Propagates set-up errors; shed, failed or mismatching requests count
/// as failures.
pub fn run(args: &Args) -> Result<Report, NeoError> {
    let mut report = Report::default();
    let (s, setup_t) = repeat_setup(crate::SETUP_REPS, || setup(args.seed));
    let s = s?;
    report.set("setup_s", median(&cpu_ms(&setup_t)) / 1e3);
    let keys_before = key_count(&s);

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x6f70_656e);
    let mut sample_rng = StdRng::seed_from_u64(args.seed ^ 0x7361_6d70);
    let samples: Vec<bool> = (0..1 << 16)
        .map(|_| sample_rng.gen_range(0..32) == 0)
        .collect();
    let keep = |i: usize| samples[i % samples.len()];
    let low_s = 0.45 * args.seconds;
    let high_s = 0.2 * args.seconds;

    let low = {
        let arr = arrivals(&mut rng, LOW_RPS, 0.0, WARMUP_S + low_s);
        Phase::run(&s, arr, WARMUP_S, WARMUP_S + low_s, keep)
    };
    let high = {
        let arr = arrivals(&mut rng, HIGH_RPS, 0.0, high_s);
        Phase::run(&s, arr, 0.0, high_s, keep)
    };
    let mut max_rate = 0.0;
    let mut ladder = Vec::new();
    for rate in LADDER_RPS {
        let arr = arrivals(&mut rng, rate, 0.0, STEP_S);
        let phase = Phase::run(&s, arr, 0.0, STEP_S, |_| false);
        let p99 = quantile(&phase.latencies(), 0.99);
        let (d0, d1) = phase.depths();
        let pass = p99 <= P99_LIMIT_MS && d1 <= d0 + WINDOW;
        println!(
            "ladder {rate:>6.0} req/s: sent {:>5}, p99 {p99:>9.3} ms, depth {d0} -> {d1}: {}",
            phase.records.len(),
            if pass { "pass" } else { "fail" }
        );
        ladder.push(phase);
        if !pass {
            break;
        }
        max_rate = ladder
            .last()
            .map_or(0.0, |p| p.records.len() as f64 / STEP_S);
    }

    let mut precision = [Vec::new(), Vec::new()];
    let mut digest = Digest::default();
    let mut mismatched = verify(&s, &low, &mut precision, &mut digest);
    mismatched += verify(&s, &high, &mut precision, &mut Digest::default());
    for phase in [&low, &high].into_iter().chain(&ladder) {
        for (_, r) in phase.scored() {
            report.op(r.ok);
        }
    }
    report.failed += mismatched;
    report.check(
        key_count(&s) == keys_before,
        "a key was generated during the timed phase",
    );

    let (lat_low, lat_high) = (low.latencies(), high.latencies());
    note_support("requests at low", lat_low.len(), 0.99);
    note_support("requests at high", lat_high.len(), 0.99);
    let lag: Vec<f64> = [&low, &high]
        .iter()
        .flat_map(|p| p.scored().map(|(_, r)| r.lag_ms()))
        .collect();
    let lag_p99 = quantile(&lag, 0.99);
    if lag_p99 > LAG_BOUND_MS {
        report.invalid = Some(format!(
            "generator lag p99 {lag_p99:.3} ms exceeds the {LAG_BOUND_MS} ms bound"
        ));
    }
    report.set("op_ms_p50", quantile(&lat_low, 0.5));
    report.set("op_ms_tail", quantile(&lat_low, TAIL_Q));
    report.set("op2_ms_p50", quantile(&lat_high, 0.5));
    report.set("op2_ms_tail", quantile(&lat_high, TAIL_Q));
    report.set("rate_per_s", max_rate);
    let bits = run_precision(&[&precision[0], &precision[1]]);
    report.set("precision_bits", bits);
    report.set("peak_rss_mb", crate::peak_rss_mb());
    for (name, p, lat) in [("low", &low, &lat_low), ("high", &high, &lat_high)] {
        let served: Vec<&Record> = p.scored().map(|(_, r)| r).filter(|r| r.ok).collect();
        let col = |f: fn(&Record) -> f64| served.iter().map(|r| f(r)).collect::<Vec<_>>();
        let (d0, d1) = p.depths();
        println!(
            "serve-open {name}: req_ms_p50.{name} {:.3} ms, req_ms_p90.{name} {:.3} ms, \
             req_ms_p99.{name} {:.3} ms ({} requests, depth {d0} -> {d1}); batch mean {:.2}, \
             queue p50 {:.3} ms, exec p50 {:.3} ms",
            quantile(lat, 0.5),
            quantile(lat, 0.9),
            quantile(lat, 0.99),
            lat.len(),
            crate::stats::mean(&col(|r| r.batch as f64)),
            median(&col(|r| r.queue_ms)),
            median(&col(|r| r.exec_ms)),
        );
    }
    println!(
        "serve-open: max_rate_rps {max_rate:.1}; generator.lag_ms_p99 {lag_p99:.3} ms; \
         {} sampled outputs, precision {:.2} bits; digest {:016x}",
        precision[0].len() + precision[1].len(),
        bits,
        digest.value()
    );
    Ok(report)
}

/// The traced run: one set-up, the layer probes on tenant 0 at the
/// request level, a live probe at `high`, a `ServiceCore` replay of the
/// same kind of arrivals, the request breakdown, and the tracing
/// overhead of closed-loop batches.
///
/// # Errors
///
/// Propagates set-up and probe errors.
pub fn trace(args: &Args) -> Result<Report, NeoError> {
    let mut report = Report::default();
    neo_ntt::cache::clear();
    let s = setup(args.seed)?;
    report.set("keys.ksk_gen_ms", median(&s.keygen_ms));
    let tenants: Vec<_> = s
        .registry
        .tenant_ids()
        .into_iter()
        .filter_map(|id| s.registry.get(id))
        .collect();
    let (count, mb) = layers::key_stats(tenants.iter().map(|t| t.engine().chest()));
    report.set("keys.ksk_count", count as f64);
    report.set("keys.ksk_mb_computed", mb);

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0074_7261_6365);
    let engine = tenants[0].engine();
    let b = engine.encrypt_values(&random_slots(&mut rng, engine.slots(), 1.0), LEVEL)?;
    layers::ckks_layers(engine, &s.inputs[0], &b, 1, 15, &mut rng, &mut report)?;

    // Live probe at `high`, then the request breakdown.
    let arr = arrivals(&mut rng, HIGH_RPS, 0.0, 2.0);
    let phase = Phase::run(&s, arr, 0.0, 2.0, |_| false);
    serving::set_service_metrics(&phase.records, &mut report);
    for (_, r) in phase.scored() {
        report.op(r.ok);
    }
    let served: Vec<&Record> = phase.records.iter().filter(|r| r.ok).collect();
    let pick = |f: fn(&Record) -> f64| median(&served.iter().map(|r| f(r)).collect::<Vec<_>>());
    layers::print_breakdown(
        "request (median over served requests at high)",
        pick(|r| r.latency_ms()),
        &[
            ("generator lag", pick(Record::lag_ms)),
            ("admission queue", pick(|r| r.queue_ms)),
            ("execution", pick(|r| r.exec_ms)),
        ],
    );

    let replay = arrivals(&mut rng, HIGH_RPS, 0.0, 0.5);
    serving::core_layers(&s.registry, &replay, &s.programs, &s.inputs, &mut report);

    // Tracing overhead of closed-loop batches through a ServiceCore.
    let batch = arrivals(&mut rng, HIGH_RPS, 0.0, 0.1);
    let mut core = ServiceCore::new(Arc::clone(&s.registry), serving::serve_config());
    let overhead = layers::trace_overhead_pct(3, 3, || {
        timed(|| {
            for (_, spec) in &batch {
                let _ = core.submit(
                    spec.tenant,
                    s.programs[spec.program].clone(),
                    vec![s.inputs[spec.input].clone()],
                );
            }
            core.run_until_idle().len()
        })
        .1
    });
    report.set("trace.overhead_pct", overhead);
    Ok(report)
}
