//! Per-layer probes shared by every workload's traced run.
//!
//! Each probe times a public entry point of one crate (`neo-ntt` through
//! `CkksContext::try_ntt_*`, `neo-math` BConv tables, `neo-kernels`
//! matrix kernels, `neo-ckks` key switching, ops, encoding and keys) on
//! operands shaped like the calling workload, and reads the `neo-trace`
//! work counters around single operations. Parents (HMult, HRotate) are
//! split into children replayed from public calls, plus the remainder
//! the children do not cover.

use crate::report::Report;
use crate::stats::median;
use crate::{alloc, timed};
use neo_ckks::keyswitch::klss::keyswitch_klss;
use neo_ckks::{Ciphertext, CkksContext, FheEngine, KeyChest, KeyTarget, KsMethod, NeoError};
use neo_kernels::MatmulTarget;
use neo_math::{Domain, Modulus, RnsPoly};
use neo_trace::{Counter, WorkCounters};
use rand::rngs::StdRng;
use std::time::Instant;

/// The work counters that must repeat exactly for identical operations.
pub const EXACT: [Counter; 5] = [
    Counter::NttButterflies,
    Counter::ModMacs,
    Counter::GemmMacs,
    Counter::BytesRead,
    Counter::BytesWritten,
];

/// The [`EXACT`] counters of one recorded section.
pub fn exact_counts(w: &WorkCounters) -> [u64; 5] {
    EXACT.map(|c| w.get(c))
}

/// Per-call time of `f` in µs: the median over at least `min_reps`
/// calls and at least `min_ms` of total time.
pub fn time_us(min_reps: usize, min_ms: f64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() * 1e3 < min_ms {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Work counters of one HMult and one HRotate (by `step`) on `a`, `b`.
///
/// # Errors
///
/// Propagates the operations' errors.
pub fn op_counts(
    engine: &FheEngine,
    a: &Ciphertext,
    b: &Ciphertext,
    step: usize,
) -> Result<(WorkCounters, WorkCounters), NeoError> {
    let (m, wm) = neo_trace::record(|| engine.hmult(a, b));
    m?;
    let (r, wr) = neo_trace::record(|| engine.hrotate(a, step));
    r?;
    Ok((wm, wr))
}

/// Key-switching keys cached across `chests`: their count and their
/// size in MB, computed from the stored polynomials' limb counts.
pub fn key_stats<'a>(chests: impl IntoIterator<Item = &'a KeyChest>) -> (usize, f64) {
    let mut count = 0;
    let mut bytes = 0usize;
    for chest in chests {
        for (level, target) in chest.cached_keys(KsMethod::Klss) {
            let Ok(key) = chest.klss_key(level, target) else {
                continue;
            };
            count += 1;
            for row in &key.digits {
                for pair in row {
                    for p in pair {
                        bytes += p.limb_count() * p.degree() * 8;
                    }
                }
            }
        }
    }
    (count, bytes as f64 / 1e6)
}

/// Tracing overhead in percent: `unit` (one unit of the workload,
/// returning its wall time in ms) runs in alternating untraced and traced
/// blocks of `per_block` units, `neo-trace` and allocation counting on
/// in the traced ones; the result compares the two medians.
pub fn trace_overhead_pct(blocks: usize, per_block: usize, mut unit: impl FnMut() -> f64) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..blocks {
        for traced in [false, true] {
            if traced {
                neo_trace::enable();
                alloc::set_counting(true);
            }
            for _ in 0..per_block {
                let ms = unit();
                if traced { &mut on } else { &mut off }.push(ms);
            }
            neo_trace::disable();
            alloc::set_counting(false);
            neo_trace::reset();
        }
    }
    (median(&on) / median(&off) - 1.0) * 100.0
}

/// A row of a parent/children breakdown, printed by the traced run.
pub fn print_breakdown(parent: &str, total_ms: f64, children: &[(&str, f64)]) {
    let covered: f64 = children.iter().map(|c| c.1).sum();
    println!("breakdown {parent}: total {total_ms:.3} ms");
    for (name, ms) in children {
        println!(
            "  {name:<22} {ms:>10.3} ms  {:>5.1}%",
            100.0 * ms / total_ms
        );
    }
    let rest = total_ms - covered;
    println!(
        "  {:<22} {rest:>10.3} ms  {:>5.1}%",
        "unattributed",
        100.0 * rest / total_ms
    );
}

/// The NTT and pointwise part of HMult replayed from public calls:
/// forward-transform both operands, form the tensor `(d0, d1, d2)`, and
/// transform it back. Returns `d2`, the polynomial relinearisation
/// switches.
fn tensor(ctx: &CkksContext, a: &Ciphertext, b: &Ciphertext) -> Result<RnsPoly, NeoError> {
    let moduli = ctx.q_moduli(a.level()).to_vec();
    let mut v = [a.c0(), a.c1(), b.c0(), b.c1()].map(Clone::clone);
    for p in &mut v {
        ctx.try_ntt_forward(p, &moduli)?;
    }
    let [a0, a1, b0, b1] = v;
    let mut d0 = a0.clone();
    d0.mul_pointwise_assign(&b0, &moduli);
    let mut d1 = a0;
    d1.mul_pointwise_assign(&b1, &moduli);
    let mut t = a1.clone();
    t.mul_pointwise_assign(&b0, &moduli);
    d1.add_assign(&t, &moduli);
    let mut d2 = a1;
    d2.mul_pointwise_assign(&b1, &moduli);
    for p in [&mut d0, &mut d1, &mut d2] {
        ctx.try_ntt_inverse(p, &moduli)?;
    }
    Ok(d2)
}

fn random_limbs(rng: &mut StdRng, n: usize, moduli: &[Modulus]) -> Vec<Vec<u64>> {
    RnsPoly::random_uniform(rng, n, moduli, Domain::Coeff)
        .limbs()
        .to_vec()
}

/// Probes the CKKS, NTT, BConv and kernel layers at `a`'s level, where
/// `a` and `b` are ciphertexts of `engine` and the relinearisation key
/// and the Galois key of `step` are warm at that level. Sets every
/// per-layer metric from `ntt.fwd_us` through `alloc.mb_per_hmult`, and
/// checks that the exact work counters of HMult and HRotate repeat.
///
/// # Errors
///
/// Propagates the probed operations' errors.
#[allow(clippy::too_many_lines)]
pub fn ckks_layers(
    engine: &FheEngine,
    a: &Ciphertext,
    b: &Ciphertext,
    step: usize,
    reps: usize,
    rng: &mut StdRng,
    report: &mut Report,
) -> Result<(), NeoError> {
    let ctx = engine.context();
    let chest = engine.chest();
    let params = ctx.params();
    let level = a.level();
    let n = ctx.degree();
    let moduli = ctx.q_moduli(level).to_vec();
    let kcfg = params.klss.expect("workloads run KLSS parameter sets");

    // neo-ntt through the context.
    let poly = a.c0().clone();
    let fwd = time_us(reps, 20.0, || {
        let mut p = poly.clone();
        ctx.try_ntt_forward(&mut p, &moduli).expect("forward NTT");
    });
    let mut evals = poly.clone();
    ctx.try_ntt_forward(&mut evals, &moduli)?;
    let inv = time_us(reps, 20.0, || {
        let mut p = evals.clone();
        ctx.try_ntt_inverse(&mut p, &moduli).expect("inverse NTT");
    });
    let copy = time_us(reps, 5.0, || {
        std::hint::black_box(poly.clone());
    });
    report.set("ntt.fwd_us", fwd - copy);
    report.set("ntt.inv_us", inv - copy);

    // Exact work counts, taken twice: they must repeat.
    let (wm, wr) = op_counts(engine, a, b, step)?;
    let (wm2, wr2) = op_counts(engine, a, b, step)?;
    report.check(
        exact_counts(&wm) == exact_counts(&wm2) && exact_counts(&wr) == exact_counts(&wr2),
        "per-op work counters differ between two identical operations",
    );
    report.set(
        "ntt.butterflies_per_hmult",
        wm.get(Counter::NttButterflies) as f64,
    );
    report.set(
        "ntt.butterflies_per_hrotate",
        wr.get(Counter::NttButterflies) as f64,
    );

    // neo-math BConv at the KLSS shapes of this level.
    let alpha = params.alpha();
    let q_primes = &ctx.q_primes()[..=level];
    let t_primes = ctx.t_primes().to_vec();
    let digit0: Vec<u64> = q_primes[..alpha.min(level + 1)].to_vec();
    let modup = ctx.bconv_table(&digit0, &t_primes);
    let digit_in: Vec<Vec<u64>> = (0..digit0.len()).map(|i| a.c1().limb(i).to_vec()).collect();
    report.set(
        "bconv.modup_us",
        time_us(reps, 20.0, || {
            std::hint::black_box(modup.convert_exact(&digit_in));
        }),
    );
    let qp_primes = ctx.qp_primes(level);
    let key_digit0 = qp_primes[..kcfg.alpha_tilde].to_vec();
    let recover = ctx.bconv_table(&t_primes, &key_digit0);
    let t_in = random_limbs(rng, n, ctx.t_moduli());
    report.set(
        "bconv.recover_us",
        time_us(reps, 20.0, || {
            std::hint::black_box(recover.convert_exact(&t_in));
        }),
    );
    let moddown = ctx.bconv_table(ctx.p_primes(), q_primes);
    let p_in = random_limbs(rng, n, ctx.p_moduli());
    report.set(
        "bconv.moddown_us",
        time_us(reps, 20.0, || {
            std::hint::black_box(moddown.convert_approx(&p_in));
        }),
    );

    // neo-kernels matrix forms at the same shapes.
    report.set(
        "kernels.bconv_matrix_us",
        time_us(reps, 20.0, || {
            std::hint::black_box(neo_kernels::bconv::bconv_matrix_scalar(&modup, &digit_in));
        }),
    );
    let relin = chest.klss_key(level, KeyTarget::Relin)?;
    let beta = relin.digits.len();
    let beta_t = relin.digits[0].len();
    let t_moduli = ctx.t_moduli().to_vec();
    let c: Vec<Vec<Vec<u64>>> = (0..beta).map(|_| random_limbs(rng, n, &t_moduli)).collect();
    let evk: Vec<Vec<Vec<Vec<u64>>>> = (0..beta_t)
        .map(|i| {
            (0..beta)
                .map(|j| relin.digits[j][i][0].limbs().to_vec())
                .collect()
        })
        .collect();
    let ip_reps = reps.min(3);
    report.set(
        "kernels.ip_matrix_us",
        time_us(ip_reps, 0.0, || {
            std::hint::black_box(neo_kernels::ip::ip_matrix(
                &t_moduli,
                1,
                &c,
                &evk,
                MatmulTarget::Cuda,
            ));
        }),
    );
    report.set(
        "kernels.ip_original_us",
        time_us(ip_reps, 0.0, || {
            std::hint::black_box(neo_kernels::ip::ip_original(&t_moduli, 1, &c, &evk));
        }),
    );

    // neo-ckks: HMult split into the tensor replay, the KLSS switch of
    // d2 and the remainder; interleaved so drift hits every part alike.
    let d2 = tensor(ctx, a, b)?;
    let (_, ks_work) = neo_trace::record(|| keyswitch_klss(ctx, &relin, &d2));
    report.set(
        "mod_macs_per_keyswitch",
        ks_work.get(Counter::ModMacs) as f64,
    );
    report.set(
        "gemm_macs_per_keyswitch",
        ks_work.get(Counter::GemmMacs) as f64,
    );
    let (mut total, mut tens, mut ks) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (r, ms) = timed(|| engine.hmult(a, b));
        r?;
        total.push(ms);
        let (r, ms) = timed(|| tensor(ctx, a, b));
        r?;
        tens.push(ms);
        let (r, ms) = timed(|| keyswitch_klss(ctx, &relin, &d2));
        r?;
        ks.push(ms);
    }
    let (total, tens, ks) = (median(&total), median(&tens), median(&ks));
    report.set("hmult.total_ms", total);
    report.set("hmult.tensor_ms", tens);
    report.set("keyswitch.klss_ms", ks);
    report.set("keyswitch.share_of_hmult", ks / total);
    report.set("hmult.unattributed_ms", total - tens - ks);
    print_breakdown(
        &format!("hmult (level {level})"),
        total,
        &[("tensor (ntt+pointwise)", tens), ("keyswitch.klss", ks)],
    );

    // HRotate: automorphism of both parts, the switch of c1, remainder.
    let g = neo_ckks::ops::galois_element(n, step);
    let gkey = chest.klss_key(level, KeyTarget::Galois(g))?;
    let rotated = a.c1().automorphism(g, &moduli);
    let (mut total, mut auto, mut ks) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (r, ms) = timed(|| engine.hrotate(a, step));
        r?;
        total.push(ms);
        let (_, ms) = timed(|| {
            std::hint::black_box((
                a.c0().automorphism(g, &moduli),
                a.c1().automorphism(g, &moduli),
            ))
        });
        auto.push(ms);
        let (r, ms) = timed(|| keyswitch_klss(ctx, &gkey, &rotated));
        r?;
        ks.push(ms);
    }
    let (total, auto, ks) = (median(&total), median(&auto), median(&ks));
    report.set("hrotate.total_ms", total);
    report.set("hrotate.unattributed_ms", total - auto - ks);
    print_breakdown(
        &format!("hrotate (level {level})"),
        total,
        &[("automorphism", auto), ("keyswitch.klss", ks)],
    );

    // Rescale, PMult, HAdd and encoding.
    let prod = engine.hmult(a, b)?;
    report.set(
        "rescale_ms",
        time_us(reps, 20.0, || {
            engine.rescale(&prod).expect("rescale");
        }) / 1e3,
    );
    let slots = crate::random_slots(rng, engine.slots(), 1.0);
    let scale = engine.default_scale();
    report.set(
        "encode_us",
        time_us(reps, 20.0, || {
            std::hint::black_box(engine.encoder().encode(ctx, &slots, scale, level));
        }),
    );
    let pt = engine.encoder().encode(ctx, &slots, scale, level);
    report.set(
        "pmult_ms",
        time_us(reps, 20.0, || {
            engine.pmult(a, &pt).expect("pmult");
        }) / 1e3,
    );
    report.set(
        "hadd_us",
        time_us(reps, 20.0, || {
            engine.hadd(a, b).expect("hadd");
        }),
    );

    // Allocations of one HMult, on every thread.
    let (r, allocs) = alloc::measure(|| engine.hmult(a, b));
    r?;
    report.set("alloc.count_per_hmult", allocs.count as f64);
    report.set("alloc.mb_per_hmult", allocs.bytes as f64 / 1e6);
    Ok(())
}
