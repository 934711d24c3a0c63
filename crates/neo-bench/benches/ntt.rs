//! Measured CPU time of the functional NTT implementations: the
//! algorithmic claims (radix-16 does 8× less matmul work than four-step)
//! are visible in real time, not only in the device model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neo_ntt::{matrix, radix2, NttPlan};
use neo_tcu::{Fp64TcuGemm, Int8TcuGemm, ScalarGemm};
use rand::{Rng, SeedableRng};

fn random_poly(plan: &NttPlan, seed: u64) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..plan.degree())
        .map(|_| rng.gen_range(0..plan.modulus().value()))
        .collect()
}

// The division-based "before" baseline lives in `neo_ntt::reference` so
// the property tests pin the same oracle this bench times.
use neo_ntt::reference::forward_division_baseline;

/// The tentpole comparison: the pre-PR division butterflies, the Barrett
/// reference, the lazy-reduction fast path, and the matrix NTT, at
/// bootstrapping-adjacent degrees. Numbers from this group feed
/// `BENCH_ntt.json` at the repo root.
fn bench_shoup_fastpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt_shoup_fastpath");
    for log_n in [12u32, 13] {
        let n = 1usize << log_n;
        let q = neo_math::primes::ntt_primes(55, n, 1).unwrap()[0];
        let plan = neo_ntt::cache::get_or_build(q, n).unwrap();
        let a = random_poly(&plan, u64::from(log_n));
        // Sanity check the baseline against the fast path before timing.
        let (mut want, mut div) = (a.clone(), a.clone());
        radix2::forward(&plan, &mut want);
        forward_division_baseline(&plan, &mut div);
        assert_eq!(div, want, "division baseline diverged from fast path");
        group.bench_with_input(BenchmarkId::new("radix2_division_seed", n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                forward_division_baseline(&plan, &mut x);
                x
            })
        });
        group.bench_with_input(BenchmarkId::new("radix2_reference", n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                radix2::forward_reference(&plan, &mut x);
                x
            })
        });
        group.bench_with_input(BenchmarkId::new("radix2_shoup", n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                radix2::forward(&plan, &mut x);
                x
            })
        });
        group.bench_with_input(BenchmarkId::new("radix16_scalar", n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                matrix::forward_radix16(&plan, &mut x, &ScalarGemm);
                x
            })
        });
    }
    group.finish();
}

/// Blocked i-k-j deferred-reduction GEMM vs the fully-reduced oracle at
/// the 256³ shape from the acceptance bar.
fn bench_scalar_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalar_gemm_256");
    let dim = 256usize;
    let q =
        neo_math::Modulus::new(neo_math::primes::ntt_primes(55, 1 << 10, 1).unwrap()[0]).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(256);
    let a: Vec<u64> = (0..dim * dim)
        .map(|_| rng.gen_range(0..q.value()))
        .collect();
    let b_mat: Vec<u64> = (0..dim * dim)
        .map(|_| rng.gen_range(0..q.value()))
        .collect();
    let cols = vec![q; dim];
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter(|| {
            let mut out = vec![0u64; dim * dim];
            neo_tcu::reference_gemm(&cols, &a, &b_mat, dim, dim, dim, &mut out);
            out
        })
    });
    group.bench_function("blocked", |b| {
        b.iter(|| {
            let mut out = vec![0u64; dim * dim];
            use neo_tcu::GemmEngine;
            ScalarGemm.gemm(&cols, &a, &b_mat, dim, dim, dim, &mut out);
            out
        })
    });
    group.finish();
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt_algorithms");
    for log_n in [10u32, 12] {
        let n = 1usize << log_n;
        let q = neo_math::primes::ntt_primes(36, n, 1).unwrap()[0];
        let plan = NttPlan::new(q, n).unwrap();
        let a = random_poly(&plan, log_n as u64);
        group.bench_with_input(BenchmarkId::new("radix2", n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                radix2::forward(&plan, &mut x);
                x
            })
        });
        group.bench_with_input(BenchmarkId::new("four_step_scalar", n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                matrix::forward_four_step(&plan, &mut x, &ScalarGemm);
                x
            })
        });
        group.bench_with_input(BenchmarkId::new("radix16_scalar", n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                matrix::forward_radix16(&plan, &mut x, &ScalarGemm);
                x
            })
        });
    }
    group.finish();
}

fn bench_tcu_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt_radix16_engines");
    let n = 1usize << 10;
    let q = neo_math::primes::ntt_primes(36, n, 1).unwrap()[0];
    let plan = NttPlan::new(q, n).unwrap();
    let a = random_poly(&plan, 42);
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut x = a.clone();
            matrix::forward_radix16(&plan, &mut x, &ScalarGemm);
            x
        })
    });
    let fp64 = Fp64TcuGemm::for_word_size(36);
    group.bench_function("tcu_fp64_emulated", |b| {
        b.iter(|| {
            let mut x = a.clone();
            matrix::forward_radix16(&plan, &mut x, &fp64);
            x
        })
    });
    let int8 = Int8TcuGemm::for_word_size(36);
    group.bench_function("tcu_int8_emulated", |b| {
        b.iter(|| {
            let mut x = a.clone();
            matrix::forward_radix16(&plan, &mut x, &int8);
            x
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shoup_fastpath,
    bench_scalar_gemm,
    bench_algorithms,
    bench_tcu_engines
);
criterion_main!(benches);
