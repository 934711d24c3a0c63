//! Measured CPU time of the emulated TCU GEMM engines — the Booth
//! complexity difference (3 vs 25 partials at WordSize 36) shows up as
//! real work even in emulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neo_math::Modulus;
use neo_tcu::{Fp64TcuGemm, GemmEngine, Int8TcuGemm, ScalarGemm};
use rand::{Rng, SeedableRng};

fn bench_engines(c: &mut Criterion) {
    let q = Modulus::new(neo_math::primes::ntt_primes(36, 256, 1).unwrap()[0]).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let (m, k, n) = (256usize, 16usize, 16usize);
    let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
    let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
    let cols = vec![q; n];
    let mut group = c.benchmark_group("modular_gemm_256x16x16");
    let engines: Vec<Box<dyn GemmEngine>> = vec![
        Box::new(ScalarGemm),
        Box::new(Fp64TcuGemm::for_word_size(36)),
        Box::new(Int8TcuGemm::for_word_size(36)),
    ];
    for engine in &engines {
        group.bench_with_input(BenchmarkId::new(engine.name(), m), &a, |bch, a| {
            let mut out = vec![0u64; m * n];
            bch.iter(|| {
                engine.gemm(&cols, a, &b, m, k, n, &mut out);
                out[0]
            })
        });
    }
    group.finish();
}

fn bench_word_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fp64_gemm_word_size");
    for ws in [36u32, 48] {
        let q = Modulus::new(neo_math::primes::ntt_primes(ws, 256, 1).unwrap()[0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (m, k, n) = (128usize, 16usize, 16usize);
        let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
        let cols = vec![q; n];
        let engine = Fp64TcuGemm::for_word_size(ws);
        group.bench_with_input(BenchmarkId::new("fp64", ws), &a, |bch, a| {
            let mut out = vec![0u64; m * n];
            bch.iter(|| {
                engine.gemm(&cols, a, &b, m, k, n, &mut out);
                out[0]
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_word_sizes);
criterion_main!(benches);
