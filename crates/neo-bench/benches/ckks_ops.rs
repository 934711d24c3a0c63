//! Measured CPU time of the functional CKKS operations at reduced degree,
//! Hybrid vs KLSS key switching — the KLSS complexity reduction is
//! visible in real execution, not only in the device model.

use criterion::{criterion_group, criterion_main, Criterion};
use neo_ckks::encoding::Complex64;
use neo_ckks::keys::{KeyChest, PublicKey, SecretKey};
use neo_ckks::{ops, Ciphertext, CkksContext, CkksParams, Encoder, KsMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

struct Rig {
    ctx: Arc<CkksContext>,
    chest: KeyChest,
    ct: Ciphertext,
}

fn rig() -> Rig {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
    let mut rng = StdRng::seed_from_u64(1);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
    let chest = KeyChest::new(ctx.clone(), sk, 2);
    let enc = Encoder::new(ctx.degree());
    let vals: Vec<Complex64> = (0..enc.slots())
        .map(|i| Complex64::new((i as f64 * 0.1).sin(), 0.0))
        .collect();
    let pt = enc.encode(&ctx, &vals, ctx.params().scale(), 4);
    let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
    // Warm the key caches so the benches time steady-state switching.
    let _ = ops::try_hmult(&chest, &ct, &ct, KsMethod::Hybrid).unwrap();
    let _ = ops::try_hmult(&chest, &ct, &ct, KsMethod::Klss).unwrap();
    let _ = ops::try_hrotate(&chest, &ct, 1, KsMethod::Hybrid).unwrap();
    let _ = ops::try_hrotate(&chest, &ct, 1, KsMethod::Klss).unwrap();
    Rig { ctx, chest, ct }
}

fn bench_ops(c: &mut Criterion) {
    let r = rig();
    let mut group = c.benchmark_group("ckks_ops_n256");
    group.bench_function("hadd", |b| b.iter(|| ops::try_hadd(&r.ctx, &r.ct, &r.ct)));
    group.bench_function("hmult_hybrid", |b| {
        b.iter(|| ops::try_hmult(&r.chest, &r.ct, &r.ct, KsMethod::Hybrid))
    });
    group.bench_function("hmult_klss", |b| {
        b.iter(|| ops::try_hmult(&r.chest, &r.ct, &r.ct, KsMethod::Klss))
    });
    group.bench_function("hrotate_hybrid", |b| {
        b.iter(|| ops::try_hrotate(&r.chest, &r.ct, 1, KsMethod::Hybrid))
    });
    group.bench_function("hrotate_klss", |b| {
        b.iter(|| ops::try_hrotate(&r.chest, &r.ct, 1, KsMethod::Klss))
    });
    group.bench_function("rescale", |b| {
        let prod = ops::try_hmult(&r.chest, &r.ct, &r.ct, KsMethod::Klss).unwrap();
        b.iter(|| ops::try_rescale(&r.ctx, &prod))
    });
    group.finish();
}

criterion_group!(benches, bench_ops);
criterion_main!(benches);
