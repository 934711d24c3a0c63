//! End-to-end functional tests of the CKKS scheme: every homomorphic
//! operation is checked against plain complex arithmetic on the slots,
//! under both key-switching methods.

use neo_ckks::encoding::Complex64;
use neo_ckks::keys::{KeyChest, PublicKey, SecretKey};
use neo_ckks::ops;
use neo_ckks::{Ciphertext, CkksContext, CkksParams, Encoder, KsMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

struct Harness {
    ctx: Arc<CkksContext>,
    chest: KeyChest,
    pk: PublicKey,
    enc: Encoder,
    rng: StdRng,
}

impl Harness {
    fn new(seed: u64) -> Self {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
        let chest = KeyChest::new(ctx.clone(), sk, seed + 1);
        let enc = Encoder::new(ctx.degree());
        Self {
            ctx,
            chest,
            pk,
            enc,
            rng,
        }
    }

    fn encrypt(&mut self, vals: &[Complex64], level: usize) -> Ciphertext {
        let pt = self
            .enc
            .encode(&self.ctx, vals, self.ctx.params().scale(), level);
        ops::try_encrypt(&self.ctx, &self.pk, &pt, &mut self.rng).unwrap()
    }

    fn decrypt(&self, ct: &Ciphertext) -> Vec<Complex64> {
        self.enc.decode(
            &self.ctx,
            &ops::try_decrypt(&self.ctx, self.chest.secret_key(), ct).unwrap(),
        )
    }

    fn slots(&self) -> usize {
        self.enc.slots()
    }
}

fn ramp(slots: usize, scale: f64) -> Vec<Complex64> {
    (0..slots)
        .map(|i| {
            Complex64::new(
                scale * (i as f64 * 0.13).sin(),
                scale * (i as f64 * 0.07).cos(),
            )
        })
        .collect()
}

fn assert_close(got: &[Complex64], want: &[Complex64], tol: f64, what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let err = (*g - *w).abs();
        assert!(
            err < tol,
            "{what}: slot {i}: {g:?} vs {w:?} (err {err:.2e})"
        );
    }
}

#[test]
fn encrypt_decrypt_roundtrip() {
    let mut h = Harness::new(1);
    let vals = ramp(h.slots(), 1.0);
    let ct = h.encrypt(&vals, 3);
    assert_close(&h.decrypt(&ct), &vals, 1e-4, "roundtrip");
}

#[test]
fn homomorphic_addition_and_subtraction() {
    let mut h = Harness::new(2);
    let a = ramp(h.slots(), 1.0);
    let b = ramp(h.slots(), 0.5);
    let ca = h.encrypt(&a, 3);
    let cb = h.encrypt(&b, 3);
    let sum = ops::try_hadd(&h.ctx, &ca, &cb).unwrap();
    let diff = ops::try_hsub(&h.ctx, &ca, &cb).unwrap();
    let want_sum: Vec<_> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
    let want_diff: Vec<_> = a.iter().zip(&b).map(|(x, y)| *x - *y).collect();
    assert_close(&h.decrypt(&sum), &want_sum, 1e-4, "hadd");
    assert_close(&h.decrypt(&diff), &want_diff, 1e-4, "hsub");
}

#[test]
fn plaintext_mult_with_rescale() {
    let mut h = Harness::new(3);
    let a = ramp(h.slots(), 1.0);
    let b = ramp(h.slots(), 0.8);
    let ca = h.encrypt(&a, 3);
    let pb = h.enc.encode(&h.ctx, &b, h.ctx.params().scale(), 3);
    let prod = ops::try_rescale(&h.ctx, &ops::try_pmult(&h.ctx, &ca, &pb).unwrap()).unwrap();
    let want: Vec<_> = a.iter().zip(&b).map(|(x, y)| *x * *y).collect();
    assert_close(&h.decrypt(&prod), &want, 1e-3, "pmult+rescale");
    assert_eq!(prod.level(), 2);
}

#[test]
fn hmult_hybrid_method() {
    let mut h = Harness::new(4);
    let a = ramp(h.slots(), 1.0);
    let b = ramp(h.slots(), 0.9);
    let ca = h.encrypt(&a, 3);
    let cb = h.encrypt(&b, 3);
    let prod = ops::try_rescale(
        &h.ctx,
        &ops::try_hmult(&h.chest, &ca, &cb, KsMethod::Hybrid).unwrap(),
    )
    .unwrap();
    let want: Vec<_> = a.iter().zip(&b).map(|(x, y)| *x * *y).collect();
    assert_close(&h.decrypt(&prod), &want, 1e-2, "hmult hybrid");
}

#[test]
fn hmult_klss_method() {
    let mut h = Harness::new(5);
    let a = ramp(h.slots(), 1.0);
    let b = ramp(h.slots(), 0.9);
    let ca = h.encrypt(&a, 3);
    let cb = h.encrypt(&b, 3);
    let prod = ops::try_rescale(
        &h.ctx,
        &ops::try_hmult(&h.chest, &ca, &cb, KsMethod::Klss).unwrap(),
    )
    .unwrap();
    let want: Vec<_> = a.iter().zip(&b).map(|(x, y)| *x * *y).collect();
    assert_close(&h.decrypt(&prod), &want, 1e-2, "hmult klss");
}

#[test]
fn hmult_methods_agree() {
    let mut h = Harness::new(6);
    let a = ramp(h.slots(), 1.0);
    let ca = h.encrypt(&a, 4);
    let hy = ops::try_rescale(
        &h.ctx,
        &ops::try_hmult(&h.chest, &ca, &ca, KsMethod::Hybrid).unwrap(),
    )
    .unwrap();
    let kl = ops::try_rescale(
        &h.ctx,
        &ops::try_hmult(&h.chest, &ca, &ca, KsMethod::Klss).unwrap(),
    )
    .unwrap();
    let dh = h.decrypt(&hy);
    let dk = h.decrypt(&kl);
    assert_close(&dh, &dk, 1e-2, "hybrid vs klss");
}

#[test]
fn rotation_both_methods() {
    for method in [KsMethod::Hybrid, KsMethod::Klss] {
        let mut h = Harness::new(7);
        let a = ramp(h.slots(), 1.0);
        let ca = h.encrypt(&a, 3);
        for steps in [1usize, 2, 5] {
            let rot = ops::try_hrotate(&h.chest, &ca, steps, method).unwrap();
            let want: Vec<_> = (0..h.slots()).map(|i| a[(i + steps) % h.slots()]).collect();
            assert_close(
                &h.decrypt(&rot),
                &want,
                1e-3,
                &format!("rotate {steps} {method:?}"),
            );
        }
    }
}

#[test]
fn conjugation() {
    let mut h = Harness::new(8);
    let a = ramp(h.slots(), 1.0);
    let ca = h.encrypt(&a, 3);
    let conj = ops::try_hconjugate(&h.chest, &ca, KsMethod::Hybrid).unwrap();
    let want: Vec<_> = a.iter().map(|v| v.conj()).collect();
    assert_close(&h.decrypt(&conj), &want, 1e-3, "conjugate");
}

#[test]
fn multiplicative_depth_chain() {
    // Square repeatedly down the modulus chain: x -> x^2 -> x^4.
    let mut h = Harness::new(9);
    let a: Vec<Complex64> = (0..h.slots())
        .map(|i| Complex64::new(0.9 + 0.001 * i as f64, 0.0))
        .collect();
    let mut ct = h.encrypt(&a, 5);
    let mut want: Vec<Complex64> = a.clone();
    for _ in 0..2 {
        ct = ops::try_rescale(
            &h.ctx,
            &ops::try_hmult(&h.chest, &ct, &ct, KsMethod::Klss).unwrap(),
        )
        .unwrap();
        want = want.iter().map(|v| *v * *v).collect();
    }
    assert_close(&h.decrypt(&ct), &want, 5e-2, "depth-2 squaring");
    assert_eq!(ct.level(), 3);
}

#[test]
fn double_rescale_drops_two_levels() {
    let mut h = Harness::new(10);
    let a = ramp(h.slots(), 1.0);
    let ca = h.encrypt(&a, 4);
    // Scale the ciphertext up twice via pmult by 1.0 at matching scales,
    // then double-rescale back.
    let one = vec![Complex64::new(1.0, 0.0); h.slots()];
    let p1 = h.enc.encode(&h.ctx, &one, h.ctx.params().scale(), 4);
    let up = ops::try_pmult(&h.ctx, &ops::try_pmult(&h.ctx, &ca, &p1).unwrap(), &p1).unwrap();
    let down = ops::try_double_rescale(&h.ctx, &up).unwrap();
    assert_eq!(down.level(), 2);
    assert_close(&h.decrypt(&down), &a, 1e-3, "double rescale");
}

#[test]
fn level_reduce_preserves_plaintext() {
    let mut h = Harness::new(11);
    let a = ramp(h.slots(), 1.0);
    let ca = h.encrypt(&a, 4);
    let low = ops::try_level_reduce(&ca, 1).unwrap();
    assert_eq!(low.level(), 1);
    assert_close(&h.decrypt(&low), &a, 1e-4, "level reduce");
}

#[test]
fn sum_all_slots_by_rotations() {
    // log-step rotate-and-add: every slot ends up holding the total sum.
    let mut h = Harness::new(12);
    let a: Vec<Complex64> = (0..h.slots())
        .map(|i| Complex64::new((i % 5) as f64 * 0.1, 0.0))
        .collect();
    let mut ct = h.encrypt(&a, 3);
    let mut step = 1usize;
    while step < h.slots() {
        let rot = ops::try_hrotate(&h.chest, &ct, step, KsMethod::Klss).unwrap();
        ct = ops::try_hadd(&h.ctx, &ct, &rot).unwrap();
        step *= 2;
    }
    let total: Complex64 = a.iter().fold(Complex64::default(), |acc, v| acc + *v);
    let out = h.decrypt(&ct);
    for v in out.iter().take(4) {
        assert!((*v - total).abs() < 1e-2, "{v:?} vs {total:?}");
    }
}
