//! Functional test: the encrypted logistic-regression trainer tracks the
//! plaintext reference model step for step, and training actually reduces
//! classification error.

use neo_apps::helr::{plaintext_step, synthetic_dataset, EncryptedLogisticRegression};
use neo_ckks::keys::{KeyChest, PublicKey, SecretKey};
use neo_ckks::{CkksContext, CkksParams, KsMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const FEATURES: usize = 8;
const SAMPLES: usize = 16;

struct Rig {
    ctx: Arc<CkksContext>,
    chest: KeyChest,
    pk: PublicKey,
    model: EncryptedLogisticRegression,
    rng: StdRng,
}

fn rig(method: KsMethod, seed: u64) -> Rig {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
    let chest = KeyChest::new(ctx.clone(), sk, seed + 1);
    let model = EncryptedLogisticRegression::new(ctx.clone(), FEATURES, SAMPLES, method);
    Rig {
        ctx,
        chest,
        pk,
        model,
        rng,
    }
}

#[test]
fn encrypted_step_matches_plaintext_reference() {
    let mut r = rig(KsMethod::Klss, 41);
    let (xs, ys) = synthetic_dataset(&mut r.rng, SAMPLES, FEATURES);
    let w0 = vec![0.0f64; FEATURES];
    let lr = 0.05;

    let level = r.ctx.params().max_level; // 5: the step consumes 4.
    let x_ct = r.model.encrypt_data(&r.pk, &xs, level, &mut r.rng).unwrap();
    let w_ct = r
        .model
        .encrypt_weights(&r.pk, &w0, level, &mut r.rng)
        .unwrap();
    let w1_ct = r.model.step(&r.chest, &x_ct, &ys, &w_ct, lr).unwrap();
    let got = r
        .model
        .decrypt_weights(r.chest.secret_key(), &w1_ct)
        .unwrap();
    let want = plaintext_step(&xs, &ys, &w0, lr);
    for (f, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!((g - w).abs() < 5e-2, "feature {f}: {g} vs {w}");
    }
}

#[test]
fn encrypted_training_reduces_error_hybrid() {
    let mut r = rig(KsMethod::Hybrid, 42);
    let (xs, ys) = synthetic_dataset(&mut r.rng, SAMPLES, FEATURES);
    let lr = 0.08;
    let mut w = vec![0.0f64; FEATURES];
    // One encrypted step per fresh encryption (the tiny test chain has
    // depth for one step; full-size parameters bootstrap instead).
    for _ in 0..3 {
        let level = r.ctx.params().max_level;
        let x_ct = r.model.encrypt_data(&r.pk, &xs, level, &mut r.rng).unwrap();
        let w_ct = r
            .model
            .encrypt_weights(&r.pk, &w, level, &mut r.rng)
            .unwrap();
        let w_next = r.model.step(&r.chest, &x_ct, &ys, &w_ct, lr).unwrap();
        w = r
            .model
            .decrypt_weights(r.chest.secret_key(), &w_next)
            .unwrap();
    }
    // Compare against the plaintext model trained identically.
    let mut wp = vec![0.0f64; FEATURES];
    for _ in 0..3 {
        wp = plaintext_step(&xs, &ys, &wp, lr);
    }
    for (f, (g, p)) in w.iter().zip(&wp).enumerate() {
        assert!((g - p).abs() < 0.1, "feature {f}: {g} vs {p}");
    }
    // And the trained model should classify better than the zero model.
    let err = |w: &[f64]| -> usize {
        xs.iter()
            .zip(&ys)
            .filter(|(x, &y)| {
                let z: f64 = x.iter().zip(w).map(|(a, b)| a * b).sum();
                let pred = if z > 0.0 { 1.0 } else { 0.0 };
                pred != y
            })
            .count()
    };
    assert!(
        err(&w) < SAMPLES / 2,
        "trained error {} not better than chance",
        err(&w)
    );
}
