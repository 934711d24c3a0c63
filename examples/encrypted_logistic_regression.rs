//! HELR in miniature: train a logistic-regression classifier on
//! *encrypted* synthetic data, homomorphically, and compare against the
//! plaintext reference model (the paper's HELR workload, Section 5).
//!
//! Run with: `cargo run --release --example encrypted_logistic_regression`

use neo::apps::helr::{plaintext_step, synthetic_dataset, EncryptedLogisticRegression};
use neo::ckks::keys::{KeyChest, PublicKey, SecretKey};
use neo::ckks::{CkksContext, CkksParams, KsMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const FEATURES: usize = 8;
const SAMPLES: usize = 16;
const STEPS: usize = 3;
const LR: f64 = 0.08;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny())?);
    let mut rng = StdRng::seed_from_u64(99);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng)?;
    let chest = KeyChest::new(ctx.clone(), sk, 100);
    let model = EncryptedLogisticRegression::new(ctx.clone(), FEATURES, SAMPLES, KsMethod::Klss);

    let (xs, ys) = synthetic_dataset(&mut rng, SAMPLES, FEATURES);
    println!("training on {SAMPLES} encrypted samples x {FEATURES} features, lr = {LR}\n");

    let mut w_enc = vec![0.0f64; FEATURES];
    let mut w_ref = vec![0.0f64; FEATURES];
    for step in 0..STEPS {
        // Each gradient step consumes 4 levels; the tiny chain re-encrypts
        // between steps where full-size parameters would bootstrap.
        let level = ctx.params().max_level;
        let x_ct = model.encrypt_data(&pk, &xs, level, &mut rng)?;
        let w_ct = model.encrypt_weights(&pk, &w_enc, level, &mut rng)?;
        let w_next = model.step(&chest, &x_ct, &ys, &w_ct, LR)?;
        w_enc = model.decrypt_weights(chest.secret_key(), &w_next)?;
        w_ref = plaintext_step(&xs, &ys, &w_ref, LR);
        let drift: f64 = w_enc
            .iter()
            .zip(&w_ref)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        println!("step {step}: max |encrypted - plaintext| weight drift = {drift:.4}");
    }

    let accuracy = |w: &[f64]| -> f64 {
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| {
                let z: f64 = x.iter().zip(w).map(|(a, b)| a * b).sum();
                (z > 0.0) == (y > 0.5)
            })
            .count();
        correct as f64 / SAMPLES as f64
    };
    println!(
        "\nfinal weights (encrypted path): {:?}",
        &w_enc[..4.min(FEATURES)]
    );
    println!(
        "training accuracy: encrypted {:.0}%, plaintext {:.0}%",
        accuracy(&w_enc) * 100.0,
        accuracy(&w_ref) * 100.0
    );
    Ok(())
}
