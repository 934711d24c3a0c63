//! Encrypted image convolution: apply a Sobel edge filter to an encrypted
//! 8×16 image — the per-layer primitive behind the paper's ResNet
//! workload, lowered onto slot rotations + plaintext multiplications.
//!
//! Run with: `cargo run --release --example encrypted_convolution`

use neo::apps::conv::Conv2d;
use neo::ckks::keys::{KeyChest, PublicKey, SecretKey};
use neo::ckks::{ops, CkksContext, CkksParams, Encoder, KsMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny())?);
    let mut rng = StdRng::seed_from_u64(2026);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng)?;
    let chest = KeyChest::new(ctx.clone(), sk, 1);
    let enc = Encoder::new(ctx.degree());

    // A vertical-edge test pattern: left half dark, right half bright.
    let (h, w) = (8usize, 16usize);
    let image: Vec<f64> = (0..h * w)
        .map(|i| if (i % w) < w / 2 { 0.1 } else { 0.9 })
        .collect();
    let sobel = [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]];
    let conv = Conv2d::new(h, w, sobel);
    println!(
        "convolving an encrypted {h}x{w} image with a 3x3 Sobel kernel\n\
         ({} slot rotations via the linear-transform lowering)\n",
        conv.to_linear_transform().diagonal_count()
    );

    let pt = enc.encode(&ctx, &conv.pack(&image), ctx.params().scale(), 3);
    let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng)?;
    let out_ct = conv.apply(&chest, &enc, &ct, KsMethod::Klss)?;
    let got = enc.decode(&ctx, &ops::try_decrypt(&ctx, chest.secret_key(), &out_ct)?);
    let want = conv.apply_plain(&image);

    // Show the middle row: the filter must fire exactly at the edge.
    let row = 4;
    println!("col | encrypted | plaintext");
    for x in 0..w {
        let i = row * w + x;
        println!("{x:3} | {:+9.4} | {:+9.4}", got[i].re, want[i]);
    }
    let max_err = (0..h * w)
        .map(|i| (got[i].re - want[i]).abs())
        .fold(0.0, f64::max);
    println!("\nmax error across all pixels: {max_err:.2e}");
    Ok(())
}
