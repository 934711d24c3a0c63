//! Noise/precision diagnostics: measure how many bits of slot precision a
//! ciphertext retains against a known reference — the quantity the paper's
//! precision arguments (WordSize ≥ 36, Double Rescale) are about.

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::{Complex64, Encoder};
use crate::keys::SecretKey;
use crate::ops;
use neo_error::NeoError;

/// Largest absolute slot error of `ct` against the expected slot values.
///
/// # Errors
///
/// [`NeoError::InvalidParams`] if `expected` holds more values than the
/// encoder has slots; the decryption's own error otherwise (e.g.
/// [`NeoError::ParameterMismatch`] for a level outside the chain).
pub fn max_slot_error(
    ctx: &CkksContext,
    enc: &Encoder,
    sk: &SecretKey,
    ct: &Ciphertext,
    expected: &[Complex64],
) -> Result<f64, NeoError> {
    if expected.len() > enc.slots() {
        return Err(NeoError::invalid_params(format!(
            "{} expected values for {} slots",
            expected.len(),
            enc.slots()
        )));
    }
    let got = enc.decode(ctx, &ops::try_decrypt(ctx, sk, ct)?);
    Ok(expected
        .iter()
        .zip(&got)
        .map(|(w, g)| (*g - *w).abs())
        .fold(0.0, f64::max))
}

/// Remaining precision in bits: `-log2(max slot error)` (clamped at 0 for
/// fully destroyed ciphertexts).
///
/// # Errors
///
/// As [`max_slot_error`].
pub fn precision_bits(
    ctx: &CkksContext,
    enc: &Encoder,
    sk: &SecretKey,
    ct: &Ciphertext,
    expected: &[Complex64],
) -> Result<f64, NeoError> {
    let err = max_slot_error(ctx, enc, sk, ct, expected)?;
    Ok(if err <= 0.0 {
        f64::INFINITY
    } else {
        (-err.log2()).max(0.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyChest, PublicKey};
    use crate::params::{CkksParams, KsMethod};
    use neo_error::ErrorKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn precision_degrades_down_a_mult_chain() {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(21);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
        let chest = KeyChest::new(ctx.clone(), sk, 22);
        let enc = Encoder::new(ctx.degree());
        let vals: Vec<Complex64> = (0..enc.slots())
            .map(|i| Complex64::new(0.8 + 1e-4 * i as f64, 0.0))
            .collect();
        let pt = enc.encode(&ctx, &vals, ctx.params().scale(), 4);
        let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        let fresh_bits = precision_bits(&ctx, &enc, chest.secret_key(), &ct, &vals).unwrap();
        assert!(
            fresh_bits > 20.0,
            "fresh ciphertext too noisy: {fresh_bits:.1} bits"
        );
        // Square twice.
        let mut cur = ct;
        let mut want = vals.clone();
        for _ in 0..2 {
            cur = ops::try_rescale(
                &ctx,
                &ops::try_hmult(&chest, &cur, &cur, KsMethod::Klss).unwrap(),
            )
            .unwrap();
            want = want.iter().map(|v| *v * *v).collect();
        }
        let deep_bits = precision_bits(&ctx, &enc, chest.secret_key(), &cur, &want).unwrap();
        assert!(
            deep_bits > 8.0,
            "depth-2 result unusable: {deep_bits:.1} bits"
        );
        assert!(deep_bits < fresh_bits, "noise must grow with depth");
    }

    #[test]
    fn exact_match_reports_infinite_precision() {
        // A contrived zero-error comparison hits the guard path.
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(23);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
        let enc = Encoder::new(ctx.degree());
        let vals = vec![Complex64::new(0.5, 0.0); 4];
        let pt = enc.encode(&ctx, &vals, ctx.params().scale(), 2);
        let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        // Compare against its own decryption: error exactly zero.
        let own = enc.decode(&ctx, &ops::try_decrypt(&ctx, &sk, &ct).unwrap());
        let bits = precision_bits(&ctx, &enc, &sk, &ct, &own).unwrap();
        assert!(bits.is_infinite());
    }

    /// Too many expected values and an undecryptable ciphertext come back
    /// as typed errors, never as panics.
    #[test]
    fn bad_inputs_are_typed_errors() {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(24);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
        let enc = Encoder::new(ctx.degree());
        let vals = vec![Complex64::new(0.5, 0.0); enc.slots()];
        let pt = enc.encode(&ctx, &vals, ctx.params().scale(), 2);
        let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        let long = vec![Complex64::default(); enc.slots() + 1];
        let level = ctx.params().max_level + 1;
        let deep = || neo_math::RnsPoly::zero(ctx.degree(), level + 1, neo_math::Domain::Coeff);
        let deep = Ciphertext::new(deep(), deep(), ctx.params().scale(), level);
        for (ct, expected, kind) in [
            (&ct, &long, ErrorKind::InvalidParams),
            (&deep, &vals, ErrorKind::ParameterMismatch),
        ] {
            let err = max_slot_error(&ctx, &enc, &sk, ct, expected).unwrap_err();
            assert_eq!(err.kind(), kind, "{err}");
            let err = precision_bits(&ctx, &enc, &sk, ct, expected).unwrap_err();
            assert_eq!(err.kind(), kind, "{err}");
        }
    }
}
