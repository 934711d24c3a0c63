//! Property-based tests (proptest) on the core invariants:
//! NTT algebra, TCU-engine equivalence, base-conversion exactness,
//! encoder round-trips, and homomorphic correctness under random inputs.

use neo::ckks::encoding::Complex64;
use neo::ckks::{CkksContext, CkksParams, Encoder};
use neo::math::{BconvTable, BigUint, Modulus, RnsBasis};
use neo::ntt::{matrix, negacyclic_mul_schoolbook, radix2, NttPlan};
use neo::tcu::{Fp64TcuGemm, GemmEngine, Int8TcuGemm, ScalarGemm};
use proptest::prelude::*;
use rand::SeedableRng;

fn plan_256() -> NttPlan {
    let q = neo::math::primes::ntt_primes(36, 256, 1).unwrap()[0];
    NttPlan::new(q, 256).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forward then inverse radix-2 NTT is the identity.
    #[test]
    fn ntt_roundtrip(seed in any::<u64>()) {
        let plan = plan_256();
        let q = plan.modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let orig: Vec<u64> = (0..256).map(|_| rand::Rng::gen_range(&mut rng, 0..q)).collect();
        let mut x = orig.clone();
        radix2::forward(&plan, &mut x);
        radix2::inverse(&plan, &mut x);
        prop_assert_eq!(x, orig);
    }

    /// All three NTT algorithms agree on random inputs.
    #[test]
    fn ntt_algorithms_agree(seed in any::<u64>()) {
        let plan = plan_256();
        let q = plan.modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..256).map(|_| rand::Rng::gen_range(&mut rng, 0..q)).collect();
        let mut r2 = a.clone();
        radix2::forward(&plan, &mut r2);
        let mut fs = a.clone();
        matrix::forward_four_step(&plan, &mut fs, &ScalarGemm);
        let mut r16 = a;
        matrix::forward_radix16(&plan, &mut r16, &ScalarGemm);
        prop_assert_eq!(&r2, &fs);
        prop_assert_eq!(&r2, &r16);
    }

    /// NTT convolution equals schoolbook negacyclic multiplication.
    #[test]
    fn convolution_theorem(seed in any::<u64>()) {
        let plan = plan_256();
        let m = *plan.modulus();
        let q = m.value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..256).map(|_| rand::Rng::gen_range(&mut rng, 0..q)).collect();
        let b: Vec<u64> = (0..256).map(|_| rand::Rng::gen_range(&mut rng, 0..q)).collect();
        prop_assert_eq!(
            neo::ntt::negacyclic_mul(&plan, &a, &b),
            negacyclic_mul_schoolbook(&m, &a, &b)
        );
    }

    /// Scalar, FP64-TCU and INT8-TCU GEMMs are bit-identical on random
    /// matrices of random (odd) shapes.
    #[test]
    fn gemm_engines_agree(seed in any::<u64>(), m in 1usize..24, k in 1usize..20, n in 1usize..24) {
        let q = Modulus::new(neo::math::primes::ntt_primes(36, 64, 1).unwrap()[0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..m * k).map(|_| rand::Rng::gen_range(&mut rng, 0..q.value())).collect();
        let b: Vec<u64> = (0..k * n).map(|_| rand::Rng::gen_range(&mut rng, 0..q.value())).collect();
        let mut c0 = vec![0u64; m * n];
        let mut c1 = vec![0u64; m * n];
        let mut c2 = vec![0u64; m * n];
        let cols = vec![q; n];
        ScalarGemm.gemm(&cols, &a, &b, m, k, n, &mut c0);
        Fp64TcuGemm::for_word_size(36).gemm(&cols, &a, &b, m, k, n, &mut c1);
        Int8TcuGemm::for_word_size(36).gemm(&cols, &a, &b, m, k, n, &mut c2);
        prop_assert_eq!(&c0, &c1);
        prop_assert_eq!(&c0, &c2);
    }

    /// Exact base conversion recovers the centered value for anything
    /// comfortably inside the safe zone (|v| < 3Q/8).
    #[test]
    fn bconv_exact_recovers(v in any::<u64>()) {
        let src = RnsBasis::new(&neo::math::primes::ntt_primes(30, 16, 3).unwrap()).unwrap();
        let dst = RnsBasis::new(&neo::math::primes::ntt_primes(34, 16, 3).unwrap()).unwrap();
        let table = BconvTable::new(&src, &dst).unwrap();
        // Fold v into [0, 3Q/8): Q here is ~90 bits so any u64 is tiny.
        let big = BigUint::from_u64(v);
        let x: Vec<u64> = src.moduli().iter().map(|m| big.rem_u64(m.value())).collect();
        let mut out = vec![0u64; 3];
        table.convert_exact_coeff(&x, &mut out);
        let want: Vec<u64> = dst.moduli().iter().map(|m| big.rem_u64(m.value())).collect();
        prop_assert_eq!(out, want);
    }

    /// Encode/decode round-trips random complex vectors within CKKS
    /// approximation error.
    #[test]
    fn encoder_roundtrip(seed in any::<u64>()) {
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let enc = Encoder::new(ctx.degree());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vals: Vec<Complex64> = (0..enc.slots())
            .map(|_| Complex64::new(
                rand::Rng::gen_range(&mut rng, -2.0..2.0),
                rand::Rng::gen_range(&mut rng, -2.0..2.0),
            ))
            .collect();
        let pt = enc.encode(&ctx, &vals, ctx.params().scale(), 2);
        let out = enc.decode(&ctx, &pt);
        for (a, b) in vals.iter().zip(&out) {
            prop_assert!((*a - *b).abs() < 1e-5, "{:?} vs {:?}", a, b);
        }
    }

    /// Homomorphic addition is exact up to encryption noise for random
    /// plaintext vectors.
    #[test]
    fn homomorphic_addition(seed in any::<u64>()) {
        use neo::ckks::keys::{KeyChest, PublicKey, SecretKey};
        use neo::ckks::ops;
        use std::sync::Arc;
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
        let chest = KeyChest::new(ctx.clone(), sk, seed.wrapping_add(1));
        let enc = Encoder::new(ctx.degree());
        let a: Vec<Complex64> = (0..enc.slots())
            .map(|_| Complex64::new(rand::Rng::gen_range(&mut rng, -1.0..1.0), 0.0))
            .collect();
        let b: Vec<Complex64> = (0..enc.slots())
            .map(|_| Complex64::new(rand::Rng::gen_range(&mut rng, -1.0..1.0), 0.0))
            .collect();
        let scale = ctx.params().scale();
        let ca = ops::try_encrypt(&ctx, &pk, &enc.encode(&ctx, &a, scale, 2), &mut rng).unwrap();
        let cb = ops::try_encrypt(&ctx, &pk, &enc.encode(&ctx, &b, scale, 2), &mut rng).unwrap();
        let sum = ops::try_hadd(&ctx, &ca, &cb).unwrap();
        let out = enc.decode(&ctx, &ops::try_decrypt(&ctx, chest.secret_key(), &sum).unwrap());
        for i in 0..enc.slots() {
            prop_assert!((out[i] - (a[i] + b[i])).abs() < 1e-4);
        }
    }
}
