//! The evaluation-domain map of a Galois automorphism is the
//! automorphism itself: gathering bit-reversed evaluations through
//! `galois_permutation(n, g)` equals `NTT ∘ σ_g ∘ INTT`, for the rotation
//! elements `5^k` and the conjugation `2n − 1`, on both pinned backends.

use neo_math::{BackendKind, Modulus};
use neo_ntt::{galois_permutation, radix2, NttPlan};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// `σ_g(a)(X) = a(X^g)` in the coefficient domain: `X^j` lands on
/// `X^{j·g mod 2n}`, negated past `X^n = −1`.
fn automorphism(m: &Modulus, a: &[u64], g: usize) -> Vec<u64> {
    let n = a.len();
    let mut out = vec![0u64; n];
    for (j, &c) in a.iter().enumerate() {
        let t = j * g % (2 * n);
        out[t % n] = if t < n { c } else { m.neg(c) };
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn the_map_is_ntt_after_sigma_after_intt(
        seed in any::<u64>(),
        size in 0usize..4,
        wide in any::<bool>(),
        steps in 0usize..1 << 13,
        conjugate in any::<bool>(),
    ) {
        let n = 1usize << [4, 10, 13, 14][size];
        let bits = if wide { 48 } else { 36 };
        let two_n = 2 * n;
        let g = if conjugate {
            two_n - 1
        } else {
            (0..steps % (n / 2)).fold(1, |g, _| g * 5 % two_n)
        };
        let map = galois_permutation(n, g);
        prop_assert_eq!(&map, &galois_permutation(n, g + two_n));
        let q = neo_math::primes::ntt_primes(bits, n, 1).unwrap()[0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let evals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let gathered: Vec<u64> = map.iter().map(|&i| evals[i as usize]).collect();
        for kind in [BackendKind::Portable, BackendKind::Simd] {
            let plan = NttPlan::with_backend(q, n, kind).unwrap();
            let mut a = evals.clone();
            radix2::inverse(&plan, &mut a);
            let mut want = automorphism(plan.modulus(), &a, g);
            radix2::forward(&plan, &mut want);
            prop_assert_eq!(&gathered, &want, "n={} g={} bits={} {}", n, g, bits, kind);
        }
    }
}
