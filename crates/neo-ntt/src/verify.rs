//! Randomized spot checks for NTT outputs — the NTT half of the ABFT
//! story (the GEMM half lives in `neo_tcu::abft`).
//!
//! A full verification would re-run the transform; instead each check
//! spends `O(n)` against the kernel's `O(n log n)` on two identities of
//! the negacyclic NTT. Its evaluations sit in bit-reversed order,
//! `y_{rev(j)} = a(ψ·ω^j) = Σ_i a_i ψ^i ω^{ij}` (see [`crate::radix2`]):
//!
//! 1. **Sum identity** — `Σ_j y_j ≡ n · a_0 (mod q)`, because
//!    `Σ_j ω^{ij} = 0` for `i ≠ 0`; the order of the `y_j` does not
//!    matter. Covers *every* evaluation limb: a single bit flip in any
//!    `y_j` shifts the sum by `±2^b mod q ≠ 0` (q is an odd prime), so it
//!    is always caught.
//! 2. **Evaluation at a point** — Horner-evaluate the coefficient side at
//!    `z = ψ·ω^j` for a salt-derived `j` and compare against
//!    `y_{rev(j)}`. Covers *every* coefficient limb: a flip in any `a_i`
//!    perturbs the evaluation by `δ·z^i ≠ 0`. Also cross-checks the
//!    transform itself against the plan's ψ/ω power tables, which the
//!    radix-2 fast path never reads — so corrupt per-block Shoup twiddles
//!    (a poisoned plan) are caught against an independent reference.
//!
//! Run together on a (input, output) pair, the two identities make any
//! single-limb corruption on either side a guaranteed detection,
//! whichever direction the transform ran.
//!
//! An inverse that multiplies by a factor `f` on top of `n⁻¹`
//! ([`crate::radix2::inverse_scaled`]) leaves coefficients `a' = f·a`, so
//! [`spot_check_transform`] takes `f` and checks `f·Σ_j y_j ≡ n·a'_0` and
//! `a'(z) ≡ f·y_{rev(j)}`. A prime `q` and `f ≢ 0` keep both single-flip
//! arguments: `f` times a non-zero shift is non-zero.
//!
//! One corruption class slips through both identities deterministically:
//! a corrupted *final-stage* twiddle shifts a butterfly's two outputs by
//! `+δ/−δ`, which cancels exactly in the sum and is only sampled with
//! probability `2/n` by the point check. That class is plan rot, not data
//! rot — and plans carry an integrity token (a checksum of every table,
//! frozen at build). [`spot_check_transform`] therefore re-hashes the
//! plan first and convicts a poisoned plan deterministically with site
//! `"ntt_plan"` before running the data identities. A plan's tables never
//! change after construction, so the re-hash runs once per plan object:
//! the first check that uses the object re-hashes it and a clean result
//! is remembered on it ([`NttPlan::hashed_clean`]). A poisoned plan
//! swapped into the cache is a new object, so it is re-hashed before it
//! is trusted.
//!
//! Costs are tallied under [`Counter::AbftChecks`]/[`Counter::AbftMacs`]
//! so the analytic cost model can price verification overhead.

use crate::NttPlan;
use neo_error::NeoError;
use neo_trace::Counter;

/// Checks that `evals` is the forward negacyclic NTT of `coeffs` under
/// `plan`. `coeffs` must be the (reduced) kernel input; `evals` may be
/// arbitrary u64s — an unreduced corrupted limb still trips the check.
///
/// # Errors
///
/// [`NeoError::FaultDetected`] with site `"ntt_forward"`.
///
/// # Panics
///
/// Panics if slice lengths differ from the plan's degree.
pub fn spot_check_forward(
    plan: &NttPlan,
    coeffs: &[u64],
    evals: &[u64],
    salt: u64,
) -> Result<(), NeoError> {
    check_pair(plan, coeffs, evals, salt, 1, "ntt_forward")
}

/// Checks that `coeffs` is the inverse negacyclic NTT of `evals` under
/// `plan`. `evals` must be the (reduced) kernel input; `coeffs` may be
/// arbitrary u64s.
///
/// # Errors
///
/// [`NeoError::FaultDetected`] with site `"ntt_inverse"`.
///
/// # Panics
///
/// Panics if slice lengths differ from the plan's degree.
pub fn spot_check_inverse(
    plan: &NttPlan,
    evals: &[u64],
    coeffs: &[u64],
    salt: u64,
) -> Result<(), NeoError> {
    check_pair(plan, coeffs, evals, salt, 1, "ntt_inverse")
}

/// Full transform verification: re-hashes the plan's tables against its
/// build-time integrity token unless this plan object already passed,
/// then runs both data identities on the coefficient/evaluation pair.
/// This is the check the CKKS layer runs per limb when a
/// [`neo_fault::VerifyPolicy`] says verification is due.
///
/// `factor` is what the transform multiplied by on top of its own
/// scaling, so that `NTT(coeffs) = factor · evals`: 1 for the forward and
/// the plain inverse, `f` for [`crate::radix2::inverse_scaled`] by `f`.
///
/// # Errors
///
/// [`NeoError::FaultDetected`] with site `"ntt_plan"` if the plan's
/// tables no longer hash to the token, else `"ntt_forward"` /
/// `"ntt_inverse"` (per `forward`) if a data identity fails.
///
/// # Panics
///
/// Panics if slice lengths differ from the plan's degree.
pub fn spot_check_transform(
    plan: &NttPlan,
    coeffs: &[u64],
    evals: &[u64],
    salt: u64,
    forward: bool,
    factor: u64,
) -> Result<(), NeoError> {
    if !plan.hashed_clean() {
        rehash(plan)?;
    }
    let site = if forward {
        "ntt_forward"
    } else {
        "ntt_inverse"
    };
    check_pair(plan, coeffs, evals, salt, factor, site)
}

/// Re-hashes `plan` against its integrity token, remembering a match on
/// the object.
fn rehash(plan: &NttPlan) -> Result<(), NeoError> {
    // The checksum walks every table (8n words of reads, one splitmix
    // mix each); price it so the overhead report stays honest.
    let n = plan.degree() as u64;
    neo_trace::add(Counter::AbftMacs, 8 * n);
    neo_trace::add(Counter::BytesRead, 64 * n);
    if !plan.verify_integrity() {
        return Err(NeoError::fault_detected(
            "ntt_plan",
            format!(
                "twiddle table checksum does not match the build-time \
                 integrity token (q = {}, n = {})",
                plan.modulus().value(),
                plan.degree()
            ),
        ));
    }
    Ok(())
}

/// Direction-agnostic core: verifies the coefficient/evaluation pair,
/// `NTT(coeffs) = factor · evals`, against both identities, reducing both
/// sides defensively (a corrupted limb may exceed `q`; its residue still
/// shifts, see the module docs).
fn check_pair(
    plan: &NttPlan,
    coeffs: &[u64],
    evals: &[u64],
    salt: u64,
    factor: u64,
    site: &'static str,
) -> Result<(), NeoError> {
    let n = plan.degree();
    assert_eq!(coeffs.len(), n, "coefficient length mismatch");
    assert_eq!(evals.len(), n, "evaluation length mismatch");
    let m = plan.modulus();
    neo_trace::add(Counter::AbftChecks, 1);
    neo_trace::add(Counter::AbftMacs, 3 * n as u64);
    neo_trace::add(Counter::BytesRead, 16 * n as u64);

    // Identity 1: f · Σ_j y_j ≡ n · a_0 (mod q).
    let f = m.reduce(factor);
    let mut sum = 0u64;
    for &y in evals {
        sum = m.add(sum, m.reduce(y));
    }
    let sum = m.mul(f, sum);
    let expect = m.mul(n as u64, m.reduce(coeffs[0]));
    if sum != expect {
        return Err(NeoError::fault_detected(
            site,
            format!(
                "sum identity failed: f*sum(evals) = {sum}, n*a0 = {expect} \
                 (f = {f}, n = {n}, q = {})",
                m.value()
            ),
        ));
    }

    // Identity 2: a(ψ·ω^j) ≡ f · y_{rev(j)} for a salt-derived point j.
    let j = (neo_fault::splitmix64(salt ^ m.value() ^ (n as u64) << 8) % n as u64) as usize;
    let z = m.mul(plan.psi_pows()[1], plan.omega_pows()[j]);
    let mut acc = 0u64;
    for &c in coeffs.iter().rev() {
        acc = m.add(m.mul(acc, z), m.reduce(c));
    }
    let got = m.mul(f, m.reduce(evals[crate::bit_rev(j, n.trailing_zeros())]));
    if acc != got {
        return Err(NeoError::fault_detected(
            site,
            format!(
                "evaluation spot check failed at j={j}: a(psi*omega^j) = {acc}, \
                 f*eval = {got} (f = {f}, n = {n}, q = {})",
                m.value()
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cache, radix2};
    use neo_math::primes;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn plan(bits: u32, n: usize) -> NttPlan {
        let q = primes::ntt_primes(bits, n, 1).unwrap()[0];
        NttPlan::new(q, n).unwrap()
    }

    fn random_pair(p: &NttPlan, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs: Vec<u64> = (0..p.degree())
            .map(|_| rng.gen_range(0..p.modulus().value()))
            .collect();
        let mut evals = coeffs.clone();
        radix2::forward(p, &mut evals);
        (coeffs, evals)
    }

    #[test]
    fn clean_transforms_pass_both_directions() {
        let p = plan(36, 64);
        let (coeffs, evals) = random_pair(&p, 1);
        spot_check_forward(&p, &coeffs, &evals, 17).unwrap();
        // Inverse direction: input evals, output coeffs.
        let mut back = evals.clone();
        radix2::inverse(&p, &mut back);
        assert_eq!(back, coeffs);
        spot_check_inverse(&p, &evals, &back, 17).unwrap();
    }

    #[test]
    fn poisoned_plan_corrupts_output_and_fails_the_token() {
        // A corrupted final-stage twiddle shifts a butterfly's outputs by
        // +δ/−δ, which *cancels* in the sum identity and is only sampled
        // probabilistically by the point check — so plan rot is convicted
        // deterministically by the integrity token instead, with
        // spot_check_transform folding that in.
        let p = plan(36, 128);
        let mut rng = StdRng::seed_from_u64(5);
        let coeffs: Vec<u64> = (0..128)
            .map(|_| rng.gen_range(0..p.modulus().value()))
            .collect();
        for salt in 0..16 {
            let bad = p.poisoned_clone(salt);
            let mut evals = coeffs.clone();
            radix2::forward(&bad, &mut evals);
            let mut clean = coeffs.clone();
            radix2::forward(&p, &mut clean);
            assert_ne!(evals, clean, "salt {salt} produced a benign poison");
            let err = spot_check_transform(&bad, &coeffs, &evals, salt, true, 1).unwrap_err();
            let NeoError::FaultDetected { site, .. } = err else {
                panic!("expected FaultDetected, got {err}");
            };
            assert_eq!(site, "ntt_plan");
        }
    }

    /// An inverse scaled by `f` passes both identities once they take `f`,
    /// and one flipped bit on either side fails one of them.
    #[test]
    fn a_factored_inverse_passes_and_a_flipped_bit_fails() {
        let p = plan(36, 64);
        let m = p.modulus();
        let mut rng = StdRng::seed_from_u64(8);
        let evals: Vec<u64> = (0..64).map(|_| rng.gen_range(0..m.value())).collect();
        for f in [1, 2, rng.gen_range(3..m.value())] {
            let mut coeffs = evals.clone();
            radix2::inverse_scaled(&p, &mut coeffs, f);
            spot_check_transform(&p, &coeffs, &evals, 5, false, f).unwrap();
            // The plain identities do not hold for f ≠ 1.
            let plain = spot_check_transform(&p, &coeffs, &evals, 5, false, 1);
            assert_eq!(plain.is_ok(), f == 1, "f={f}");
            for (idx, bit) in [(0, 0), (17, 35), (63, 63)] {
                let mut bad = coeffs.clone();
                bad[idx] ^= 1 << bit;
                assert!(spot_check_transform(&p, &bad, &evals, 5, false, f).is_err());
                let mut bad = evals.clone();
                bad[idx] ^= 1 << bit;
                assert!(spot_check_transform(&p, &coeffs, &bad, 5, false, f).is_err());
            }
        }
    }

    #[test]
    fn cache_round_trip_smoke() {
        // get_or_build → transform → spot check, the path the CKKS layer
        // takes per limb.
        let q = primes::ntt_primes(36, 32, 1).unwrap()[0];
        let p = cache::get_or_build(q, 32).unwrap();
        let (coeffs, evals) = random_pair(&p, 3);
        spot_check_forward(&p, &coeffs, &evals, 11).unwrap();
    }

    proptest! {
        /// Clean forward transforms always pass; any single bit flip in
        /// any evaluation limb is always detected (sum identity).
        #[test]
        fn forward_detects_any_single_eval_flip(
            seed in 0u64..512,
            bits in 30u32..50,
            log_n in 3u32..8,
            salt in 0u64..64,
            flip_idx in 0usize..1024,
            flip_bit in 0u64..64,
        ) {
            let p = plan(bits, 1 << log_n);
            let (coeffs, mut evals) = random_pair(&p, seed);
            prop_assert!(spot_check_forward(&p, &coeffs, &evals, salt).is_ok());
            let idx = flip_idx % evals.len();
            evals[idx] ^= 1 << flip_bit;
            prop_assert!(spot_check_forward(&p, &coeffs, &evals, salt).is_err());
        }

        /// Clean inverse transforms always pass; any single bit flip in
        /// any coefficient limb is always detected (evaluation identity).
        #[test]
        fn inverse_detects_any_single_coeff_flip(
            seed in 0u64..512,
            bits in 30u32..50,
            log_n in 3u32..8,
            salt in 0u64..64,
            flip_idx in 0usize..1024,
            flip_bit in 0u64..64,
        ) {
            let p = plan(bits, 1 << log_n);
            let (coeffs, evals) = random_pair(&p, seed);
            let mut out = coeffs.clone();
            prop_assert!(spot_check_inverse(&p, &evals, &out, salt).is_ok());
            let idx = flip_idx % out.len();
            out[idx] ^= 1 << flip_bit;
            prop_assert!(spot_check_inverse(&p, &evals, &out, salt).is_err());
        }
    }
}
