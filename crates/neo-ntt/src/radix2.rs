//! Radix-2 negacyclic NTT: Shoup/lazy-reduction fast path plus the plain
//! reference implementation.
//!
//! Both variants compute the same transform — coefficients in natural
//! order in, evaluations in **bit-reversed** order out:
//! `forward(a)[k] = a(ψ^{2·rev(k)+1})`, where `rev` reverses `log₂ n`
//! bits — and produce **bit-identical** results (enforced by the
//! equivalence tests below and the workspace property suite).
//!
//! The fast path ([`forward`]/[`inverse`]) is the merged-ψ formulation
//! (Longa and Naehrig, CANS 2016): the forward runs Cooley–Tukey stages
//! from natural to bit-reversed order, the inverse Gentleman–Sande stages
//! back, and the negacyclic twist is folded into the twiddles — block `k`
//! of the stage with `b` blocks (`b ≤ k < 2b`) multiplies by `ψ^{rev(k)}`
//! (inverse: `ψ^{-rev(k)}`). No transform permutes its data and no
//! separate twist pass runs. Every twiddle multiply is a precomputed
//! Shoup multiply (`mul_shoup_lazy`, one mulhi + two mullo, no division)
//! landing in `[0, 2q)`, following Harvey's lazy-reduction discipline:
//! forward butterflies keep values in `[0, 4q)` and fold the final
//! reduction into the last stage; inverse butterflies keep them in
//! `[0, 2q)` ahead of one `n⁻¹` scale pass that emits canonical values.
//! `q < 2^62` guarantees `4q < 2^64`, so nothing overflows.
//!
//! Each transform is one call into the plan's
//! [`ComputeBackend`](neo_math::ComputeBackend), which owns the stage
//! schedule and where values reduce: the portable backend runs one pass
//! per stage in the windows above, the AVX-512 one fuses pairs of wide
//! stages into radix-4 passes and the narrow stages into one pass in
//! registers, and keeps its 52-bit lanes below a bound it tracks instead
//! of reducing every butterfly. Either way every element meets the same
//! butterflies with the same twiddles in the same order, and the output
//! is canonical. This driver keeps the length check, the butterfly and `n⁻¹`
//! multiply tallies, the `ntt.forward`/`ntt.inverse` timer spans, and the
//! fault-injection hook, so telemetry and the fault model are
//! backend-independent by construction.
//!
//! The reference path ([`forward_reference`]/[`inverse_reference`]) reduces
//! after every operation, runs the textbook twist-then-cyclic-FFT in
//! natural order, and applies [`crate::bit_reverse`] at its boundary. It
//! serves as the correctness oracle and the baseline for
//! `benches/ntt.rs` (shared via [`crate::reference`]).

use crate::{bit_reverse, NttPlan};
use neo_trace::{Counter, SpanGuard};

/// In-place forward negacyclic NTT (natural order in, bit-reversed
/// evaluation order out) — Shoup fast path.
///
/// The butterflies the backend's loops execute are tallied from their
/// loop structure (not a closed-form formula) and recorded under
/// [`Counter::NttButterflies`], so the telemetry cross-check against
/// `complexity::radix2_butterfly_macs` genuinely validates the
/// implementation's work.
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan's degree.
pub fn forward(plan: &NttPlan, x: &mut [u64]) {
    let n = plan.degree();
    assert_eq!(x.len(), n, "length mismatch");
    // A timer span: one relaxed load while the gate is off.
    let _s = SpanGuard::timer("ntt.forward");
    let be = neo_math::backend::get(plan.backend());
    let butterflies = be.ntt_forward(plan.modulus(), x, plan.fwd_twiddles());
    neo_trace::add(Counter::NttButterflies, butterflies);
    // Fault injection: a limb corrupted after the transform runs, before
    // the result leaves the kernel — what a flipped write-back bit looks
    // like.
    if neo_fault::armed() {
        neo_fault::corrupt_limb(neo_fault::FaultSite::NttStage, x);
    }
}

/// In-place inverse negacyclic NTT (bit-reversed evaluation order in,
/// natural coefficient order out) — Shoup fast path. Inputs must lie in
/// `[0, 2q)`; reduced evaluations always do.
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan's degree.
pub fn inverse(plan: &NttPlan, x: &mut [u64]) {
    inverse_scaled(plan, x, 1);
}

/// [`inverse`] with every output also multiplied by `factor`: the scale
/// pass multiplies by `n⁻¹·factor mod q` instead of `n⁻¹`, so the factor
/// costs no pass of its own and the output stays canonical.
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan's degree.
pub fn inverse_scaled(plan: &NttPlan, x: &mut [u64], factor: u64) {
    let n = plan.degree();
    assert_eq!(x.len(), n, "length mismatch");
    let _s = SpanGuard::timer("ntt.inverse");
    let m = plan.modulus();
    let scale = m.mul(plan.n_inv(), m.reduce(factor));
    let be = neo_math::backend::get(plan.backend());
    let butterflies = be.ntt_inverse(m, x, plan.inv_twiddles(), m.shoup(scale));
    neo_trace::add(Counter::NttButterflies, butterflies);
    // The scale, one full Shoup multiply per coefficient.
    neo_trace::add(Counter::ModMuls, n as u64);
    if neo_fault::armed() {
        neo_fault::corrupt_limb(neo_fault::FaultSite::NttStage, x);
    }
}

/// In-place forward negacyclic NTT, reference implementation (reduces
/// after every operation; bit-reversed evaluation order out, like
/// [`forward`]).
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan's degree.
pub fn forward_reference(plan: &NttPlan, x: &mut [u64]) {
    let n = plan.degree();
    assert_eq!(x.len(), n, "length mismatch");
    let m = plan.modulus();
    // Twist: x_i *= psi^i turns negacyclic into cyclic.
    for (i, v) in x.iter_mut().enumerate() {
        *v = m.mul(*v, plan.psi_pows()[i]);
    }
    cyclic_fft(x, plan, false);
    bit_reverse(x);
}

/// In-place inverse negacyclic NTT, reference implementation
/// (bit-reversed evaluation order in, like [`inverse`]).
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan's degree.
pub fn inverse_reference(plan: &NttPlan, x: &mut [u64]) {
    let n = plan.degree();
    assert_eq!(x.len(), n, "length mismatch");
    let m = plan.modulus();
    bit_reverse(x);
    cyclic_fft(x, plan, true);
    // Untwist and scale by n^{-1}.
    for (i, v) in x.iter_mut().enumerate() {
        *v = m.mul(m.mul(*v, plan.psi_inv_pows()[i]), plan.n_inv());
    }
}

/// Iterative cyclic FFT, natural order in/out (bit-reversal inside).
fn cyclic_fft(x: &mut [u64], plan: &NttPlan, inverse: bool) {
    let n = x.len();
    let m = plan.modulus();
    let pows = if inverse {
        plan.omega_inv_pows()
    } else {
        plan.omega_pows()
    };
    bit_reverse(x);
    let mut size = 2;
    while size <= n {
        let half = size / 2;
        let step = n / size;
        for block in (0..n).step_by(size) {
            for j in 0..half {
                let w = pows[j * step];
                let u = x[block + j];
                let t = m.mul(x[block + j + half], w);
                x[block + j] = m.add(u, t);
                x[block + j + half] = m.sub(u, t);
            }
        }
        size *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{negacyclic_mul, negacyclic_mul_schoolbook};
    use neo_math::primes;
    use rand::{Rng, SeedableRng};

    fn plan(n: usize) -> NttPlan {
        let q = primes::ntt_primes(36, n, 1).unwrap()[0];
        NttPlan::new(q, n).unwrap()
    }

    #[test]
    fn roundtrip() {
        let p = plan(64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let orig: Vec<u64> = (0..64)
            .map(|_| rng.gen_range(0..p.modulus().value()))
            .collect();
        let mut x = orig.clone();
        forward(&p, &mut x);
        assert_ne!(x, orig);
        inverse(&p, &mut x);
        assert_eq!(x, orig);
    }

    #[test]
    fn fast_path_is_bit_identical_to_reference() {
        for log_n in [2usize, 3, 4, 6, 8, 10] {
            let n = 1 << log_n;
            let p = plan(n);
            let mut rng = rand::rngs::StdRng::seed_from_u64(log_n as u64);
            let a: Vec<u64> = (0..n)
                .map(|_| rng.gen_range(0..p.modulus().value()))
                .collect();
            let (mut fast, mut reference) = (a.clone(), a.clone());
            forward(&p, &mut fast);
            forward_reference(&p, &mut reference);
            assert_eq!(fast, reference, "forward mismatch at n={n}");
            inverse(&p, &mut fast);
            inverse_reference(&p, &mut reference);
            assert_eq!(fast, reference, "inverse mismatch at n={n}");
            assert_eq!(fast, a, "roundtrip mismatch at n={n}");
        }
    }

    /// `forward(a)[k] = a(ψ^{2·rev(k)+1})`, checked by Horner evaluation
    /// of the input at 16 seeded `k`: the evaluation order against its
    /// definition, not against another transform.
    #[test]
    fn forward_evaluates_at_odd_powers_of_psi_in_bit_reversed_order() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0dd);
        for log_n in [4u32, 10, 14] {
            let n = 1usize << log_n;
            for bits in [36u32, 48, 55, 61] {
                let q = primes::ntt_primes(bits, n, 1).unwrap()[0];
                let p = NttPlan::new(q, n).unwrap();
                let m = p.modulus();
                let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
                let mut y = a.clone();
                forward(&p, &mut y);
                for _ in 0..16 {
                    let k = rng.gen_range(0..n);
                    let e = 2 * crate::bit_rev(k, log_n) as u64 + 1;
                    let z = m.pow(p.psi_pows()[1], e);
                    let at_z = a.iter().rev().fold(0, |acc, &c| m.add(m.mul(acc, z), c));
                    assert_eq!(y[k], at_z, "n={n} bits={bits} k={k}");
                }
            }
        }
    }

    #[test]
    fn transforms_time_themselves_into_span_histograms() {
        let p = plan(64);
        let mut x: Vec<u64> = (0..64).collect();
        let fwd = neo_trace::span::duration_histogram("ntt.forward");
        let inv = neo_trace::span::duration_histogram("ntt.inverse");
        let ((), _) = neo_trace::record(|| {
            let (f0, i0) = (fwd.count(), inv.count());
            forward(&p, &mut x);
            inverse(&p, &mut x);
            assert_eq!((fwd.count(), inv.count()), (f0 + 1, i0 + 1));
            // Gate off: the same calls record nothing.
            neo_trace::disable();
            forward(&p, &mut x);
            inverse(&p, &mut x);
            neo_trace::enable();
            assert_eq!((fwd.count(), inv.count()), (f0 + 1, i0 + 1));
        });
    }

    /// The factor rides in the scale pass: the scaled inverse equals the
    /// plain inverse followed by a multiply by the factor.
    #[test]
    fn scaled_inverse_is_the_inverse_times_the_factor() {
        let p = plan(1 << 10);
        let m = p.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let evals: Vec<u64> = (0..1 << 10).map(|_| rng.gen_range(0..m.value())).collect();
        for factor in [0, 1, 2, m.value() - 1, rng.gen(), u64::MAX] {
            let mut plain = evals.clone();
            inverse(&p, &mut plain);
            let mut scaled = evals.clone();
            inverse_scaled(&p, &mut scaled, factor);
            let want: Vec<u64> = plain.iter().map(|&c| m.mul(c, m.reduce(factor))).collect();
            assert_eq!(scaled, want, "factor={factor}");
        }
    }

    #[test]
    fn fast_path_survives_large_moduli() {
        // Near the 62-bit ceiling the lazy [0, 4q) window is tightest.
        let q = primes::ntt_primes(61, 64, 1).unwrap()[0];
        let p = NttPlan::new(q, 64).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let a: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
        let (mut fast, mut reference) = (a.clone(), a.clone());
        forward(&p, &mut fast);
        forward_reference(&p, &mut reference);
        assert_eq!(fast, reference);
        inverse(&p, &mut fast);
        assert_eq!(fast, a);
    }

    #[test]
    fn constant_transforms_to_constant() {
        // NTT of delta at 0 (constant polynomial 1) is all-ones.
        let p = plan(32);
        let mut x = vec![0u64; 32];
        x[0] = 1;
        forward(&p, &mut x);
        assert!(x.iter().all(|&v| v == 1));
    }

    #[test]
    fn x_times_x_is_x_squared() {
        let p = plan(16);
        let mut a = vec![0u64; 16];
        a[1] = 1; // X
        let c = negacyclic_mul(&p, &a, &a);
        let mut expect = vec![0u64; 16];
        expect[2] = 1; // X^2
        assert_eq!(c, expect);
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^(N-1) * X = X^N = -1 in Z[X]/(X^N+1).
        let p = plan(16);
        let mut a = vec![0u64; 16];
        let mut b = vec![0u64; 16];
        a[15] = 1;
        b[1] = 1;
        let c = negacyclic_mul(&p, &a, &b);
        assert_eq!(c[0], p.modulus().neg(1));
        assert!(c[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn matches_schoolbook() {
        let p = plan(128);
        let m = p.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a: Vec<u64> = (0..128).map(|_| rng.gen_range(0..m.value())).collect();
        let b: Vec<u64> = (0..128).map(|_| rng.gen_range(0..m.value())).collect();
        assert_eq!(
            negacyclic_mul(&p, &a, &b),
            negacyclic_mul_schoolbook(m, &a, &b)
        );
    }

    #[test]
    fn linearity() {
        let p = plan(64);
        let m = p.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let a: Vec<u64> = (0..64).map(|_| rng.gen_range(0..m.value())).collect();
        let b: Vec<u64> = (0..64).map(|_| rng.gen_range(0..m.value())).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
        let (mut fa, mut fb, mut fs) = (a.clone(), b.clone(), sum.clone());
        forward(&p, &mut fa);
        forward(&p, &mut fb);
        forward(&p, &mut fs);
        for i in 0..64 {
            assert_eq!(fs[i], m.add(fa[i], fb[i]));
        }
    }
}
