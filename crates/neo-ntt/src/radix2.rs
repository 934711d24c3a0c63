//! Radix-2 negacyclic NTT: Shoup/lazy-reduction fast path plus the plain
//! reference implementation.
//!
//! Both variants compute the same transform — twist by `ψ^i`, then a
//! cyclic FFT, with natural order in and out — and produce
//! **bit-identical** results (enforced by the equivalence tests below and
//! the workspace property suite).
//!
//! The fast path ([`forward`]/[`inverse`]) applies Harvey's lazy-reduction
//! discipline: every twiddle multiply is a precomputed Shoup multiply
//! (`mul_shoup_lazy`, one mulhi + two mullo, no division) returning a
//! representative in `[0, 2q)`, butterflies keep values in `[0, 4q)` with
//! a single conditional subtraction of `2q` before each multiply, and full
//! reduction happens once at the end. `q < 2^62` guarantees `4q < 2^64`,
//! so nothing overflows. The forward path additionally folds the ψ-twist
//! into its first butterfly stage (via the bit-reversed twist table) and
//! the final reduction into its last stage, so every element is touched
//! exactly `log₂ n + 1` times.
//!
//! The stage inner loops execute on the plan's
//! [`ComputeBackend`](neo_math::ComputeBackend) — scalar or vectorized —
//! while this driver keeps the stage schedule, the butterfly tallies, the
//! `ntt.forward`/`ntt.inverse` timer spans, and the fault-injection hook,
//! so telemetry and the fault model are backend-independent by
//! construction.
//!
//! The reference path ([`forward_reference`]/[`inverse_reference`]) reduces
//! after every operation and serves as the correctness oracle and the
//! baseline for `benches/ntt.rs` (shared via [`crate::reference`]).

use crate::NttPlan;
use neo_trace::{Counter, SpanGuard};

/// In-place forward negacyclic NTT (natural order in and out) — Shoup
/// fast path.
///
/// The butterflies each stage executes are tallied from the loop structure
/// (not a closed-form formula) and recorded under
/// [`Counter::NttButterflies`], so the telemetry cross-check against
/// `complexity::radix2_butterfly_macs` genuinely validates the
/// implementation's work, stage by stage.
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan's degree.
pub fn forward(plan: &NttPlan, x: &mut [u64]) {
    let n = plan.degree();
    assert_eq!(x.len(), n, "length mismatch");
    // A timer span: one relaxed load while the gate is off.
    let _s = SpanGuard::timer("ntt.forward");
    let m = plan.modulus();
    let be = neo_math::backend::get(plan.backend());
    let mut butterflies = 0u64;
    bit_reverse_planned(x, plan);
    // Stage 1 with the ψ-twist folded in: after bit-reversal, position i
    // holds a[rev(i)], which needs twist factor ψ^{rev(i)}; the stage-1
    // twiddle is ω^0 = 1, so both operands take exactly one lazy Shoup
    // multiply (landing in [0, 2q)) and no separate twist pass is needed.
    butterflies += be.ntt_twist_stage(m, x, plan.psi_rev_shoup());
    // Middle stages stay lazy in [0, 4q).
    let twiddles = plan.fwd_twiddles();
    let mut size = 4;
    let mut stage_off = 1;
    while size < n {
        let half = size / 2;
        butterflies += be.ntt_fwd_stage(m, x, size, &twiddles[stage_off..stage_off + half]);
        stage_off += half;
        size *= 2;
    }
    // Last stage with the final [0, 4q) -> [0, q) reduction folded in.
    let half = n / 2;
    butterflies += be.ntt_fwd_stage_final(m, x, &twiddles[stage_off..stage_off + half]);
    neo_trace::add(Counter::NttButterflies, butterflies);
    // Fault injection: a limb corrupted after stage execution, before the
    // result leaves the kernel — what a flipped write-back bit looks like.
    if neo_fault::armed() {
        neo_fault::corrupt_limb(neo_fault::FaultSite::NttStage, x);
    }
}

/// In-place inverse negacyclic NTT (natural order in and out) — Shoup
/// fast path. The untwist by `ψ^{-i}` and the `n⁻¹` scaling are merged
/// into a single Shoup multiply that also performs the final reduction.
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan's degree.
pub fn inverse(plan: &NttPlan, x: &mut [u64]) {
    let n = plan.degree();
    assert_eq!(x.len(), n, "length mismatch");
    let _s = SpanGuard::timer("ntt.inverse");
    let m = plan.modulus();
    let be = neo_math::backend::get(plan.backend());
    bit_reverse_planned(x, plan);
    // Cooley–Tukey stages with Harvey lazy butterflies. Invariant: all
    // values entering a stage are < 4q; each butterfly conditionally
    // subtracts 2q from u, takes t = v·w in [0, 2q) via lazy Shoup, and
    // emits u + t and u - t + 2q, both < 4q.
    let twiddles = plan.inv_twiddles();
    let mut size = 2;
    let mut stage_off = 0;
    let mut butterflies = 0u64;
    while size <= n {
        let half = size / 2;
        butterflies += be.ntt_inv_stage(m, x, size, &twiddles[stage_off..stage_off + half]);
        stage_off += half;
        size *= 2;
    }
    neo_trace::add(Counter::NttButterflies, butterflies);
    // The scale multiply accepts the unreduced [0, 4q) values directly and
    // returns the exact representative in [0, q).
    be.ntt_scale(m, x, plan.psi_inv_n_inv_shoup());
    neo_trace::add(Counter::ModMuls, n as u64);
    if neo_fault::armed() {
        neo_fault::corrupt_limb(neo_fault::FaultSite::NttStage, x);
    }
}

/// Bit-reversal permutation via the plan's precomputed swap list — one
/// swap per transposition, no per-element bit twiddling.
fn bit_reverse_planned(x: &mut [u64], plan: &NttPlan) {
    for &(i, j) in plan.bitrev_pairs() {
        x.swap(i as usize, j as usize);
    }
}

/// Bit-reversal permutation (computed on the fly, reference path).
fn bit_reverse(x: &mut [u64]) {
    let n = x.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits().wrapping_shr(64 - bits) as usize;
        if j > i {
            x.swap(i, j);
        }
    }
}

/// In-place forward negacyclic NTT, reference implementation (reduces
/// after every operation).
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
}

/// In-place inverse negacyclic NTT, reference implementation.
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan's degree.
pub fn inverse_reference(plan: &NttPlan, x: &mut [u64]) {
    let n = plan.degree();
    assert_eq!(x.len(), n, "length mismatch");
    let m = plan.modulus();
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
