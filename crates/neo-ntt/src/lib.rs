//! Negacyclic number-theoretic transforms (NTTs) for `Z_q[X]/(X^N + 1)`.
//!
//! Three algorithms, all with identical input/output conventions: natural
//! coefficient order in, **bit-reversed** evaluation order out,
//! `forward(a)[k] = a(ψ^{2·rev(k)+1})` for the primitive `2N`-th root `ψ`
//! and `rev` reversing `log₂ N` bits. That is the order the radix-2
//! transform produces without a permutation pass; every NTT-domain
//! consumer (pointwise products, multiply-accumulates, key-switch inner
//! products) works slot by slot and never depends on it.
//!
//! * [`radix2`] — the in-place merged-ψ radix-2 transform; the host fast
//!   path, with a reduce-every-op reference beside it as the correctness
//!   oracle.
//! * [`matrix::forward_four_step`] — the four-step NTT used by earlier GPU
//!   work: two `√N × √N` matrix multiplications with a twiddle/transpose in
//!   between (Fig. 9, left).
//! * [`matrix::forward_radix16`] — Neo's Radix-16 (*ten-step* for
//!   `N = 2^16`) NTT from SHARP: the DFT factors into chains of 16-point
//!   stages, each a `16×16` matrix multiplication mapped onto the TCU
//!   (Fig. 9 right, Fig. 10). Total matmul work drops from
//!   `N·2√N = 2^25` to `N·16·log_16(N) = 2^22` for `N = 2^16`.
//!
//! The matrix variants take any [`neo_tcu::GemmEngine`], so the same code
//! runs on the scalar reference, the FP64-TCU emulation, or the INT8-TCU
//! emulation — and produces bit-identical results on each (see the
//! cross-engine tests).
//!
//! # Example
//!
//! ```rust
//! use neo_ntt::NttPlan;
//! use neo_tcu::ScalarGemm;
//!
//! # fn main() -> Result<(), neo_math::MathError> {
//! let q = neo_math::primes::ntt_primes(36, 256, 1)?[0];
//! let plan = NttPlan::new(q, 256)?;
//! let mut a: Vec<u64> = (0..256u64).collect();
//! let orig = a.clone();
//! neo_ntt::matrix::forward_radix16(&plan, &mut a, &neo_tcu::ScalarGemm);
//! neo_ntt::matrix::inverse_radix16(&plan, &mut a, &ScalarGemm);
//! assert_eq!(a, orig);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod complexity;
pub mod matrix;
mod plan;
pub mod radix2;
pub mod reference;
pub mod verify;

pub use plan::NttPlan;
pub use verify::{spot_check_forward, spot_check_inverse, spot_check_transform};

use neo_math::Modulus;

/// `k` with its low `bits` bits reversed (`k < 2^bits`).
pub(crate) fn bit_rev(k: usize, bits: u32) -> usize {
    k.reverse_bits()
        .checked_shr(usize::BITS - bits)
        .unwrap_or(0)
}

/// The bit-reversal permutation in place: `x[i] ↔ x[rev(i)]` for a
/// power-of-two length. It maps natural evaluation order to the radix-2
/// transforms' bit-reversed order and back; the oracles and the matrix
/// NTTs apply it at their boundary, and `neo-ckks` applies it to
/// uniformly drawn evaluation-domain limbs.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn bit_reverse(x: &mut [u64]) {
    let n = x.len();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_rev(i, bits);
        if j > i {
            x.swap(i, j);
        }
    }
}

/// The Galois automorphism `σ_g: a(X) ↦ a(X^g)` of `Z_q[X]/(X^n + 1)` as
/// an index map of the transforms' bit-reversed evaluations:
/// `forward(σ_g(a))[k] = forward(a)[map[k]]` for every prime. Slot `k`
/// holds `a(ψ^{2·rev(k)+1})`, so `σ_g(a)` there is `a` at the odd power
/// `g·(2·rev(k)+1) mod 2n = 2j+1`, which `forward(a)` holds at `rev(j)`.
/// The map depends on `n` and `g mod 2n` only.
///
/// # Panics
///
/// Panics if `n` is not a power of two or exceeds `2^31`, or `g` is even.
pub fn galois_permutation(n: usize, g: usize) -> Vec<u32> {
    assert!(n.is_power_of_two(), "length must be a power of two");
    assert!(n <= 1 << 31, "length must fit u32 indices");
    assert_eq!(g % 2, 1, "Galois element must be odd");
    let (bits, two_n) = (n.trailing_zeros(), 2 * n as u64);
    let g = (g % (2 * n)) as u64;
    (0..n)
        .map(|k| {
            // Both factors lie below 2n <= 2^32, so the product fits u64.
            let e = g * (2 * bit_rev(k, bits) as u64 + 1) % two_n;
            bit_rev((e / 2) as usize, bits) as u32
        })
        .collect()
}

/// Multiplies two polynomials in `Z_q[X]/(X^N+1)` via the radix-2 NTT —
/// a convenience oracle used throughout the test suites.
///
/// # Panics
///
/// Panics if operand lengths differ from the plan's degree.
pub fn negacyclic_mul(plan: &NttPlan, a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut fa = a.to_vec();
    let mut fb = b.to_vec();
    radix2::forward(plan, &mut fa);
    radix2::forward(plan, &mut fb);
    let m = plan.modulus();
    for (x, &y) in fa.iter_mut().zip(&fb) {
        *x = m.mul(*x, y);
    }
    radix2::inverse(plan, &mut fa);
    fa
}

/// Schoolbook negacyclic multiplication — `O(N²)` oracle for small tests.
pub fn negacyclic_mul_schoolbook(m: &Modulus, a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let p = m.mul(ai, bj);
            let k = i + j;
            if k < n {
                out[k] = m.add(out[k], p);
            } else {
                out[k - n] = m.sub(out[k - n], p);
            }
        }
    }
    out
}
