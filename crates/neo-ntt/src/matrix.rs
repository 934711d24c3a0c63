//! Matrix-multiplication NTTs: four-step and Radix-16 ("ten-step").
//!
//! Both factor the cyclic DFT behind the negacyclic twist into batched
//! small DFTs executed as GEMMs on a pluggable [`GemmEngine`]. The DFTs
//! run in natural evaluation order; the transforms permute at their
//! boundary ([`crate::bit_reverse`]) so their inputs and outputs follow
//! the radix-2 convention `forward(a)[k] = a(ψ^{2·rev(k)+1})`:
//!
//! * **Four-step** (`N = N1·N2`, `N1 ≈ N2 ≈ √N`): column DFTs → twiddle →
//!   transpose → row DFTs. Matmul work `N·(N1+N2)` — `2^25` MACs at
//!   `N = 2^16`.
//! * **Radix-16**: recursively re-splits each factor into 16-point stages,
//!   so every GEMM is `(rows × 16) × (16 × 16)` — the shape that maps
//!   perfectly onto FP64 TCU fragments. Matmul work `N·16·log₁₆N` —
//!   `2^22` MACs at `N = 2^16`, an 8× reduction (Section 4.4).
//!
//! The derivation (index split `i = i2·N1 + i1`, `k = k1·N2 + k2`):
//!
//! ```text
//! X[k1·N2+k2] = Σ_{i1} ω^{N2·i1·k1} · ( ω^{i1·k2} · Σ_{i2} x[i2·N1+i1] · ω^{N1·i2·k2} )
//! ```

use crate::NttPlan;
use neo_tcu::GemmEngine;

/// How to decompose a DFT of a given length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decomp {
    /// One GEMM against the full DFT matrix.
    Direct,
    /// Split once into `(2^⌈log/2⌉, rest)`; children run Direct.
    FourStep,
    /// Peel 16-point stages until the remainder is ≤ 16.
    Radix16,
}

impl Decomp {
    fn split(self, n: usize) -> Option<(usize, usize)> {
        match self {
            Decomp::Direct => None,
            Decomp::FourStep => {
                let log = n.trailing_zeros();
                let n1 = 1usize << log.div_ceil(2);
                Some((n1, n / n1))
            }
            Decomp::Radix16 => {
                if n <= 16 {
                    None
                } else {
                    Some((n / 16, 16))
                }
            }
        }
    }

    fn child(self) -> Decomp {
        match self {
            Decomp::FourStep => Decomp::Direct,
            other => other,
        }
    }
}

/// Forward negacyclic NTT via the four-step algorithm.
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan degree or the degree is < 16.
pub fn forward_four_step(plan: &NttPlan, x: &mut [u64], engine: &dyn GemmEngine) {
    forward_matrix(plan, x, engine, Decomp::FourStep);
}

/// Inverse of [`forward_four_step`].
///
/// # Panics
///
/// Same conditions as the forward transform.
pub fn inverse_four_step(plan: &NttPlan, x: &mut [u64], engine: &dyn GemmEngine) {
    inverse_matrix(plan, x, engine, Decomp::FourStep);
}

/// Forward negacyclic NTT via Radix-16 stages (the paper's ten-step NTT
/// at `N = 2^16`).
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan degree or the degree is < 16.
pub fn forward_radix16(plan: &NttPlan, x: &mut [u64], engine: &dyn GemmEngine) {
    forward_matrix(plan, x, engine, Decomp::Radix16);
}

/// Inverse of [`forward_radix16`].
///
/// # Panics
///
/// Same conditions as the forward transform.
pub fn inverse_radix16(plan: &NttPlan, x: &mut [u64], engine: &dyn GemmEngine) {
    inverse_matrix(plan, x, engine, Decomp::Radix16);
}

fn forward_matrix(plan: &NttPlan, x: &mut [u64], engine: &dyn GemmEngine, decomp: Decomp) {
    let n = plan.degree();
    assert_eq!(x.len(), n, "length mismatch");
    assert!(n >= 16, "matrix NTT needs degree >= 16");
    let m = plan.modulus();
    for (i, v) in x.iter_mut().enumerate() {
        *v = m.mul(*v, plan.psi_pows()[i]);
    }
    dft_rows(x, 1, n, plan, 1, false, engine, decomp);
    crate::bit_reverse(x);
}

fn inverse_matrix(plan: &NttPlan, x: &mut [u64], engine: &dyn GemmEngine, decomp: Decomp) {
    let n = plan.degree();
    assert_eq!(x.len(), n, "length mismatch");
    assert!(n >= 16, "matrix NTT needs degree >= 16");
    let m = plan.modulus();
    crate::bit_reverse(x);
    dft_rows(x, 1, n, plan, 1, true, engine, decomp);
    for (i, v) in x.iter_mut().enumerate() {
        *v = m.mul(m.mul(*v, plan.psi_inv_pows()[i]), plan.n_inv());
    }
}

/// Batched cyclic DFT of `rows` contiguous rows of length `n`, where the
/// working root is `ω^step` (`ω` the plan's primitive N-th root).
#[allow(clippy::too_many_arguments)]
fn dft_rows(
    data: &mut [u64],
    rows: usize,
    n: usize,
    plan: &NttPlan,
    step: usize,
    inv: bool,
    engine: &dyn GemmEngine,
    decomp: Decomp,
) {
    debug_assert_eq!(data.len(), rows * n);
    let m = plan.modulus();
    let n_total = plan.degree();
    let pows = if inv {
        plan.omega_inv_pows()
    } else {
        plan.omega_pows()
    };
    match decomp.split(n) {
        None => {
            // One GEMM against the full n×n DFT matrix W[i][k] = ω^{step·i·k}.
            let mut w = vec![0u64; n * n];
            for i in 0..n {
                for k in 0..n {
                    w[i * n + k] = pows[(step * i * k) % n_total];
                }
            }
            let mut out = vec![0u64; rows * n];
            engine.gemm(&vec![*m; n], data, &w, rows, n, n, &mut out);
            data.copy_from_slice(&out);
        }
        Some((n1, n2)) => {
            // Column-major reshape: buf row (r, i1) holds x[i2·n1 + i1].
            let mut buf = vec![0u64; rows * n];
            for r in 0..rows {
                for i1 in 0..n1 {
                    for i2 in 0..n2 {
                        buf[(r * n1 + i1) * n2 + i2] = data[r * n + i2 * n1 + i1];
                    }
                }
            }
            // Inner DFTs of length n2 with root ω^{step·n1}.
            dft_rows(
                &mut buf,
                rows * n1,
                n2,
                plan,
                step * n1,
                inv,
                engine,
                decomp.child(),
            );
            // Twiddle by ω^{step·i1·k2}.
            for r in 0..rows {
                for i1 in 0..n1 {
                    for k2 in 0..n2 {
                        let t = pows[(step * i1 * k2) % n_total];
                        let v = &mut buf[(r * n1 + i1) * n2 + k2];
                        *v = m.mul(*v, t);
                    }
                }
            }
            // Transpose each row block (n1×n2 → n2×n1).
            let mut buf2 = vec![0u64; rows * n];
            for r in 0..rows {
                for i1 in 0..n1 {
                    for k2 in 0..n2 {
                        buf2[(r * n2 + k2) * n1 + i1] = buf[(r * n1 + i1) * n2 + k2];
                    }
                }
            }
            // Outer DFTs of length n1 with root ω^{step·n2}.
            dft_rows(
                &mut buf2,
                rows * n2,
                n1,
                plan,
                step * n2,
                inv,
                engine,
                decomp.child(),
            );
            // Gather: X[k1·n2 + k2] = buf2[(r, k2), k1].
            for r in 0..rows {
                for k1 in 0..n1 {
                    for k2 in 0..n2 {
                        data[r * n + k1 * n2 + k2] = buf2[(r * n2 + k2) * n1 + k1];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2;
    use neo_math::primes;
    use neo_tcu::{Fp64TcuGemm, Int8TcuGemm, ScalarGemm};
    use rand::{Rng, SeedableRng};

    fn plan(n: usize, bits: u32) -> NttPlan {
        let q = primes::ntt_primes(bits, n, 1).unwrap()[0];
        NttPlan::new(q, n).unwrap()
    }

    fn random_poly(plan: &NttPlan, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..plan.degree())
            .map(|_| rng.gen_range(0..plan.modulus().value()))
            .collect()
    }

    #[test]
    fn four_step_matches_radix2() {
        for n in [16usize, 64, 256, 1024] {
            let p = plan(n, 36);
            let a = random_poly(&p, n as u64);
            let mut want = a.clone();
            radix2::forward(&p, &mut want);
            let mut got = a.clone();
            forward_four_step(&p, &mut got, &ScalarGemm);
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn radix16_matches_radix2() {
        for n in [16usize, 32, 256, 512, 4096] {
            let p = plan(n, 36);
            let a = random_poly(&p, 100 + n as u64);
            let mut want = a.clone();
            radix2::forward(&p, &mut want);
            let mut got = a.clone();
            forward_radix16(&p, &mut got, &ScalarGemm);
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn radix16_roundtrip() {
        let p = plan(256, 36);
        let a = random_poly(&p, 5);
        let mut x = a.clone();
        forward_radix16(&p, &mut x, &ScalarGemm);
        inverse_radix16(&p, &mut x, &ScalarGemm);
        assert_eq!(x, a);
    }

    #[test]
    fn four_step_roundtrip_odd_log() {
        // n = 512: log2 = 9, asymmetric split 32 x 16.
        let p = plan(512, 36);
        let a = random_poly(&p, 6);
        let mut x = a.clone();
        forward_four_step(&p, &mut x, &ScalarGemm);
        inverse_four_step(&p, &mut x, &ScalarGemm);
        assert_eq!(x, a);
    }

    #[test]
    fn tcu_engines_bit_exact() {
        let p = plan(256, 36);
        let a = random_poly(&p, 7);
        let mut scalar = a.clone();
        forward_radix16(&p, &mut scalar, &ScalarGemm);
        let mut fp64 = a.clone();
        forward_radix16(&p, &mut fp64, &Fp64TcuGemm::for_word_size(36));
        let mut int8 = a.clone();
        forward_radix16(&p, &mut int8, &Int8TcuGemm::for_word_size(36));
        assert_eq!(scalar, fp64, "FP64 TCU NTT diverged");
        assert_eq!(scalar, int8, "INT8 TCU NTT diverged");
    }

    #[test]
    fn tcu_fp64_48bit_words() {
        let p = plan(256, 48);
        let a = random_poly(&p, 8);
        let mut scalar = a.clone();
        forward_radix16(&p, &mut scalar, &ScalarGemm);
        let mut fp64 = a.clone();
        forward_radix16(&p, &mut fp64, &Fp64TcuGemm::for_word_size(48));
        assert_eq!(scalar, fp64);
    }

    #[test]
    fn convolution_theorem_via_matrix_ntt() {
        let p = plan(64, 36);
        let m = p.modulus();
        let a = random_poly(&p, 9);
        let b = random_poly(&p, 10);
        let mut fa = a.clone();
        let mut fb = b.clone();
        forward_radix16(&p, &mut fa, &ScalarGemm);
        forward_radix16(&p, &mut fb, &ScalarGemm);
        for (x, &y) in fa.iter_mut().zip(&fb) {
            *x = m.mul(*x, y);
        }
        inverse_radix16(&p, &mut fa, &ScalarGemm);
        assert_eq!(fa, crate::negacyclic_mul_schoolbook(m, &a, &b));
    }
}

#[cfg(test)]
mod inverse_tests {
    use super::*;
    use crate::radix2;
    use neo_math::primes;
    use neo_tcu::{Fp64TcuGemm, ScalarGemm};
    use rand::{Rng, SeedableRng};

    #[test]
    fn matrix_inverses_match_radix2_inverse() {
        let n = 256;
        let q = primes::ntt_primes(36, n, 1).unwrap()[0];
        let plan = NttPlan::new(q, n).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        // Start from an NTT-domain vector produced by radix-2.
        let mut f = a.clone();
        radix2::forward(&plan, &mut f);
        let mut want = f.clone();
        radix2::inverse(&plan, &mut want);
        let mut got_fs = f.clone();
        inverse_four_step(&plan, &mut got_fs, &ScalarGemm);
        let mut got_r16 = f.clone();
        inverse_radix16(&plan, &mut got_r16, &Fp64TcuGemm::for_word_size(36));
        assert_eq!(got_fs, want);
        assert_eq!(got_r16, want);
        assert_eq!(want, a);
    }

    #[test]
    #[should_panic(expected = "degree >= 16")]
    fn matrix_ntt_rejects_tiny_degrees() {
        let q = primes::ntt_primes(36, 8, 1).unwrap()[0];
        let plan = NttPlan::new(q, 8).unwrap();
        let mut x = vec![0u64; 8];
        forward_radix16(&plan, &mut x, &ScalarGemm);
    }
}
