//! Algorithm-based fault tolerance (ABFT) for the modular GEMMs.
//!
//! Classic Huang–Abraham row/column checksums, carried out modulo `q`:
//! for `C = A·B (mod q)` the column-checksum identity
//!
//! ```text
//! (1⃗ᵀ·A)·B ≡ 1⃗ᵀ·C        (one extra row:    k + k·n + m·n work)
//! A·(B·1⃗)  ≡ C·1⃗         (one extra column: m·k + k + m·n work)
//! ```
//!
//! must hold. A single bit flip in any accumulator (or any output limb)
//! shifts exactly one `C[i][j]` by `±2^b`, which changes both its row and
//! column sums by `±2^b mod q ≠ 0` (q is an odd prime), so the check
//! *always* catches a single flip — and almost always catches multi-flip
//! bursts. The verify costs `O(m·k + k·n + m·n)` against the GEMM's
//! `O(m·k·n)`, i.e. a `~3/k` relative overhead, tallied separately under
//! [`neo_trace::Counter::AbftChecks`]/[`AbftMacs`](neo_trace::Counter::AbftMacs)
//! so the cost model can price verification explicitly.
//!
//! [`verify_gemm`] checks an already-computed product; [`CheckedGemm`]
//! wraps any [`GemmEngine`] so the check runs after every merge+reduce.
//! Both take one modulus, which every output column shares: the row
//! checksum sums across columns, so it needs a single modulus.

use crate::gemm::GemmEngine;
use neo_error::NeoError;
use neo_math::Modulus;
use neo_trace::{Counter, CounterHandle};
use std::sync::{Arc, LazyLock};

/// `tcu_abft_detections_total`: verifications that caught corruption.
/// (Checks run are [`Counter::AbftChecks`].)
static DETECTIONS: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_trace::counter("tcu_abft_detections_total", &[]));

/// Verifies `c == a·b (mod q)` via modular row/column checksums.
///
/// `a` is `m×k`, `b` is `k×n`, `c` is `m×n`, all row-major. Entries of
/// `a`/`b` must be reduced; entries of `c` may be arbitrary u64 (a
/// corrupted, unreduced limb still trips the check).
///
/// # Errors
///
/// [`NeoError::FaultDetected`] with site `"tcu_gemm"` if either checksum
/// identity fails.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`/`k`/`n`.
pub fn verify_gemm(
    q: &Modulus,
    a: &[u64],
    b: &[u64],
    m: usize,
    k: usize,
    n: usize,
    c: &[u64],
) -> Result<(), NeoError> {
    assert_eq!(a.len(), m * k, "A must be m x k");
    assert_eq!(b.len(), k * n, "B must be k x n");
    assert_eq!(c.len(), m * n, "C must be m x n");
    neo_trace::add(Counter::AbftChecks, 1);
    neo_trace::add(
        Counter::AbftMacs,
        (2 * m * k + 2 * k * n + 2 * m * n) as u64,
    );
    neo_trace::add(Counter::BytesRead, ((m * k + k * n + m * n) * 8) as u64);

    // Column checksum: (1ᵀ·A)·B vs 1ᵀ·C, one column j at a time.
    let mut colsum_a = vec![0u64; k];
    for (t, s) in colsum_a.iter_mut().enumerate() {
        let mut acc = 0u128;
        for i in 0..m {
            acc += u128::from(a[i * k + t]);
        }
        *s = q.reduce_u128(acc);
    }
    for j in 0..n {
        let mut expect = 0u128;
        for (t, &s) in colsum_a.iter().enumerate() {
            expect += u128::from(s) * u128::from(b[t * n + j]);
        }
        let mut got = 0u128;
        for i in 0..m {
            got += u128::from(c[i * n + j]);
        }
        let (expect, got) = (q.reduce_u128(expect), q.reduce_u128(got));
        if expect != got {
            DETECTIONS.inc();
            return Err(NeoError::fault_detected(
                "tcu_gemm",
                format!(
                    "column checksum mismatch at j={j} ({got} != {expect}) \
                     for {m}x{k}x{n} GEMM mod {}",
                    q.value()
                ),
            ));
        }
    }

    // Row checksum: A·(B·1⃗) vs C·1⃗, one row i at a time.
    let mut rowsum_b = vec![0u64; k];
    for (t, s) in rowsum_b.iter_mut().enumerate() {
        let mut acc = 0u128;
        for j in 0..n {
            acc += u128::from(b[t * n + j]);
        }
        *s = q.reduce_u128(acc);
    }
    for i in 0..m {
        let mut expect = 0u128;
        for (t, &s) in rowsum_b.iter().enumerate() {
            expect += u128::from(a[i * k + t]) * u128::from(s);
        }
        let mut got = 0u128;
        for j in 0..n {
            got += u128::from(c[i * n + j]);
        }
        let (expect, got) = (q.reduce_u128(expect), q.reduce_u128(got));
        if expect != got {
            DETECTIONS.inc();
            return Err(NeoError::fault_detected(
                "tcu_gemm",
                format!(
                    "row checksum mismatch at i={i} ({got} != {expect}) \
                     for {m}x{k}x{n} GEMM mod {}",
                    q.value()
                ),
            ));
        }
    }
    Ok(())
}

/// A [`GemmEngine`] wrapper that runs the Huang–Abraham verify after every
/// product, turning silent accumulator corruption into a typed
/// [`NeoError::FaultDetected`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckedGemm<E> {
    inner: E,
}

impl<E: GemmEngine> CheckedGemm<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        Self { inner }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Computes `out = a·b (mod q)` with the inner engine, then verifies
    /// the result. On detection, `out` contents are unspecified (the
    /// caller must discard or retry).
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if the checksum verify fails.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_verified(
        &self,
        q: &Modulus,
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    ) -> Result<(), NeoError> {
        self.inner.gemm(&vec![*q; n], a, b, m, k, n, out);
        verify_gemm(q, a, b, m, k, n, out)
    }

    /// The inner engine's name, suffixed to mark verification.
    pub fn name(&self) -> String {
        format!("{}+abft", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::ScalarGemm;
    use neo_math::primes;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_modulus(bits: u32) -> Modulus {
        Modulus::new(primes::ntt_primes(bits, 8, 1).unwrap()[0]).unwrap()
    }

    fn random_gemm(
        seed: u64,
        q: &Modulus,
        m: usize,
        k: usize,
        n: usize,
    ) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
        let mut c = vec![0u64; m * n];
        ScalarGemm.gemm(&vec![*q; n], &a, &b, m, k, n, &mut c);
        (a, b, c)
    }

    #[test]
    fn checked_gemm_detects_injected_fragment_fault() {
        let q = test_modulus(36);
        let (a, b, _) = random_gemm(2, &q, 8, 4, 8);
        let mut out = vec![0u64; 64];
        let checked = CheckedGemm::new(crate::gemm::Fp64TcuGemm::for_word_size(36));
        checked
            .gemm_verified(&q, &a, &b, 8, 4, 8, &mut out)
            .unwrap();

        let plan = std::sync::Arc::new(neo_fault::FaultPlan::new(7).with_site(
            neo_fault::FaultSite::TcuFragment,
            neo_fault::FaultSpec::once(),
        ));
        let scope = neo_fault::FaultScope::install(plan.clone());
        let err = checked
            .gemm_verified(&q, &a, &b, 8, 4, 8, &mut out)
            .unwrap_err();
        drop(scope);
        assert_eq!(plan.injected(neo_fault::FaultSite::TcuFragment), 1);
        assert!(matches!(
            err,
            NeoError::FaultDetected {
                site: "tcu_gemm",
                ..
            }
        ));
    }

    #[test]
    fn abft_accepts_the_scalar_product_and_detects_a_flip() {
        let q = test_modulus(48);
        let (a, b, _) = random_gemm(3, &q, 9, 33, 7);
        let checked = CheckedGemm::new(ScalarGemm);
        assert_eq!(checked.name(), "scalar+abft");
        let mut out = vec![0u64; 63];
        checked
            .gemm_verified(&q, &a, &b, 9, 33, 7, &mut out)
            .unwrap_or_else(|e| panic!("clean product rejected: {e}"));
        // A single flipped accumulator bit must trip the checksum.
        out[17] ^= 1 << 29;
        let err = verify_gemm(&q, &a, &b, 9, 33, 7, &out).unwrap_err();
        assert!(matches!(
            err,
            NeoError::FaultDetected {
                site: "tcu_gemm",
                ..
            }
        ));
    }

    proptest! {
        /// Clean GEMMs always pass, and any single bit flip in any output
        /// limb is always detected, across random (q, m, n, k).
        #[test]
        fn checksum_accepts_clean_and_detects_any_single_flip(
            seed in 0u64..1024,
            bits in 30u32..50,
            m in 1usize..12,
            k in 1usize..12,
            n in 1usize..12,
            flip_idx in 0usize..1024,
            flip_bit in 0u64..64,
        ) {
            let q = test_modulus(bits);
            let (a, b, mut c) = random_gemm(seed, &q, m, k, n);
            prop_assert!(verify_gemm(&q, &a, &b, m, k, n, &c).is_ok());
            c[flip_idx % (m * n)] ^= 1 << flip_bit;
            prop_assert!(verify_gemm(&q, &a, &b, m, k, n, &c).is_err());
        }
    }
}
