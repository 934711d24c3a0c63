use neo_math::{primes, BackendKind, MathError, Modulus, ShoupMul};
use std::sync::atomic::{AtomicBool, Ordering};

/// Precomputed tables for NTTs of degree `n` modulo one prime.
///
/// Holds the primitive `2n`-th root `ψ`, the `n`-th root `ω = ψ²`, their
/// full power tables, and `n⁻¹` — plus the radix-2 fast path's two
/// per-block twiddle tables: Shoup doubles of `ψ^{rev(k)}` (forward) and
/// `ψ^{-rev(k)}` (inverse) for `k < n`, where `rev` reverses `log₂ n`
/// bits. A stage with `b` blocks reads entries `b..2b`, one per block, so
/// each table is read front to back over a transform.
#[derive(Debug, Clone)]
pub struct NttPlan {
    n: usize,
    m: Modulus,
    psi_pows: Vec<u64>,
    psi_inv_pows: Vec<u64>,
    omega_pows: Vec<u64>,
    omega_inv_pows: Vec<u64>,
    n_inv: u64,
    fwd_twiddles: Vec<ShoupMul>,
    inv_twiddles: Vec<ShoupMul>,
    /// Which [`ComputeBackend`](neo_math::ComputeBackend) executes this
    /// plan's transforms. Not part of the checksum: two plans for the same
    /// `(q, n)` share identical tables (and integrity tokens) regardless
    /// of which backend runs them.
    backend: BackendKind,
    /// Integrity token: checksum of every table, frozen at build time.
    /// [`NttPlan::verify_integrity`] recomputes and compares, so the plan
    /// cache can quarantine entries whose twiddles rotted after insertion.
    token: u64,
    /// Set once a re-hash of this object matched the token.
    hashed_clean: CleanMark,
}

/// A flag that a clone does not inherit: a cloned plan is a new object,
/// whose tables have not been re-hashed yet. `Relaxed` suffices: the flag
/// publishes no data, since the tables it vouches for never change after
/// construction.
#[derive(Debug, Default)]
struct CleanMark(AtomicBool);

impl Clone for CleanMark {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl NttPlan {
    /// Builds a plan for degree `n` (power of two, ≥ 4) and prime `q` with
    /// `q ≡ 1 (mod 2n)`, executing on the process-wide backend
    /// ([`neo_math::backend::active`]).
    ///
    /// # Errors
    ///
    /// [`MathError::InvalidDegree`] for a bad `n`,
    /// [`MathError::InvalidModulus`] if `q` is out of range or lacks the
    /// root of unity.
    pub fn new(q: u64, n: usize) -> Result<Self, MathError> {
        Self::with_backend(q, n, neo_math::backend::active().kind())
    }

    /// [`NttPlan::new`] with an explicit compute backend — a bench and
    /// test seam for running both backends in one process.
    ///
    /// # Errors
    ///
    /// Same as [`NttPlan::new`].
    pub fn with_backend(q: u64, n: usize, backend: BackendKind) -> Result<Self, MathError> {
        if !n.is_power_of_two() || n < 4 {
            return Err(MathError::InvalidDegree(n));
        }
        let m = Modulus::new(q)?;
        if !(q - 1).is_multiple_of(2 * n as u64) || !primes::is_prime(q) {
            return Err(MathError::InvalidModulus(q));
        }
        let psi = primes::primitive_root(q, 2 * n as u64);
        let psi_inv = m.inv(psi)?;
        let mut psi_pows = Vec::with_capacity(n);
        let mut psi_inv_pows = Vec::with_capacity(n);
        let mut omega_pows = Vec::with_capacity(n);
        let mut omega_inv_pows = Vec::with_capacity(n);
        let (mut a, mut b, mut c, mut d) = (1u64, 1u64, 1u64, 1u64);
        let omega = m.mul(psi, psi);
        let omega_inv = m.mul(psi_inv, psi_inv);
        for _ in 0..n {
            psi_pows.push(a);
            psi_inv_pows.push(b);
            omega_pows.push(c);
            omega_inv_pows.push(d);
            a = m.mul(a, psi);
            b = m.mul(b, psi_inv);
            c = m.mul(c, omega);
            d = m.mul(d, omega_inv);
        }
        let n_inv = m.inv(n as u64)?;
        // Block k of the stage with b blocks (k in b..2b) multiplies by
        // ψ^{rev(k)}: the merged-ψ layout of Longa and Naehrig, which
        // folds the negacyclic twist into the butterflies.
        let bits = n.trailing_zeros();
        let rev = |k: usize| crate::bit_rev(k, bits);
        let fwd_twiddles = (0..n).map(|k| m.shoup(psi_pows[rev(k)])).collect();
        let inv_twiddles = (0..n).map(|k| m.shoup(psi_inv_pows[rev(k)])).collect();
        let mut plan = Self {
            n,
            m,
            psi_pows,
            psi_inv_pows,
            omega_pows,
            omega_inv_pows,
            n_inv,
            fwd_twiddles,
            inv_twiddles,
            backend,
            token: 0,
            hashed_clean: CleanMark::default(),
        };
        plan.token = plan.checksum();
        Ok(plan)
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The modulus.
    pub fn modulus(&self) -> &Modulus {
        &self.m
    }

    /// `ψ^i` (primitive 2N-th root powers), `i < N`.
    pub fn psi_pows(&self) -> &[u64] {
        &self.psi_pows
    }

    /// `ψ^{-i}` powers.
    pub fn psi_inv_pows(&self) -> &[u64] {
        &self.psi_inv_pows
    }

    /// `ω^i` powers (`ω = ψ²`, primitive N-th root).
    pub fn omega_pows(&self) -> &[u64] {
        &self.omega_pows
    }

    /// `ω^{-i}` powers.
    pub fn omega_inv_pows(&self) -> &[u64] {
        &self.omega_inv_pows
    }

    /// `N⁻¹ mod q`.
    pub fn n_inv(&self) -> u64 {
        self.n_inv
    }

    /// The compute backend this plan's transforms execute on.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Per-block forward twiddles: Shoup doubles of `ψ^{rev(k)}`, `k < n`.
    pub(crate) fn fwd_twiddles(&self) -> &[ShoupMul] {
        &self.fwd_twiddles
    }

    /// Per-block inverse twiddles: Shoup doubles of `ψ^{-rev(k)}`, `k < n`.
    pub(crate) fn inv_twiddles(&self) -> &[ShoupMul] {
        &self.inv_twiddles
    }

    /// Recomputes the checksum of every table (power tables and both
    /// twiddle tables). `O(n)` mixes — cheap next to a rebuild.
    pub fn checksum(&self) -> u64 {
        #[inline]
        fn fold(h: u64, v: u64) -> u64 {
            neo_fault::splitmix64(h ^ v)
        }
        let mut h = fold(self.n as u64, self.m.value());
        h = fold(h, self.n_inv);
        for &v in self
            .psi_pows
            .iter()
            .chain(&self.psi_inv_pows)
            .chain(&self.omega_pows)
            .chain(&self.omega_inv_pows)
        {
            h = fold(h, v);
        }
        for s in self.fwd_twiddles.iter().chain(&self.inv_twiddles) {
            h = fold(fold(h, s.w), s.w_shoup);
        }
        h
    }

    /// The integrity token frozen when the plan was built.
    pub fn integrity_token(&self) -> u64 {
        self.token
    }

    /// True iff the tables still hash to the build-time token. A match is
    /// remembered on this object ([`NttPlan::hashed_clean`]).
    pub fn verify_integrity(&self) -> bool {
        let clean = self.checksum() == self.token;
        if clean {
            self.hashed_clean.0.store(true, Ordering::Relaxed);
        }
        clean
    }

    /// Whether a re-hash of this very object has matched the token. The
    /// tables never change after construction, so a clean re-hash stays
    /// true; a clone, such as [`NttPlan::poisoned_clone`], starts
    /// unchecked.
    pub fn hashed_clean(&self) -> bool {
        self.hashed_clean.0.load(Ordering::Relaxed)
    }

    /// Test support: a clone with one forward twiddle corrupted
    /// (bit flip chosen from `salt`) but the *original* integrity token,
    /// modelling in-memory table rot. The corrupted entry is a consistent
    /// Shoup pair for a *wrong* twiddle, so transforms run without
    /// tripping debug assertions yet produce wrong outputs — only
    /// [`NttPlan::verify_integrity`] (or a downstream spot check against
    /// the untouched `psi`/`omega` power tables) can tell.
    #[must_use]
    pub fn poisoned_clone(&self, salt: u64) -> NttPlan {
        let mut poisoned = self.clone();
        let h = neo_fault::splitmix64(salt ^ 0x706f_6973_6f6e);
        // Corrupt a twiddle of the last stage (entries n/2..n, one per
        // span-2 block): every entry there is read, unlike the unused
        // entry 0, so the poison is never benign.
        let half = self.n / 2;
        let idx = half + (h >> 32) as usize % half;
        let w = poisoned.fwd_twiddles[idx].w;
        let q = poisoned.m.value();
        let mut bit = (h >> 8) % 63;
        let corrupted = loop {
            let candidate = (w ^ (1 << bit)) % q;
            if candidate != w {
                break candidate;
            }
            bit = (bit + 1) % 63;
        };
        poisoned.fwd_twiddles[idx] = poisoned.m.shoup(corrupted);
        poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_roots_have_right_order() {
        let q = primes::ntt_primes(36, 64, 1).unwrap()[0];
        let plan = NttPlan::new(q, 64).unwrap();
        let m = plan.modulus();
        let psi = plan.psi_pows()[1];
        // psi^N = -1 (primitive 2N-th root)
        assert_eq!(m.pow(psi, 64), m.neg(1));
        // omega^N = 1, omega^(N/2) = -1
        let omega = plan.omega_pows()[1];
        assert_eq!(m.pow(omega, 64), 1);
        assert_eq!(m.pow(omega, 32), m.neg(1));
    }

    #[test]
    fn rejects_bad_inputs() {
        let q = primes::ntt_primes(36, 64, 1).unwrap()[0];
        assert!(NttPlan::new(q, 48).is_err()); // not a power of two
        assert!(NttPlan::new(q, 2).is_err()); // too small
                                              // q-1 not divisible by 2n for huge n
        assert!(NttPlan::new(q, 1 << 40).is_err());
        // composite modulus
        assert!(NttPlan::new((1 << 36) - 1, 64).is_err());
    }

    #[test]
    fn integrity_token_convicts_poisoned_clones() {
        let q = primes::ntt_primes(36, 64, 1).unwrap()[0];
        let plan = NttPlan::new(q, 64).unwrap();
        assert!(plan.verify_integrity());
        assert_eq!(plan.checksum(), plan.integrity_token());
        for salt in 0..32 {
            let poisoned = plan.poisoned_clone(salt);
            assert_eq!(poisoned.integrity_token(), plan.integrity_token());
            assert!(
                !poisoned.verify_integrity(),
                "salt {salt} escaped detection"
            );
            // Poison touches only the fast-path twiddles; the reference
            // power tables the spot check trusts stay clean.
            assert_eq!(poisoned.psi_pows(), plan.psi_pows());
            assert_eq!(poisoned.omega_pows(), plan.omega_pows());
        }
    }

    /// A clean re-hash is remembered on the object that passed it, and a
    /// clone, poisoned or not, starts unchecked.
    #[test]
    fn a_clean_rehash_is_remembered_per_object() {
        let q = primes::ntt_primes(36, 64, 1).unwrap()[0];
        let plan = NttPlan::new(q, 64).unwrap();
        assert!(!plan.hashed_clean());
        assert!(plan.verify_integrity());
        assert!(plan.hashed_clean());
        assert!(!plan.clone().hashed_clean());
        let poisoned = plan.poisoned_clone(3);
        assert!(!poisoned.hashed_clean());
        assert!(!poisoned.verify_integrity());
        assert!(!poisoned.hashed_clean());
    }

    #[test]
    fn backend_choice_does_not_change_tables_or_token() {
        let q = primes::ntt_primes(36, 64, 1).unwrap()[0];
        let a = NttPlan::with_backend(q, 64, BackendKind::Portable).unwrap();
        let b = NttPlan::with_backend(q, 64, BackendKind::Simd).unwrap();
        assert_eq!(a.backend(), BackendKind::Portable);
        assert_eq!(b.backend(), BackendKind::Simd);
        // The tables (and therefore the integrity token) are backend-
        // agnostic: quarantine can rebuild under any kind and still match.
        assert_eq!(a.integrity_token(), b.integrity_token());
        assert_eq!(
            NttPlan::new(q, 64).unwrap().integrity_token(),
            a.integrity_token()
        );
    }

    #[test]
    fn inverse_tables_invert() {
        let q = primes::ntt_primes(36, 32, 1).unwrap()[0];
        let plan = NttPlan::new(q, 32).unwrap();
        let m = plan.modulus();
        for i in 0..32 {
            assert_eq!(m.mul(plan.psi_pows()[i], plan.psi_inv_pows()[i]), 1);
            assert_eq!(m.mul(plan.omega_pows()[i], plan.omega_inv_pows()[i]), 1);
        }
        assert_eq!(m.mul(plan.n_inv(), 32), 1);
    }
}
