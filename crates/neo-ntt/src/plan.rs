use neo_math::{primes, BackendKind, MathError, Modulus, ShoupMul};

/// Precomputed tables for NTTs of degree `n` modulo one prime.
///
/// Holds the primitive `2n`-th root `ψ` (for the negacyclic twist), the
/// `n`-th root `ω = ψ²`, their full power tables, and `n⁻¹` — plus Shoup
/// doubles of everything the radix-2 fast path touches: the twist powers,
/// the merged untwist-and-scale powers `ψ^{-i}·n⁻¹`, and stage-major
/// twiddle tables laid out in exactly the order the butterfly loops read
/// them (stage `size` contributes its `size/2` twiddles contiguously).
#[derive(Debug, Clone)]
pub struct NttPlan {
    n: usize,
    m: Modulus,
    psi_pows: Vec<u64>,
    psi_inv_pows: Vec<u64>,
    omega_pows: Vec<u64>,
    omega_inv_pows: Vec<u64>,
    n_inv: u64,
    bitrev_pairs: Vec<(u32, u32)>,
    psi_rev_shoup: Vec<ShoupMul>,
    psi_inv_n_inv_shoup: Vec<ShoupMul>,
    fwd_twiddles: Vec<ShoupMul>,
    inv_twiddles: Vec<ShoupMul>,
    /// Which [`ComputeBackend`](neo_math::ComputeBackend) executes this
    /// plan's stages. Not part of the checksum: two plans for the same
    /// `(q, n)` share identical tables (and integrity tokens) regardless
    /// of which backend runs them.
    backend: BackendKind,
    /// Integrity token: checksum of every table, frozen at build time.
    /// [`NttPlan::verify_integrity`] recomputes and compares, so the plan
    /// cache can quarantine entries whose twiddles rotted after insertion.
    token: u64,
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
        // Twist powers permuted into bit-reversed position order, so the
        // forward fast path can fold the twist into its first butterfly
        // stage (which runs after the bit-reversal permutation).
        let bits = n.trailing_zeros();
        // Swap list for the bit-reversal permutation: only the (i, rev(i))
        // pairs with i < rev(i), so the fast path does one swap per pair
        // with no per-element bit twiddling.
        let bitrev_pairs = (0..n)
            .filter_map(|i| {
                let r = (i as u64).reverse_bits().wrapping_shr(64 - bits) as usize;
                (i < r).then_some((i as u32, r as u32))
            })
            .collect();
        let psi_rev_shoup = (0..n)
            .map(|i| {
                let r = (i as u64).reverse_bits().wrapping_shr(64 - bits) as usize;
                m.shoup(psi_pows[r])
            })
            .collect();
        let psi_inv_n_inv_shoup = psi_inv_pows
            .iter()
            .map(|&w| m.shoup(m.mul(w, n_inv)))
            .collect();
        // Stage-major twiddles: the radix-2 stage of span `size` reads
        // omega^(j * n/size) for j in 0..size/2, identically in every block.
        let mut fwd_twiddles = Vec::with_capacity(n - 1);
        let mut inv_twiddles = Vec::with_capacity(n - 1);
        let mut size = 2;
        while size <= n {
            let step = n / size;
            for j in 0..size / 2 {
                fwd_twiddles.push(m.shoup(omega_pows[j * step]));
                inv_twiddles.push(m.shoup(omega_inv_pows[j * step]));
            }
            size *= 2;
        }
        let mut plan = Self {
            n,
            m,
            psi_pows,
            psi_inv_pows,
            omega_pows,
            omega_inv_pows,
            n_inv,
            bitrev_pairs,
            psi_rev_shoup,
            psi_inv_n_inv_shoup,
            fwd_twiddles,
            inv_twiddles,
            backend,
            token: 0,
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

    /// Shoup doubles of `ψ^{rev(i)}` — the forward twist in bit-reversed
    /// position order, consumed by the merged first butterfly stage.
    pub(crate) fn psi_rev_shoup(&self) -> &[ShoupMul] {
        &self.psi_rev_shoup
    }

    /// Precomputed `(i, rev(i))` swap pairs (`i < rev(i)`) for the
    /// bit-reversal permutation.
    pub(crate) fn bitrev_pairs(&self) -> &[(u32, u32)] {
        &self.bitrev_pairs
    }

    /// Shoup doubles of `ψ^{-i}·n⁻¹` — untwist and scale in one multiply.
    pub(crate) fn psi_inv_n_inv_shoup(&self) -> &[ShoupMul] {
        &self.psi_inv_n_inv_shoup
    }

    /// Stage-major forward twiddles (`n - 1` entries).
    pub(crate) fn fwd_twiddles(&self) -> &[ShoupMul] {
        &self.fwd_twiddles
    }

    /// Stage-major inverse twiddles (`n - 1` entries).
    pub(crate) fn inv_twiddles(&self) -> &[ShoupMul] {
        &self.inv_twiddles
    }

    /// Recomputes the checksum of every table (power tables, swap pairs,
    /// and all Shoup doubles). `O(n)` mixes — cheap next to a rebuild.
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
        for &(i, r) in &self.bitrev_pairs {
            h = fold(h, (u64::from(i) << 32) | u64::from(r));
        }
        for s in self
            .psi_rev_shoup
            .iter()
            .chain(&self.psi_inv_n_inv_shoup)
            .chain(&self.fwd_twiddles)
            .chain(&self.inv_twiddles)
        {
            h = fold(fold(h, s.w), s.w_shoup);
        }
        h
    }

    /// The integrity token frozen when the plan was built.
    pub fn integrity_token(&self) -> u64 {
        self.token
    }

    /// True iff the tables still hash to the build-time token.
    pub fn verify_integrity(&self) -> bool {
        self.checksum() == self.token
    }

    /// Test support: a clone with one forward fast-path twiddle corrupted
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
        // Corrupt a *final-stage* twiddle: the fast path's first-twiddle
        // shortcuts (ω⁰ = 1 handled by conditional subtraction) never read
        // some earlier entries, and a poison must not be benign.
        let half = self.n / 2;
        let idx = (half - 1) + (h >> 32) as usize % half;
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
