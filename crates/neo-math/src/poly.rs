//! RNS polynomials in `Z_Q[X]/(X^N + 1)`.
//!
//! An [`RnsPoly`] stores one row of `N` coefficients per RNS limb (the
//! paper's "limb" = the residues of all coefficients modulo one prime).
//! The type is a plain data container: it does not own its basis, so the
//! moduli are passed to each operation by the managing context (`neo-ckks`'s
//! `CkksContext`). Operations assert limb-count agreement — between
//! operands and with the moduli — which catches level mismatches early.
//!
//! Limbs live in the [`LIMBS`] recycler: every constructor but
//! [`RnsPoly::from_limbs`] takes them from it, and dropping or truncating
//! a polynomial gives them back.

use crate::backend::{self, ComputeBackend};
use crate::recycle::LIMBS;
use crate::{signed_mod, MathError, Modulus};
use rand::Rng;

/// Which domain the coefficient data is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Plain coefficient representation.
    Coeff,
    /// Number-theoretic transform (evaluation) representation.
    Ntt,
}

/// A polynomial in RNS representation: `limbs[i][j]` is coefficient `j`
/// modulo prime `i`.
#[derive(Debug, PartialEq, Eq)]
pub struct RnsPoly {
    n: usize,
    domain: Domain,
    limbs: Vec<Vec<u64>>,
}

impl RnsPoly {
    /// The zero polynomial with `level + 1`-style limb count `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `k == 0`.
    pub fn zero(n: usize, k: usize, domain: Domain) -> Self {
        assert!(n.is_power_of_two(), "degree must be a power of two");
        assert!(k > 0, "need at least one limb");
        Self {
            n,
            domain,
            limbs: (0..k).map(|_| LIMBS.zeroed(n)).collect(),
        }
    }

    /// Builds a polynomial from centered signed coefficients, reducing into
    /// each modulus.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n` for a power-of-two `n`.
    pub fn from_signed(coeffs: &[i64], moduli: &[Modulus]) -> Self {
        assert!(coeffs.len().is_power_of_two());
        let limbs = moduli
            .iter()
            .map(|m| {
                let mut limb = LIMBS.take(coeffs.len());
                for (x, &c) in limb.iter_mut().zip(coeffs) {
                    *x = signed_mod(c, m.value());
                }
                limb
            })
            .collect();
        Self {
            n: coeffs.len(),
            domain: Domain::Coeff,
            limbs,
        }
    }

    /// Builds from raw limb data (already reduced).
    ///
    /// # Errors
    ///
    /// [`MathError::InvalidDegree`] if rows are ragged or not a power of two.
    pub fn from_limbs(limbs: Vec<Vec<u64>>, domain: Domain) -> Result<Self, MathError> {
        let n = limbs.first().map(|l| l.len()).unwrap_or(0);
        if !n.is_power_of_two() || n == 0 {
            return Err(MathError::InvalidDegree(n));
        }
        if limbs.iter().any(|l| l.len() != n) {
            return Err(MathError::InvalidDegree(n));
        }
        Ok(Self { n, domain, limbs })
    }

    /// Uniformly random polynomial (each limb uniform mod its prime).
    pub fn random_uniform<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        moduli: &[Modulus],
        domain: Domain,
    ) -> Self {
        let limbs = moduli
            .iter()
            .map(|m| {
                let mut limb = LIMBS.take(n);
                limb.fill_with(|| rng.gen_range(0..m.value()));
                limb
            })
            .collect();
        Self { n, domain, limbs }
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Number of limbs (current level + 1, possibly plus special limbs).
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// Current domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Marks the polynomial as being in `domain` (used by NTT drivers after
    /// transforming the data in place).
    pub fn set_domain(&mut self, domain: Domain) {
        self.domain = domain;
    }

    /// Read access to limb `i`.
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.limbs[i]
    }

    /// All limbs.
    pub fn limbs(&self) -> &[Vec<u64>] {
        &self.limbs
    }

    /// Mutable access to all limbs (parallel NTT drivers).
    pub fn limbs_mut(&mut self) -> &mut [Vec<u64>] {
        &mut self.limbs
    }

    /// Drops limbs after the first `k` (level reduction), giving them back
    /// to the recycler.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > limb_count()`.
    pub fn truncate_limbs(&mut self, k: usize) {
        assert!(k >= 1 && k <= self.limbs.len());
        LIMBS.give_all(self.limbs.drain(k..));
    }

    fn check_pair(&self, other: &Self) {
        assert_eq!(self.n, other.n, "degree mismatch");
        assert_eq!(self.limbs.len(), other.limbs.len(), "limb count mismatch");
        assert_eq!(self.domain, other.domain, "domain mismatch");
    }

    /// Limb-wise ops pair limb `i` with `moduli[i]`; a shorter list would
    /// silently leave the tail limbs untouched.
    fn check_moduli(&self, moduli: &[Modulus]) {
        assert_eq!(moduli.len(), self.limbs.len(), "moduli count mismatch");
    }

    /// `self += other` limb-wise.
    ///
    /// # Panics
    ///
    /// Panics on degree/limb/domain mismatch or when `moduli.len()`
    /// differs from the limb count.
    pub fn add_assign(&mut self, other: &Self, moduli: &[Modulus]) {
        self.check_pair(other);
        self.check_moduli(moduli);
        for ((a, b), m) in self.limbs.iter_mut().zip(&other.limbs).zip(moduli) {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = m.add(*x, y);
            }
        }
    }

    /// `self -= other` limb-wise.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RnsPoly::add_assign`].
    pub fn sub_assign(&mut self, other: &Self, moduli: &[Modulus]) {
        self.check_pair(other);
        self.check_moduli(moduli);
        for ((a, b), m) in self.limbs.iter_mut().zip(&other.limbs).zip(moduli) {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = m.sub(*x, y);
            }
        }
    }

    /// `self = -self` limb-wise.
    ///
    /// # Panics
    ///
    /// Panics when `moduli.len()` differs from the limb count.
    pub fn neg_assign(&mut self, moduli: &[Modulus]) {
        self.check_moduli(moduli);
        for (a, m) in self.limbs.iter_mut().zip(moduli) {
            for x in a.iter_mut() {
                *x = m.neg(*x);
            }
        }
    }

    /// Pointwise (Hadamard) product; both operands must be in NTT domain.
    /// Runs on the process-wide backend ([`backend::active`]); every
    /// backend gives the same result.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in the coefficient domain, on a shape
    /// mismatch, or when `moduli.len()` differs from the limb count.
    pub fn mul_pointwise_assign(&mut self, other: &Self, moduli: &[Modulus]) {
        assert_eq!(self.domain, Domain::Ntt, "pointwise mul needs NTT domain");
        self.check_pair(other);
        self.check_moduli(moduli);
        let be = backend::active();
        // `mul_acc` cannot write over its own input, so each product lands
        // in a scratch row that then swaps places with the limb.
        let mut prod = LIMBS.take(self.n);
        for ((limb, b), m) in self.limbs.iter_mut().zip(&other.limbs).zip(moduli) {
            be.mul_acc(m, &[limb], &[b], &mut prod);
            std::mem::swap(limb, &mut prod);
        }
        LIMBS.give(prod);
    }

    /// The fused inner product `Σ_j a_j * b_j` on `be`, pointwise (NTT
    /// domain): each coefficient one exact sum reduced once, one
    /// [`inner_product_row`] per limb.
    ///
    /// # Panics
    ///
    /// Panics when `terms` is empty, on domain or shape mismatch, or when
    /// `moduli.len()` differs from the limb count.
    pub fn inner_product(
        be: &dyn ComputeBackend,
        terms: &[(&Self, &Self)],
        moduli: &[Modulus],
    ) -> Self {
        let (first, _) = terms.first().expect("an inner product needs a term");
        assert_eq!(first.domain, Domain::Ntt, "multiply-add needs NTT domain");
        first.check_moduli(moduli);
        for (a, b) in terms {
            first.check_pair(a);
            a.check_pair(b);
        }
        let (mut a, mut b) = (
            Vec::with_capacity(terms.len()),
            Vec::with_capacity(terms.len()),
        );
        let limbs = moduli
            .iter()
            .enumerate()
            .map(|(i, m)| {
                a.clear();
                b.clear();
                a.extend(terms.iter().map(|(x, _)| x.limb(i)));
                b.extend(terms.iter().map(|(_, y)| y.limb(i)));
                inner_product_row(be, m, &a, &b)
            })
            .collect();
        Self {
            n: first.n,
            domain: Domain::Ntt,
            limbs,
        }
    }

    /// Multiplies limb `i` by the scalar `s[i]` (one scalar per limb), as
    /// one [`ComputeBackend::mul_const`] pass per limb on the
    /// process-wide backend.
    ///
    /// # Panics
    ///
    /// Panics if scalar, moduli and limb counts differ.
    pub fn mul_scalar_per_limb_assign(&mut self, s: &[u64], moduli: &[Modulus]) {
        assert_eq!(s.len(), self.limbs.len());
        self.check_moduli(moduli);
        let be = backend::active();
        // As in `mul_pointwise_assign`: each product lands in a scratch
        // row that then swaps places with the limb.
        let mut prod = LIMBS.take(self.n);
        for ((limb, &sc), m) in self.limbs.iter_mut().zip(s).zip(moduli) {
            be.mul_const(m, m.shoup(m.reduce(sc)), limb, &mut prod);
            std::mem::swap(limb, &mut prod);
        }
        LIMBS.give(prod);
    }

    /// Applies the Galois automorphism `X ↦ X^g` in the coefficient domain
    /// (the AUTO kernel). `g` must be odd so the map is a ring automorphism
    /// of `Z[X]/(X^N+1)`.
    ///
    /// # Panics
    ///
    /// Panics if called in NTT domain, `g` is even, or `moduli.len()`
    /// differs from the limb count.
    pub fn automorphism(&self, g: usize, moduli: &[Modulus]) -> Self {
        assert_eq!(
            self.domain,
            Domain::Coeff,
            "AUTO runs in coefficient domain"
        );
        assert_eq!(g % 2, 1, "automorphism index must be odd");
        self.check_moduli(moduli);
        let n = self.n;
        // X^j ↦ X^t with t = j·g mod 2N lands on index t mod N, negated
        // when t ≥ N (X^N = −1). The map is the same for every limb, so it
        // is built once: the index in the low bits, the sign in the top bit.
        let mut map = LIMBS.take(n);
        let mut t = 0usize;
        for e in &mut map {
            *e = (t & (n - 1)) as u64 | u64::from(t >= n) << 63;
            t = (t + g) & (2 * n - 1);
        }
        // Odd g makes the map a permutation: each destination is written
        // once, so the output rows need no zeroing.
        let limbs = self
            .limbs
            .iter()
            .zip(moduli)
            .map(|(src, m)| {
                let mut dst = LIMBS.take(n);
                for (&c, &e) in src.iter().zip(&map) {
                    let negate = (e >> 63).wrapping_neg();
                    dst[(e & !(1 << 63)) as usize] = (m.neg(c) & negate) | (c & !negate);
                }
                dst
            })
            .collect();
        LIMBS.give(map);
        Self {
            n,
            domain: Domain::Coeff,
            limbs,
        }
    }

    /// `self[k] += other[map[k]]` in every limb. With `map` from
    /// `neo_ntt::galois_permutation(n, g)` and both operands in the
    /// evaluation domain, this adds `σ_g(other)`: the automorphism is an
    /// index permutation of the bit-reversed evaluations.
    ///
    /// # Panics
    ///
    /// Panics on degree/limb/domain mismatch, when `map.len()` differs
    /// from the degree or holds an index out of range, or when
    /// `moduli.len()` differs from the limb count.
    pub fn add_permuted_assign(&mut self, other: &Self, map: &[u32], moduli: &[Modulus]) {
        self.check_pair(other);
        self.check_moduli(moduli);
        assert_eq!(map.len(), self.n, "map length mismatch");
        for ((a, b), m) in self.limbs.iter_mut().zip(&other.limbs).zip(moduli) {
            for (x, &i) in a.iter_mut().zip(map) {
                *x = m.add(*x, b[i as usize]);
            }
        }
    }

    /// `self[map[k]]` in every limb, on recycled rows written in full:
    /// `σ_g(self)` for an evaluation-domain `self` and the map of
    /// `neo_ntt::galois_permutation(n, g)`.
    ///
    /// # Panics
    ///
    /// Panics when `map.len()` differs from the degree or holds an index
    /// out of range.
    pub fn permuted(&self, map: &[u32]) -> Self {
        assert_eq!(map.len(), self.n, "map length mismatch");
        let limbs = self
            .limbs
            .iter()
            .map(|b| {
                let mut row = LIMBS.take(self.n);
                for (x, &i) in row.iter_mut().zip(map) {
                    *x = b[i as usize];
                }
                row
            })
            .collect();
        Self {
            n: self.n,
            domain: self.domain,
            limbs,
        }
    }

    /// Infinity norm of the centered lift, per limb 0 only (diagnostic aid
    /// for noise tracking in tests; meaningful when value fits one limb).
    pub fn centered_inf_norm_limb0(&self, m: &Modulus) -> u64 {
        self.limbs[0]
            .iter()
            .map(|&c| m.to_signed(c).unsigned_abs())
            .max()
            .unwrap_or(0)
    }
}

/// A recycled row holding `Σ_j a_j[c]·b_j[c] mod q`, as long as the
/// terms' rows: one [`ComputeBackend::mul_acc`] call, which writes every
/// element, so the row is taken from [`LIMBS`] without zeroing.
///
/// # Panics
///
/// Panics when `a` is empty.
pub fn inner_product_row(
    be: &dyn ComputeBackend,
    q: &Modulus,
    a: &[&[u64]],
    b: &[&[u64]],
) -> Vec<u64> {
    let len = a.first().expect("an inner product needs a term").len();
    let mut row = LIMBS.take(len);
    be.mul_acc(q, a, b, &mut row);
    row
}

/// A recycled row holding `Σ_i ys[i][c]·w[i] mod t`, as long as the
/// rows: one [`ComputeBackend::bconv_ip`] call, which writes every
/// element, so the row is taken from [`LIMBS`] without zeroing.
/// `y_bound` is the kernel's exclusive bound on every row element.
///
/// # Panics
///
/// Panics when `ys` is empty.
pub fn bconv_ip_row(
    be: &dyn ComputeBackend,
    t: &Modulus,
    ys: &[&[u64]],
    y_bound: u64,
    w: &[u64],
) -> Vec<u64> {
    let len = ys.first().expect("an inner product needs a row").len();
    let mut row = LIMBS.take(len);
    be.bconv_ip(t, ys, y_bound, w, &mut row);
    row
}

impl Clone for RnsPoly {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            domain: self.domain,
            limbs: self.limbs.iter().map(|l| LIMBS.copied(l)).collect(),
        }
    }
}

impl Drop for RnsPoly {
    fn drop(&mut self) {
        LIMBS.give_all(self.limbs.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes;

    fn moduli(k: usize) -> Vec<Modulus> {
        primes::ntt_primes(36, 1 << 4, k)
            .unwrap()
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect()
    }

    #[test]
    fn from_signed_centers() {
        let ms = moduli(2);
        let p = RnsPoly::from_signed(&[-1, 0, 5, -7], &ms);
        assert_eq!(p.limb(0)[0], ms[0].value() - 1);
        assert_eq!(p.limb(1)[3], ms[1].value() - 7);
        assert_eq!(p.domain(), Domain::Coeff);
    }

    #[test]
    fn add_sub_inverse() {
        let ms = moduli(2);
        let mut rng = rand::thread_rng();
        let a = RnsPoly::random_uniform(&mut rng, 16, &ms, Domain::Coeff);
        let b = RnsPoly::random_uniform(&mut rng, 16, &ms, Domain::Coeff);
        let mut c = a.clone();
        c.add_assign(&b, &ms);
        c.sub_assign(&b, &ms);
        assert_eq!(c, a);
    }

    #[test]
    fn neg_twice_is_identity() {
        let ms = moduli(3);
        let mut rng = rand::thread_rng();
        let a = RnsPoly::random_uniform(&mut rng, 8, &ms, Domain::Coeff);
        let mut b = a.clone();
        b.neg_assign(&ms);
        b.neg_assign(&ms);
        assert_eq!(a, b);
    }

    #[test]
    fn automorphism_identity_and_inverse() {
        let ms = moduli(2);
        let mut rng = rand::thread_rng();
        let a = RnsPoly::random_uniform(&mut rng, 16, &ms, Domain::Coeff);
        // g = 1 is identity.
        assert_eq!(a.automorphism(1, &ms), a);
        // g * g_inv = 1 mod 2N composes to identity.
        let g = 5usize;
        let two_n = 32usize;
        let mut g_inv = 1usize;
        while (g * g_inv) % two_n != 1 {
            g_inv += 2;
        }
        let b = a.automorphism(g, &ms).automorphism(g_inv, &ms);
        assert_eq!(b, a);
    }

    #[test]
    fn automorphism_negacyclic_sign() {
        // X -> X^3 on degree-4 ring: X^2 -> X^6 = -X^2.
        let ms = moduli(1);
        let p = RnsPoly::from_signed(&[0, 0, 1, 0], &ms);
        let q = p.automorphism(3, &ms);
        assert_eq!(q.limb(0)[2], ms[0].value() - 1);
    }

    #[test]
    fn permutes_read_through_the_map() {
        let ms = moduli(2);
        let mut rng = rand::thread_rng();
        let a = RnsPoly::random_uniform(&mut rng, 16, &ms, Domain::Ntt);
        let b = RnsPoly::random_uniform(&mut rng, 16, &ms, Domain::Ntt);
        let map: Vec<u32> = (0..16).map(|k| (k * 7 + 3) % 16).collect();
        let p = b.permuted(&map);
        let mut sum = a.clone();
        sum.add_permuted_assign(&b, &map, &ms);
        for (i, m) in ms.iter().enumerate() {
            for (k, &j) in map.iter().enumerate() {
                assert_eq!(p.limb(i)[k], b.limb(i)[j as usize]);
                assert_eq!(sum.limb(i)[k], m.add(a.limb(i)[k], b.limb(i)[j as usize]));
            }
        }
        assert_eq!(p.domain(), Domain::Ntt);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_map_index_past_the_row_panics() {
        let b = RnsPoly::zero(16, 1, Domain::Ntt);
        let mut map = vec![0u32; 16];
        map[5] = 16;
        b.permuted(&map);
    }

    #[test]
    #[should_panic(expected = "limb count mismatch")]
    fn mismatched_levels_panic() {
        let ms = moduli(2);
        let mut a = RnsPoly::zero(8, 2, Domain::Coeff);
        let b = RnsPoly::zero(8, 1, Domain::Coeff);
        a.add_assign(&b, &ms);
    }

    /// Every limb-wise op refuses a moduli list shorter than its limbs
    /// instead of leaving the tail limbs unprocessed.
    fn short_moduli_case(op: impl FnOnce(&mut RnsPoly, &RnsPoly, &[Modulus])) {
        let ms = moduli(2);
        let mut rng = rand::thread_rng();
        let mut a = RnsPoly::random_uniform(&mut rng, 8, &ms, Domain::Ntt);
        let b = RnsPoly::random_uniform(&mut rng, 8, &ms, Domain::Ntt);
        op(&mut a, &b, &ms[..1]);
    }

    #[test]
    #[should_panic(expected = "moduli count mismatch")]
    fn add_assign_rejects_short_moduli() {
        short_moduli_case(|a, b, ms| a.add_assign(b, ms));
    }

    #[test]
    #[should_panic(expected = "moduli count mismatch")]
    fn sub_assign_rejects_short_moduli() {
        short_moduli_case(|a, b, ms| a.sub_assign(b, ms));
    }

    #[test]
    #[should_panic(expected = "moduli count mismatch")]
    fn neg_assign_rejects_short_moduli() {
        short_moduli_case(|a, _, ms| a.neg_assign(ms));
    }

    #[test]
    #[should_panic(expected = "moduli count mismatch")]
    fn mul_pointwise_assign_rejects_short_moduli() {
        short_moduli_case(|a, b, ms| a.mul_pointwise_assign(b, ms));
    }

    #[test]
    #[should_panic(expected = "moduli count mismatch")]
    fn inner_product_rejects_short_moduli() {
        short_moduli_case(|_, b, ms| {
            RnsPoly::inner_product(backend::active(), &[(b, b)], ms);
        });
    }

    #[test]
    #[should_panic(expected = "moduli count mismatch")]
    fn mul_scalar_per_limb_assign_rejects_short_moduli() {
        short_moduli_case(|a, _, ms| a.mul_scalar_per_limb_assign(&[3, 5], ms));
    }

    #[test]
    #[should_panic(expected = "moduli count mismatch")]
    fn automorphism_rejects_short_moduli() {
        short_moduli_case(|a, _, ms| {
            a.set_domain(Domain::Coeff);
            a.automorphism(5, ms);
        });
    }

    // The recycler tests below each use a degree no other test in this
    // crate uses, so they own their shelf of the process-wide recycler.

    #[test]
    fn a_dropped_secret_is_taken_again_zeroed() {
        let n = 1 << 9;
        let ms = moduli(2);
        let secret: Vec<i64> = (0..n as i64).map(|i| i % 3 - 1).collect();
        let s = RnsPoly::from_signed(&secret, &ms);
        let addrs: Vec<*const u64> = s.limbs().iter().map(|l| l.as_ptr()).collect();
        drop(s);
        assert_eq!(LIMBS.counts(n).0, 2);
        let z = RnsPoly::zero(n, 2, Domain::Ntt);
        assert_eq!(LIMBS.counts(n).0, 0);
        for limb in z.limbs() {
            assert!(addrs.contains(&limb.as_ptr()), "not a recycled buffer");
            assert!(limb.iter().all(|&x| x == 0), "secret residue leaked");
        }
    }

    #[test]
    fn truncate_limbs_gives_the_dropped_limbs_back() {
        let n = 1 << 10;
        let mut p = RnsPoly::zero(n, 3, Domain::Coeff);
        p.truncate_limbs(1);
        assert_eq!(LIMBS.counts(n).0, 2);
        drop(p);
        assert_eq!(LIMBS.counts(n).0, 3);
    }

    /// The inner product equals its pointwise products summed, on limbs
    /// the recycler hands out unzeroed (a dropped polynomial's rows).
    #[test]
    fn inner_product_matches_manual_on_dirty_recycled_limbs() {
        let n = 1 << 12;
        let ms = moduli(2);
        let mut rng = rand::thread_rng();
        let a = RnsPoly::random_uniform(&mut rng, n, &ms, Domain::Ntt);
        let b = RnsPoly::random_uniform(&mut rng, n, &ms, Domain::Ntt);
        drop(RnsPoly::random_uniform(&mut rng, n, &ms, Domain::Ntt));
        let acc = RnsPoly::inner_product(backend::active(), &[(&a, &b), (&b, &a)], &ms);
        let mut manual = a.clone();
        manual.mul_pointwise_assign(&b, &ms);
        let twice = manual.clone();
        manual.add_assign(&twice, &ms);
        assert_eq!(acc, manual);
    }
}
