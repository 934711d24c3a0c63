//! The CKKS context: prime chains, samplers, the verified NTT driver, and
//! cached base-conversion tables.
//!
//! The context holds no NTT plans. Every transform fetches its per-limb
//! plans from the process-wide [`neo_ntt::cache`] at transform time, so
//! a quarantined and rebuilt plan reaches the next transform, key
//! generation and decryption included.

use crate::keyswitch::klss;
use crate::params::CkksParams;
use neo_error::NeoError;
use neo_math::recycle::LIMBS;
use neo_math::{
    backend, packed, primes, BconvTable, ComputeBackend, Domain, MathError, Modulus, PackedPoly,
    RnsBasis, RnsPoly,
};
use neo_ntt::{cache as ntt_cache, radix2};
use parking_lot::RwLock;
use rand::Rng;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache of BConv tables keyed by (source primes, destination primes).
type BconvMap = HashMap<(Vec<u64>, Vec<u64>), Arc<BconvTable>>;

/// The transform one limb runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LimbTransform {
    /// Coefficients to evaluations.
    Forward,
    /// Evaluations to coefficients, times a factor on top of `n⁻¹` (1
    /// for the plain inverse), applied in the same scale pass.
    Inverse(u64),
}

/// Everything derived from a [`CkksParams`]: the modulus chains
/// (`q_0..q_L`, special `p_0..p_{K-1}`, and the KLSS auxiliary
/// `t_0..t_{α'-1}`) and the BConv table cache. Transforms run through
/// [`Self::try_ntt_forward`]/[`Self::try_ntt_inverse`] on plans from the
/// process-wide [`neo_ntt::cache`].
pub struct CkksContext {
    params: CkksParams,
    q_primes: Vec<u64>,
    p_primes: Vec<u64>,
    t_primes: Vec<u64>,
    q_moduli: Vec<Modulus>,
    p_moduli: Vec<Modulus>,
    t_moduli: Vec<Modulus>,
    /// `P mod q_i`.
    p_mod_q: Vec<u64>,
    /// Per level, the KLSS inner products one Recover takes.
    klss_sum_limits: Vec<usize>,
    bconv_cache: RwLock<BconvMap>,
}

impl std::fmt::Debug for CkksContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkksContext")
            .field("n", &self.params.n())
            .field("levels", &self.q_primes.len())
            .field("special", &self.p_primes.len())
            .field("klss_limbs", &self.t_primes.len())
            .finish()
    }
}

impl CkksContext {
    /// Builds the context: generates the prime chains and builds each
    /// chain prime's NTT plan in the process-wide [`neo_ntt::cache`], so a
    /// prime without a plan fails here rather than at the first transform.
    ///
    /// # Errors
    ///
    /// Propagates prime-generation and plan-construction failures; also
    /// fails when a KLSS `WordSize_T` exceeds 61 bits (word-arithmetic
    /// limit of this implementation — e.g. Table 4 Set-D, which this
    /// reproduction supports in the performance model only).
    pub fn new(params: CkksParams) -> Result<Self, MathError> {
        params.validate()?;
        let n = params.n();
        let count = params.max_level + 1;
        let (q_primes, p_primes) =
            primes::ckks_prime_chain(params.word_size, params.word_size, n, count, params.special)?;
        let t_primes = if let Some(k) = params.klss {
            if k.word_size_t > 61 {
                return Err(MathError::InvalidModulus(1u64 << 62));
            }
            let alpha_p = params.alpha_prime();
            if k.word_size_t == params.word_size {
                // Must avoid colliding with q/p: draw a longer run and skip.
                let all = primes::ntt_primes(k.word_size_t, n, count + params.special + alpha_p)?;
                all[count + params.special..].to_vec()
            } else {
                primes::ntt_primes(k.word_size_t, n, alpha_p)?
            }
        } else {
            Vec::new()
        };
        let to_moduli = |ps: &[u64]| -> Result<Vec<Modulus>, MathError> {
            ps.iter().map(|&q| Modulus::new(q)).collect()
        };
        let q_moduli = to_moduli(&q_primes)?;
        let p_moduli = to_moduli(&p_primes)?;
        let t_moduli = to_moduli(&t_primes)?;
        for &q in q_primes.iter().chain(&p_primes).chain(&t_primes) {
            ntt_cache::get_or_build(q, n)?;
        }
        let mut p_mod_q = Vec::with_capacity(q_moduli.len());
        for m in &q_moduli {
            let mut acc = 1u64;
            for &p in &p_primes {
                acc = m.mul(acc, m.reduce(p));
            }
            p_mod_q.push(acc);
        }
        let klss_sum_limits = klss::sum_limits(&params, &q_primes, &p_primes, &t_primes);
        Ok(Self {
            params,
            q_primes,
            p_primes,
            t_primes,
            q_moduli,
            p_moduli,
            t_moduli,
            p_mod_q,
            klss_sum_limits,
            bconv_cache: RwLock::new(HashMap::new()),
        })
    }

    /// The static parameters.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The process-wide compute backend ([`backend::active`]), for the
    /// limb-wise kernels the context's callers run directly.
    pub fn backend(&self) -> &'static dyn ComputeBackend {
        backend::active()
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.params.n()
    }

    /// Data primes `q_0..q_L`.
    pub fn q_primes(&self) -> &[u64] {
        &self.q_primes
    }

    /// Special primes `p_0..p_{K-1}`.
    pub fn p_primes(&self) -> &[u64] {
        &self.p_primes
    }

    /// KLSS auxiliary primes `t_0..t_{α'-1}` (empty without KLSS).
    pub fn t_primes(&self) -> &[u64] {
        &self.t_primes
    }

    /// Data moduli up to level `l` inclusive.
    pub fn q_moduli(&self, level: usize) -> &[Modulus] {
        &self.q_moduli[..=level]
    }

    /// Special-prime moduli.
    pub fn p_moduli(&self) -> &[Modulus] {
        &self.p_moduli
    }

    /// KLSS auxiliary moduli.
    pub fn t_moduli(&self) -> &[Modulus] {
        &self.t_moduli
    }

    /// Concatenated `q_0..q_l, p_0..p_{K-1}` moduli (the `R_PQ` basis at
    /// level `l`).
    pub fn qp_moduli(&self, level: usize) -> Vec<Modulus> {
        let mut v = self.q_moduli[..=level].to_vec();
        v.extend_from_slice(&self.p_moduli);
        v
    }

    /// Concatenated `q` and `p` prime values at level `l`.
    pub fn qp_primes(&self, level: usize) -> Vec<u64> {
        let mut v = self.q_primes[..=level].to_vec();
        v.extend_from_slice(&self.p_primes);
        v
    }

    /// `P mod q_i`.
    pub fn p_mod_q(&self, i: usize) -> u64 {
        self.p_mod_q[i]
    }

    /// How many KLSS inner products one Recover takes at `level`: the
    /// largest `G` whose summed `|G_ĵ|` provably stays below `T/4`
    /// ([`crate::keyswitch::klss`]'s module docs), computed once per level
    /// from the exact prime products. 1 outside the chain or without KLSS.
    pub(crate) fn klss_sum_limit(&self, level: usize) -> usize {
        self.klss_sum_limits.get(level).copied().unwrap_or(1)
    }

    /// Forward NTT of every limb, with ABFT verification. Plans are
    /// fetched per limb from the process-wide [`neo_ntt::cache`] at
    /// transform time — so a quarantine/rebuild (or a fault-injected
    /// poisoning) of a cached plan is visible to the very next transform.
    /// When the active [`neo_fault::VerifyPolicy`] says a check is due,
    /// each limb's (input, output) pair is spot-checked via
    /// [`neo_ntt::spot_check_transform`], which also re-hashes a plan
    /// object against its build-time integrity token the first time a
    /// check uses it.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] (site `ntt_forward`) if the poly is
    /// already in NTT domain, its limb count differs from `moduli.len()`
    /// or its degree from the context's; [`NeoError::FaultDetected`]
    /// (site `ntt_forward` / `ntt_plan`) on a failed check;
    /// [`NeoError::Math`] if a plan cannot be built.
    pub fn try_ntt_forward(&self, poly: &mut RnsPoly, moduli: &[Modulus]) -> Result<(), NeoError> {
        self.transform(poly, moduli, true, &[], |_| ()).map(drop)
    }

    /// [`Self::try_ntt_forward`] into the packed form of a KLSS key: each
    /// limb is packed at [`packed::width`] bytes per residue by the task
    /// that transformed it, while the limb is still in that core's cache,
    /// and `poly`'s rows go back to the recycler.
    ///
    /// # Errors
    ///
    /// As [`Self::try_ntt_forward`].
    pub(crate) fn try_ntt_forward_packed(
        &self,
        mut poly: RnsPoly,
        moduli: &[Modulus],
    ) -> Result<PackedPoly, NeoError> {
        let width = packed::width(moduli);
        let rows = self.transform(&mut poly, moduli, true, &[], |limb| {
            packed::pack_row(limb, width)
        })?;
        Ok(PackedPoly::from_rows(rows, width))
    }

    /// Inverse NTT with ABFT verification; see [`Self::try_ntt_forward`].
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] (site `ntt_inverse`) if the poly is
    /// already in coefficient domain, its limb count differs from
    /// `moduli.len()` or its degree from the context's;
    /// [`NeoError::FaultDetected`] (site `ntt_inverse` / `ntt_plan`) on a
    /// failed check; [`NeoError::Math`] if a plan cannot be built.
    pub fn try_ntt_inverse(&self, poly: &mut RnsPoly, moduli: &[Modulus]) -> Result<(), NeoError> {
        self.transform(poly, moduli, false, &[], |_| ()).map(drop)
    }

    /// [`Self::try_ntt_inverse`] that also multiplies limb `i` by
    /// `factors[i]`, in the `n⁻¹` scale pass the inverse already makes;
    /// the spot check takes the factor into its identities.
    ///
    /// # Errors
    ///
    /// As [`Self::try_ntt_inverse`].
    pub(crate) fn try_ntt_inverse_scaled(
        &self,
        poly: &mut RnsPoly,
        moduli: &[Modulus],
        factors: &[u64],
    ) -> Result<(), NeoError> {
        assert_eq!(factors.len(), moduli.len(), "one factor per limb");
        self.transform(poly, moduli, false, factors, |_| ())
            .map(drop)
    }

    /// The one NTT driver behind [`Self::try_ntt_forward`] and the
    /// inverses: one verification draw for the whole polynomial, then
    /// [`Self::transform_limb`] on every limb (limb `i` of an inverse
    /// scaled by `factors[i]`, or by 1 when `factors` is empty), followed
    /// in the same task by `then` on the transformed limb; returns what
    /// `then` made of each limb. The domain is set only when every limb
    /// transformed and passed its check.
    fn transform<T: Send>(
        &self,
        poly: &mut RnsPoly,
        moduli: &[Modulus],
        forward: bool,
        factors: &[u64],
        then: impl Fn(&[u64]) -> T + Sync,
    ) -> Result<Vec<T>, NeoError> {
        let (site, from, to) = if forward {
            ("ntt_forward", Domain::Coeff, Domain::Ntt)
        } else {
            ("ntt_inverse", Domain::Ntt, Domain::Coeff)
        };
        self.check_transform(site, poly, moduli, from)?;
        let verify = neo_fault::verification_due();
        let limbs: Vec<Result<T, NeoError>> = poly
            .limbs_mut()
            .par_iter_mut()
            .zip(moduli.par_iter())
            .enumerate()
            .map(|(i, (limb, m))| {
                let kind = if forward {
                    LimbTransform::Forward
                } else {
                    LimbTransform::Inverse(factors.get(i).copied().unwrap_or(1))
                };
                self.transform_limb(limb, m, kind, verify)?;
                Ok(then(limb))
            })
            .collect();
        let limbs = limbs.into_iter().collect::<Result<Vec<T>, NeoError>>()?;
        poly.set_domain(to);
        Ok(limbs)
    }

    /// One limb's transform on the plan for `m`, fetched from the
    /// process-wide [`neo_ntt::cache`] now, and spot-checked when `verify`
    /// is set: the per-limb core of every transform the context runs, and
    /// of HMult's per-limb tensor.
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] (site `ntt_forward` / `ntt_inverse` /
    /// `ntt_plan`) on a failed check; [`NeoError::Math`] if the plan
    /// cannot be built.
    pub(crate) fn transform_limb(
        &self,
        limb: &mut [u64],
        m: &Modulus,
        kind: LimbTransform,
        verify: bool,
    ) -> Result<(), NeoError> {
        let plan = ntt_cache::get_or_build(m.value(), self.degree())?;
        let input = verify.then(|| LIMBS.copied(limb));
        let (forward, factor) = match kind {
            LimbTransform::Forward => {
                radix2::forward(&plan, limb);
                (true, 1)
            }
            LimbTransform::Inverse(factor) => {
                radix2::inverse_scaled(&plan, limb, factor);
                (false, factor)
            }
        };
        let Some(input) = input else {
            return Ok(());
        };
        let (coeffs, evals) = if forward {
            (&input[..], &limb[..])
        } else {
            (&limb[..], &input[..])
        };
        // Salt with the modulus: deterministic per limb, so a rayon
        // schedule cannot change which point is checked.
        let check = neo_ntt::spot_check_transform(&plan, coeffs, evals, m.value(), forward, factor);
        LIMBS.give(input);
        check
    }

    /// Refuses a transform input the context cannot run: a poly outside
    /// the `from` domain, a limb count other than `moduli.len()`, or a
    /// degree other than the context's.
    pub(crate) fn check_transform(
        &self,
        site: &'static str,
        poly: &RnsPoly,
        moduli: &[Modulus],
        from: Domain,
    ) -> Result<(), NeoError> {
        let (domain, limbs, n) = (poly.domain(), poly.limb_count(), poly.degree());
        let what = if domain != from {
            format!("input is in the {domain:?} domain, expected {from:?}")
        } else if limbs != moduli.len() {
            format!("{limbs} limbs for {} moduli", moduli.len())
        } else if n != self.degree() {
            format!("degree {n} for a degree-{} context", self.degree())
        } else {
            return Ok(());
        };
        Err(NeoError::parameter_mismatch(site, what))
    }

    /// Samples a ternary secret with values in `{-1, 0, 1}`.
    pub fn sample_ternary<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<i64> {
        (0..self.degree())
            .map(|_| rng.gen_range(-1i64..=1))
            .collect()
    }

    /// Samples a rounded Gaussian error vector (σ from the params,
    /// truncated at 6σ).
    pub fn sample_gaussian<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<i64> {
        let sigma = self.params.error_std;
        (0..self.degree())
            .map(|_| {
                // Box–Muller.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen::<f64>();
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (g * sigma).round().clamp(-6.0 * sigma, 6.0 * sigma) as i64
            })
            .collect()
    }

    /// Uniformly random polynomial over the given moduli (NTT domain —
    /// uniform in either domain, and keys are used in NTT form).
    ///
    /// Each limb is drawn in natural evaluation order (the `k`-th draw is
    /// the value at `ψ^{2k+1}`) and stored in the transforms'
    /// bit-reversed order, so a seed names the same polynomial whatever
    /// order the NTT emits.
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R, moduli: &[Modulus]) -> RnsPoly {
        let mut poly = RnsPoly::random_uniform(rng, self.degree(), moduli, Domain::Ntt);
        for limb in poly.limbs_mut() {
            neo_ntt::bit_reverse(limb);
        }
        poly
    }

    /// A cached base-conversion table between two prime lists.
    ///
    /// # Panics
    ///
    /// Panics if a basis cannot be constructed (shared primes etc. — a
    /// context-internal invariant violation).
    pub fn bconv_table(&self, src: &[u64], dst: &[u64]) -> Arc<BconvTable> {
        let key = (src.to_vec(), dst.to_vec());
        if let Some(t) = self.bconv_cache.read().get(&key) {
            return t.clone();
        }
        let src_basis = RnsBasis::new(src).expect("valid source basis");
        let dst_basis = RnsBasis::new(dst).expect("valid target basis");
        let table = Arc::new(BconvTable::new(&src_basis, &dst_basis).expect("coprime bases"));
        self.bconv_cache.write().insert(key, table.clone());
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CkksParams, ParamSet};

    #[test]
    fn builds_test_context() {
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        assert_eq!(ctx.q_primes().len(), 6);
        assert_eq!(ctx.p_primes().len(), 2);
        assert!(!ctx.t_primes().is_empty());
        // All primes distinct.
        let mut all: Vec<u64> = ctx
            .q_primes()
            .iter()
            .chain(ctx.p_primes())
            .chain(ctx.t_primes())
            .copied()
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn set_d_rejected_functionally() {
        // WordSize_T = 64 exceeds the 61-bit word arithmetic limit: the
        // performance model covers Set-D, the functional context does not.
        assert!(CkksContext::new(ParamSet::D.params()).is_err());
    }

    #[test]
    fn ntt_roundtrip_via_context() {
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let moduli = ctx.qp_moduli(2);
        let mut rng = rand::thread_rng();
        let mut poly = RnsPoly::random_uniform(&mut rng, ctx.degree(), &moduli, Domain::Coeff);
        let orig = poly.clone();
        ctx.try_ntt_forward(&mut poly, &moduli).unwrap();
        assert_ne!(poly, orig);
        ctx.try_ntt_inverse(&mut poly, &moduli).unwrap();
        assert_eq!(poly, orig);
    }

    #[test]
    fn p_mod_q_is_p_reduced() {
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let p = neo_math::BigUint::product(ctx.p_primes());
        for (i, m) in ctx.q_moduli(5).iter().enumerate() {
            assert_eq!(ctx.p_mod_q(i), p.rem_u64(m.value()));
        }
    }

    #[test]
    fn bconv_table_cache_hits() {
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let t1 = ctx.bconv_table(&ctx.q_primes()[..2], ctx.t_primes());
        let t2 = ctx.bconv_table(&ctx.q_primes()[..2], ctx.t_primes());
        assert!(Arc::ptr_eq(&t1, &t2));
    }

    #[test]
    fn gaussian_is_small_and_centered() {
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let mut rng = rand::thread_rng();
        let e = ctx.sample_gaussian(&mut rng);
        let max = e.iter().map(|v| v.abs()).max().unwrap();
        assert!(max <= (6.0 * 3.2) as i64);
        let mean: f64 = e.iter().map(|&v| v as f64).sum::<f64>() / e.len() as f64;
        assert!(mean.abs() < 1.5, "gaussian mean {mean} too far from 0");
    }
}
