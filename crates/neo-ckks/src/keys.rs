//! Key material: secret/public keys, Hybrid key-switching keys, and the
//! KLSS decomposed keys (Section 2.2).
//!
//! Key-switching keys are *level-specific* (the gadget factors involve
//! `Q_l`), so they are generated on demand per `(level, target)` and
//! cached in a [`KeyChest`]. A production library would pregenerate a
//! level-agnostic variant; for a reproduction, on-demand generation keeps
//! the algebra transparent and testable.

use crate::context::CkksContext;
use crate::params::KsMethod;
use neo_error::NeoError;
use neo_fault::splitmix64;
use neo_math::{Domain, Modulus, PackedPoly, RnsBasis, RnsPoly};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// A ternary secret key.
#[derive(Debug, Clone)]
pub struct SecretKey {
    coeffs: Vec<i64>,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, rng: &mut R) -> Self {
        Self {
            coeffs: ctx.sample_ternary(rng),
        }
    }

    /// Rehydrates a secret key from stored ternary coefficients (the
    /// persistent-store path). The caller is responsible for having
    /// integrity-checked the bytes; this only revalidates the ternary
    /// range so a corrupt-but-checksummed record cannot smuggle large
    /// coefficients into the noise analysis.
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if any coefficient is outside
    /// `{-1, 0, 1}`.
    pub fn from_coeffs(coeffs: Vec<i64>) -> Result<Self, NeoError> {
        if let Some(c) = coeffs.iter().find(|c| c.abs() > 1) {
            return Err(NeoError::fault_detected(
                "store_record",
                format!("secret-key coefficient {c} outside the ternary range"),
            ));
        }
        Ok(Self { coeffs })
    }

    /// The ternary coefficients.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// The secret as an NTT-domain polynomial over the given moduli.
    ///
    /// # Errors
    ///
    /// As [`CkksContext::try_ntt_forward`]: [`NeoError::FaultDetected`] on
    /// a failed transform check, [`NeoError::ParameterMismatch`] if the
    /// key's degree differs from the context's.
    pub fn poly_ntt(&self, ctx: &CkksContext, moduli: &[Modulus]) -> Result<RnsPoly, NeoError> {
        let mut s = RnsPoly::from_signed(&self.coeffs, moduli);
        ctx.try_ntt_forward(&mut s, moduli)?;
        Ok(s)
    }
}

/// A public encryption key `(p0, p1) = (-a·s + e, a)` over the full data
/// chain, stored in NTT domain.
#[derive(Debug, Clone)]
pub struct PublicKey {
    p0: RnsPoly,
    p1: RnsPoly,
}

impl PublicKey {
    /// Generates the public key for `sk`.
    ///
    /// # Errors
    ///
    /// As [`SecretKey::poly_ntt`]: a failed transform check surfaces as
    /// [`NeoError::FaultDetected`].
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        rng: &mut R,
    ) -> Result<Self, NeoError> {
        let moduli = ctx.q_moduli(ctx.params().max_level).to_vec();
        let s = sk.poly_ntt(ctx, &moduli)?;
        let a = ctx.sample_uniform(rng, &moduli);
        let mut e = RnsPoly::from_signed(&ctx.sample_gaussian(rng), &moduli);
        ctx.try_ntt_forward(&mut e, &moduli)?;
        let mut p0 = a.clone();
        p0.mul_pointwise_assign(&s, &moduli);
        p0.neg_assign(&moduli);
        p0.add_assign(&e, &moduli);
        Ok(Self { p0, p1: a })
    }

    /// `p0` truncated to `level + 1` limbs (NTT limbs are independent).
    pub fn p0_at(&self, level: usize) -> RnsPoly {
        let mut p = self.p0.clone();
        p.truncate_limbs(level + 1);
        p
    }

    /// `p1` truncated to `level + 1` limbs.
    pub fn p1_at(&self, level: usize) -> RnsPoly {
        let mut p = self.p1.clone();
        p.truncate_limbs(level + 1);
        p
    }
}

/// What a key-switching key re-encrypts under `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyTarget {
    /// `s²` — relinearization after HMULT.
    Relin,
    /// `τ_g(s)` for the Galois exponent `g` — HROTATE / conjugation.
    Galois(usize),
}

impl KeyTarget {
    /// Stable integer encoding for persistence: `0` is [`KeyTarget::Relin`],
    /// odd codes are [`KeyTarget::Galois`] with the exponent in the high
    /// bits. Even non-zero codes are unused (and rejected by
    /// [`KeyTarget::from_code`]) so a single flipped bit cannot silently
    /// turn one valid target into another of a different kind.
    pub fn code(self) -> u64 {
        match self {
            KeyTarget::Relin => 0,
            KeyTarget::Galois(g) => 1 | ((g as u64) << 1),
        }
    }

    /// Decodes [`KeyTarget::code`]; `None` for unused encodings.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(KeyTarget::Relin),
            c if c & 1 == 1 => Some(KeyTarget::Galois((c >> 1) as usize)),
            _ => None,
        }
    }
}

/// Human-readable form of a key target for error messages.
pub(crate) fn describe_target(target: KeyTarget) -> String {
    match target {
        KeyTarget::Relin => "relin".to_string(),
        KeyTarget::Galois(g) => format!("galois({g})"),
    }
}

/// A Hybrid key-switching key at one level: `β` digit keys over `R_PQ_l`
/// in NTT domain.
#[derive(Debug, Clone)]
pub struct HybridKey {
    /// `digits[j] = [evk_j0, evk_j1]`.
    pub digits: Vec<[RnsPoly; 2]>,
    /// The level this key was generated for.
    pub level: usize,
}

/// A KLSS key-switching key at one level: `β × β̃` digit keys over `R_T`
/// in NTT domain. (The gadget reconstitution factors `ẽ_ĵ` are 1 on each
/// digit's own limbs and 0 elsewhere, so no factor table is needed —
/// Recover Limbs writes each digit's limbs directly.)
///
/// The residues are stored at `⌈WordSize_T/8⌉` bytes each
/// ([`PackedPoly`]), not in `u64` words: the key is only ever read by the
/// switch's inner product, which streams the packed rows.
#[derive(Debug, Clone)]
pub struct KlssKey {
    /// `digits[j][ĵ] = [k0, k1]` over the `T` basis, NTT domain, packed.
    pub digits: Vec<Vec<[PackedPoly; 2]>>,
    /// The level this key was generated for.
    pub level: usize,
}

/// Gadget factors `g_j = D̂_j · [D̂_j⁻¹]_{D_j}` reduced mod every
/// evaluation limb, for digits given as ranges over `gadget_primes`.
///
/// A single formula covers all limbs: `g_j mod m = (D̂_j mod m) · (V mod m)`
/// with `V = [D̂_j⁻¹]_{D_j}` reconstructed exactly (CRT over the digit).
pub(crate) fn gadget_factors(
    gadget_primes: &[u64],
    ranges: &[Range<usize>],
    eval_moduli: &[Modulus],
) -> Vec<Vec<u64>> {
    ranges
        .iter()
        .map(|r| {
            let digit: Vec<u64> = gadget_primes[r.clone()].to_vec();
            let others: Vec<u64> = gadget_primes
                .iter()
                .enumerate()
                .filter(|(i, _)| !r.contains(i))
                .map(|(_, &p)| p)
                .collect();
            // V = [D̂_j⁻¹ mod D_j] via CRT over the digit primes.
            let digit_basis = RnsBasis::new(&digit).expect("digit basis");
            let residues: Vec<u64> = digit
                .iter()
                .map(|&d| {
                    let m = Modulus::new(d).expect("digit modulus");
                    let dhat = others.iter().fold(1u64, |acc, &p| m.mul(acc, m.reduce(p)));
                    m.inv(dhat).expect("coprime by construction")
                })
                .collect();
            let v = digit_basis.reconstruct(&residues);
            eval_moduli
                .iter()
                .map(|m| {
                    let dhat = others.iter().fold(1u64, |acc, &p| m.mul(acc, m.reduce(p)));
                    m.mul(dhat, v.rem_u64(m.value()))
                })
                .collect()
        })
        .collect()
}

/// The digit ranges of the ciphertext gadget at a level: `β` runs of `α`
/// over the `l+1` data limbs.
pub(crate) fn digit_ranges(alpha: usize, limbs: usize) -> Vec<Range<usize>> {
    (0..limbs.div_ceil(alpha))
        .map(|j| (j * alpha)..((j + 1) * alpha).min(limbs))
        .collect()
}

/// Salt separating the public `a`-part sampling stream from the error
/// stream, so `a`-parts can be regenerated without replaying error
/// sampling (the seed-compressed store path).
const A_STREAM_SALT: u64 = 0x517c_c1b7_2722_0a95;
/// Salt for the (secret) error sampling stream.
const E_STREAM_SALT: u64 = 0x2545_f491_4f6c_dd1d;

/// Holds the secret key and caches per-level key-switching material.
///
/// Every key-switching key is a *pure function* of
/// `(context, secret key, key_seed, level, target)`: each `(level,
/// target)` pair gets its own derived RNG streams (one for the public
/// `a`-parts, one for the errors), so generation order never changes the
/// material. This is what makes seed-compressed persistence possible —
/// a store can hold only the `b`-parts plus `key_seed` and regenerate the
/// `a`-parts bit-exactly, and a damaged record is always re-derivable
/// from seed while the secret key is alive.
pub struct KeyChest {
    ctx: Arc<CkksContext>,
    sk: SecretKey,
    key_seed: u64,
    hybrid: RwLock<HashMap<(usize, KeyTarget), Arc<HybridKey>>>,
    klss: RwLock<HashMap<(usize, KeyTarget), Arc<KlssKey>>>,
}

impl std::fmt::Debug for KeyChest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyChest").field("ctx", &self.ctx).finish()
    }
}

impl KeyChest {
    /// Wraps a secret key for on-demand evaluation-key generation.
    pub fn new(ctx: Arc<CkksContext>, sk: SecretKey, seed: u64) -> Self {
        Self {
            ctx,
            sk,
            key_seed: seed,
            hybrid: RwLock::new(HashMap::new()),
            klss: RwLock::new(HashMap::new()),
        }
    }

    /// The managed context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The secret key (tests and decryption).
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// The seed all per-key RNG streams derive from. A store persists
    /// this next to the `b`-parts; a chest rebuilt with the same seed
    /// (and secret key) regenerates every key bit-exactly.
    pub fn key_seed(&self) -> u64 {
        self.key_seed
    }

    /// The derived RNG for one `(level, target, stream)` triple.
    fn stream_rng(&self, level: usize, target: KeyTarget, salt: u64) -> StdRng {
        let mut z = self.key_seed ^ salt;
        z = splitmix64(z ^ (level as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = splitmix64(z ^ target.code().wrapping_mul(0xff51_afd7_ed55_8ccd));
        StdRng::seed_from_u64(z)
    }

    /// The key-switch target polynomial in NTT domain over `moduli`.
    fn target_poly(&self, target: KeyTarget, moduli: &[Modulus]) -> Result<RnsPoly, NeoError> {
        match target {
            KeyTarget::Relin => {
                let mut s = self.sk.poly_ntt(&self.ctx, moduli)?;
                let s2 = s.clone();
                s.mul_pointwise_assign(&s2, moduli);
                Ok(s)
            }
            KeyTarget::Galois(g) => {
                let s = RnsPoly::from_signed(self.sk.coeffs(), moduli);
                let mut rot = s.automorphism(g, moduli);
                self.ctx.try_ntt_forward(&mut rot, moduli)?;
                Ok(rot)
            }
        }
    }

    /// The Hybrid key for `(level, target)`, generated on first use. A key
    /// is cached only once its generation succeeded.
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if a transform of the generation fails
    /// its check.
    pub fn hybrid_key(&self, level: usize, target: KeyTarget) -> Result<Arc<HybridKey>, NeoError> {
        if let Some(k) = self.hybrid.read().get(&(level, target)) {
            return Ok(k.clone());
        }
        let key = Arc::new(HybridKey {
            digits: self.gen_digit_keys(level, target)?,
            level,
        });
        self.hybrid.write().insert((level, target), key.clone());
        Ok(key)
    }

    /// The KLSS key for `(level, target)`, generated on first use. A key
    /// is cached only once its generation succeeded.
    ///
    /// # Errors
    ///
    /// [`NeoError::KeySwitchKeyMissing`] if the parameter set has no KLSS
    /// configuration — the key cannot exist; [`NeoError::FaultDetected`]
    /// if a transform of the generation fails its check.
    pub fn klss_key(&self, level: usize, target: KeyTarget) -> Result<Arc<KlssKey>, NeoError> {
        if let Some(k) = self.klss.read().get(&(level, target)) {
            return Ok(k.clone());
        }
        let key = Arc::new(self.gen_klss(level, target)?);
        self.klss.write().insert((level, target), key.clone());
        Ok(key)
    }

    /// Whether the key for `(level, target)` is already in the cache for
    /// `method` — the lookup a strict key policy
    /// (`OpPolicy::require_warm_keys`) consults before refusing to
    /// generate on demand.
    pub fn has_key(&self, level: usize, target: KeyTarget, method: KsMethod) -> bool {
        match method {
            KsMethod::Hybrid => self.hybrid.read().contains_key(&(level, target)),
            KsMethod::Klss => self.klss.read().contains_key(&(level, target)),
        }
    }

    /// Generates (and caches) the key for `(level, target)` under
    /// `method`, so later lookups hit the cache even under a strict key
    /// policy.
    ///
    /// # Errors
    ///
    /// [`NeoError::KeySwitchKeyMissing`] if `method` is KLSS but the
    /// parameter set has no KLSS configuration; [`NeoError::FaultDetected`]
    /// if a transform of the generation fails its check.
    pub fn warm(&self, level: usize, target: KeyTarget, method: KsMethod) -> Result<(), NeoError> {
        match method {
            KsMethod::Hybrid => {
                self.hybrid_key(level, target)?;
            }
            KsMethod::Klss => {
                self.klss_key(level, target)?;
            }
        }
        Ok(())
    }

    /// Generates the raw digit key pairs `K_j` over `R_PQ_l` (NTT domain):
    /// `K_j0 + K_j1·s = e_j + P·g_j·target`.
    fn gen_digit_keys(
        &self,
        level: usize,
        target: KeyTarget,
    ) -> Result<Vec<[RnsPoly; 2]>, NeoError> {
        let ctx = &self.ctx;
        let qp = ctx.qp_moduli(level);
        let q_primes = &ctx.q_primes()[..=level];
        let alpha = ctx.params().alpha();
        let ranges = digit_ranges(alpha, level + 1);
        let g = gadget_factors(q_primes, &ranges, &qp);
        let s = self.sk.poly_ntt(ctx, &qp)?;
        let tgt = self.target_poly(target, &qp)?;
        let mut a_rng = self.stream_rng(level, target, A_STREAM_SALT);
        let mut e_rng = self.stream_rng(level, target, E_STREAM_SALT);
        ranges
            .iter()
            .enumerate()
            .map(|(j, _)| {
                let a = ctx.sample_uniform(&mut a_rng, &qp);
                let mut e = RnsPoly::from_signed(&ctx.sample_gaussian(&mut e_rng), &qp);
                ctx.try_ntt_forward(&mut e, &qp)?;
                // evk0 = -a*s + e + (P*g_j)·tgt
                let mut k0 = a.clone();
                k0.mul_pointwise_assign(&s, &qp);
                k0.neg_assign(&qp);
                k0.add_assign(&e, &qp);
                // P mod q_i for data limbs; P ≡ 0 mod p limbs.
                let scal: Vec<u64> = qp
                    .iter()
                    .enumerate()
                    .map(|(i, m)| {
                        let p_mod = if i <= level { ctx.p_mod_q(i) } else { 0 };
                        m.mul(p_mod, g[j][i])
                    })
                    .collect();
                let mut pg_tgt = tgt.clone();
                pg_tgt.mul_scalar_per_limb_assign(&scal, &qp);
                k0.add_assign(&pg_tgt, &qp);
                Ok([k0, a])
            })
            .collect()
    }

    fn gen_klss(&self, level: usize, target: KeyTarget) -> Result<KlssKey, NeoError> {
        let raw = self.gen_digit_keys(level, target)?;
        self.klss_from_raw(level, target, raw)
    }

    /// Decomposes raw digit key pairs (NTT domain over `R_PQ_l`) into the
    /// KLSS `β × β̃` form — shared by on-demand generation and
    /// rebuild-from-store.
    fn klss_from_raw(
        &self,
        level: usize,
        target: KeyTarget,
        mut raw: Vec<[RnsPoly; 2]>,
    ) -> Result<KlssKey, NeoError> {
        let ctx = &self.ctx;
        let params = ctx.params();
        let kcfg = params.klss.ok_or_else(|| {
            NeoError::key_missing(
                level,
                describe_target(target),
                "parameter set has no KLSS configuration",
            )
        })?;
        let qp = ctx.qp_moduli(level);
        let qp_primes = ctx.qp_primes(level);
        let t_primes = ctx.t_primes().to_vec();
        let t_moduli = ctx.t_moduli().to_vec();
        // Raw digit keys, moved to coefficient domain for decomposition.
        for k in raw.iter_mut().flatten() {
            ctx.try_ntt_inverse(k, &qp)?;
        }
        // Key digits: α̃-limb runs over the full qp chain. Each limb is
        // packed by the task that transforms it, and its `u64` rows go back
        // to the recycler for the next, so no whole `u64` key ever exists.
        let key_ranges = digit_ranges(kcfg.alpha_tilde, level + 1 + params.special);
        let digits = raw
            .iter()
            .map(|pair| {
                key_ranges
                    .iter()
                    .map(|r| {
                        let table = ctx.bconv_table(&qp_primes[r.clone()], &t_primes);
                        let [k0, k1] = pair.each_ref().map(|k| {
                            let conv = table.convert_exact(&k.limbs()[r.clone()]);
                            let p = RnsPoly::from_limbs(conv, Domain::Coeff)?;
                            ctx.try_ntt_forward_packed(p, &t_moduli)
                        });
                        Ok([k0?, k1?])
                    })
                    .collect()
            })
            .collect::<Result<_, NeoError>>()?;
        Ok(KlssKey { digits, level })
    }

    /// Drops cached keys for one method (memory control in long runs).
    pub fn clear_cache(&self, method: KsMethod) {
        match method {
            KsMethod::Hybrid => self.hybrid.write().clear(),
            KsMethod::Klss => self.klss.write().clear(),
        }
    }

    /// The `(level, target)` pairs currently cached for `method` — what a
    /// persistence layer enumerates when flushing warm keys to disk.
    pub fn cached_keys(&self, method: KsMethod) -> Vec<(usize, KeyTarget)> {
        let mut keys: Vec<_> = match method {
            KsMethod::Hybrid => self.hybrid.read().keys().copied().collect(),
            KsMethod::Klss => self.klss.read().keys().copied().collect(),
        };
        keys.sort_by_key(|&(level, target)| (level, target.code()));
        keys
    }

    /// Regenerates the public `a`-parts for `(level, target)` from the
    /// chest's seed alone — the other half of a seed-compressed KSK
    /// record. Bit-exact across processes: the `a`-stream is derived per
    /// `(key_seed, level, target)` and never consumed by anything else.
    pub fn regen_a_parts(&self, level: usize, target: KeyTarget) -> Vec<RnsPoly> {
        let ctx = &self.ctx;
        let qp = ctx.qp_moduli(level);
        let beta = digit_ranges(ctx.params().alpha(), level + 1).len();
        let mut a_rng = self.stream_rng(level, target, A_STREAM_SALT);
        (0..beta)
            .map(|_| ctx.sample_uniform(&mut a_rng, &qp))
            .collect()
    }

    /// The `b`-parts (`evk_j0`) of the raw digit keys for
    /// `(level, target)` — the only polynomials a seed-compressed store
    /// record has to persist. Served from the hybrid cache when warm;
    /// regenerated deterministically otherwise (KLSS keys cache only the
    /// decomposed form, so their raw `b`-parts are always regenerated).
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if a transform of the regeneration
    /// fails its check.
    pub fn export_b_parts(
        &self,
        level: usize,
        target: KeyTarget,
    ) -> Result<Vec<RnsPoly>, NeoError> {
        if let Some(k) = self.hybrid.read().get(&(level, target)) {
            return Ok(k.digits.iter().map(|pair| pair[0].clone()).collect());
        }
        Ok(self
            .gen_digit_keys(level, target)?
            .into_iter()
            .map(|[k0, _]| k0)
            .collect())
    }

    /// Validates stored `b`-parts against the shape the context demands
    /// for `(level, target)`.
    fn check_b_parts(
        &self,
        level: usize,
        target: KeyTarget,
        b_parts: &[RnsPoly],
    ) -> Result<(), NeoError> {
        let ctx = &self.ctx;
        let qp = ctx.qp_moduli(level);
        let beta = digit_ranges(ctx.params().alpha(), level + 1).len();
        if b_parts.len() != beta {
            return Err(NeoError::fault_detected(
                "store_record",
                format!(
                    "{} level-{level} record has {} digits, context demands {beta}",
                    describe_target(target),
                    b_parts.len()
                ),
            ));
        }
        for (j, b) in b_parts.iter().enumerate() {
            if b.limb_count() != qp.len() || b.degree() != ctx.degree() || b.domain() != Domain::Ntt
            {
                return Err(NeoError::fault_detected(
                    "store_record",
                    format!(
                        "{} level-{level} digit {j}: {} limbs of degree {} in {:?} domain, \
                         context demands {} limbs of degree {} in Ntt domain",
                        describe_target(target),
                        b.limb_count(),
                        b.degree(),
                        b.domain(),
                        qp.len(),
                        ctx.degree()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Rebuilds and caches the Hybrid key for `(level, target)` from
    /// stored `b`-parts, regenerating the `a`-parts from seed — the
    /// warm-start path that skips the secret-key multiplications of full
    /// generation.
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if the `b`-parts do not match the
    /// shape the context demands (a damaged or foreign record).
    pub fn rebuild_hybrid(
        &self,
        level: usize,
        target: KeyTarget,
        b_parts: Vec<RnsPoly>,
    ) -> Result<Arc<HybridKey>, NeoError> {
        self.check_b_parts(level, target, &b_parts)?;
        let digits = b_parts
            .into_iter()
            .zip(self.regen_a_parts(level, target))
            .map(|(k0, a)| [k0, a])
            .collect();
        let key = Arc::new(HybridKey { digits, level });
        self.hybrid.write().insert((level, target), key.clone());
        Ok(key)
    }

    /// Rebuilds and caches the KLSS key for `(level, target)` from stored
    /// raw `b`-parts: regenerates the `a`-parts from seed, then reruns
    /// the `β × β̃` decomposition.
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] on a shape mismatch or a failed
    /// transform check; [`NeoError::KeySwitchKeyMissing`] if the parameter
    /// set has no KLSS configuration.
    pub fn rebuild_klss(
        &self,
        level: usize,
        target: KeyTarget,
        b_parts: Vec<RnsPoly>,
    ) -> Result<Arc<KlssKey>, NeoError> {
        self.check_b_parts(level, target, &b_parts)?;
        let raw: Vec<[RnsPoly; 2]> = b_parts
            .into_iter()
            .zip(self.regen_a_parts(level, target))
            .map(|(k0, a)| [k0, a])
            .collect();
        let key = Arc::new(self.klss_from_raw(level, target, raw)?);
        self.klss.write().insert((level, target), key.clone());
        Ok(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn chest() -> KeyChest {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&ctx, &mut rng);
        KeyChest::new(ctx, sk, 2)
    }

    #[test]
    fn gadget_identity_reconstructs() {
        // sum_j [x]_{D_j} * g_j ≡ x (mod Q) for the digit decomposition.
        let chest = chest();
        let ctx = chest.context();
        let level = 5;
        let q_primes = &ctx.q_primes()[..=level];
        let moduli = ctx.q_moduli(level).to_vec();
        let ranges = digit_ranges(ctx.params().alpha(), level + 1);
        let g = gadget_factors(q_primes, &ranges, &moduli);
        // Pick x via residues of a moderate integer.
        let x: Vec<u64> = moduli.iter().map(|m| m.reduce(0xDEAD_BEEF_CAFE)).collect();
        for (i, m) in moduli.iter().enumerate() {
            let mut acc = 0u64;
            for (j, r) in ranges.iter().enumerate() {
                // Digit value mod q_i: [x]_{D_j} ≡ x mod q_i only if i in digit;
                // reconstruct digit integer and reduce.
                let digit_primes: Vec<u64> = q_primes[r.clone()].to_vec();
                let digit_basis = RnsBasis::new(&digit_primes).unwrap();
                let digit_res: Vec<u64> = r
                    .clone()
                    .map(|t| Modulus::new(q_primes[t]).unwrap().reduce(0xDEAD_BEEF_CAFE))
                    .collect();
                let digit_val = digit_basis.reconstruct(&digit_res);
                acc = m.add(acc, m.mul(m.reduce(digit_val.rem_u64(m.value())), g[j][i]));
            }
            assert_eq!(acc, x[i], "limb {i}");
        }
    }

    #[test]
    fn hybrid_key_phase_identity() {
        // evk_j0 + evk_j1 * s = e_j + P*g_j*s^2 — check smallness after
        // subtracting the structured part is impossible without e_j, but we
        // can check the *digit-0 own-limb* structure: on limb 0 (inside
        // digit 0) g_0 = 1, so phase ≈ P*s² + e.
        let chest = chest();
        let ctx = chest.context();
        let level = 3;
        let key = chest.hybrid_key(level, KeyTarget::Relin).unwrap();
        assert_eq!(key.digits.len(), ctx.params().beta(level));
        let qp = ctx.qp_moduli(level);
        let s = chest.secret_key().poly_ntt(ctx, &qp).unwrap();
        let mut s2 = s.clone();
        s2.mul_pointwise_assign(&s, &qp);
        // phase = k0 + k1*s
        let mut phase = key.digits[0][1].clone();
        phase.mul_pointwise_assign(&s, &qp);
        phase.add_assign(&key.digits[0][0], &qp);
        // subtract P*g_0*s² on limb 0: g_0 = 1 there.
        let scal: Vec<u64> = qp
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { ctx.p_mod_q(0) } else { 0 })
            .collect();
        let mut ps2 = s2.clone();
        ps2.mul_scalar_per_limb_assign(&scal, &qp);
        phase.sub_assign(&ps2, &qp);
        ctx.try_ntt_inverse(&mut phase, &qp).unwrap();
        // Limb 0 should now hold just the error e_0 (small).
        let norm = phase.centered_inf_norm_limb0(&qp[0]);
        assert!(norm < 64, "residual error too large: {norm}");
    }

    #[test]
    fn klss_key_shapes() {
        let chest = chest();
        let ctx = chest.context();
        let level = 4;
        let key = chest.klss_key(level, KeyTarget::Relin).unwrap();
        let p = ctx.params();
        assert_eq!(key.digits.len(), p.beta(level));
        assert_eq!(key.digits[0].len(), p.beta_tilde(level));
        assert_eq!(key.digits[0][0][0].limb_count(), p.alpha_prime());
    }

    /// A cached KLSS key holds exactly `β·β̃·2·α'·N·⌈WordSize_T/8⌉` bytes
    /// of residues at 36-, 48- and 60-bit `T` primes (5, 6 and 8 bytes
    /// per word), so it cannot silently return to `u64` rows.
    #[test]
    fn klss_keys_store_words_at_the_t_word_size() {
        for (word_size_t, width) in [(36u32, 5usize), (48, 6), (60, 8)] {
            let mut params = CkksParams::test_tiny();
            params.klss = Some(crate::params::KlssConfig {
                word_size_t,
                alpha_tilde: 2,
            });
            let ctx = Arc::new(CkksContext::new(params).unwrap());
            let sk = SecretKey::generate(&ctx, &mut StdRng::seed_from_u64(3));
            let chest = KeyChest::new(ctx.clone(), sk, 4);
            let p = ctx.params();
            let level = p.max_level;
            let key = chest.klss_key(level, KeyTarget::Relin).unwrap();
            let bytes: usize = key
                .digits
                .iter()
                .flatten()
                .flatten()
                .map(|k| (0..k.limb_count()).map(|i| k.row(i).len()).sum::<usize>())
                .sum();
            let words = p.beta(level) * p.beta_tilde(level) * 2 * p.alpha_prime() * ctx.degree();
            assert_eq!(bytes, words * width, "WordSize_T = {word_size_t}");
        }
    }

    #[test]
    fn key_target_code_roundtrips() {
        for t in [KeyTarget::Relin, KeyTarget::Galois(5), KeyTarget::Galois(0)] {
            assert_eq!(KeyTarget::from_code(t.code()), Some(t));
        }
        assert_eq!(KeyTarget::from_code(2), None, "even non-zero is unused");
    }

    #[test]
    fn key_generation_is_order_independent() {
        // Each (level, target) has its own derived stream: generating keys
        // in different orders yields bit-identical material.
        let a = chest();
        let b = chest();
        let ka2 = a.hybrid_key(2, KeyTarget::Relin).unwrap();
        let ka3 = a.hybrid_key(3, KeyTarget::Galois(5)).unwrap();
        let kb3 = b.hybrid_key(3, KeyTarget::Galois(5)).unwrap();
        let kb2 = b.hybrid_key(2, KeyTarget::Relin).unwrap();
        assert_eq!(ka2.digits, kb2.digits);
        assert_eq!(ka3.digits, kb3.digits);
    }

    #[test]
    fn rebuild_hybrid_from_b_parts_is_bit_identical() {
        let cold = chest();
        let full = cold.hybrid_key(3, KeyTarget::Relin).unwrap();
        let b_parts = cold.export_b_parts(3, KeyTarget::Relin).unwrap();
        // A fresh chest (same sk + seed) rebuilds from b-parts alone.
        let warm = chest();
        let rebuilt = warm.rebuild_hybrid(3, KeyTarget::Relin, b_parts).unwrap();
        assert_eq!(full.digits, rebuilt.digits);
        // And the rebuilt key is served from the cache afterwards.
        assert!(warm.has_key(3, KeyTarget::Relin, KsMethod::Hybrid));
    }

    #[test]
    fn rebuild_klss_from_b_parts_is_bit_identical() {
        let cold = chest();
        let full = cold.klss_key(2, KeyTarget::Relin).unwrap();
        let b_parts = cold.export_b_parts(2, KeyTarget::Relin).unwrap();
        let warm = chest();
        let rebuilt = warm.rebuild_klss(2, KeyTarget::Relin, b_parts).unwrap();
        assert_eq!(full.digits, rebuilt.digits);
    }

    #[test]
    fn rebuild_rejects_misshapen_b_parts() {
        let c = chest();
        let mut b_parts = c.export_b_parts(2, KeyTarget::Relin).unwrap();
        b_parts.pop();
        let err = c.rebuild_hybrid(2, KeyTarget::Relin, b_parts).unwrap_err();
        assert!(
            format!("{err}").contains("digits"),
            "typed shape error: {err}"
        );
    }

    #[test]
    fn cached_keys_enumerates_in_stable_order() {
        let c = chest();
        c.hybrid_key(3, KeyTarget::Galois(5)).unwrap();
        c.hybrid_key(2, KeyTarget::Relin).unwrap();
        c.hybrid_key(3, KeyTarget::Relin).unwrap();
        assert_eq!(
            c.cached_keys(KsMethod::Hybrid),
            vec![
                (2, KeyTarget::Relin),
                (3, KeyTarget::Relin),
                (3, KeyTarget::Galois(5)),
            ]
        );
        assert!(c.cached_keys(KsMethod::Klss).is_empty());
    }

    #[test]
    fn key_cache_returns_same_arc() {
        let chest = chest();
        let a = chest.hybrid_key(2, KeyTarget::Relin).unwrap();
        let b = chest.hybrid_key(2, KeyTarget::Relin).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        chest.clear_cache(KsMethod::Hybrid);
        let c = chest.hybrid_key(2, KeyTarget::Relin).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
