//! [`FheEngine`] — a session-style facade over the CKKS stack.
//!
//! The engine bundles the pieces a caller otherwise wires by hand
//! ([`CkksContext`], [`KeyChest`], [`Encoder`]) behind one object whose
//! every operation returns [`Result<_, NeoError>`], and applies an
//! [`OpPolicy`] of runtime guardrails: automatic level alignment,
//! optional automatic rescaling after multiplications, a noise-budget
//! floor below which operations are refused with a structured error, and
//! an optional requirement that key-switching keys be pre-warmed.

use crate::batch::BatchProgram;
use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::encoding::{Complex64, Encoder};
use crate::keys::{describe_target, KeyChest, KeyTarget, PublicKey, SecretKey};
use crate::linear::LinearTransform;
use crate::params::{CkksParams, KsMethod};
use crate::{linear, ops};
use neo_error::NeoError;
use neo_fault::{VerifyPolicy, VerifyScope};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::sync::Arc;

/// Runtime guardrails applied by [`FheEngine`] before each operation.
#[derive(Debug, Clone, Copy)]
pub struct OpPolicy {
    /// Rescale automatically after scale-growing multiplications
    /// (`hmult`, `pmult`), keeping working scale near Δ.
    pub auto_rescale: bool,
    /// When binary operands sit at different levels, level-reduce the
    /// higher one instead of returning [`NeoError::LevelMismatch`].
    pub auto_align_levels: bool,
    /// Refuse any scale-growing operation whose *result* would have less
    /// than this many bits of noise budget, with
    /// [`NeoError::NoiseBudgetExhausted`].
    pub min_noise_budget_bits: f64,
    /// Refuse key-switching operations whose key is not already cached in
    /// the chest (instead of generating it on demand), with
    /// [`NeoError::KeySwitchKeyMissing`]. Useful to catch missed warm-up
    /// in latency-sensitive paths.
    pub require_warm_keys: bool,
    /// ABFT verification of NTT kernel outputs inside this engine's
    /// operations: [`VerifyPolicy::Off`] (default, zero overhead),
    /// `Sampled(n)` (one transform in `n` is spot-checked), or `Always`.
    /// A failed check surfaces as [`NeoError::FaultDetected`] instead of
    /// a silently wrong ciphertext; the checks' FLOP/byte overhead is
    /// tallied under the `abft_*` work counters.
    pub verify: VerifyPolicy,
}

impl Default for OpPolicy {
    fn default() -> Self {
        Self {
            auto_rescale: false,
            auto_align_levels: true,
            min_noise_budget_bits: 0.0,
            require_warm_keys: false,
            verify: VerifyPolicy::Off,
        }
    }
}

/// A CKKS session: context + keys + encoder + policy, with a fallible API.
///
/// ```
/// use neo_ckks::{CkksParams, FheEngine};
///
/// let engine = FheEngine::new(CkksParams::test_tiny(), 7)?;
/// let xs = vec![1.5, -0.25, 3.0];
/// let ct_a = engine.encrypt_f64(&xs, engine.max_level())?;
/// let ct_b = engine.encrypt_f64(&xs, engine.max_level())?;
/// let sum = engine.hadd(&ct_a, &ct_b)?;
/// let out = engine.decrypt_f64(&sum)?;
/// assert!((out[0] - 3.0).abs() < 1e-3);
/// # Ok::<(), neo_ckks::NeoError>(())
/// ```
pub struct FheEngine {
    chest: KeyChest,
    encoder: Encoder,
    pk: PublicKey,
    policy: OpPolicy,
    rng: Mutex<StdRng>,
}

impl FheEngine {
    /// Builds a full session from parameters: context, secret/public keys,
    /// key chest and encoder, all seeded deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// [`NeoError::Math`] if the parameters fail validation or prime
    /// generation; as [`Self::with_context`] for the keys.
    pub fn new(params: CkksParams, seed: u64) -> Result<Self, NeoError> {
        let ctx = Arc::new(CkksContext::new(params)?);
        Self::with_context(ctx, seed)
    }

    /// Builds a session over an *existing* context: fresh secret/public
    /// keys and key chest seeded from `seed`, but the context — prime
    /// chains and BConv tables — shared with every other session built
    /// from the same `Arc` (NTT plans live in the process-wide
    /// [`neo_ntt::cache`]). This is the multi-tenant seam: a serving layer
    /// gives each tenant its own keys and policy while thousands of
    /// tenants share one parameter set's tables.
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if a transform of the public-key
    /// generation fails its check.
    pub fn with_context(ctx: Arc<CkksContext>, seed: u64) -> Result<Self, NeoError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        Self::build(ctx, sk, rng, seed)
    }

    /// Builds a session over an existing context from a *rehydrated*
    /// secret key — the warm-start seam for a persistent store. Given the
    /// same `seed` the original session was built with, the derived
    /// public key and every key-switching key are bit-identical to that
    /// session's, so ciphertexts and seed-compressed KSK records written
    /// before a restart remain valid after it.
    ///
    /// # Errors
    ///
    /// As [`Self::with_context`].
    pub fn with_secret_key(
        ctx: Arc<CkksContext>,
        sk: SecretKey,
        seed: u64,
    ) -> Result<Self, NeoError> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Burn the draws `with_context` spends sampling the secret key, so
        // the public key (and everything after) replays bit-exactly.
        let _ = ctx.sample_ternary(&mut rng);
        Self::build(ctx, sk, rng, seed)
    }

    /// The one constructor body: `rng` is the session stream seeded from
    /// `seed`, positioned after the secret key's draws.
    fn build(
        ctx: Arc<CkksContext>,
        sk: SecretKey,
        mut rng: StdRng,
        seed: u64,
    ) -> Result<Self, NeoError> {
        let pk = PublicKey::generate(&ctx, &sk, &mut rng)?;
        Ok(Self {
            encoder: Encoder::new(ctx.degree()),
            chest: KeyChest::new(ctx, sk, seed.wrapping_mul(0x9e37_79b9).wrapping_add(1)),
            pk,
            policy: OpPolicy::default(),
            rng: Mutex::new(rng),
        })
    }

    /// Pre-generates every key-switching key `prog` will need at
    /// `input_level`, in deterministic issue order (see
    /// [`BatchProgram::warm_keys`]) — the warm-up a serving layer runs at
    /// admission time so execution never generates keys mid-batch.
    ///
    /// # Errors
    ///
    /// As [`KeyChest::warm`]: [`NeoError::KeySwitchKeyMissing`] if a key
    /// cannot exist, [`NeoError::FaultDetected`] if its generation fails a
    /// transform check.
    pub fn warm_program(&self, prog: &BatchProgram, input_level: usize) -> Result<(), NeoError> {
        prog.warm_keys(&self.chest, input_level, self.method())
    }

    /// Overrides the guardrail policy.
    pub fn with_policy(mut self, policy: OpPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The underlying context.
    pub fn context(&self) -> &Arc<CkksContext> {
        self.chest.context()
    }

    /// The key chest (exposed for warm-up and the batch executor).
    pub fn chest(&self) -> &KeyChest {
        &self.chest
    }

    /// The slot encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The session's key-switching method, its parameters' own
    /// ([`CkksParams::method`]): to run the other one, build the
    /// session from parameters that select it.
    pub fn method(&self) -> KsMethod {
        self.context().params().method()
    }

    /// The active guardrail policy.
    pub fn policy(&self) -> OpPolicy {
        self.policy
    }

    /// Replaces the guardrail policy in place.
    pub fn set_policy(&mut self, policy: OpPolicy) {
        self.policy = policy;
    }

    /// Top of the modulus chain.
    pub fn max_level(&self) -> usize {
        self.context().params().max_level
    }

    /// The default working scale Δ = 2^scale_bits.
    pub fn default_scale(&self) -> f64 {
        (2.0f64).powi(self.context().params().scale_bits as i32)
    }

    /// Slot count (`N/2`).
    pub fn slots(&self) -> usize {
        self.encoder.slots()
    }

    /// Remaining noise budget of `ct` in bits (no secret key required).
    pub fn noise_budget_bits(&self, ct: &Ciphertext) -> f64 {
        ops::noise_budget_bits(self.context(), ct)
    }

    // --- Encoding / encryption ---

    /// Encodes complex slots at `level` with the default scale.
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if more than [`Self::slots`] values are
    /// supplied; [`NeoError::ParameterMismatch`] if `level` is outside the
    /// chain.
    pub fn encode(&self, values: &[Complex64], level: usize) -> Result<Plaintext, NeoError> {
        self.check_level("encode", level)?;
        if values.len() > self.slots() {
            return Err(NeoError::invalid_params(format!(
                "{} values exceed the {} available slots",
                values.len(),
                self.slots()
            )));
        }
        Ok(self
            .encoder
            .encode(self.context(), values, self.default_scale(), level))
    }

    /// Encodes real values at `level` with the default scale.
    ///
    /// # Errors
    ///
    /// As [`Self::encode`].
    pub fn encode_f64(&self, values: &[f64], level: usize) -> Result<Plaintext, NeoError> {
        let vals: Vec<Complex64> = values.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        self.encode(&vals, level)
    }

    /// Decodes a plaintext back into complex slots.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] if the plaintext is in NTT domain
    /// or its level is outside the chain.
    pub fn decode(&self, pt: &Plaintext) -> Result<Vec<Complex64>, NeoError> {
        self.check_level("decode", pt.level())?;
        if pt.poly().domain() != neo_math::Domain::Coeff {
            return Err(NeoError::parameter_mismatch(
                "decode",
                "plaintext must be in coefficient domain",
            ));
        }
        Ok(self.encoder.decode(self.context(), pt))
    }

    /// Encrypts a plaintext under the session public key.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] if the plaintext's level is outside
    /// the chain.
    pub fn encrypt(&self, pt: &Plaintext) -> Result<Ciphertext, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        let mut rng = self.rng.lock();
        ops::try_encrypt(self.context(), &self.pk, pt, &mut *rng)
    }

    /// Encodes and encrypts complex slots at `level`.
    ///
    /// # Errors
    ///
    /// As [`Self::encode`] and [`Self::encrypt`].
    pub fn encrypt_values(
        &self,
        values: &[Complex64],
        level: usize,
    ) -> Result<Ciphertext, NeoError> {
        let pt = self.encode(values, level)?;
        self.encrypt(&pt)
    }

    /// Encodes and encrypts real values at `level`.
    ///
    /// # Errors
    ///
    /// As [`Self::encode`] and [`Self::encrypt`].
    pub fn encrypt_f64(&self, values: &[f64], level: usize) -> Result<Ciphertext, NeoError> {
        let pt = self.encode_f64(values, level)?;
        self.encrypt(&pt)
    }

    /// Decrypts with the session secret key.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] if the ciphertext's level is
    /// outside the chain; [`NeoError::FaultDetected`] if a transform (the
    /// secret's included) fails its check under the verify policy.
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Plaintext, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        ops::try_decrypt(self.context(), self.chest.secret_key(), ct)
    }

    /// Decrypts and decodes into complex slots.
    ///
    /// # Errors
    ///
    /// As [`Self::decrypt`] and [`Self::decode`].
    pub fn decrypt_values(&self, ct: &Ciphertext) -> Result<Vec<Complex64>, NeoError> {
        let pt = self.decrypt(ct)?;
        self.decode(&pt)
    }

    /// Decrypts and decodes the real parts of all slots.
    ///
    /// # Errors
    ///
    /// As [`Self::decrypt`] and [`Self::decode`].
    pub fn decrypt_f64(&self, ct: &Ciphertext) -> Result<Vec<f64>, NeoError> {
        Ok(self.decrypt_values(ct)?.iter().map(|v| v.re).collect())
    }

    // --- Homomorphic operations ---

    /// HADD, aligning levels first if the policy allows.
    ///
    /// # Errors
    ///
    /// [`NeoError::LevelMismatch`] (alignment disabled) or
    /// [`NeoError::ScaleMismatch`].
    pub fn hadd(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, NeoError> {
        let (a, b) = self.align_pair("hadd", a, b)?;
        ops::try_hadd(self.context(), &a, &b)
    }

    /// HSUB, aligning levels first if the policy allows.
    ///
    /// # Errors
    ///
    /// [`NeoError::LevelMismatch`] (alignment disabled) or
    /// [`NeoError::ScaleMismatch`].
    pub fn hsub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, NeoError> {
        let (a, b) = self.align_pair("hsub", a, b)?;
        ops::try_hsub(self.context(), &a, &b)
    }

    /// PADD: ciphertext + plaintext.
    ///
    /// # Errors
    ///
    /// [`NeoError::LevelMismatch`] / [`NeoError::ScaleMismatch`].
    pub fn padd(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, NeoError> {
        ops::try_padd(self.context(), a, pt)
    }

    /// PMULT with the noise-budget guardrail, auto-rescaling afterwards if
    /// the policy asks for it.
    ///
    /// # Errors
    ///
    /// [`NeoError::LevelMismatch`], [`NeoError::NoiseBudgetExhausted`], or
    /// (with auto-rescale at level 0) [`NeoError::ModulusChainExhausted`].
    pub fn pmult(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        self.guard_budget("pmult", a.level(), a.scale() * pt.scale())?;
        let out = ops::try_pmult(self.context(), a, pt)?;
        self.maybe_rescale(out)
    }

    /// HMULT (with relinearization) under the session's key-switching
    /// method, with the noise-budget guardrail, auto-rescaling afterwards
    /// if the policy asks for it.
    ///
    /// # Errors
    ///
    /// [`NeoError::LevelMismatch`] (alignment disabled),
    /// [`NeoError::NoiseBudgetExhausted`],
    /// [`NeoError::KeySwitchKeyMissing`], or (with auto-rescale at
    /// level 0) [`NeoError::ModulusChainExhausted`].
    pub fn hmult(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        let (a, b) = self.align_pair("hmult", a, b)?;
        self.guard_budget("hmult", a.level(), a.scale() * b.scale())?;
        self.guard_warm(a.level(), KeyTarget::Relin)?;
        let out = ops::try_hmult(&self.chest, &a, &b, self.method())?;
        self.maybe_rescale(out)
    }

    /// HROTATE by `steps` slots.
    ///
    /// # Errors
    ///
    /// [`NeoError::KeySwitchKeyMissing`] if the Galois key is unavailable
    /// (or, under `require_warm_keys`, not pre-warmed).
    pub fn hrotate(&self, a: &Ciphertext, steps: usize) -> Result<Ciphertext, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        let g = ops::galois_element(self.context().degree(), steps);
        self.guard_warm(a.level(), KeyTarget::Galois(g))?;
        ops::try_hrotate(&self.chest, a, steps, self.method())
    }

    /// Complex conjugation of all slots.
    ///
    /// # Errors
    ///
    /// [`NeoError::KeySwitchKeyMissing`] if the conjugation key is
    /// unavailable (or, under `require_warm_keys`, not pre-warmed).
    pub fn hconjugate(&self, a: &Ciphertext) -> Result<Ciphertext, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        let g = 2 * self.context().degree() - 1;
        self.guard_warm(a.level(), KeyTarget::Galois(g))?;
        ops::try_hconjugate(&self.chest, a, self.method())
    }

    /// Rescale by the last chain prime.
    ///
    /// # Errors
    ///
    /// [`NeoError::ModulusChainExhausted`] at level 0.
    pub fn rescale(&self, ct: &Ciphertext) -> Result<Ciphertext, NeoError> {
        ops::try_rescale(self.context(), ct)
    }

    /// Two consecutive rescales.
    ///
    /// # Errors
    ///
    /// [`NeoError::ModulusChainExhausted`] below level 2.
    pub fn double_rescale(&self, ct: &Ciphertext) -> Result<Ciphertext, NeoError> {
        ops::try_double_rescale(self.context(), ct)
    }

    /// Drops limbs to bring `ct` down to `level`.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] on a raise attempt.
    pub fn level_reduce(&self, ct: &Ciphertext, level: usize) -> Result<Ciphertext, NeoError> {
        ops::try_level_reduce(ct, level)
    }

    // --- Higher-level helpers ---

    /// Applies a linear transform as one giant group
    /// ([`LinearTransform::try_apply`]): a rotation per non-zero diagonal
    /// index, an evaluation-domain product per diagonal, one rescale.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] if the ciphertext's level lies
    /// outside the chain; plus the underlying transform, rotation and
    /// rescale errors.
    pub fn apply_transform(
        &self,
        lt: &LinearTransform,
        ct: &Ciphertext,
    ) -> Result<Ciphertext, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        lt.try_apply(&self.chest, &self.encoder, ct, self.method())
    }

    /// Applies a linear transform with baby-step/giant-step rotations
    /// (baby-step size ≈ √D for D diagonals,
    /// [`LinearTransform::try_apply_bsgs`]): about `2√D` rotations, an
    /// evaluation-domain product per diagonal, one rescale.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] if the ciphertext's level lies
    /// outside the chain; plus the underlying transform, rotation and
    /// rescale errors.
    pub fn apply_transform_bsgs(
        &self,
        lt: &LinearTransform,
        ct: &Ciphertext,
    ) -> Result<Ciphertext, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        let baby = ((lt.diagonal_count() as f64).sqrt().ceil() as usize).max(1);
        lt.try_apply_bsgs(&self.chest, &self.encoder, ct, baby, self.method())
    }

    /// Evaluates a polynomial (Horner) on a ciphertext.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] if the ciphertext's level lies
    /// outside the chain; [`NeoError::ModulusChainExhausted`] if the chain
    /// is too short for the polynomial's degree, plus the underlying op
    /// errors.
    pub fn eval_polynomial(&self, ct: &Ciphertext, coeffs: &[f64]) -> Result<Ciphertext, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        linear::try_eval_polynomial(&self.chest, &self.encoder, ct, coeffs, self.method())
    }

    /// Runs a batch program, its independent ops concurrently (see
    /// [`BatchProgram::execute`]), with per-op error isolation: the outer
    /// `Result` covers program-wide failures, the inner per-op `Result`s
    /// isolate individual op failures (ops downstream of a failed op
    /// report [`NeoError::PoisonedInput`]).
    ///
    /// `_parallel` is ignored: every batch runs in topological waves.
    /// The argument stays so existing callers keep compiling.
    ///
    /// # Errors
    ///
    /// See [`BatchProgram::execute`].
    pub fn execute_batch(
        &self,
        prog: &BatchProgram,
        inputs: &[Ciphertext],
        _parallel: bool,
    ) -> Result<Vec<Result<Ciphertext, NeoError>>, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        prog.execute(&self.chest, inputs, self.method())
    }

    /// [`Self::execute_batch`] with explicit retry control and recovery
    /// accounting ([`crate::batch::BatchReport`]).
    ///
    /// # Errors
    ///
    /// See [`BatchProgram::execute_with_report`].
    pub fn execute_batch_with_report(
        &self,
        prog: &BatchProgram,
        inputs: &[Ciphertext],
        max_retries: u32,
    ) -> Result<crate::batch::BatchReport, NeoError> {
        let _v = VerifyScope::enter(self.policy.verify);
        prog.execute_with_report(&self.chest, inputs, self.method(), max_retries)
    }

    // --- Guardrails ---

    fn check_level(&self, op: &'static str, level: usize) -> Result<(), NeoError> {
        let max = self.max_level();
        if level > max {
            return Err(NeoError::parameter_mismatch(
                op,
                format!("level {level} exceeds the chain's max level {max}"),
            ));
        }
        Ok(())
    }

    /// Level alignment for binary ops: operands at one level are borrowed;
    /// otherwise the higher one is reduced when the policy allows, and the
    /// pair refused when it does not.
    fn align_pair<'a>(
        &self,
        op: &'static str,
        a: &'a Ciphertext,
        b: &'a Ciphertext,
    ) -> Result<(Cow<'a, Ciphertext>, Cow<'a, Ciphertext>), NeoError> {
        if a.level() == b.level() {
            return Ok((Cow::Borrowed(a), Cow::Borrowed(b)));
        }
        if !self.policy.auto_align_levels {
            return Err(NeoError::level_mismatch(op, a.level(), b.level()));
        }
        let level = a.level().min(b.level());
        Ok((
            Cow::Owned(ops::try_level_reduce(a, level)?),
            Cow::Owned(ops::try_level_reduce(b, level)?),
        ))
    }

    /// Refuses a scale-growing op whose result would fall below the
    /// policy's noise-budget floor.
    fn guard_budget(
        &self,
        op: &'static str,
        level: usize,
        result_scale: f64,
    ) -> Result<(), NeoError> {
        let floor = self.policy.min_noise_budget_bits;
        let total: f64 = self
            .context()
            .q_moduli(level.min(self.max_level()))
            .iter()
            .map(|m| (m.value() as f64).log2())
            .sum();
        let budget = total - result_scale.log2();
        if budget < floor {
            return Err(NeoError::noise_exhausted(op, budget, floor));
        }
        Ok(())
    }

    /// Under `require_warm_keys`, refuses key switches whose key is not
    /// already cached.
    fn guard_warm(&self, level: usize, target: KeyTarget) -> Result<(), NeoError> {
        if self.policy.require_warm_keys && !self.chest.has_key(level, target, self.method()) {
            return Err(NeoError::key_missing(
                level,
                describe_target(target),
                "policy requires pre-warmed keys (call KeyChest::warm first)",
            ));
        }
        Ok(())
    }

    fn maybe_rescale(&self, ct: Ciphertext) -> Result<Ciphertext, NeoError> {
        if self.policy.auto_rescale {
            self.rescale(&ct)
        } else {
            Ok(ct)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_error::ErrorKind;

    fn engine() -> FheEngine {
        FheEngine::new(CkksParams::test_tiny(), 42).unwrap()
    }

    #[test]
    fn roundtrip_through_engine() {
        let e = engine();
        let xs = vec![1.0, -2.5, 0.75, 3.25];
        let ct = e.encrypt_f64(&xs, e.max_level()).unwrap();
        let out = e.decrypt_f64(&ct).unwrap();
        for (x, y) in xs.iter().zip(&out) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn hmult_then_rescale_keeps_product() {
        let e = engine();
        let ct_a = e.encrypt_f64(&[2.0, 3.0], e.max_level()).unwrap();
        let ct_b = e.encrypt_f64(&[4.0, 5.0], e.max_level()).unwrap();
        let prod = e.rescale(&e.hmult(&ct_a, &ct_b).unwrap()).unwrap();
        let out = e.decrypt_f64(&prod).unwrap();
        assert!((out[0] - 8.0).abs() < 1e-2 && (out[1] - 15.0).abs() < 1e-2);
    }

    #[test]
    fn auto_align_levels_reduces_higher_operand() {
        let e = engine();
        let a = e.encrypt_f64(&[1.0], e.max_level()).unwrap();
        let b = e.encrypt_f64(&[2.0], e.max_level() - 1).unwrap();
        let sum = e.hadd(&a, &b).unwrap();
        assert_eq!(sum.level(), e.max_level() - 1);
        let strict = e.with_policy_copy(|p| p.auto_align_levels = false);
        let err = strict.hadd(&a, &b).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::LevelMismatch);
    }

    #[test]
    fn noise_floor_refuses_deep_products() {
        let e = engine().with_policy(OpPolicy {
            min_noise_budget_bits: 1e6,
            ..OpPolicy::default()
        });
        let a = e.encrypt_f64(&[1.0], e.max_level()).unwrap();
        let b = e.encrypt_f64(&[1.0], e.max_level()).unwrap();
        let err = e.hmult(&a, &b).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NoiseBudgetExhausted);
    }

    #[test]
    fn warm_key_policy_refuses_cold_rotation() {
        let e = engine().with_policy(OpPolicy {
            require_warm_keys: true,
            ..OpPolicy::default()
        });
        let a = e.encrypt_f64(&[1.0, 2.0], e.max_level()).unwrap();
        let err = e.hrotate(&a, 1).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::KeySwitchKeyMissing);
        let g = ops::galois_element(e.context().degree(), 1);
        e.chest()
            .warm(a.level(), KeyTarget::Galois(g), e.method())
            .unwrap();
        e.hrotate(&a, 1).unwrap();
    }

    #[test]
    fn rescale_at_level_zero_is_chain_exhausted() {
        let e = engine();
        let a = e.encrypt_f64(&[1.0], 0).unwrap();
        let err = e.rescale(&a).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ModulusChainExhausted);
    }

    impl FheEngine {
        /// Test helper: tweak a copy of the default policy.
        fn with_policy_copy(self, f: impl FnOnce(&mut OpPolicy)) -> Self {
            let mut p = self.policy;
            f(&mut p);
            self.with_policy(p)
        }
    }
}
