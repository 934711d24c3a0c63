//! The CKKS primitive operations (Section 2.1): encryption, decryption,
//! HADD/PADD, PMULT, HMULT (with relinearization), HROTATE, Rescale and
//! Double Rescale.
//!
//! Every operation comes in a fallible `try_*` form returning
//! [`Result<_, NeoError>`] — the preferred entry points, also used by the
//! [`crate::engine::FheEngine`] session facade.

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::{CkksContext, LimbTransform};
use crate::keys::{KeyChest, KeyTarget, PublicKey, SecretKey};
use crate::keyswitch::{hybrid::keyswitch_hybrid, klss::keyswitch_klss_into};
use crate::metrics::{note_noise, note_rotation, OpKind};
use crate::params::KsMethod;
use neo_error::NeoError;
use neo_math::poly::{bconv_ip_row, inner_product_row};
use neo_math::recycle::LIMBS;
use neo_math::{ComputeBackend, Domain, Modulus, RnsPoly};
use neo_trace::span;
use rand::Rng;
use rayon::prelude::*;

/// Relative scale drift tolerated between operands: rescaling divides by
/// `q_i ≈ 2^scale_bits`, leaving a ~1e-6 relative drift between "one
/// rescale deep" operands; anything larger is a genuine scale mismatch
/// (e.g. Δ vs Δ²).
pub const SCALE_TOLERANCE: f64 = 1e-4;

/// Remaining noise budget of a ciphertext in bits, estimated without the
/// secret key: `Σ_{i ≤ level} log2(q_i) − log2(scale)`. Emitted as a
/// `noise.budget` trace event after the noise-affecting operations so a
/// profile run shows the budget draining along the op sequence.
pub fn noise_budget_bits(ctx: &CkksContext, ct: &Ciphertext) -> f64 {
    let total: f64 = ctx
        .q_moduli(ct.level())
        .iter()
        .map(|m| (m.value() as f64).log2())
        .sum();
    total - ct.scale().log2()
}

fn emit_budget(ctx: &CkksContext, op: &str, ct: &Ciphertext) {
    if neo_trace::enabled() && neo_trace::recording() {
        neo_trace::event(
            "noise.budget",
            format!(
                "op={} level={} budget_bits={:.1}",
                op,
                ct.level(),
                noise_budget_bits(ctx, ct)
            ),
        );
    }
}

/// Injection point for spurious op-level faults (`neo_fault`'s `ckks_op`
/// site): when an armed [`neo_fault::FaultPlan`] draws a fire for this
/// opportunity, the op fails with a retryable [`NeoError::FaultDetected`]
/// instead of producing a result — exercising the recovery machinery in
/// [`crate::batch::BatchProgram::execute_with_report`].
fn fault_gate(op: &'static str) -> Result<(), NeoError> {
    if neo_fault::armed() && neo_fault::fires(neo_fault::FaultSite::CkksOp) {
        return Err(NeoError::fault_detected(
            "ckks_op",
            format!("injected transient fault in {op}"),
        ));
    }
    Ok(())
}

/// The level must sit inside the context's modulus chain.
pub(crate) fn check_level(
    ctx: &CkksContext,
    op: &'static str,
    level: usize,
) -> Result<(), NeoError> {
    let max = ctx.params().max_level;
    if level > max {
        return Err(NeoError::parameter_mismatch(
            op,
            format!("level {level} exceeds the chain's max level {max}"),
        ));
    }
    Ok(())
}

/// Two ciphertext operands must agree on level and (within
/// [`SCALE_TOLERANCE`]) on scale.
fn check_compatible(op: &'static str, a: &Ciphertext, b: &Ciphertext) -> Result<(), NeoError> {
    if a.level() != b.level() {
        return Err(NeoError::level_mismatch(op, a.level(), b.level()));
    }
    check_scales(op, a.scale(), b.scale())
}

fn check_scales(op: &'static str, left: f64, right: f64) -> Result<(), NeoError> {
    if (left / right - 1.0).abs() >= SCALE_TOLERANCE {
        return Err(NeoError::scale_mismatch(op, left, right));
    }
    Ok(())
}

/// Encrypts a plaintext under the public key:
/// `ct = (v·p0 + e0 + m, v·p1 + e1)`.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if the plaintext's level exceeds the
/// modulus chain.
pub fn try_encrypt<R: Rng + ?Sized>(
    ctx: &CkksContext,
    pk: &PublicKey,
    pt: &Plaintext,
    rng: &mut R,
) -> Result<Ciphertext, NeoError> {
    let level = pt.level();
    check_level(ctx, "encrypt", level)?;
    let _s = span!("ckks.encrypt", level = level);
    let moduli = ctx.q_moduli(level).to_vec();
    let mut v = RnsPoly::from_signed(&ctx.sample_ternary(rng), &moduli);
    ctx.try_ntt_forward(&mut v, &moduli)?;
    let mut c0 = pk.p0_at(level);
    c0.mul_pointwise_assign(&v, &moduli);
    let mut c1 = pk.p1_at(level);
    c1.mul_pointwise_assign(&v, &moduli);
    ctx.try_ntt_inverse(&mut c0, &moduli)?;
    ctx.try_ntt_inverse(&mut c1, &moduli)?;
    let e0 = RnsPoly::from_signed(&ctx.sample_gaussian(rng), &moduli);
    let e1 = RnsPoly::from_signed(&ctx.sample_gaussian(rng), &moduli);
    c0.add_assign(&e0, &moduli);
    c0.add_assign(pt.poly(), &moduli);
    c1.add_assign(&e1, &moduli);
    let ct = Ciphertext::new(c0, c1, pt.scale(), level);
    emit_budget(ctx, "encrypt", &ct);
    Ok(ct)
}

/// Decrypts: `m = c0 + c1·s`.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if the ciphertext's level exceeds the
/// modulus chain; [`NeoError::FaultDetected`] if a transform (the
/// secret's included) fails its check.
pub fn try_decrypt(
    ctx: &CkksContext,
    sk: &SecretKey,
    ct: &Ciphertext,
) -> Result<Plaintext, NeoError> {
    check_level(ctx, "decrypt", ct.level())?;
    let _s = span!("ckks.decrypt", level = ct.level());
    let moduli = ctx.q_moduli(ct.level()).to_vec();
    let s = sk.poly_ntt(ctx, &moduli)?;
    let mut c1 = ct.c1().clone();
    ctx.try_ntt_forward(&mut c1, &moduli)?;
    c1.mul_pointwise_assign(&s, &moduli);
    ctx.try_ntt_inverse(&mut c1, &moduli)?;
    let mut m = ct.c0().clone();
    m.add_assign(&c1, &moduli);
    Ok(Plaintext::new(m, ct.scale(), ct.level()))
}

/// HADD: ciphertext + ciphertext.
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] / [`NeoError::ScaleMismatch`] if the
/// operands disagree on level or scale; [`NeoError::ParameterMismatch`]
/// if their level exceeds the modulus chain.
pub fn try_hadd(ctx: &CkksContext, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, NeoError> {
    fault_gate("hadd")?;
    check_compatible("hadd", a, b)?;
    check_level(ctx, "hadd", a.level())?;
    let _s = span!("ckks.hadd", level = a.level());
    let moduli = ctx.q_moduli(a.level());
    let mut out = a.clone();
    let (c0, c1) = out.parts_mut();
    c0.add_assign(b.c0(), moduli);
    c1.add_assign(b.c1(), moduli);
    note_noise(OpKind::HAdd, ctx, &[a, b], &out);
    Ok(out)
}

/// HSUB: ciphertext − ciphertext.
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] / [`NeoError::ScaleMismatch`] if the
/// operands disagree on level or scale; [`NeoError::ParameterMismatch`]
/// if their level exceeds the modulus chain.
pub fn try_hsub(ctx: &CkksContext, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, NeoError> {
    check_compatible("hsub", a, b)?;
    check_level(ctx, "hsub", a.level())?;
    let moduli = ctx.q_moduli(a.level());
    let mut out = a.clone();
    let (c0, c1) = out.parts_mut();
    c0.sub_assign(b.c0(), moduli);
    c1.sub_assign(b.c1(), moduli);
    Ok(out)
}

/// PADD: ciphertext + plaintext (scales must match).
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] / [`NeoError::ScaleMismatch`] if the
/// operands disagree on level or scale; [`NeoError::ParameterMismatch`]
/// if their level exceeds the modulus chain.
pub fn try_padd(ctx: &CkksContext, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, NeoError> {
    if a.level() != pt.level() {
        return Err(NeoError::level_mismatch("padd", a.level(), pt.level()));
    }
    check_scales("padd", a.scale(), pt.scale())?;
    check_level(ctx, "padd", a.level())?;
    let moduli = ctx.q_moduli(a.level());
    let mut out = a.clone();
    out.parts_mut().0.add_assign(pt.poly(), moduli);
    Ok(out)
}

/// PMULT: ciphertext × plaintext. The result's scale is the product of the
/// scales; rescale afterwards.
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] if the operands disagree on level;
/// [`NeoError::ParameterMismatch`] if their level exceeds the modulus
/// chain.
pub fn try_pmult(
    ctx: &CkksContext,
    a: &Ciphertext,
    pt: &Plaintext,
) -> Result<Ciphertext, NeoError> {
    if a.level() != pt.level() {
        return Err(NeoError::level_mismatch("pmult", a.level(), pt.level()));
    }
    check_level(ctx, "pmult", a.level())?;
    let _s = span!("ckks.pmult", level = a.level());
    let moduli = ctx.q_moduli(a.level()).to_vec();
    let mut m = pt.poly().clone();
    ctx.try_ntt_forward(&mut m, &moduli)?;
    let mut c0 = a.c0().clone();
    let mut c1 = a.c1().clone();
    ctx.try_ntt_forward(&mut c0, &moduli)?;
    ctx.try_ntt_forward(&mut c1, &moduli)?;
    c0.mul_pointwise_assign(&m, &moduli);
    c1.mul_pointwise_assign(&m, &moduli);
    ctx.try_ntt_inverse(&mut c0, &moduli)?;
    ctx.try_ntt_inverse(&mut c1, &moduli)?;
    Ok(Ciphertext::new(c0, c1, a.scale() * pt.scale(), a.level()))
}

/// HMULT: ciphertext × ciphertext with relinearization via the chest's
/// key-switching method of choice. The result's scale is the product;
/// rescale afterwards.
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] if the operands disagree on level;
/// [`NeoError::ParameterMismatch`] if their level exceeds the modulus
/// chain; [`NeoError::KeySwitchKeyMissing`] if the relinearization key
/// cannot be produced (e.g. KLSS requested without a KLSS parameter
/// configuration).
pub fn try_hmult(
    chest: &KeyChest,
    a: &Ciphertext,
    b: &Ciphertext,
    method: KsMethod,
) -> Result<Ciphertext, NeoError> {
    fault_gate("hmult")?;
    if a.level() != b.level() {
        return Err(NeoError::level_mismatch("hmult", a.level(), b.level()));
    }
    let ctx = chest.context();
    let level = a.level();
    check_level(ctx, "hmult", level)?;
    let _s = span!("ckks.hmult", level = level);
    let [d0, d1, d2] = tensor(ctx, a, b)?;
    // Relinearize d2 straight into (d0, d1).
    let acc = [Some(d0), Some(d1)];
    let [c0, c1] = switch(chest, level, KeyTarget::Relin, &d2, method, acc)?;
    let out = Ciphertext::new(c0, c1, a.scale() * b.scale(), level);
    emit_budget(ctx, "hmult", &out);
    note_noise(OpKind::HMult, ctx, &[a, b], &out);
    Ok(out)
}

/// The tensor `(d0, d1, d2) = (a0·b0, a0·b1 + a1·b0, a1·b1)` of two
/// ciphertexts at one level, in the coefficient domain, formed one limb
/// at a time: each limb's four operand rows are copied into recycled
/// scratch and run four forward transforms, three products and three
/// inverse transforms while its seven rows stay in cache. The seven
/// transforms' verification draws are taken first, in the order of the
/// polynomial-wide transforms this replaces (the four operands forward,
/// then `d0`, `d1`, `d2` inverse), and every operand is refused as those
/// transforms would refuse it.
fn tensor(ctx: &CkksContext, a: &Ciphertext, b: &Ciphertext) -> Result<[RnsPoly; 3], NeoError> {
    let moduli = ctx.q_moduli(a.level());
    let operands = [a.c0(), a.c1(), b.c0(), b.c1()];
    for p in operands {
        ctx.check_transform("ntt_forward", p, moduli, Domain::Coeff)?;
    }
    let verify: [bool; 7] = std::array::from_fn(|_| neo_fault::verification_due());
    let be = ctx.backend();
    let rows: Vec<Result<[Vec<u64>; 3], NeoError>> = moduli
        .par_iter()
        .enumerate()
        .map(|(i, m)| {
            let mut x = operands.map(|p| LIMBS.copied(p.limb(i)));
            let d = tensor_limb(ctx, be, m, &mut x, &verify);
            LIMBS.give_all(x);
            d
        })
        .collect();
    let mut parts = [(); 3].map(|_| Vec::with_capacity(moduli.len()));
    let mut failed = None;
    for r in rows {
        match r {
            Ok(d) => {
                for (part, row) in parts.iter_mut().zip(d) {
                    part.push(row);
                }
            }
            Err(e) => {
                failed.get_or_insert(e);
            }
        }
    }
    if let Some(e) = failed {
        LIMBS.give_all(parts.into_iter().flatten());
        return Err(e);
    }
    let [d0, d1, d2] = parts.map(|limbs| RnsPoly::from_limbs(limbs, Domain::Coeff));
    Ok([d0?, d1?, d2?])
}

/// One limb of [`tensor`] modulo `m`: transforms the operand rows
/// `x = [a0, a1, b0, b1]` forward in place and returns the limb's
/// `[d0, d1, d2]` rows, transformed back. `verify` holds the seven
/// transforms' draws.
fn tensor_limb(
    ctx: &CkksContext,
    be: &dyn ComputeBackend,
    m: &Modulus,
    x: &mut [Vec<u64>; 4],
    verify: &[bool; 7],
) -> Result<[Vec<u64>; 3], NeoError> {
    for (row, &v) in x.iter_mut().zip(verify) {
        ctx.transform_limb(row, m, LimbTransform::Forward, v)?;
    }
    let [a0, a1, b0, b1] = x.each_ref().map(Vec::as_slice);
    let mut d = [
        inner_product_row(be, m, &[a0], &[b0]),
        inner_product_row(be, m, &[a0, a1], &[b1, b0]),
        inner_product_row(be, m, &[a1], &[b1]),
    ];
    let inverses = d
        .iter_mut()
        .zip(&verify[4..])
        .try_for_each(|(row, &v)| ctx.transform_limb(row, m, LimbTransform::Inverse(1), v));
    match inverses {
        Ok(()) => Ok(d),
        Err(e) => {
            LIMBS.give_all(d);
            Err(e)
        }
    }
}

/// The Galois element `5^steps mod 2N` a left rotation by `steps` uses —
/// exposed so callers (e.g. the batch executor's key warm-up) can name
/// the exact [`KeyTarget::Galois`] key a rotation will request.
pub fn galois_element(n: usize, steps: usize) -> usize {
    let two_n = 2 * n;
    let mut g = 1usize;
    for _ in 0..steps % (n / 2) {
        g = (g * 5) % two_n;
    }
    g
}

/// HROTATE: rotates slots left by `steps` via the automorphism
/// `X ↦ X^{5^steps}` and a Galois key switch.
///
/// # Errors
///
/// [`NeoError::KeySwitchKeyMissing`] if the Galois key cannot be produced.
pub fn try_hrotate(
    chest: &KeyChest,
    a: &Ciphertext,
    steps: usize,
    method: KsMethod,
) -> Result<Ciphertext, NeoError> {
    let level = a.level();
    let [c0, c1] = rotation(chest, level, steps, method, |g, moduli| {
        Ok(galois_operands(a, g, moduli))
    })?;
    Ok(Ciphertext::new(c0, c1, a.scale(), level))
}

/// Complex conjugation of all slots (`X ↦ X^{2N-1}`).
///
/// # Errors
///
/// [`NeoError::KeySwitchKeyMissing`] if the conjugation key cannot be
/// produced.
pub fn try_hconjugate(
    chest: &KeyChest,
    a: &Ciphertext,
    method: KsMethod,
) -> Result<Ciphertext, NeoError> {
    let g = 2 * chest.context().degree() - 1;
    let level = a.level();
    let [c0, c1] = galois_switch("ckks.hconjugate", chest, level, g, method, |moduli| {
        Ok(galois_operands(a, g, moduli))
    })?;
    Ok(Ciphertext::new(c0, c1, a.scale(), level))
}

/// A rotation's operands: what its Galois key switch takes, and the
/// accumulators the switch lands in.
pub(crate) type GaloisOperands = (RnsPoly, [Option<RnsPoly>; 2]);

/// One rotation by `steps` at `level`, HRotate's or a BSGS stage's: draws
/// the `hrotate` fault gate, opens a `ckks.hrotate` span, has `operands`
/// apply `σ_g` (given `g` and the level's moduli) and return the
/// coefficient-domain polynomial to switch with its accumulators,
/// switches it under the Galois key of `g`, and records the rotation's
/// noise consumption.
pub(crate) fn rotation(
    chest: &KeyChest,
    level: usize,
    steps: usize,
    method: KsMethod,
    operands: impl FnOnce(usize, &[Modulus]) -> Result<GaloisOperands, NeoError>,
) -> Result<[RnsPoly; 2], NeoError> {
    fault_gate("hrotate")?;
    let g = galois_element(chest.context().degree(), steps);
    let out = galois_switch("ckks.hrotate", chest, level, g, method, |m| operands(g, m))?;
    note_rotation();
    Ok(out)
}

/// The Galois key switch of `X ↦ X^g` under a span named after the
/// calling op, on the operands `operands` builds from the level's moduli.
fn galois_switch(
    span_name: &'static str,
    chest: &KeyChest,
    level: usize,
    g: usize,
    method: KsMethod,
    operands: impl FnOnce(&[Modulus]) -> Result<GaloisOperands, NeoError>,
) -> Result<[RnsPoly; 2], NeoError> {
    let ctx = chest.context();
    check_level(ctx, "galois", level)?;
    let _s = span!(span_name, level = level, g = g);
    let (d, acc) = operands(ctx.q_moduli(level))?;
    switch(chest, level, KeyTarget::Galois(g), &d, method, acc)
}

/// `σ_g` of a coefficient-domain ciphertext: `σ_g(c1)` to switch, landing
/// in `(σ_g(c0), —)`, so `σ_g(c0) + u0` comes out of the switch itself.
fn galois_operands(a: &Ciphertext, g: usize, moduli: &[Modulus]) -> GaloisOperands {
    let c0 = a.c0().automorphism(g, moduli);
    (a.c1().automorphism(g, moduli), [Some(c0), None])
}

/// The key switch of `d` towards `target` with `method`, landing in
/// `acc`: `(c0 + u0, c1 + u1)`, `u_k` alone where `acc[k]` is `None`
/// ([`keyswitch_klss_into`], [`keyswitch_hybrid`]).
fn switch(
    chest: &KeyChest,
    level: usize,
    target: KeyTarget,
    d: &RnsPoly,
    method: KsMethod,
    acc: [Option<RnsPoly>; 2],
) -> Result<[RnsPoly; 2], NeoError> {
    let ctx = chest.context();
    match method {
        KsMethod::Hybrid => {
            let key = chest.hybrid_key(level, target)?;
            keyswitch_hybrid(ctx, &key, d, acc)
        }
        KsMethod::Klss => {
            let key = chest.klss_key(level, target)?;
            keyswitch_klss_into(ctx, &key, d, acc)
        }
    }
}

/// Rescale: drops the last limb and divides by `q_l`, reducing noise and
/// scale (Section 2.1).
///
/// # Errors
///
/// [`NeoError::ModulusChainExhausted`] at level 0 (no limb left to drop);
/// [`NeoError::ParameterMismatch`] if the level exceeds the modulus chain.
pub fn try_rescale(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, NeoError> {
    fault_gate("rescale")?;
    let level = ct.level();
    check_level(ctx, "rescale", level)?;
    if level < 1 {
        return Err(NeoError::chain_exhausted("rescale", level, 1));
    }
    let _s = span!("ckks.rescale", level = level);
    let q_last = ctx.q_moduli(level)[level];
    let moduli = ctx.q_moduli(level - 1);
    // Exclusive bound on every inner-product row below.
    let y_bound = ctx.q_moduli(level).iter().map(Modulus::value).max();
    let y_bound = y_bound.unwrap_or(u64::MAX);
    let rescale_poly = |p: &RnsPoly| -> Result<RnsPoly, NeoError> {
        let last = p.limb(level);
        // Centered lift of the dropped limb keeps rounding noise at q_l/2
        // instead of q_l: a residue l in the upper half stands for
        // l − q_l. With inv = q_l⁻¹ mod q_i,
        // (x_i − l + upper·q_l)·inv ≡ x_i·inv − l·inv + upper (mod q_i),
        // so each output limb is one exact inner product over the rows
        // (x_i, l, upper), reduced once, on a row it writes in full.
        let upper = LIMBS.mapped(last, |l| u64::from(q_last.to_signed(l) < 0));
        let limbs = moduli
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let inv = m.inv(q_last.value()).expect("coprime chain");
                let (rows, w) = ([p.limb(i), last, &upper], [inv, m.neg(inv), 1]);
                bconv_ip_row(ctx.backend(), m, &rows, y_bound, &w)
            })
            .collect();
        LIMBS.give(upper);
        Ok(RnsPoly::from_limbs(limbs, Domain::Coeff)?)
    };
    let c0 = rescale_poly(ct.c0())?;
    let c1 = rescale_poly(ct.c1())?;
    let out = Ciphertext::new(c0, c1, ct.scale() / q_last.value() as f64, level - 1);
    emit_budget(ctx, "rescale", &out);
    note_noise(OpKind::Rescale, ctx, &[ct], &out);
    Ok(out)
}

/// Double Rescale (DS): two consecutive rescales, consuming two levels —
/// required for precision at small word sizes (SHARP / Section 2.1).
///
/// # Errors
///
/// [`NeoError::ModulusChainExhausted`] below level 2.
pub fn try_double_rescale(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, NeoError> {
    if ct.level() < 2 {
        return Err(NeoError::chain_exhausted("double_rescale", ct.level(), 2));
    }
    try_rescale(ctx, &try_rescale(ctx, ct)?)
}

/// Drops limbs without scaling to bring `ct` down to `level` (modulus
/// reduction, used for level alignment).
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if `level` exceeds the ciphertext's
/// current level (a ciphertext can never be raised).
pub fn try_level_reduce(ct: &Ciphertext, level: usize) -> Result<Ciphertext, NeoError> {
    if level > ct.level() {
        return Err(NeoError::parameter_mismatch(
            "level_reduce",
            format!("cannot raise level {} to {level}", ct.level()),
        ));
    }
    let (mut c0, mut c1) = (ct.c0().clone(), ct.c1().clone());
    c0.truncate_limbs(level + 1);
    c1.truncate_limbs(level + 1);
    Ok(Ciphertext::new(c0, c1, ct.scale(), level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The two-pass Rescale `try_rescale` replaced: the centered
    /// difference `x_i − l + upper·q_l` per coefficient, then a multiply
    /// by `q_l⁻¹`.
    fn rescale_two_pass(ctx: &CkksContext, p: &RnsPoly, level: usize) -> Vec<Vec<u64>> {
        let q_last = ctx.q_moduli(level)[level];
        let last = p.limb(level);
        ctx.q_moduli(level - 1)
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let q_last_mod = m.reduce(q_last.value());
                let inv = m.inv(q_last_mod).unwrap();
                p.limb(i)
                    .iter()
                    .zip(last)
                    .map(|(&x, &l)| {
                        let upper = u64::from(q_last.to_signed(l) < 0).wrapping_neg();
                        let d = m.sub(x, m.sub(m.reduce(l), q_last_mod & upper));
                        m.mul(d, inv)
                    })
                    .collect()
            })
            .collect()
    }

    fn random_ct(ctx: &CkksContext, rng: &mut StdRng, level: usize) -> Ciphertext {
        let moduli = ctx.q_moduli(level);
        let mut poly = || RnsPoly::random_uniform(rng, ctx.degree(), moduli, Domain::Coeff);
        Ciphertext::new(poly(), poly(), 2f64.powi(30), level)
    }

    /// The op-major tensor the per-limb one replaced: clone the four
    /// operands, transform each whole polynomial forward, form the three
    /// products, transform each back.
    fn tensor_op_major(ctx: &CkksContext, a: &Ciphertext, b: &Ciphertext) -> [RnsPoly; 3] {
        let moduli = ctx.q_moduli(a.level());
        let mut v = [a.c0(), a.c1(), b.c0(), b.c1()].map(Clone::clone);
        for p in &mut v {
            ctx.try_ntt_forward(p, moduli).unwrap();
        }
        let [a0, a1, b0, b1] = v;
        let product = |x: &RnsPoly, y: &RnsPoly| {
            let mut p = x.clone();
            p.mul_pointwise_assign(y, moduli);
            p
        };
        let mut d1 = product(&a0, &b1);
        d1.add_assign(&product(&a1, &b0), moduli);
        let mut d = [product(&a0, &b0), d1, product(&a1, &b1)];
        for p in &mut d {
            ctx.try_ntt_inverse(p, moduli).unwrap();
        }
        d
    }

    #[test]
    fn per_limb_tensor_matches_the_op_major_tensor() {
        let ctx = CkksContext::new(CkksParams::test_small()).unwrap();
        let mut rng = StdRng::seed_from_u64(25);
        for level in [ctx.params().max_level, 1] {
            let (a, b) = (
                random_ct(&ctx, &mut rng, level),
                random_ct(&ctx, &mut rng, level),
            );
            let got = tensor(&ctx, &a, &b).unwrap();
            assert!(got.iter().all(|d| d.domain() == Domain::Coeff));
            assert_eq!(got, tensor_op_major(&ctx, &a, &b), "level {level}");
        }
    }

    #[test]
    fn rescale_matches_two_pass_reference() {
        let ctx = CkksContext::new(CkksParams::test_small()).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        for level in [1, ctx.params().max_level] {
            let ct = random_ct(&ctx, &mut rng, level);
            let out = try_rescale(&ctx, &ct).unwrap();
            assert_eq!(out.c0().limbs(), rescale_two_pass(&ctx, ct.c0(), level));
            assert_eq!(out.c1().limbs(), rescale_two_pass(&ctx, ct.c1(), level));
        }
    }
}
