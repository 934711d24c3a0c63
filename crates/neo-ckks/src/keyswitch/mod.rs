//! Key switching — the operation the whole paper optimizes.
//!
//! Both methods take a polynomial `d` at level `l` (coefficient domain)
//! and a key re-encrypting `target` under `s`, and return a ciphertext
//! pair `(u0, u1)` with `u0 + u1·s ≈ d · target`. Both land the pair in
//! its destination: given accumulators `(c0, c1)` they return
//! `(c0 + u0, c1 + u1)`, each accumulator limb one more row of Mod Down's
//! inner product, so every output limb is one exact sum reduced once —
//! bit-identical to switching, then adding:
//!
//! * [`hybrid::keyswitch_hybrid`] — digit decomposition, Mod Up to
//!   `R_PQ_l`, inner product with the digit keys, Mod Down by `P`;
//! * [`klss::keyswitch_klss_into`] — the KLSS method: exact Mod Up into
//!   the small auxiliary basis `R_T`, the `β × β̃` inner product over
//!   `R_T`, *Recover Limbs* back into `R_PQ_l`, Mod Down (Fig. 5);
//!   [`klss::keyswitch_klss`] is its form without accumulators.
//!
//! Each method switches a *sum* of terms at one level,
//! `acc + Σ_k KS(key_k, d_k)`, and a single switch is its one-term case,
//! through the same code. Every term runs its own Mod Up and inner
//! product, which accumulates in place into the sum's rows (the `R_T`
//! rows per output digit for KLSS, the `R_PQ` evaluation rows for
//! Hybrid), and its Mod Up rows are dropped before the next term. The sum
//! then runs one tail: one inverse NTT, one Recover (KLSS only) and one
//! Mod Down. A KLSS tail can take the last term along (`finish`'s
//! `last`), its inner product then running per output digit in the task
//! that inverts and recovers that digit: that is how a single KLSS switch
//! runs, so it holds only the digits in flight. `SwitchSum` is the sum over keys
//! looked up by target; a BSGS stage feeds it every rotated giant group.
//!
//! A sum of `G > 1` terms is not bit-identical to `G` switches added: Mod
//! Down of the sum exceeds the sum of the Mod Downs by `δ = Σ_i w_i`,
//! where `w_i ∈ [0, G−1]` counts how often the special prime `p_i`'s
//! scaled residues wrapped as the terms added up. So `δ ∈ [0, K·(G−1)]`
//! is one integer per coefficient, the same in every limb, and the
//! rescale that ends a BSGS stage subtracts it along with the last limb's
//! centred residue (DESIGN.md, "Linear transforms in the evaluation
//! domain"). KLSS's Recover is exact only while the summed `|G_ĵ|` stays
//! below `T/4`, so a KLSS sum takes at most
//! `CkksContext::klss_sum_limit` terms per tail and finishes a longer
//! one in chunks; Hybrid's inner product is taken mod `PQ`, so its sums
//! have no limit.

pub mod hybrid;
pub mod klss;

use crate::context::CkksContext;
use crate::keys::{KeyChest, KeyTarget};
use crate::params::KsMethod;
use hybrid::HybridSum;
use klss::KlssSum;
use neo_error::NeoError;
use neo_math::{Domain, RnsPoly};

/// `acc + Σ_k KS(key_k, d_k)` over terms at one level under one method,
/// each key looked up by its target: [`Self::add`] runs a term's Mod Up
/// and inner product into the sum's rows, and [`Self::finish`] runs the
/// tail once, under a `keyswitch.tail` span tagged with the number of
/// terms it sums. A KLSS sum whose terms reach the level's
/// [`CkksContext::klss_sum_limit`] finishes them into partial results
/// before it takes the next term, and `finish` lands those with the rest.
pub(crate) struct SwitchSum<'a> {
    chest: &'a KeyChest,
    level: usize,
    rows: Rows<'a>,
    /// Terms in the rows since the last tail.
    terms: usize,
    /// The most terms one tail takes.
    limit: usize,
    /// The chunks already finished, when the terms outnumbered `limit`.
    done: [Option<RnsPoly>; 2],
}

/// The method-specific part of a [`SwitchSum`].
enum Rows<'a> {
    Hybrid(HybridSum<'a>),
    Klss(KlssSum<'a>),
}

impl<'a> SwitchSum<'a> {
    /// An empty sum at `level` under `method`.
    ///
    /// # Errors
    ///
    /// [`NeoError::KeySwitchKeyMissing`] for KLSS on a parameter set
    /// without a KLSS configuration.
    pub(crate) fn new(
        chest: &'a KeyChest,
        level: usize,
        method: KsMethod,
    ) -> Result<Self, NeoError> {
        let ctx = chest.context();
        let (rows, limit) = match method {
            KsMethod::Hybrid => (Rows::Hybrid(HybridSum::new(ctx, level)), usize::MAX),
            KsMethod::Klss => (
                Rows::Klss(KlssSum::new(ctx, level)?),
                ctx.klss_sum_limit(level),
            ),
        };
        Ok(Self {
            chest,
            level,
            rows,
            terms: 0,
            limit,
            done: [None, None],
        })
    }

    /// Whether no term was added yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.terms == 0 && self.done.iter().all(Option::is_none)
    }

    /// Adds `KS(key, d)` for the key of `target` at the sum's level: `d`'s
    /// Mod Up and its inner product with the key, into the sum's rows.
    ///
    /// # Errors
    ///
    /// As the method's switch: a missing key, or `d` in the evaluation
    /// domain or at another level.
    pub(crate) fn add(&mut self, target: KeyTarget, d: &RnsPoly) -> Result<(), NeoError> {
        if self.terms == self.limit {
            let done = std::mem::take(&mut self.done);
            self.done = self.tail(done)?.map(Some);
        }
        let (chest, level) = (self.chest, self.level);
        match &mut self.rows {
            Rows::Hybrid(sum) => {
                let key = chest.hybrid_key(level, target)?;
                sum.add(&key, &sum.mod_up(d)?);
            }
            Rows::Klss(sum) => {
                let key = chest.klss_key(level, target)?;
                sum.add(&key, &sum.mod_up(d)?);
            }
        }
        self.terms += 1;
        Ok(())
    }

    /// The sum landed in `acc = [c0, c1]` (coefficient domain, `level + 1`
    /// limbs): `(c0 + Σ_k u0_k, c1 + Σ_k u1_k)`, up to the `δ` of the
    /// module docs, `u_k` sums alone where `acc[k]` is `None`.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] if an accumulator is in the
    /// evaluation domain or has another limb count,
    /// [`NeoError::InvalidParams`] if no term was added; plus the tail's
    /// transform errors.
    pub(crate) fn finish(mut self, acc: [Option<RnsPoly>; 2]) -> Result<[RnsPoly; 2], NeoError> {
        check_accumulators(&acc, self.level)?;
        let moduli = self.chest.context().q_moduli(self.level);
        let ([a0, a1], [d0, d1]) = (acc, std::mem::take(&mut self.done));
        let merge = |a: Option<RnsPoly>, done: Option<RnsPoly>| match (a, done) {
            (Some(mut a), Some(done)) => {
                a.add_assign(&done, moduli);
                Some(a)
            }
            (a, done) => a.or(done),
        };
        self.tail([merge(a0, d0), merge(a1, d1)])
    }

    /// The method's tail on the rows, landing in `acc`.
    fn tail(&mut self, acc: [Option<RnsPoly>; 2]) -> Result<[RnsPoly; 2], NeoError> {
        let (level, terms) = (self.level, std::mem::take(&mut self.terms));
        let method = match self.rows {
            Rows::Hybrid(_) => "hybrid",
            Rows::Klss(_) => "klss",
        };
        let _s = neo_trace::span!(
            "keyswitch.tail",
            method = method,
            level = level,
            terms = terms
        );
        match &mut self.rows {
            Rows::Hybrid(sum) => sum.finish(acc),
            Rows::Klss(sum) => sum.finish(None, acc),
        }
    }
}

/// Shared operand validation for both key-switching methods: the input
/// must be in coefficient domain with exactly the key level's limb count.
pub(crate) fn check_keyswitch_input(d: &RnsPoly, level: usize) -> Result<(), NeoError> {
    if d.domain() != Domain::Coeff {
        return Err(NeoError::parameter_mismatch(
            "keyswitch",
            "input must be in coefficient domain",
        ));
    }
    if d.limb_count() != level + 1 {
        return Err(NeoError::level_mismatch(
            "keyswitch",
            d.limb_count().saturating_sub(1),
            level,
        ));
    }
    Ok(())
}

/// Checks that a key switch's accumulators are coefficient-domain
/// polynomials at `level`, before any switching work runs.
pub(crate) fn check_accumulators(acc: &[Option<RnsPoly>; 2], level: usize) -> Result<(), NeoError> {
    for c in acc.iter().flatten() {
        if c.domain() != Domain::Coeff || c.limb_count() != level + 1 {
            return Err(NeoError::parameter_mismatch(
                "keyswitch",
                format!(
                    "accumulators must be coefficient-domain with {} limbs",
                    level + 1
                ),
            ));
        }
    }
    Ok(())
}

/// Mod Down by `P`: takes a coefficient-domain polynomial over the
/// `R_PQ_l` basis (`l+1` data limbs then `K` special limbs) and returns
/// `acc + round(x / P)` over the data limbs (`round(x / P)` without an
/// accumulator), computed in `poly`'s own data limbs; the accumulator's
/// limbs go back to the recycler.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if the limb count is not
/// `level + 1 + K`.
pub(crate) fn mod_down(
    ctx: &CkksContext,
    mut poly: RnsPoly,
    level: usize,
    acc: Option<RnsPoly>,
) -> Result<RnsPoly, NeoError> {
    let k = ctx.p_primes().len();
    if poly.limb_count() != level + 1 + k {
        return Err(NeoError::parameter_mismatch(
            "mod_down",
            format!(
                "expected {} R_PQ limbs at level {level}, got {}",
                level + 1 + k,
                poly.limb_count()
            ),
        ));
    }
    let table = ctx.bconv_table(ctx.p_primes(), &ctx.q_primes()[..=level]);
    let (data, special) = poly.limbs_mut().split_at_mut(level + 1);
    table.mod_down(special, data, acc.as_ref().map(RnsPoly::limbs));
    poly.truncate_limbs(level + 1);
    Ok(poly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use crate::params::CkksParams;
    use neo_math::{BigUint, Domain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// A KLSS sum past its Recover headroom finishes in chunks and still
    /// lands on the sum of its switches, up to `δ`: 400 copies of one
    /// random term at the top level of `test_tiny` with 31-bit `T` primes
    /// (two terms per Recover) equal 400 times the single switch plus one
    /// `δ ∈ [0, K·399]` per coefficient, the same in every limb. Summed in
    /// one Recover, the copies would pass `T/2`: a random term's
    /// coefficients spread about `2.3·D·E` and `T/2` is about `1025·D·E`,
    /// so a sum that ignored its limit would fail here.
    #[test]
    fn a_klss_sum_past_its_headroom_finishes_in_chunks() {
        let params = CkksParams::builder()
            .log_n(8)
            .max_level(5)
            .word_size(36)
            .special(2)
            .dnum(3)
            .klss(31, 2)
            .build()
            .unwrap();
        let ctx = Arc::new(CkksContext::new(params).unwrap());
        let mut rng = StdRng::seed_from_u64(31);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let chest = KeyChest::new(ctx.clone(), sk, 32);
        let level = ctx.params().max_level;
        assert_eq!(ctx.klss_sum_limit(level), 2);
        let q = ctx.q_moduli(level);
        let d = RnsPoly::random_uniform(&mut rng, ctx.degree(), q, Domain::Coeff);
        let copies = 400u64;
        let mut sum = SwitchSum::new(&chest, level, KsMethod::Klss).unwrap();
        for _ in 0..copies {
            sum.add(KeyTarget::Relin, &d).unwrap();
        }
        let got = sum.finish([None, None]).unwrap();
        let key = chest.klss_key(level, KeyTarget::Relin).unwrap();
        let one = klss::keyswitch_klss_into(&ctx, &key, &d, [None, None]).unwrap();
        let max = ctx.p_primes().len() as u64 * (copies - 1);
        let times = |m: &neo_math::Modulus, x: u64| m.mul(x, m.reduce(copies));
        for (g, u) in got.iter().zip(&one) {
            for c in 0..ctx.degree() {
                let delta = q[0].sub(g.limb(0)[c], times(&q[0], u.limb(0)[c]));
                assert!(delta <= max, "coefficient {c}: δ = {delta} > {max}");
                for (i, m) in q.iter().enumerate() {
                    let want = m.add(times(m, u.limb(i)[c]), m.reduce(delta));
                    assert_eq!(g.limb(i)[c], want, "coefficient {c}, limb {i}");
                }
            }
        }
    }

    #[test]
    fn mod_down_divides_by_p() {
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let level = 2;
        let qp = ctx.qp_moduli(level);
        // Build x = P * v for a small v: mod_down must return exactly v.
        let p_big = BigUint::product(ctx.p_primes());
        let v = 12_345u64;
        let x_int = p_big.mul_u64(v);
        let limbs: Vec<Vec<u64>> = qp
            .iter()
            .map(|m| vec![x_int.rem_u64(m.value()); ctx.degree()])
            .collect();
        let poly = RnsPoly::from_limbs(limbs, Domain::Coeff).unwrap();
        let out = mod_down(&ctx, poly, level, None).unwrap();
        for (i, m) in ctx.q_moduli(level).iter().enumerate() {
            assert!(out.limb(i).iter().all(|&c| c == m.reduce(v)), "limb {i}");
        }
    }

    #[test]
    fn mod_down_rounds_small_remainder() {
        // x = P*v + r with small r: result should be v or v±1 (rounding
        // noise), never off by more.
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let level = 1;
        let qp = ctx.qp_moduli(level);
        let p_big = BigUint::product(ctx.p_primes());
        let v = 999u64;
        let x_int = p_big.mul_u64(v).add_u64(12_345);
        let limbs: Vec<Vec<u64>> = qp
            .iter()
            .map(|m| vec![x_int.rem_u64(m.value()); ctx.degree()])
            .collect();
        let poly = RnsPoly::from_limbs(limbs, Domain::Coeff).unwrap();
        let out = mod_down(&ctx, poly, level, None).unwrap();
        let m0 = &ctx.q_moduli(level)[0];
        let got = out.limb(0)[0];
        let diff = m0.to_signed(m0.sub(got, m0.reduce(v))).abs();
        assert!(diff <= ctx.p_primes().len() as i64 + 1, "diff {diff}");
    }
}
