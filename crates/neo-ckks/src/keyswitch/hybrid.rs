//! The Hybrid key-switching method (the pre-KLSS state of the art).

use super::{check_accumulators, check_keyswitch_input, mod_down};
use crate::context::CkksContext;
use crate::keys::{digit_ranges, HybridKey};
use neo_error::NeoError;
use neo_math::recycle::LIMBS;
use neo_math::{Domain, RnsPoly};
use rayon::prelude::*;

/// Switches `d` (coefficient domain, `level + 1` limbs) using a Hybrid
/// key into the accumulators `acc = [c0, c1]` (coefficient domain,
/// `level + 1` limbs): returns `(c0 + u0, c1 + u1)`, `u_k` alone where
/// `acc[k]` is `None`, with `u0 + u1·s ≈ d · target`. Each accumulator
/// rides in its component's Mod Down as one more inner product row. This
/// is a `HybridSum` of one term.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if `d` or an accumulator is in NTT
/// domain or an accumulator has another limb count,
/// [`NeoError::LevelMismatch`] if the limb count of `d` disagrees with
/// the key's level.
pub fn keyswitch_hybrid(
    ctx: &CkksContext,
    key: &HybridKey,
    d: &RnsPoly,
    acc: [Option<RnsPoly>; 2],
) -> Result<[RnsPoly; 2], NeoError> {
    let level = key.level;
    check_keyswitch_input(d, level)?;
    check_accumulators(&acc, level)?;
    let dnum = ctx.params().beta(level);
    let _s = neo_trace::span!("keyswitch.hybrid", level = level, dnum = dnum);
    let mut sum = HybridSum::new(ctx, level);
    sum.add(key, &sum.mod_up(d)?);
    sum.finish(acc)
}

/// A sum of Hybrid switches at one level (the module docs of
/// [`crate::keyswitch`]): each term's inner product grows the sum's
/// `R_PQ_l` evaluation rows in place, and [`Self::finish`] takes them
/// back to coefficients once and divides by `P` once.
pub(crate) struct HybridSum<'a> {
    ctx: &'a CkksContext,
    level: usize,
    /// Both components' `Σ_k IP_k` over `R_PQ_l`, evaluation domain;
    /// `None` before the first term and after each tail.
    rows: Option<[RnsPoly; 2]>,
}

impl<'a> HybridSum<'a> {
    /// An empty sum at `level`.
    pub(crate) fn new(ctx: &'a CkksContext, level: usize) -> Self {
        Self {
            ctx,
            level,
            rows: None,
        }
    }

    /// A term's Mod Up: each digit of `d` converted into its complement
    /// basis, reassembled over `R_PQ_l` and forward-transformed.
    ///
    /// # Errors
    ///
    /// As [`keyswitch_hybrid`] for `d`.
    pub(crate) fn mod_up(&self, d: &RnsPoly) -> Result<Vec<RnsPoly>, NeoError> {
        let (ctx, level) = (self.ctx, self.level);
        check_keyswitch_input(d, level)?;
        let qp = ctx.qp_moduli(level);
        let qp_primes = ctx.qp_primes(level);
        let q_primes = &ctx.q_primes()[..=level];
        let ranges = digit_ranges(ctx.params().alpha(), level + 1);
        // Digits never touch each other's limbs, so the whole stage fans
        // out across the pool.
        let xs: Vec<Result<RnsPoly, NeoError>> = ranges
            .par_iter()
            .map(|r| -> Result<RnsPoly, NeoError> {
                let complement: Vec<u64> = qp_primes
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !r.contains(i))
                    .map(|(_, &p)| p)
                    .collect();
                let table = ctx.bconv_table(&q_primes[r.clone()], &complement);
                let mut conv = table.convert_approx(&d.limbs()[r.clone()]).into_iter();
                // Reassemble in qp order: the digit's own limbs are copied in.
                let limbs = (0..qp.len())
                    .map(|i| {
                        if r.contains(&i) {
                            LIMBS.copied(d.limb(i))
                        } else {
                            conv.next().expect("converted limb")
                        }
                    })
                    .collect();
                let mut x = RnsPoly::from_limbs(limbs, Domain::Coeff)?;
                ctx.try_ntt_forward(&mut x, &qp)?;
                Ok(x)
            })
            .collect();
        xs.into_iter().collect()
    }

    /// Adds the inner product of a term's Mod Up rows `xs` with `key` to
    /// the sum's rows: one exact sum over every digit per coefficient,
    /// reduced once, starting from the sum so far.
    pub(crate) fn add(&mut self, key: &HybridKey, xs: &[RnsPoly]) {
        let terms = |part: usize| -> Vec<(&RnsPoly, &RnsPoly)> {
            xs.iter()
                .zip(&key.digits)
                .map(|(x, d)| (x, &d[part]))
                .collect()
        };
        let (be, qp) = (self.ctx.backend(), self.ctx.qp_moduli(self.level));
        match &mut self.rows {
            None => self.rows = Some([0, 1].map(|c| RnsPoly::inner_product(be, &terms(c), &qp))),
            Some(rows) => {
                for (c, row) in rows.iter_mut().enumerate() {
                    row.add_inner_product_assign(be, &terms(c), &qp);
                }
            }
        }
    }

    /// Lands the sum in `acc`: one inverse NTT of each component's rows,
    /// then Mod Down by `P` with the accumulator as its extra row. The sum
    /// is empty afterwards.
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if the sum holds no term, plus the
    /// transform errors.
    pub(crate) fn finish(&mut self, acc: [Option<RnsPoly>; 2]) -> Result<[RnsPoly; 2], NeoError> {
        let [mut ip0, mut ip1] = self
            .rows
            .take()
            .ok_or_else(|| NeoError::invalid_params("a key-switch sum needs a term"))?;
        let (ctx, level) = (self.ctx, self.level);
        let qp = ctx.qp_moduli(level);
        ctx.try_ntt_inverse(&mut ip0, &qp)?;
        ctx.try_ntt_inverse(&mut ip1, &qp)?;
        let [c0, c1] = acc;
        Ok([
            mod_down(ctx, ip0, level, c0)?,
            mod_down(ctx, ip1, level, c1)?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyChest, KeyTarget, SecretKey};
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Full algebraic check: keyswitch(d) under target s² must satisfy
    /// u0 + u1·s ≈ d·s² with small error (relative to the modulus).
    #[test]
    fn hybrid_keyswitch_phase_is_d_times_target() {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let chest = KeyChest::new(ctx.clone(), sk, 8);
        let level = 3;
        let q = ctx.q_moduli(level).to_vec();
        // A *small* input d keeps the keyswitch error small relative to q0.
        let d_coeffs: Vec<i64> = (0..ctx.degree() as i64).map(|i| (i % 17) - 8).collect();
        let d = RnsPoly::from_signed(&d_coeffs, &q);
        let key = chest.hybrid_key(level, KeyTarget::Relin).unwrap();
        let [u0, u1] = keyswitch_hybrid(&ctx, &key, &d, [None, None]).unwrap();
        // phase = u0 + u1*s  (computed in NTT domain).
        let s = chest.secret_key().poly_ntt(&ctx, &q).unwrap();
        let mut u1n = u1.clone();
        ctx.try_ntt_forward(&mut u1n, &q).unwrap();
        u1n.mul_pointwise_assign(&s, &q);
        let mut phase = u0.clone();
        ctx.try_ntt_forward(&mut phase, &q).unwrap();
        phase.add_assign(&u1n, &q);
        // expected = d * s².
        let mut s2 = s.clone();
        s2.mul_pointwise_assign(&s, &q);
        let mut dn = d.clone();
        ctx.try_ntt_forward(&mut dn, &q).unwrap();
        dn.mul_pointwise_assign(&s2, &q);
        phase.sub_assign(&dn, &q);
        ctx.try_ntt_inverse(&mut phase, &q).unwrap();
        // Residual must be small (keyswitch noise ~ N * B_err * digits / P).
        let norm = phase.centered_inf_norm_limb0(&q[0]);
        assert!(norm < 1 << 20, "keyswitch error too large: {norm}");
    }
}
