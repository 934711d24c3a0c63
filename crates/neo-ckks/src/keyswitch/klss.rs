//! The KLSS key-switching method (Kim–Lee–Seo–Song, CRYPTO'23), as used by
//! Neo: Mod Up → NTT → IP → INTT → Recover Limbs → Mod Down, with the bulk
//! of the work in the small auxiliary basis `R_T` (Section 2.2, Fig. 5).
//!
//! Correctness sketch: the ciphertext digit `h_j` (centered, `|h_j| ≤ D_j/2`)
//! and the key digits `[K_j]_{E_ĵ}` (centered, `≤ E_ĵ/2`) are converted
//! *exactly* into `R_T`. The inner product
//! `G_ĵ = Σ_j h_j · [K_j]_{E_ĵ}` then has coefficients bounded by
//! `β·N·B·B̃/4 < T/2` (the Eq. 4 budget), so its `R_T` residues determine
//! the integer polynomial exactly, and *Recover Limbs* (exact centered
//! BConv of each `G_ĵ` into its own digit's limbs of `R_PQ_l`) reconstructs
//! `Σ_j h_j·K_j mod PQ_l` — the same quantity the Hybrid method computes,
//! at lower cost.
//!
//! A `KlssSum` adds the `G_ĵ` of several switches in `R_T` before one
//! Recover. That conversion is exact while the summed `|G_ĵ|` stays below
//! `T/4` (`neo_math::bconv`'s module docs). One term is bounded by
//! `β·N·D·E/4`, with `D` the largest digit's prime product and `E` the
//! largest key digit's, so at most `⌊(T−1)/(β·N·D·E)⌋` terms share a
//! Recover (`sum_limits`): at least 2 wherever the Eq. 4 budget holds,
//! since `T ≥ 2·β·N·B·B̃` and `D < B`, `E < B̃`.

use super::{check_accumulators, check_keyswitch_input, mod_down};
use crate::context::CkksContext;
use crate::keys::{digit_ranges, KlssKey};
use crate::params::CkksParams;
use neo_error::NeoError;
use neo_math::backend::Start;
use neo_math::packed::klss_ip_rows;
use neo_math::{BigUint, ComputeBackend, Domain, Modulus, PackedPoly, RnsPoly};
use rayon::prelude::*;

/// Switches `d` (coefficient domain, `level + 1` limbs) using a KLSS key:
/// returns `(u0, u1)` in coefficient domain with `u0 + u1·s ≈ d·target`.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if `d` is in NTT domain,
/// [`NeoError::LevelMismatch`] if its limb count disagrees with the key,
/// [`NeoError::KeySwitchKeyMissing`] if the parameter set has no KLSS
/// configuration.
pub fn keyswitch_klss(
    ctx: &CkksContext,
    key: &KlssKey,
    d: &RnsPoly,
) -> Result<(RnsPoly, RnsPoly), NeoError> {
    let [u0, u1] = keyswitch_klss_into(ctx, key, d, [None, None])?;
    Ok((u0, u1))
}

/// [`keyswitch_klss`] landing in `acc`: returns `(c0 + u0, c1 + u1)` for
/// the accumulators `acc = [c0, c1]` (coefficient domain, `level + 1`
/// limbs), `u_k` alone where `acc[k]` is `None`. Each accumulator rides
/// in its component's Mod Down as one more inner product row. This is a
/// `KlssSum` of one term.
///
/// # Errors
///
/// As [`keyswitch_klss`], and [`NeoError::ParameterMismatch`] if an
/// accumulator is in NTT domain or has another limb count.
pub fn keyswitch_klss_into(
    ctx: &CkksContext,
    key: &KlssKey,
    d: &RnsPoly,
    acc: [Option<RnsPoly>; 2],
) -> Result<[RnsPoly; 2], NeoError> {
    let level = key.level;
    check_keyswitch_input(d, level)?;
    check_accumulators(&acc, level)?;
    let mut sum = KlssSum::new(ctx, level)?;
    let dnum = ctx.params().beta(level);
    let _s = neo_trace::span!("keyswitch.klss", level = level, dnum = dnum);
    let xs = sum.mod_up(d)?;
    sum.finish(Some((key, &xs)), acc)
}

/// A sum of KLSS switches at one level (the module docs of
/// [`crate::keyswitch`]): each term's inner product grows the sum's `R_T`
/// rows in place, and [`Self::finish`] runs one scaled T-basis inverse
/// and one Recover per output digit and one Mod Down. The caller keeps
/// the terms per tail within [`CkksContext::klss_sum_limit`].
pub(crate) struct KlssSum<'a> {
    ctx: &'a CkksContext,
    level: usize,
    /// `α̃`, the key digit width.
    alpha_tilde: usize,
    /// Per output digit `ĵ`, both components' rows of `Σ_k G_ĵ`, one per
    /// `T` limb, evaluation domain; empty before the first term and after
    /// each tail.
    rows: Vec<[Vec<Vec<u64>>; 2]>,
}

impl<'a> KlssSum<'a> {
    /// An empty sum at `level`.
    ///
    /// # Errors
    ///
    /// [`NeoError::KeySwitchKeyMissing`] if the parameter set has no KLSS
    /// configuration.
    pub(crate) fn new(ctx: &'a CkksContext, level: usize) -> Result<Self, NeoError> {
        let kcfg = ctx.params().klss.ok_or_else(|| {
            NeoError::key_missing(level, "klss", "parameter set has no KLSS configuration")
        })?;
        Ok(Self {
            ctx,
            level,
            alpha_tilde: kcfg.alpha_tilde,
            rows: Vec::new(),
        })
    }

    /// A term's Mod Up: the exact conversion of each digit of `d` into
    /// `R_T`, forward-transformed.
    ///
    /// # Errors
    ///
    /// As [`keyswitch_klss`] for `d`.
    pub(crate) fn mod_up(&self, d: &RnsPoly) -> Result<Vec<RnsPoly>, NeoError> {
        let (ctx, level) = (self.ctx, self.level);
        check_keyswitch_input(d, level)?;
        let q_primes = &ctx.q_primes()[..=level];
        let (t_primes, t_moduli) = (ctx.t_primes(), ctx.t_moduli());
        // Digits are independent, so the conversions fan out across the pool.
        let ranges = digit_ranges(ctx.params().alpha(), level + 1);
        let xs: Vec<Result<RnsPoly, NeoError>> = ranges
            .par_iter()
            .map(|r| -> Result<RnsPoly, NeoError> {
                let table = ctx.bconv_table(&q_primes[r.clone()], t_primes);
                let conv = table.convert_exact(&d.limbs()[r.clone()]);
                let mut x = RnsPoly::from_limbs(conv, Domain::Coeff)?;
                ctx.try_ntt_forward(&mut x, t_moduli)?;
                Ok(x)
            })
            .collect();
        xs.into_iter().collect()
    }

    /// Adds the inner product of a term's Mod Up rows `xs` with `key` to
    /// the sum's rows; output digits own disjoint rows, so each digit's
    /// IP runs on its own worker.
    pub(crate) fn add(&mut self, key: &KlssKey, xs: &[RnsPoly]) {
        if self.rows.is_empty() {
            self.rows = self.empty_rows();
        }
        let be = self.ctx.backend();
        let t_moduli = self.ctx.t_moduli();
        let rows = self.rows.par_iter_mut().enumerate();
        rows.for_each(|(jj, rows)| digit_ip(be, t_moduli, key, xs, jj, rows));
    }

    /// Lands the sum, plus the term `last = (key, xs)` when given, in
    /// `acc`: per output digit the T-basis inverse and Recover Limbs, then
    /// Mod Down by `P` with the accumulator as its extra row. `last`'s
    /// inner product runs per output digit in the task that inverts and
    /// recovers that digit, so a one-term sum holds only the digits in
    /// flight. The sum is empty afterwards.
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if the sum holds no term, plus the
    /// transform errors.
    pub(crate) fn finish(
        &mut self,
        last: Option<(&KlssKey, &[RnsPoly])>,
        acc: [Option<RnsPoly>; 2],
    ) -> Result<[RnsPoly; 2], NeoError> {
        let mut rows = std::mem::take(&mut self.rows);
        if rows.is_empty() {
            if last.is_none() {
                return Err(NeoError::invalid_params("a key-switch sum needs a term"));
            }
            rows = self.empty_rows();
        }
        let (ctx, level) = (self.ctx, self.level);
        let (t_primes, t_moduli) = (ctx.t_primes(), ctx.t_moduli());
        let qp_primes = ctx.qp_primes(level);
        let be = ctx.backend();
        // --- INTT and Recover Limbs per output digit. ---
        // The gadget factor ẽ_ĵ = Ê_ĵ·[Ê_ĵ⁻¹]_{E_ĵ} is ≡ 1 on digit ĵ's own
        // limbs and ≡ 0 on every other limb of R_PQ, so recovering G_ĵ only
        // writes its own α̃ limbs — this is why Table 2 counts Recover Limbs
        // as 2·α'·(l+α) rather than 2·β̃·α'·(l+α).
        let key_ranges = digit_ranges(self.alpha_tilde, qp_primes.len());
        // Output digits write disjoint limb ranges of the result, so each
        // (IP, INTT, Recover Limbs) chain runs on its own worker; the
        // recovered limbs are stitched together afterwards.
        let recovered: Vec<Result<[Vec<Vec<u64>>; 2], NeoError>> = rows
            .into_par_iter()
            .enumerate()
            .map(|(jj, mut rows)| -> Result<[Vec<Vec<u64>>; 2], NeoError> {
                if let Some((key, xs)) = last {
                    digit_ip(be, t_moduli, key, xs, jj, &mut rows);
                }
                let table = ctx.bconv_table(t_primes, &qp_primes[key_ranges[jj].clone()]);
                let recover = |rows: Vec<Vec<u64>>| -> Result<Vec<Vec<u64>>, NeoError> {
                    let mut acc = RnsPoly::from_limbs(rows, Domain::Ntt)?;
                    // The inverse multiplies limb i by n⁻¹·T̂_i⁻¹ in its one
                    // scale pass, so the exact centered BConv of G_ĵ into
                    // digit ĵ's limbs starts from rows already scaled.
                    ctx.try_ntt_inverse_scaled(&mut acc, t_moduli, table.qhat_inv())?;
                    Ok(table.convert_exact_scaled(acc.limbs()))
                };
                let [ip0, ip1] = rows;
                Ok([recover(ip0)?, recover(ip1)?])
            })
            .collect();
        // The key ranges cover the R_PQ limbs in order, so the recovered limbs
        // move into place one digit after another.
        let limbs = qp_primes.len();
        let mut result = [Vec::with_capacity(limbs), Vec::with_capacity(limbs)];
        for convs in recovered {
            for (res, conv) in result.iter_mut().zip(convs?) {
                res.extend(conv);
            }
        }
        let [r0, r1] = result.map(|limbs| RnsPoly::from_limbs(limbs, Domain::Coeff));
        let [c0, c1] = acc;
        Ok([
            mod_down(ctx, r0?, level, c0)?,
            mod_down(ctx, r1?, level, c1)?,
        ])
    }

    /// One empty row pair per output digit.
    fn empty_rows(&self) -> Vec<[Vec<Vec<u64>>; 2]> {
        let limbs = self.level + 1 + self.ctx.p_primes().len();
        let digits = limbs.div_ceil(self.alpha_tilde);
        (0..digits).map(|_| Default::default()).collect()
    }
}

/// Output digit `jj`'s inner product of the Mod Up rows `xs` with `key`,
/// both components one `T` limb at a time (each Mod Up row read once for
/// both, beside the key's packed rows): into fresh rows when `rows` is
/// empty, else starting each exact sum from the row it grows.
fn digit_ip(
    be: &dyn ComputeBackend,
    t_moduli: &[Modulus],
    key: &KlssKey,
    xs: &[RnsPoly],
    jj: usize,
    [ip0, ip1]: &mut [Vec<Vec<u64>>; 2],
) {
    let pairs: Vec<&[PackedPoly; 2]> = key.digits.iter().map(|digit| &digit[jj]).collect();
    let width = pairs[0][0].width();
    let fresh = ip0.is_empty();
    let (mut x, mut k) = (Vec::with_capacity(xs.len()), Vec::with_capacity(xs.len()));
    for (i, t) in t_moduli.iter().enumerate() {
        x.clear();
        k.clear();
        x.extend(xs.iter().map(|x| x.limb(i)));
        k.extend(pairs.iter().map(|pair| pair.each_ref().map(|p| p.row(i))));
        if fresh {
            let [a, b] = klss_ip_rows(be, t, &x, &k, width);
            ip0.push(a);
            ip1.push(b);
        } else {
            be.klss_ip(t, &x, &k, width, Start::Out, [&mut ip0[i], &mut ip1[i]]);
        }
    }
}

/// How many inner products one Recover takes at each level `0..=L`: the
/// largest `G` with `G·β·N·D·E ≤ T − 1` (module docs), from the exact
/// prime products of the chains `q`, `p` and `t`, saturating at
/// `u64::MAX`. Empty without a KLSS configuration.
pub(crate) fn sum_limits(params: &CkksParams, q: &[u64], p: &[u64], t: &[u64]) -> Vec<usize> {
    let Some(kcfg) = params.klss else {
        return Vec::new();
    };
    let t_max = BigUint::product(t).sub(&BigUint::one());
    (0..=params.max_level)
        .map(|level| {
            let q = &q[..=level];
            let qp: Vec<u64> = q.iter().chain(p).copied().collect();
            let largest = |primes: &[u64], alpha: usize| -> Vec<u64> {
                let digits = digit_ranges(alpha, primes.len()).into_iter();
                let products = digits.map(|r| (BigUint::product(&primes[r.clone()]), r));
                let (_, r) = products.max_by(|a, b| a.0.cmp(&b.0)).unwrap_or_default();
                primes[r].to_vec()
            };
            let de = [largest(q, params.alpha()), largest(&qp, kcfg.alpha_tilde)].concat();
            let beta = params.beta(level) as u64;
            let term = BigUint::product(&de)
                .mul_u64(beta)
                .mul_u64(params.n() as u64);
            // The largest G with G·term ≤ T − 1, by bisection on exact
            // products.
            let (mut lo, mut hi) = (0u64, u64::MAX);
            while lo < hi {
                let mid = hi - (hi - lo) / 2;
                if term.mul_u64(mid) <= t_max {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            usize::try_from(lo).unwrap_or(usize::MAX)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyChest, KeyTarget, SecretKey};
    use crate::keyswitch::hybrid::keyswitch_hybrid;
    use crate::params::KlssConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// The switch over `u64` keys, before the T-basis inverse carried
    /// Recover's scaling: each output digit's inner product as
    /// `RnsPoly::inner_product` (one `mul_acc` per T limb and component)
    /// over the key rows unpacked into `u64` words, a plain inverse NTT,
    /// then `convert_exact` with its own `T̂_i⁻¹` scaling pass.
    fn keyswitch_unfused(ctx: &CkksContext, key: &KlssKey, d: &RnsPoly) -> [RnsPoly; 2] {
        let level = key.level;
        let (q_primes, t_primes) = (&ctx.q_primes()[..=level], ctx.t_primes());
        let t_moduli = ctx.t_moduli();
        let qp_primes = ctx.qp_primes(level);
        let xs: Vec<RnsPoly> = digit_ranges(ctx.params().alpha(), level + 1)
            .into_iter()
            .map(|r| {
                let table = ctx.bconv_table(&q_primes[r.clone()], t_primes);
                let conv = table.convert_exact(&d.limbs()[r]);
                let mut x = RnsPoly::from_limbs(conv, Domain::Coeff).unwrap();
                ctx.try_ntt_forward(&mut x, t_moduli).unwrap();
                x
            })
            .collect();
        let key_ranges = digit_ranges(ctx.params().klss.unwrap().alpha_tilde, qp_primes.len());
        let mut result = [Vec::new(), Vec::new()];
        for (jj, range) in key_ranges.iter().enumerate() {
            let table = ctx.bconv_table(t_primes, &qp_primes[range.clone()]);
            for (c, res) in result.iter_mut().enumerate() {
                let keys: Vec<RnsPoly> = key
                    .digits
                    .iter()
                    .map(|digit| RnsPoly::from_limbs(digit[jj][c].limbs(), Domain::Ntt).unwrap())
                    .collect();
                let terms: Vec<(&RnsPoly, &RnsPoly)> = xs.iter().zip(&keys).collect();
                let mut acc = RnsPoly::inner_product(ctx.backend(), &terms, t_moduli);
                ctx.try_ntt_inverse(&mut acc, t_moduli).unwrap();
                res.extend(table.convert_exact(acc.limbs()));
            }
        }
        result.map(|limbs| {
            let poly = RnsPoly::from_limbs(limbs, Domain::Coeff).unwrap();
            mod_down(ctx, poly, level, None).unwrap()
        })
    }

    /// The switch over packed keys equals the unfused one over `u64` keys
    /// bit for bit, at the top level and at a level whose last key range
    /// holds a single limb, with 48-bit `T` primes (6 bytes per word, the
    /// IFMA kernel where the CPU has it), 36-bit ones (5 bytes) and 60-bit
    /// ones (8 bytes, past the IFMA bound).
    #[test]
    fn klss_matches_the_unfused_switch() {
        let mut rng = StdRng::seed_from_u64(19);
        for word_size_t in [48, 36, 60] {
            let (ctx, chest) = chest_at(word_size_t);
            let alpha_tilde = ctx.params().klss.unwrap().alpha_tilde;
            let top = ctx.params().max_level;
            let single = (0..top)
                .rev()
                .find(|&l| {
                    let ranges = digit_ranges(alpha_tilde, ctx.qp_primes(l).len());
                    ranges.last().unwrap().len() == 1
                })
                .expect("a level whose last key range holds one limb");
            for level in [top, single] {
                let q = ctx.q_moduli(level);
                let d = RnsPoly::random_uniform(&mut rng, ctx.degree(), q, Domain::Coeff);
                let key = chest.klss_key(level, KeyTarget::Relin).unwrap();
                let (u0, u1) = keyswitch_klss(&ctx, &key, &d).unwrap();
                let want = keyswitch_unfused(&ctx, &key, &d);
                assert_eq!([u0, u1], want, "WordSize_T {word_size_t}, level {level}");
            }
        }
    }

    /// Switching into accumulators equals switching, then adding, under
    /// both methods, at the top level and at a level whose last key range
    /// holds one limb; an evaluation-domain accumulator is refused.
    #[test]
    fn switching_into_accumulators_is_switch_then_add() {
        let (ctx, chest) = chest();
        let mut rng = StdRng::seed_from_u64(29);
        let alpha_tilde = ctx.params().klss.unwrap().alpha_tilde;
        let top = ctx.params().max_level;
        let single = (0..top)
            .rev()
            .find(|&l| {
                digit_ranges(alpha_tilde, ctx.qp_primes(l).len())
                    .last()
                    .unwrap()
                    .len()
                    == 1
            })
            .unwrap();
        for level in [top, single] {
            let q = ctx.q_moduli(level);
            let mut random = || RnsPoly::random_uniform(&mut rng, ctx.degree(), q, Domain::Coeff);
            let (d, c0, c1) = (random(), random(), random());
            let add = |a: &RnsPoly, b: &RnsPoly| {
                let mut sum = a.clone();
                sum.add_assign(b, q);
                sum
            };
            let cases = |[u0, u1]: [RnsPoly; 2]| {
                [
                    (
                        [Some(c0.clone()), Some(c1.clone())],
                        [add(&c0, &u0), add(&c1, &u1)],
                    ),
                    ([Some(c0.clone()), None], [add(&c0, &u0), u1.clone()]),
                    ([None, Some(c1.clone())], [u0.clone(), add(&c1, &u1)]),
                ]
            };
            let klss = chest.klss_key(level, KeyTarget::Relin).unwrap();
            let (u0, u1) = keyswitch_klss(&ctx, &klss, &d).unwrap();
            for (acc, want) in cases([u0, u1]) {
                let got = keyswitch_klss_into(&ctx, &klss, &d, acc).unwrap();
                assert_eq!(got, want, "KLSS, level {level}");
            }
            let hybrid = chest.hybrid_key(level, KeyTarget::Relin).unwrap();
            for (acc, want) in cases(keyswitch_hybrid(&ctx, &hybrid, &d, [None, None]).unwrap()) {
                let got = keyswitch_hybrid(&ctx, &hybrid, &d, acc).unwrap();
                assert_eq!(got, want, "Hybrid, level {level}");
            }
            let mut evals = c0.clone();
            ctx.try_ntt_forward(&mut evals, q).unwrap();
            let err = keyswitch_klss_into(&ctx, &klss, &d, [Some(evals), None]).unwrap_err();
            assert_eq!(err.kind(), neo_error::ErrorKind::ParameterMismatch);
        }
    }

    /// Each level's limit is the largest `G` with `G·β·N·D·E ≤ T − 1`,
    /// checked by brute force: the bound is the largest exact product over
    /// every pair of a digit and a key digit, so no digit is assumed the
    /// largest. The limit is at least 2 at every level, for `test_tiny` at
    /// every `WordSize_T` its builder accepts (20 to 61 bits) and for the
    /// scored `coeff-to-slot` shape (N = 2^13).
    #[test]
    fn sum_limits_are_the_largest_sums_one_recover_takes() {
        let shape = |log_n, word_size_t| {
            CkksParams::builder()
                .log_n(log_n)
                .max_level(5)
                .word_size(36)
                .special(2)
                .dnum(3)
                .klss(word_size_t, 2)
                .build()
                .ok()
        };
        let mut sets: Vec<CkksParams> = (20..=61).filter_map(|w| shape(8, w)).collect();
        assert!(sets.len() > 30, "{} widths accepted", sets.len());
        sets.extend(shape(13, 48));
        for params in sets {
            let ctx = CkksContext::new(params.clone()).unwrap();
            let w = params.klss.unwrap().word_size_t;
            let t_max = BigUint::product(ctx.t_primes()).sub(&BigUint::one());
            for level in 0..=params.max_level {
                let q = &ctx.q_primes()[..=level];
                let qp = ctx.qp_primes(level);
                let scale = (params.beta(level) * params.n()) as u64;
                let mut bound = BigUint::zero();
                for r in digit_ranges(params.alpha(), q.len()) {
                    for rr in digit_ranges(2, qp.len()) {
                        let pair = [&q[r.clone()], &qp[rr]].concat();
                        bound = bound.max(BigUint::product(&pair).mul_u64(scale));
                    }
                }
                let limit = ctx.klss_sum_limit(level);
                assert!(limit >= 2, "WordSize_T {w}, level {level}: limit {limit}");
                let g = limit as u64;
                assert!(bound.mul_u64(g) <= t_max, "WordSize_T {w}, level {level}");
                // The bisection saturates at u64::MAX, a limit no stage
                // reaches.
                if let Some(next) = g.checked_add(1) {
                    assert!(bound.mul_u64(next) > t_max, "WordSize_T {w}, level {level}");
                }
            }
        }
    }

    fn chest() -> (Arc<CkksContext>, KeyChest) {
        chest_at(48)
    }

    /// `test_tiny` with `T` primes of `word_size_t` bits.
    fn chest_at(word_size_t: u32) -> (Arc<CkksContext>, KeyChest) {
        let mut params = CkksParams::test_tiny();
        params.klss = params.klss.map(|k| KlssConfig { word_size_t, ..k });
        let ctx = Arc::new(CkksContext::new(params).unwrap());
        let mut rng = StdRng::seed_from_u64(17);
        let sk = SecretKey::generate(&ctx, &mut rng);
        (ctx.clone(), KeyChest::new(ctx, sk, 18))
    }

    #[test]
    fn klss_keyswitch_phase_is_d_times_target() {
        let (ctx, chest) = chest();
        let level = 4;
        let q = ctx.q_moduli(level).to_vec();
        let d_coeffs: Vec<i64> = (0..ctx.degree() as i64).map(|i| (i % 23) - 11).collect();
        let d = RnsPoly::from_signed(&d_coeffs, &q);
        let key = chest.klss_key(level, KeyTarget::Relin).unwrap();
        let (u0, u1) = keyswitch_klss(&ctx, &key, &d).unwrap();
        let s = chest.secret_key().poly_ntt(&ctx, &q).unwrap();
        let mut u1n = u1.clone();
        ctx.try_ntt_forward(&mut u1n, &q).unwrap();
        u1n.mul_pointwise_assign(&s, &q);
        let mut phase = u0.clone();
        ctx.try_ntt_forward(&mut phase, &q).unwrap();
        phase.add_assign(&u1n, &q);
        let mut s2 = s.clone();
        s2.mul_pointwise_assign(&s, &q);
        let mut dn = d.clone();
        ctx.try_ntt_forward(&mut dn, &q).unwrap();
        dn.mul_pointwise_assign(&s2, &q);
        phase.sub_assign(&dn, &q);
        ctx.try_ntt_inverse(&mut phase, &q).unwrap();
        let norm = phase.centered_inf_norm_limb0(&q[0]);
        assert!(norm < 1 << 20, "KLSS keyswitch error too large: {norm}");
    }

    #[test]
    fn klss_matches_hybrid_up_to_noise() {
        // Both methods compute u0 + u1*s ≈ d*s²; their *difference in
        // phase* must be small even though the raw outputs differ.
        let (ctx, chest) = chest();
        let level = 3;
        let q = ctx.q_moduli(level).to_vec();
        let d_coeffs: Vec<i64> = (0..ctx.degree() as i64).map(|i| (i % 11) - 5).collect();
        let d = RnsPoly::from_signed(&d_coeffs, &q);
        let hk = chest.hybrid_key(level, KeyTarget::Relin).unwrap();
        let kk = chest.klss_key(level, KeyTarget::Relin).unwrap();
        let [h0, h1] = keyswitch_hybrid(&ctx, &hk, &d, [None, None]).unwrap();
        let (k0, k1) = keyswitch_klss(&ctx, &kk, &d).unwrap();
        let s = chest.secret_key().poly_ntt(&ctx, &q).unwrap();
        let phase = |u0: &RnsPoly, u1: &RnsPoly| {
            let mut u1n = u1.clone();
            ctx.try_ntt_forward(&mut u1n, &q).unwrap();
            u1n.mul_pointwise_assign(&s, &q);
            let mut p = u0.clone();
            ctx.try_ntt_forward(&mut p, &q).unwrap();
            p.add_assign(&u1n, &q);
            p
        };
        let mut diff = phase(&h0, &h1);
        diff.sub_assign(&phase(&k0, &k1), &q);
        ctx.try_ntt_inverse(&mut diff, &q).unwrap();
        let norm = diff.centered_inf_norm_limb0(&q[0]);
        assert!(norm < 1 << 20, "methods disagree beyond noise: {norm}");
    }

    #[test]
    fn klss_galois_target() {
        // Keyswitch with a Galois target: u0 + u1*s ≈ d * τ_g(s).
        let (ctx, chest) = chest();
        let level = 2;
        let g = 5usize;
        let q = ctx.q_moduli(level).to_vec();
        let d_coeffs: Vec<i64> = (0..ctx.degree() as i64).map(|i| (i % 7) - 3).collect();
        let d = RnsPoly::from_signed(&d_coeffs, &q);
        let key = chest.klss_key(level, KeyTarget::Galois(g)).unwrap();
        let (u0, u1) = keyswitch_klss(&ctx, &key, &d).unwrap();
        let s_rot = {
            let s = RnsPoly::from_signed(chest.secret_key().coeffs(), &q);
            let mut r = s.automorphism(g, &q);
            ctx.try_ntt_forward(&mut r, &q).unwrap();
            r
        };
        let s = chest.secret_key().poly_ntt(&ctx, &q).unwrap();
        let mut u1n = u1.clone();
        ctx.try_ntt_forward(&mut u1n, &q).unwrap();
        u1n.mul_pointwise_assign(&s, &q);
        let mut phase = u0.clone();
        ctx.try_ntt_forward(&mut phase, &q).unwrap();
        phase.add_assign(&u1n, &q);
        let mut dn = d.clone();
        ctx.try_ntt_forward(&mut dn, &q).unwrap();
        dn.mul_pointwise_assign(&s_rot, &q);
        phase.sub_assign(&dn, &q);
        ctx.try_ntt_inverse(&mut phase, &q).unwrap();
        let norm = phase.centered_inf_norm_limb0(&q[0]);
        assert!(norm < 1 << 20, "Galois keyswitch error too large: {norm}");
    }
}
