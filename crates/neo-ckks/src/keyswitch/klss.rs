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

use super::{check_accumulators, check_keyswitch_input, mod_down};
use crate::context::CkksContext;
use crate::keys::{digit_ranges, KlssKey};
use neo_error::NeoError;
use neo_math::packed::klss_ip_rows;
use neo_math::{Domain, PackedPoly, RnsPoly};
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
/// in its component's Mod Down as one more inner product row.
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
    let params = ctx.params();
    let kcfg = params.klss.ok_or_else(|| {
        NeoError::key_missing(level, "klss", "parameter set has no KLSS configuration")
    })?;
    let q_primes = &ctx.q_primes()[..=level];
    let t_primes = ctx.t_primes().to_vec();
    let t_moduli = ctx.t_moduli().to_vec();
    let qp = ctx.qp_moduli(level);
    let qp_primes = ctx.qp_primes(level);
    let ranges = digit_ranges(params.alpha(), level + 1);
    let dnum = ranges.len();
    let _s = neo_trace::span!("keyswitch.klss", level = level, dnum = dnum);

    // --- Mod Up: exact conversion of each digit into R_T, then NTT. ---
    // Digits are independent, so the conversions fan out across the pool.
    let xs: Vec<Result<RnsPoly, NeoError>> = ranges
        .par_iter()
        .map(|r| -> Result<RnsPoly, NeoError> {
            let table = ctx.bconv_table(&q_primes[r.clone()], &t_primes);
            let conv = table.convert_exact(&d.limbs()[r.clone()]);
            let mut x = RnsPoly::from_limbs(conv, Domain::Coeff)?;
            ctx.try_ntt_forward(&mut x, &t_moduli)?;
            Ok(x)
        })
        .collect();
    let xs: Vec<RnsPoly> = xs.into_iter().collect::<Result<_, _>>()?;

    // --- IP: for each output digit ĵ, accumulate over β input digits. ---
    // --- INTT and Recover Limbs per output digit. ---
    // The gadget factor ẽ_ĵ = Ê_ĵ·[Ê_ĵ⁻¹]_{E_ĵ} is ≡ 1 on digit ĵ's own
    // limbs and ≡ 0 on every other limb of R_PQ, so recovering G_ĵ only
    // writes its own α̃ limbs — this is why Table 2 counts Recover Limbs
    // as 2·α'·(l+α) rather than 2·β̃·α'·(l+α).
    let key_ranges = digit_ranges(kcfg.alpha_tilde, qp.len());
    // Output digits write disjoint limb ranges of the result, so each
    // (IP, INTT, Recover Limbs) chain runs on its own worker; the recovered
    // limbs are stitched together afterwards.
    let recovered: Vec<Result<[Vec<Vec<u64>>; 2], NeoError>> = key_ranges
        .par_iter()
        .enumerate()
        .map(|(jj, range)| -> Result<[Vec<Vec<u64>>; 2], NeoError> {
            let table = ctx.bconv_table(&t_primes, &qp_primes[range.clone()]);
            // The IP of both key components, one T limb at a time: each
            // Mod Up row is read once for both, beside the key's packed
            // rows.
            let pairs: Vec<&[PackedPoly; 2]> = key.digits.iter().map(|digit| &digit[jj]).collect();
            let width = pairs[0][0].width();
            let limbs = t_moduli.len();
            let (mut ip0, mut ip1) = (Vec::with_capacity(limbs), Vec::with_capacity(limbs));
            let (mut x, mut k) = (Vec::with_capacity(dnum), Vec::with_capacity(dnum));
            for (i, t) in t_moduli.iter().enumerate() {
                x.clear();
                k.clear();
                x.extend(xs.iter().map(|x| x.limb(i)));
                k.extend(pairs.iter().map(|pair| pair.each_ref().map(|p| p.row(i))));
                let [a, b] = klss_ip_rows(ctx.backend(), t, &x, &k, width);
                ip0.push(a);
                ip1.push(b);
            }
            let recover = |rows: Vec<Vec<u64>>| -> Result<Vec<Vec<u64>>, NeoError> {
                let mut acc = RnsPoly::from_limbs(rows, Domain::Ntt)?;
                // The inverse multiplies limb i by n⁻¹·T̂_i⁻¹ in its one
                // scale pass, so the exact centered BConv of G_ĵ into
                // digit ĵ's limbs starts from rows already scaled.
                ctx.try_ntt_inverse_scaled(&mut acc, &t_moduli, table.qhat_inv())?;
                Ok(table.convert_exact_scaled(acc.limbs()))
            };
            Ok([recover(ip0)?, recover(ip1)?])
        })
        .collect();
    // The key ranges cover the R_PQ limbs in order, so the recovered limbs
    // move into place one digit after another.
    let mut result = [Vec::with_capacity(qp.len()), Vec::with_capacity(qp.len())];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyChest, KeyTarget, SecretKey};
    use crate::keyswitch::hybrid::keyswitch_hybrid;
    use crate::params::{CkksParams, KlssConfig};
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
