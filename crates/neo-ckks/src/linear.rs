//! Homomorphic linear algebra: slot-wise linear transforms (the building
//! block of bootstrapping's CoeffToSlot / SlotToCoeff and of the encrypted
//! convolutions in the ResNet workload) and polynomial evaluation (the
//! building block of EvalMod and polynomial activations).
//!
//! A transform runs its baby-step/giant-step products in the evaluation
//! domain (DESIGN.md, "Linear transforms in the evaluation domain"). It
//! keeps its diagonals encoded and forward-transformed, so an application
//! transforms each baby rotation once, takes one fused product per giant
//! group and component, and keeps the `c0` sum in the evaluation domain
//! for the whole stage: a giant rotation permutes it there, and only `c1`
//! goes back to coefficients, for its key switch.

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::encoding::{Complex64, Encoder, SLOTS};
use crate::keys::KeyChest;
use crate::ops::{self, galois_element};
use crate::params::KsMethod;
use neo_error::NeoError;
use neo_math::{Domain, RnsPoly};
use neo_ntt::galois_permutation;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A slot-space linear map `z ↦ M·z` stored by generalized diagonals:
/// `(M·z)_i = Σ_d diag_d[i] · z_{(i+d) mod slots}`.
///
/// Homomorphic application ([`Self::try_apply_bsgs`]) costs `g + D/g`
/// rotations for `D` diagonals and baby-step size `g`, and one
/// evaluation-domain product per diagonal — the access pattern whose
/// cost the bootstrap plan models with BSGS counts. The transform keeps
/// one encoding of its diagonals, built by the first application and
/// rebuilt only when the q-prime prefix, the scale or `g` changes.
pub struct LinearTransform {
    slots: usize,
    diagonals: BTreeMap<usize, Vec<Complex64>>,
    /// The diagonals as the last application encoded them.
    encoding: Mutex<Option<Arc<Encoding>>>,
}

/// A transform's diagonals ready for BSGS products: each pre-rotated by
/// its giant shift, encoded at the chain's scale and forward-transformed
/// over one q-prime prefix. It depends on the transform alone, never on a
/// ciphertext, and holds `D·(l+1)` limbs and one Galois map per rotation.
struct Encoding {
    /// `q_0..q_l`: the chain and, by its length, the level.
    primes: Vec<u64>,
    scale_bits: u64,
    baby: usize,
    /// Per giant group in ascending shift: the shift, and each diagonal
    /// as its baby step and its evaluation-domain plaintext.
    giants: Vec<(usize, Vec<(usize, Plaintext)>)>,
    /// For every non-zero baby step and giant shift, the rotation's
    /// automorphism as an index map of the evaluations
    /// ([`galois_permutation`]).
    maps: BTreeMap<usize, Vec<u32>>,
}

impl Clone for LinearTransform {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots,
            diagonals: self.diagonals.clone(),
            encoding: Mutex::new(self.encoding.lock().clone()),
        }
    }
}

impl std::fmt::Debug for LinearTransform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinearTransform")
            .field("slots", &self.slots)
            .field("diagonals", &self.diagonals)
            .finish_non_exhaustive()
    }
}

impl LinearTransform {
    fn new(slots: usize, diagonals: BTreeMap<usize, Vec<Complex64>>) -> Self {
        Self {
            slots,
            diagonals,
            encoding: Mutex::new(None),
        }
    }

    /// Builds from an explicit dense matrix (`rows[i][j]`, `slots×slots`),
    /// keeping only non-zero diagonals.
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if the matrix is empty or not square.
    pub fn try_from_matrix(rows: &[Vec<Complex64>]) -> Result<Self, NeoError> {
        let slots = rows.len();
        if slots == 0 {
            return Err(NeoError::invalid_params("matrix must be non-empty"));
        }
        for (i, r) in rows.iter().enumerate() {
            if r.len() != slots {
                return Err(NeoError::invalid_params(format!(
                    "matrix must be square: row {i} has {} entries, expected {slots}",
                    r.len()
                )));
            }
        }
        let mut diagonals = BTreeMap::new();
        for d in 0..slots {
            let diag: Vec<Complex64> = (0..slots).map(|i| rows[i][(i + d) % slots]).collect();
            if diag.iter().any(|v| v.abs() > 0.0) {
                diagonals.insert(d, diag);
            }
        }
        Ok(Self::new(slots, diagonals))
    }

    /// Builds directly from diagonals (`d → diag_d`).
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if any diagonal has the wrong length or
    /// index ≥ slots.
    pub fn try_from_diagonals(
        slots: usize,
        diagonals: BTreeMap<usize, Vec<Complex64>>,
    ) -> Result<Self, NeoError> {
        for (&d, diag) in &diagonals {
            if d >= slots {
                return Err(NeoError::invalid_params(format!(
                    "diagonal index {d} out of range for {slots} slots"
                )));
            }
            if diag.len() != slots {
                return Err(NeoError::invalid_params(format!(
                    "diagonal {d} has {} entries, expected {slots}",
                    diag.len()
                )));
            }
        }
        Ok(Self::new(slots, diagonals))
    }

    /// Number of non-zero diagonals (= rotations per application).
    pub fn diagonal_count(&self) -> usize {
        self.diagonals.len()
    }

    /// Slot count the transform was built for.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Applies the transform to plaintext slots (the reference oracle).
    pub fn apply_plain(&self, z: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::default(); self.slots];
        for (&d, diag) in &self.diagonals {
            for i in 0..self.slots {
                out[i] = out[i] + diag[i] * z[(i + d) % self.slots];
            }
        }
        out
    }

    /// Applies the transform homomorphically: `Σ_d diag_d ⊙ rot(ct, d)`,
    /// followed by one rescale. Consumes one level.
    ///
    /// This is [`Self::try_apply_bsgs`] with baby-step size `slots`: one
    /// giant group of shift 0 whose babies are the rotations by each
    /// non-zero diagonal index, so it costs one rotation per such
    /// diagonal, one evaluation-domain product per diagonal and one
    /// inverse transform pair.
    ///
    /// # Errors
    ///
    /// As [`Self::try_apply_bsgs`].
    pub fn try_apply(
        &self,
        chest: &KeyChest,
        enc: &Encoder,
        ct: &Ciphertext,
        method: KsMethod,
    ) -> Result<Ciphertext, NeoError> {
        self.try_apply_bsgs(chest, enc, ct, self.slots, method)
    }

    /// Applies the transform with the baby-step/giant-step rotation
    /// schedule used by real CoeffToSlot/SlotToCoeff implementations:
    /// `M·z = Σ_j rot_{g·j}( Σ_i rot^{-gj}(diag_{gj+i}) ⊙ rot_i(z) )`,
    /// costing `g + D/g` rotations instead of `D` for `D` diagonals,
    /// followed by one rescale. Consumes one level.
    ///
    /// `c0` is forward-transformed once and stays in the evaluation
    /// domain for the whole stage. Each baby rotation `rot_i(z)` is held
    /// forward-transformed, its `c0` built as `σ_i(NTT(c0)) + NTT(u0)`,
    /// with `σ_i` an index permutation of the evaluations. Each giant
    /// group is one fused multiply-add per ciphertext component against
    /// the transform's cached plaintexts; its rotation permutes the `c0`
    /// product into the stage's evaluation-domain sum and transforms only
    /// the `c1` product back, whose key switch lands in the stage's
    /// coefficient-domain sums. One inverse transform of the `c0` sum ends
    /// the stage. Every rotation draws its `ckks_op` fault gate and opens
    /// a `ckks.hrotate` span. The result is bit-identical to a PMult and
    /// HAdd per diagonal.
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if `baby == 0` or the transform has no
    /// diagonals; [`NeoError::ParameterMismatch`] on slot disagreement or
    /// a ciphertext level outside the chain; plus the underlying
    /// transform, rotation and rescale errors.
    pub fn try_apply_bsgs(
        &self,
        chest: &KeyChest,
        enc: &Encoder,
        ct: &Ciphertext,
        baby: usize,
        method: KsMethod,
    ) -> Result<Ciphertext, NeoError> {
        if baby == 0 {
            return Err(NeoError::invalid_params("baby-step size must be positive"));
        }
        self.check_slots(enc)?;
        let ctx = chest.context();
        let level = ct.level();
        ops::check_level(ctx, "linear_transform", level)?;
        let encoding = self.encoding(ctx, enc, level, baby)?;
        let moduli = ctx.q_moduli(level);
        let mut c0 = ct.c0().clone();
        ctx.try_ntt_forward(&mut c0, moduli)?;
        // The rotations below take `c1` in coefficients, as its transform
        // does.
        ctx.check_transform("ntt_forward", ct.c1(), moduli, Domain::Coeff)?;
        // Baby rotations of the ciphertext, held forward-transformed; the
        // unrotated one last, since it takes `c0` over.
        let steps: BTreeSet<usize> = self.diagonals.keys().map(|d| d % baby).collect();
        let mut babies: BTreeMap<usize, [RnsPoly; 2]> = BTreeMap::new();
        for &i in steps.iter().filter(|&&i| i != 0) {
            let [mut u0, mut u1] = ops::rotation(chest, level, i, method, |g, moduli| {
                Ok((ct.c1().automorphism(g, moduli), [None, None]))
            })?;
            ctx.try_ntt_forward(&mut u0, moduli)?;
            ctx.try_ntt_forward(&mut u1, moduli)?;
            u0.add_permuted_assign(&c0, &encoding.maps[&i], moduli);
            babies.insert(i, [u0, u1]);
        }
        if steps.contains(&0) {
            let mut c1 = ct.c1().clone();
            ctx.try_ntt_forward(&mut c1, moduli)?;
            babies.insert(0, [c0, c1]);
        }
        let be = ctx.backend();
        // The stage's running sums: `c0`'s in the evaluation domain, and
        // in coefficients the unrotated group's `c1` and every key
        // switch's output. Groups ascend by shift, so an unrotated one
        // comes first.
        let mut sum0: Option<RnsPoly> = None;
        let mut acc: [Option<RnsPoly>; 2] = [None, None];
        for (shift, group) in &encoding.giants {
            let [p0, mut p1] = [0, 1].map(|k| {
                let terms: Vec<_> = group
                    .iter()
                    .map(|(i, pt)| (&babies[i][k], pt.poly()))
                    .collect();
                RnsPoly::inner_product(be, &terms, moduli)
            });
            if *shift == 0 {
                sum0 = Some(p0);
                ctx.try_ntt_inverse(&mut p1, moduli)?;
                acc[1] = Some(p1);
                continue;
            }
            let map = &encoding.maps[shift];
            let into = std::mem::take(&mut acc);
            // σ_g of `c0`'s product goes into the evaluation-domain sum;
            // `c1`'s is permuted on the warm evaluations, then takes the
            // inverse Mod Up needs, and its switch lands in the sums.
            let switched = ops::rotation(chest, level, *shift, method, |_, moduli| {
                match &mut sum0 {
                    Some(sum) => sum.add_permuted_assign(&p0, map, moduli),
                    None => sum0 = Some(p0.permuted(map)),
                }
                let mut d = p1.permuted(map);
                ctx.try_ntt_inverse(&mut d, moduli)?;
                Ok((d, into))
            })?;
            acc = switched.map(Some);
        }
        let (Some(mut c0), [acc0, Some(c1)]) = (sum0, acc) else {
            return Err(NeoError::invalid_params("transform has no diagonals"));
        };
        ctx.try_ntt_inverse(&mut c0, moduli)?;
        if let Some(switched) = acc0 {
            c0.add_assign(&switched, moduli);
        }
        let scale = ct.scale() * ctx.params().scale();
        ops::try_rescale(ctx, &Ciphertext::new(c0, c1, scale, level))
    }

    /// The encoding for `level` and `baby`: the cached one if its key
    /// matches, else a new one, cached only once every plaintext has
    /// transformed cleanly, so a detected fault leaves nothing behind.
    fn encoding(
        &self,
        ctx: &CkksContext,
        enc: &Encoder,
        level: usize,
        baby: usize,
    ) -> Result<Arc<Encoding>, NeoError> {
        let primes = &ctx.q_primes()[..=level];
        let scale = ctx.params().scale();
        let cached = self.encoding.lock().clone();
        if let Some(e) = cached
            .filter(|e| e.primes == primes && e.scale_bits == scale.to_bits() && e.baby == baby)
        {
            return Ok(e);
        }
        let moduli = ctx.q_moduli(level);
        let mut giants: Vec<(usize, Vec<(usize, Plaintext)>)> = Vec::new();
        for (&d, diag) in &self.diagonals {
            let (shift, i) = (d - d % baby, d % baby);
            // Pre-rotate the diagonal right by its giant shift.
            let mut pre = SLOTS.copied(diag);
            pre.rotate_right(shift);
            let mut pt = enc.encode(ctx, &pre, scale, level);
            SLOTS.give(pre);
            ctx.try_ntt_forward(pt.poly_mut(), moduli)?;
            match giants.last_mut() {
                Some((s, group)) if *s == shift => group.push((i, pt)),
                _ => giants.push((shift, vec![(i, pt)])),
            }
        }
        let n = ctx.degree();
        let rotations = giants
            .iter()
            .flat_map(|(shift, group)| group.iter().map(|(i, _)| *i).chain([*shift]))
            .filter(|&steps| steps != 0);
        let maps = rotations
            .map(|steps| (steps, galois_permutation(n, galois_element(n, steps))))
            .collect();
        let built = Arc::new(Encoding {
            primes: primes.to_vec(),
            scale_bits: scale.to_bits(),
            baby,
            giants,
            maps,
        });
        *self.encoding.lock() = Some(Arc::clone(&built));
        Ok(built)
    }

    fn check_slots(&self, enc: &Encoder) -> Result<(), NeoError> {
        if enc.slots() != self.slots {
            return Err(NeoError::parameter_mismatch(
                "linear_transform",
                format!(
                    "encoder has {} slots, transform expects {}",
                    enc.slots(),
                    self.slots
                ),
            ));
        }
        Ok(())
    }
}

/// Evaluates a real-coefficient polynomial `p(x) = c_0 + c_1 x + …` on a
/// ciphertext by Horner's rule. Consumes `deg(p)` levels (one
/// multiplication + rescale per step) — the pattern EvalMod and the
/// polynomial ReLU of the ResNet workload use.
///
/// # Errors
///
/// [`NeoError::InvalidParams`] if `deg(p) < 1`;
/// [`NeoError::ParameterMismatch`] if the ciphertext's level lies outside
/// the chain; [`NeoError::ModulusChainExhausted`] if the ciphertext lacks
/// the required depth; plus the underlying op errors.
pub fn try_eval_polynomial(
    chest: &KeyChest,
    enc: &Encoder,
    ct: &Ciphertext,
    coeffs: &[f64],
    method: KsMethod,
) -> Result<Ciphertext, NeoError> {
    if coeffs.len() < 2 {
        return Err(NeoError::invalid_params(
            "need degree >= 1 (constant polys need no ciphertext)",
        ));
    }
    let ctx = chest.context();
    ops::check_level(ctx, "eval_polynomial", ct.level())?;
    let n = coeffs.len() - 1;
    if ct.level() < n {
        return Err(NeoError::chain_exhausted("eval_polynomial", ct.level(), n));
    }
    let scale = ctx.params().scale();
    let slots = enc.slots();
    let constant = |c: f64, level: usize, s: f64| {
        enc.encode(ctx, &vec![Complex64::new(c, 0.0); slots], s, level)
    };
    // acc = c_n·x + c_{n-1}
    let cn = constant(coeffs[n], ct.level(), scale);
    let mut acc = ops::try_rescale(ctx, &ops::try_pmult(ctx, ct, &cn)?)?;
    acc = ops::try_padd(
        ctx,
        &acc,
        &constant(coeffs[n - 1], acc.level(), acc.scale()),
    )?;
    // acc = acc·x + c_i, descending.
    for i in (0..n - 1).rev() {
        let x_low = ops::try_level_reduce(ct, acc.level())?;
        acc = ops::try_rescale(ctx, &ops::try_hmult(chest, &acc, &x_low, method)?)?;
        acc = ops::try_padd(ctx, &acc, &constant(coeffs[i], acc.level(), acc.scale()))?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{PublicKey, SecretKey};
    use crate::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rig(seed: u64) -> (Arc<CkksContext>, KeyChest, PublicKey, Encoder, StdRng) {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
        let chest = KeyChest::new(ctx.clone(), sk, seed + 1);
        let enc = Encoder::new(ctx.degree());
        (ctx, chest, pk, enc, rng)
    }

    #[test]
    fn tridiagonal_transform_matches_plain() {
        let (ctx, chest, pk, enc, mut rng) = rig(5);
        let slots = enc.slots();
        // A tridiagonal-ish matrix: diagonals 0, 1 and slots-1.
        let mut diagonals = std::collections::BTreeMap::new();
        for d in [0usize, 1, slots - 1] {
            let diag: Vec<Complex64> = (0..slots)
                .map(|i| Complex64::new(((i + d) % 7) as f64 * 0.1, 0.0))
                .collect();
            diagonals.insert(d, diag);
        }
        let lt = LinearTransform::try_from_diagonals(slots, diagonals).unwrap();
        assert_eq!(lt.diagonal_count(), 3);
        let z: Vec<Complex64> = (0..slots)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let pt = enc.encode(&ctx, &z, ctx.params().scale(), 3);
        let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        let out_ct = lt.try_apply(&chest, &enc, &ct, KsMethod::Klss).unwrap();
        let got = enc.decode(
            &ctx,
            &ops::try_decrypt(&ctx, chest.secret_key(), &out_ct).unwrap(),
        );
        let want = lt.apply_plain(&z);
        for i in 0..slots {
            assert!(
                (got[i] - want[i]).abs() < 1e-2,
                "slot {i}: {:?} vs {:?}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn dense_matrix_roundtrip_small() {
        // try_from_matrix and apply_plain agree with direct mat-vec.
        let slots = 8usize;
        let mut rng = StdRng::seed_from_u64(9);
        let rows: Vec<Vec<Complex64>> = (0..slots)
            .map(|_| {
                (0..slots)
                    .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0))
                    .collect()
            })
            .collect();
        let lt = LinearTransform::try_from_matrix(&rows).unwrap();
        let z: Vec<Complex64> = (0..slots)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let got = lt.apply_plain(&z);
        for i in 0..slots {
            let want = rows[i]
                .iter()
                .zip(&z)
                .fold(Complex64::default(), |acc, (m, v)| acc + *m * *v);
            assert!((got[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn malformed_transforms_are_rejected() {
        let rows = vec![vec![Complex64::new(1.0, 0.0); 3], vec![]];
        assert!(LinearTransform::try_from_matrix(&rows).is_err());
        let mut diagonals = std::collections::BTreeMap::new();
        diagonals.insert(9usize, vec![Complex64::default(); 4]);
        assert!(LinearTransform::try_from_diagonals(4, diagonals).is_err());
    }

    #[test]
    fn polynomial_evaluation_degree_three() {
        let (ctx, chest, pk, enc, mut rng) = rig(6);
        let slots = enc.slots();
        let xs: Vec<f64> = (0..slots).map(|_| rng.gen_range(-0.9..0.9)).collect();
        let z: Vec<Complex64> = xs.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        let pt = enc.encode(&ctx, &z, ctx.params().scale(), 4);
        let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        // p(x) = 0.5 + 0.197x - 0.004x^3 (HELR's degree-3 sigmoid).
        let coeffs = [0.5, 0.197, 0.0, -0.004];
        let out_ct = try_eval_polynomial(&chest, &enc, &ct, &coeffs, KsMethod::Klss).unwrap();
        let got = enc.decode(
            &ctx,
            &ops::try_decrypt(&ctx, chest.secret_key(), &out_ct).unwrap(),
        );
        for i in 0..slots {
            let x = xs[i];
            let want = 0.5 + 0.197 * x - 0.004 * x * x * x;
            assert!(
                (got[i].re - want).abs() < 1e-2,
                "slot {i}: {} vs {want}",
                got[i].re
            );
        }
    }

    #[test]
    fn linear_polynomial() {
        let (ctx, chest, pk, enc, mut rng) = rig(7);
        let z = vec![Complex64::new(0.25, 0.0); enc.slots()];
        let pt = enc.encode(&ctx, &z, ctx.params().scale(), 2);
        let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        let out_ct = try_eval_polynomial(&chest, &enc, &ct, &[1.0, 2.0], KsMethod::Hybrid).unwrap();
        let got = enc.decode(
            &ctx,
            &ops::try_decrypt(&ctx, chest.secret_key(), &out_ct).unwrap(),
        );
        assert!((got[0].re - 1.5).abs() < 1e-3, "{}", got[0].re);
    }

    #[test]
    fn shallow_ciphertext_cannot_take_deep_polynomial() {
        let (ctx, chest, pk, enc, mut rng) = rig(8);
        let z = vec![Complex64::new(0.5, 0.0); enc.slots()];
        let pt = enc.encode(&ctx, &z, ctx.params().scale(), 1);
        let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        let err = try_eval_polynomial(&chest, &enc, &ct, &[1.0, 1.0, 1.0, 1.0], KsMethod::Hybrid)
            .unwrap_err();
        assert_eq!(err.kind(), neo_error::ErrorKind::ModulusChainExhausted);
    }

    /// A transform with the diagonals `indices`, each a fixed pattern.
    fn transform(slots: usize, indices: impl IntoIterator<Item = usize>) -> LinearTransform {
        let diagonals = indices
            .into_iter()
            .map(|d| {
                let diag = (0..slots)
                    .map(|i| Complex64::new(((i * 31 + d * 7) % 11) as f64 * 0.05, 0.0))
                    .collect();
                (d, diag)
            })
            .collect();
        LinearTransform::try_from_diagonals(slots, diagonals).unwrap()
    }

    /// Diagonals spanning several giant steps for every baby-step size
    /// tested, with the last diagonal at the top of the slot range.
    fn spread(slots: usize) -> LinearTransform {
        transform(slots, [0, 1, 3, 8, 9, 17, 24, slots - 1])
    }

    #[test]
    fn bsgs_matches_direct_application() {
        let (ctx, chest, pk, enc, mut rng) = rig(11);
        let slots = enc.slots();
        let lt = spread(slots);
        let z: Vec<Complex64> = (0..slots)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let pt = enc.encode(&ctx, &z, ctx.params().scale(), 3);
        let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        let direct = lt.try_apply(&chest, &enc, &ct, KsMethod::Klss).unwrap();
        let bsgs = lt
            .try_apply_bsgs(&chest, &enc, &ct, 8, KsMethod::Klss)
            .unwrap();
        let want = lt.apply_plain(&z);
        let sk = chest.secret_key();
        let d1 = enc.decode(&ctx, &ops::try_decrypt(&ctx, sk, &direct).unwrap());
        let d2 = enc.decode(&ctx, &ops::try_decrypt(&ctx, sk, &bsgs).unwrap());
        for i in 0..slots {
            assert!((d1[i] - want[i]).abs() < 1e-2, "direct slot {i}");
            assert!(
                (d2[i] - want[i]).abs() < 1e-2,
                "bsgs slot {i}: {:?} vs {:?}",
                d2[i],
                want[i]
            );
        }
    }

    /// The per-diagonal loop the evaluation-domain BSGS replaced, from
    /// public calls: per diagonal an encode, a PMult (five transforms)
    /// and a coefficient-domain HAdd.
    fn per_diagonal(
        lt: &LinearTransform,
        chest: &KeyChest,
        enc: &Encoder,
        ct: &Ciphertext,
        baby: usize,
        method: KsMethod,
    ) -> Ciphertext {
        let ctx = chest.context();
        let scale = ctx.params().scale();
        let slots = lt.slots();
        let mut babies = BTreeMap::new();
        for &d in lt.diagonals.keys() {
            babies.entry(d % baby).or_insert_with(|| match d % baby {
                0 => ct.clone(),
                i => ops::try_hrotate(chest, ct, i, method).unwrap(),
            });
        }
        let mut giants: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &d in lt.diagonals.keys() {
            giants.entry(d / baby).or_default().push(d);
        }
        let mut acc: Option<Ciphertext> = None;
        for (&j, ds) in &giants {
            let shift = j * baby;
            let mut inner: Option<Ciphertext> = None;
            for &d in ds {
                let mut pre = lt.diagonals[&d].clone();
                pre.rotate_right(shift % slots);
                let b = &babies[&(d % baby)];
                let pt = enc.encode(ctx, &pre, scale, b.level());
                let term = ops::try_pmult(ctx, b, &pt).unwrap();
                inner = Some(match inner {
                    None => term,
                    Some(a) => ops::try_hadd(ctx, &a, &term).unwrap(),
                });
            }
            let mut giant = inner.unwrap();
            if !shift.is_multiple_of(slots) {
                giant = ops::try_hrotate(chest, &giant, shift % slots, method).unwrap();
            }
            acc = Some(match acc {
                None => giant,
                Some(a) => ops::try_hadd(ctx, &a, &giant).unwrap(),
            });
        }
        ops::try_rescale(ctx, &acc.unwrap()).unwrap()
    }

    #[test]
    fn bsgs_is_bit_identical_to_the_per_diagonal_loop() {
        let (ctx, chest, pk, enc, mut rng) = rig(13);
        let slots = enc.slots();
        let lt = spread(slots);
        let z: Vec<Complex64> = (0..slots)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let top = ctx.params().max_level;
        let pt = enc.encode(&ctx, &z, ctx.params().scale(), top);
        let ct_top = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        let ct_low = ops::try_level_reduce(&ct_top, 3).unwrap();
        let cached = || lt.encoding.lock().clone().unwrap();
        for method in [KsMethod::Klss, KsMethod::Hybrid] {
            for baby in [1, 2, 3, 8] {
                let mut built = Vec::new();
                for ct in [&ct_top, &ct_top, &ct_low] {
                    let want = per_diagonal(&lt, &chest, &enc, ct, baby, method);
                    let got = lt.try_apply_bsgs(&chest, &enc, ct, baby, method);
                    let level = ct.level();
                    assert_eq!(got.unwrap(), want, "{method:?}, baby {baby}, level {level}");
                    built.push(cached());
                }
                // The second top-level call reuses the first's encoding;
                // the call further down the chain rebuilds it.
                assert!(Arc::ptr_eq(&built[0], &built[1]), "baby {baby}: rebuilt");
                assert!(!Arc::ptr_eq(&built[1], &built[2]), "baby {baby}: stale");
                assert_eq!(built[2].primes.len(), ct_low.level() + 1);
            }
            let want = per_diagonal(&lt, &chest, &enc, &ct_top, slots, method);
            let got = lt.try_apply(&chest, &enc, &ct_top, method).unwrap();
            assert_eq!(got, want, "{method:?}, one giant group");
        }
        // Stage shapes the spread transform lacks: coeff-to-slot's radix-4
        // strides 4 and 16 at baby size 3 (seven giant groups of one
        // diagonal each, six of them rotated), and a transform with no
        // diagonal below its baby size, so it has no unrotated baby and
        // its first giant group is a rotated one.
        let radix4 = |s: usize| (0..4).flat_map(move |j| [j * s, (slots - j * s) % slots]);
        // Each shape with its giant groups' shifts (0 marks the unrotated
        // group) and sizes.
        let shapes = [
            (
                transform(slots, radix4(4)),
                3,
                vec![0, 3, 6, 12, 114, 120, 123],
            ),
            (
                transform(slots, radix4(16)),
                3,
                vec![0, 15, 30, 48, 78, 96, 111],
            ),
            (transform(slots, [5, 6, 9, 13]), 4, vec![4, 4, 8, 12]),
        ];
        assert_eq!(slots, 128, "the shifts above assume test_tiny's slots");
        for (lt, baby, shifts) in &shapes {
            for method in [KsMethod::Klss, KsMethod::Hybrid] {
                let want = per_diagonal(lt, &chest, &enc, &ct_top, *baby, method);
                let got = lt.try_apply_bsgs(&chest, &enc, &ct_top, *baby, method);
                let ds: Vec<_> = lt.diagonals.keys().collect();
                assert_eq!(got.unwrap(), want, "{method:?}, diagonals {ds:?}");
            }
            let encoding = lt.encoding.lock().clone().unwrap();
            let groups = encoding.giants.iter();
            let got: Vec<usize> = groups.flat_map(|(s, g)| vec![*s; g.len()]).collect();
            assert_eq!(&got, shifts);
        }
    }
}
