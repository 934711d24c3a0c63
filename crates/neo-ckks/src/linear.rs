//! Homomorphic linear algebra: slot-wise linear transforms (the building
//! block of bootstrapping's CoeffToSlot / SlotToCoeff and of the encrypted
//! convolutions in the ResNet workload) and polynomial evaluation (the
//! building block of EvalMod and polynomial activations).

use crate::ciphertext::Ciphertext;
use crate::encoding::{Complex64, Encoder, SLOTS};
use crate::keys::KeyChest;
use crate::ops;
use crate::params::KsMethod;
use neo_error::NeoError;
use std::collections::BTreeMap;

/// A slot-space linear map `z ↦ M·z` stored by generalized diagonals:
/// `(M·z)_i = Σ_d diag_d[i] · z_{(i+d) mod slots}`.
///
/// Homomorphic application costs one rotation + one plaintext
/// multiplication per non-zero diagonal — the access pattern whose cost
/// the bootstrap plan models with BSGS counts.
#[derive(Debug, Clone)]
pub struct LinearTransform {
    slots: usize,
    diagonals: BTreeMap<usize, Vec<Complex64>>,
}

impl LinearTransform {
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
        Ok(Self { slots, diagonals })
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
        Ok(Self { slots, diagonals })
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
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if the transform has no diagonals;
    /// [`NeoError::ParameterMismatch`] if the encoder's slot count differs
    /// from the transform's; plus the underlying rotation / multiply /
    /// rescale errors.
    pub fn try_apply(
        &self,
        chest: &KeyChest,
        enc: &Encoder,
        ct: &Ciphertext,
        method: KsMethod,
    ) -> Result<Ciphertext, NeoError> {
        self.check_slots(enc)?;
        let ctx = chest.context();
        let scale = ctx.params().scale();
        let mut acc: Option<Ciphertext> = None;
        for (&d, diag) in &self.diagonals {
            let rotated = if d == 0 {
                ct.clone()
            } else {
                ops::try_hrotate(chest, ct, d, method)?
            };
            let pt = enc.encode(ctx, diag, scale, rotated.level());
            let term = ops::try_pmult(ctx, &rotated, &pt)?;
            acc = Some(match acc {
                None => term,
                Some(a) => ops::try_hadd(ctx, &a, &term)?,
            });
        }
        let acc = acc.ok_or_else(|| NeoError::invalid_params("transform has no diagonals"))?;
        ops::try_rescale(ctx, &acc)
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

impl LinearTransform {
    /// Applies the transform with the baby-step/giant-step rotation
    /// schedule used by real CoeffToSlot/SlotToCoeff implementations:
    /// `M·z = Σ_j rot_{g·j}( Σ_i rot^{-gj}(diag_{gj+i}) ⊙ rot_i(z) )`,
    /// costing `g + D/g` rotations instead of `D` for `D` diagonals.
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if `baby == 0` or the transform has no
    /// diagonals; [`NeoError::ParameterMismatch`] on slot disagreement;
    /// plus the underlying op errors.
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
        let scale = ctx.params().scale();
        // Baby rotations of the ciphertext, computed once.
        let mut babies: BTreeMap<usize, Ciphertext> = BTreeMap::new();
        for &d in self.diagonals.keys() {
            // Not entry().or_insert_with(): the rotation is fallible.
            if let std::collections::btree_map::Entry::Vacant(slot) = babies.entry(d % baby) {
                let i = d % baby;
                slot.insert(if i == 0 {
                    ct.clone()
                } else {
                    ops::try_hrotate(chest, ct, i, method)?
                });
            }
        }
        // Group diagonals by giant step.
        let mut giants: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &d in self.diagonals.keys() {
            giants.entry(d / baby).or_default().push(d);
        }
        let mut acc: Option<Ciphertext> = None;
        for (&j, ds) in &giants {
            let shift = j * baby;
            let mut inner: Option<Ciphertext> = None;
            for &d in ds {
                let diag = &self.diagonals[&d];
                // Pre-rotate the diagonal right by the giant shift.
                let mut pre = SLOTS.copied(diag);
                pre.rotate_right(shift % self.slots);
                let b = &babies[&(d % baby)];
                let pt = enc.encode(ctx, &pre, scale, b.level());
                SLOTS.give(pre);
                let term = ops::try_pmult(ctx, b, &pt)?;
                inner = Some(match inner {
                    None => term,
                    Some(a) => ops::try_hadd(ctx, &a, &term)?,
                });
            }
            let mut giant_ct =
                inner.ok_or_else(|| NeoError::invalid_params("empty giant group"))?;
            if !shift.is_multiple_of(self.slots) {
                giant_ct = ops::try_hrotate(chest, &giant_ct, shift % self.slots, method)?;
            }
            acc = Some(match acc {
                None => giant_ct,
                Some(a) => ops::try_hadd(ctx, &a, &giant_ct)?,
            });
        }
        let acc = acc.ok_or_else(|| NeoError::invalid_params("transform has no diagonals"))?;
        ops::try_rescale(ctx, &acc)
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
/// [`NeoError::ModulusChainExhausted`] if the ciphertext lacks the
/// required depth; plus the underlying op errors.
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
    let n = coeffs.len() - 1;
    if ct.level() < n {
        return Err(NeoError::chain_exhausted("eval_polynomial", ct.level(), n));
    }
    let ctx = chest.context();
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
    use crate::{CkksContext, CkksParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

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
}

#[cfg(test)]
mod bsgs_tests {
    use super::*;
    use crate::keys::{PublicKey, SecretKey};
    use crate::{CkksContext, CkksParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn bsgs_matches_direct_application() {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(11);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
        let chest = KeyChest::new(ctx.clone(), sk, 12);
        let enc = Encoder::new(ctx.degree());
        let slots = enc.slots();
        // A transform with diagonals spanning several giant steps.
        let mut diagonals = std::collections::BTreeMap::new();
        for d in [0usize, 1, 3, 8, 9, 17, 24] {
            let diag: Vec<Complex64> = (0..slots)
                .map(|i| Complex64::new(((i * 31 + d * 7) % 11) as f64 * 0.05, 0.0))
                .collect();
            diagonals.insert(d, diag);
        }
        let lt = LinearTransform::try_from_diagonals(slots, diagonals).unwrap();
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
        let d1 = enc.decode(
            &ctx,
            &ops::try_decrypt(&ctx, chest.secret_key(), &direct).unwrap(),
        );
        let d2 = enc.decode(
            &ctx,
            &ops::try_decrypt(&ctx, chest.secret_key(), &bsgs).unwrap(),
        );
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
}
