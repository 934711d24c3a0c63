//! A runnable encrypted 2-D convolution — the building block the ResNet
//! workload's traces count. A 3×3 convolution over a cyclically padded
//! `H×W` image packed row-major into slots is exactly a slot linear
//! transform with nine diagonals (one per kernel tap), which is how the
//! multiplexed-convolution construction of Lee et al. maps convolutions
//! onto HROTATE + PMULT.

use neo_ckks::encoding::Complex64;
use neo_ckks::keys::KeyChest;
use neo_ckks::linear::LinearTransform;
use neo_ckks::{Ciphertext, Encoder, KsMethod, NeoError};
use std::collections::BTreeMap;

/// A 3×3 convolution over an `H×W` image with cyclic (wrap-around)
/// padding, packed row-major into `H·W` slots.
#[derive(Debug, Clone)]
pub struct Conv2d {
    height: usize,
    width: usize,
    kernel: [[f64; 3]; 3],
}

impl Conv2d {
    /// Builds the layer.
    ///
    /// # Panics
    ///
    /// Panics unless `height·width` is a power of two ≥ 4 (so it can fill
    /// a slot vector exactly).
    pub fn new(height: usize, width: usize, kernel: [[f64; 3]; 3]) -> Self {
        assert!((height * width).is_power_of_two() && height * width >= 4);
        Self {
            height,
            width,
            kernel,
        }
    }

    /// Slot count the packing uses.
    pub fn slots(&self) -> usize {
        self.height * self.width
    }

    /// Packs an image (row-major) into slot values.
    ///
    /// # Panics
    ///
    /// Panics if `image.len() != H·W`.
    pub fn pack(&self, image: &[f64]) -> Vec<Complex64> {
        assert_eq!(image.len(), self.slots());
        image.iter().map(|&v| Complex64::new(v, 0.0)).collect()
    }

    /// Plaintext reference convolution with cyclic padding.
    pub fn apply_plain(&self, image: &[f64]) -> Vec<f64> {
        assert_eq!(image.len(), self.slots());
        let (h, w) = (self.height as isize, self.width as isize);
        let mut out = vec![0.0; self.slots()];
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                for (ky, row) in self.kernel.iter().enumerate() {
                    for (kx, &c) in row.iter().enumerate() {
                        let yy = (y + ky as isize - 1).rem_euclid(h);
                        let xx = (x + kx as isize - 1).rem_euclid(w);
                        acc += c * image[(yy * w + xx) as usize];
                    }
                }
                out[(y * w + x) as usize] = acc;
            }
        }
        out
    }

    /// Lowers the convolution to a slot linear transform (9 diagonals).
    ///
    /// Tap `(ky, kx)` reads the neighbour at row offset `ky-1`, column
    /// offset `kx-1`; row-major packing turns that into the slot rotation
    /// `d = (ky-1)·W + (kx-1) mod H·W`. Cyclic padding makes the lowering
    /// exact except at the horizontal seams, where the transform's
    /// coefficients are masked per-row (the diagonal entries differ at
    /// x = 0 and x = W-1), exactly as real packings handle edges.
    pub fn to_linear_transform(&self) -> LinearTransform {
        let slots = self.slots();
        let (h, w) = (self.height, self.width);
        let mut diagonals: BTreeMap<usize, Vec<Complex64>> = BTreeMap::new();
        for (ky, row) in self.kernel.iter().enumerate() {
            for (kx, &c) in row.iter().enumerate() {
                if c == 0.0 {
                    continue;
                }
                let dy = ky as isize - 1;
                let dx = kx as isize - 1;
                for y in 0..h as isize {
                    for x in 0..w as isize {
                        // Source slot under pure rotation by d:
                        let i = (y * w as isize + x) as usize;
                        let linear_src =
                            (i as isize + dy * w as isize + dx).rem_euclid(slots as isize) as usize;
                        // Wanted source with 2-D cyclic padding:
                        let yy = (y + dy).rem_euclid(h as isize);
                        let xx = (x + dx).rem_euclid(w as isize);
                        let want_src = (yy * w as isize + xx) as usize;
                        // The plain rotation matches the 2-D wrap except at
                        // horizontal seams; use the rotation that reaches the
                        // wanted source and set its coefficient at slot i.
                        let d = (want_src + slots - i % slots) % slots;
                        let _ = linear_src;
                        let diag = diagonals
                            .entry(d)
                            .or_insert_with(|| vec![Complex64::default(); slots]);
                        diag[i] = diag[i] + Complex64::new(c, 0.0);
                    }
                }
            }
        }
        LinearTransform::try_from_diagonals(slots, diagonals)
            .expect("convolution lowering always yields a well-formed transform")
    }

    /// Applies the convolution homomorphically (one level consumed).
    ///
    /// # Errors
    ///
    /// Propagates [`LinearTransform::try_apply`] failures: slot-count
    /// mismatch, chain exhaustion, or key-switching errors.
    pub fn apply(
        &self,
        chest: &KeyChest,
        enc: &Encoder,
        ct: &Ciphertext,
        method: KsMethod,
    ) -> Result<Ciphertext, NeoError> {
        self.to_linear_transform().try_apply(chest, enc, ct, method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_ckks::keys::{PublicKey, SecretKey};
    use neo_ckks::{ops, CkksContext, CkksParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    const SOBEL: [[f64; 3]; 3] = [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]];

    #[test]
    fn lowering_matches_reference_convolution() {
        let conv = Conv2d::new(8, 16, SOBEL);
        let mut rng = StdRng::seed_from_u64(31);
        let image: Vec<f64> = (0..conv.slots())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let lt = conv.to_linear_transform();
        let packed = conv.pack(&image);
        let via_lt = lt.apply_plain(&packed);
        let direct = conv.apply_plain(&image);
        for i in 0..conv.slots() {
            assert!((via_lt[i].re - direct[i]).abs() < 1e-9, "slot {i}");
        }
    }

    #[test]
    fn encrypted_convolution_matches_plaintext() {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(32);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
        let chest = KeyChest::new(ctx.clone(), sk, 33);
        let enc = Encoder::new(ctx.degree());
        let conv = Conv2d::new(8, 16, SOBEL); // 128 = slot count of N=256
        assert_eq!(conv.slots(), enc.slots());
        let image: Vec<f64> = (0..conv.slots())
            .map(|i| ((i * 13) % 7) as f64 * 0.1)
            .collect();
        let pt = enc.encode(&ctx, &conv.pack(&image), ctx.params().scale(), 3);
        let ct = ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap();
        let out_ct = conv.apply(&chest, &enc, &ct, KsMethod::Klss).unwrap();
        let got = enc.decode(
            &ctx,
            &ops::try_decrypt(&ctx, chest.secret_key(), &out_ct).unwrap(),
        );
        let want = conv.apply_plain(&image);
        for i in 0..conv.slots() {
            assert!(
                (got[i].re - want[i]).abs() < 5e-2,
                "slot {i}: {} vs {}",
                got[i].re,
                want[i]
            );
        }
    }

    #[test]
    fn identity_kernel_is_identity() {
        let mut k = [[0.0; 3]; 3];
        k[1][1] = 1.0;
        let conv = Conv2d::new(4, 8, k);
        let image: Vec<f64> = (0..32).map(|i| i as f64).collect();
        assert_eq!(conv.apply_plain(&image), image);
        assert_eq!(conv.to_linear_transform().diagonal_count(), 1);
    }
}
