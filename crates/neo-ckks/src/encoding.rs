//! CKKS encoding: packing `N/2` complex slots into a plaintext polynomial
//! via the canonical embedding (the "special FFT" of HEAAN).
//!
//! `encode` computes `m(X) = round(Δ · σ⁻¹(z))` where `σ` evaluates the
//! polynomial at the primitive odd powers `ζ^{5^j}` of the `2N`-th root of
//! unity; `decode` inverts it. Slot rotations then correspond to the
//! Galois automorphisms `X ↦ X^{5^r}`.

use crate::ciphertext::Plaintext;
use crate::context::CkksContext;
use neo_math::recycle::Recycler;
use neo_math::{signed_mod, Domain, RnsPoly};
use std::ops::{Add, Mul, Neg, Sub};

/// A second recycler beside the limbs' (`neo_math::recycle::LIMBS`), for
/// the `N/2`-slot scratch of [`Encoder::encode`] and of the BSGS diagonal
/// rotation: one limb's bytes each, which every encode would otherwise
/// allocate afresh.
pub(crate) static SLOTS: Recycler<Complex64> = Recycler::new();

/// A minimal complex number (avoids an external dependency for the one
/// cold path that needs it).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Constructs `re + im·i`.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Scales by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

/// Encoder/decoder bound to a context's degree.
#[derive(Debug)]
pub struct Encoder {
    n: usize,
    /// `5^j mod 2N` for `j < N/2`.
    rot_group: Vec<usize>,
    /// `ζ^k = e^{2πik/2N}` for `k ≤ 2N`.
    ksi_pows: Vec<Complex64>,
}

impl Encoder {
    /// Builds an encoder for ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two ≥ 8.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 8, "bad degree {n}");
        let m = 2 * n;
        let slots = n / 2;
        let mut rot_group = Vec::with_capacity(slots);
        let mut five = 1usize;
        for _ in 0..slots {
            rot_group.push(five);
            five = (five * 5) % m;
        }
        let ksi_pows = (0..=m)
            .map(|k| Complex64::cis(2.0 * std::f64::consts::PI * k as f64 / m as f64))
            .collect();
        Self {
            n,
            rot_group,
            ksi_pows,
        }
    }

    /// Slot count `N/2`.
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// Encodes complex slots into a plaintext at the given level and scale.
    /// Missing slots are zero-padded; extra values are an error by panic.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied.
    pub fn encode(
        &self,
        ctx: &CkksContext,
        values: &[Complex64],
        scale: f64,
        level: usize,
    ) -> Plaintext {
        let slots = self.slots();
        assert!(values.len() <= slots, "too many slots");
        let mut vals = SLOTS.zeroed(slots);
        vals[..values.len()].copy_from_slice(values);
        self.fft_special_inv(&mut vals);
        // Coefficient j is round(Δ·Re v_j) and coefficient j + N/2 is
        // round(Δ·Im v_j): rounded once here, reduced into each limb below.
        for v in vals.iter_mut() {
            *v = Complex64::new((v.re * scale).round(), (v.im * scale).round());
        }
        let moduli = ctx.q_moduli(level);
        let mut poly = RnsPoly::zero(self.n, moduli.len(), Domain::Coeff);
        for (limb, m) in poly.limbs_mut().iter_mut().zip(moduli) {
            let (re, im) = limb.split_at_mut(slots);
            for ((r, i), v) in re.iter_mut().zip(im).zip(&vals) {
                *r = signed_mod(v.re as i64, m.value());
                *i = signed_mod(v.im as i64, m.value());
            }
        }
        SLOTS.give(vals);
        Plaintext::new(poly, scale, level)
    }

    /// Decodes a plaintext back into complex slots.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext is in NTT domain.
    pub fn decode(&self, ctx: &CkksContext, pt: &Plaintext) -> Vec<Complex64> {
        assert_eq!(
            pt.poly().domain(),
            neo_math::Domain::Coeff,
            "decode needs coeff domain"
        );
        let slots = self.slots();
        let basis =
            neo_math::RnsBasis::new(&ctx.q_primes()[..=pt.level()]).expect("valid prefix basis");
        let mut vals = vec![Complex64::default(); slots];
        let mut residues = vec![0u64; pt.level() + 1];
        for (j, v) in vals.iter_mut().enumerate() {
            for (i, r) in residues.iter_mut().enumerate() {
                *r = pt.poly().limb(i)[j];
            }
            let re = basis.reconstruct_centered_f64(&residues) / pt.scale();
            for (i, r) in residues.iter_mut().enumerate() {
                *r = pt.poly().limb(i)[j + slots];
            }
            let im = basis.reconstruct_centered_f64(&residues) / pt.scale();
            *v = Complex64::new(re, im);
        }
        self.fft_special(&mut vals);
        vals
    }

    /// Forward special FFT (decode direction).
    fn fft_special(&self, vals: &mut [Complex64]) {
        let n = vals.len();
        let m = 2 * self.n;
        bit_reverse(vals);
        let mut len = 2;
        while len <= n {
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..n).step_by(len) {
                for j in 0..lenh {
                    let idx = (self.rot_group[j] % lenq) * (m / lenq);
                    let u = vals[i + j];
                    let v = vals[i + j + lenh] * self.ksi_pows[idx];
                    vals[i + j] = u + v;
                    vals[i + j + lenh] = u - v;
                }
            }
            len <<= 1;
        }
    }

    /// Inverse special FFT (encode direction).
    fn fft_special_inv(&self, vals: &mut [Complex64]) {
        let n = vals.len();
        let m = 2 * self.n;
        let mut len = n;
        while len >= 2 {
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..n).step_by(len) {
                for j in 0..lenh {
                    let idx = (lenq - (self.rot_group[j] % lenq)) * (m / lenq);
                    let u = vals[i + j] + vals[i + j + lenh];
                    let v = (vals[i + j] - vals[i + j + lenh]) * self.ksi_pows[idx];
                    vals[i + j] = u;
                    vals[i + j + lenh] = v;
                }
            }
            len >>= 1;
        }
        bit_reverse(vals);
        let inv = 1.0 / n as f64;
        for v in vals.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

fn bit_reverse(vals: &mut [Complex64]) {
    let n = vals.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits().wrapping_shr(64 - bits) as usize;
        if j > i {
            vals.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn setup() -> (CkksContext, Encoder) {
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let enc = Encoder::new(ctx.degree());
        (ctx, enc)
    }

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (ctx, enc) = setup();
        let vals: Vec<Complex64> = (0..enc.slots())
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let pt = enc.encode(&ctx, &vals, ctx.params().scale(), 2);
        let out = enc.decode(&ctx, &pt);
        for (a, b) in vals.iter().zip(&out) {
            assert!(close(*a, *b, 1e-6), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn encode_zero_padding() {
        let (ctx, enc) = setup();
        let vals = vec![Complex64::new(1.5, -0.5); 3];
        let pt = enc.encode(&ctx, &vals, ctx.params().scale(), 1);
        let out = enc.decode(&ctx, &pt);
        assert!(close(out[0], vals[0], 1e-6));
        assert!(close(out[5], Complex64::default(), 1e-6));
    }

    #[test]
    fn plaintext_addition_is_slotwise() {
        let (ctx, enc) = setup();
        let a: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..8).map(|i| Complex64::new(0.5, i as f64)).collect();
        let scale = ctx.params().scale();
        let mut pa = enc.encode(&ctx, &a, scale, 2);
        let pb = enc.encode(&ctx, &b, scale, 2);
        pa.poly_mut().add_assign(pb.poly(), ctx.q_moduli(2));
        let out = enc.decode(&ctx, &pa);
        for i in 0..8 {
            assert!(close(out[i], a[i] + b[i], 1e-5));
        }
    }

    #[test]
    fn automorphism_rotates_slots() {
        // Find the Galois exponent that implements "rotate left by 1":
        // X -> X^{5} should shift slots by one position.
        let (ctx, enc) = setup();
        let vals: Vec<Complex64> = (0..enc.slots())
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let pt = enc.encode(&ctx, &vals, ctx.params().scale(), 2);
        let rotated = pt.poly().automorphism(5, ctx.q_moduli(2));
        let pt2 = Plaintext::new(rotated, pt.scale(), pt.level());
        let out = enc.decode(&ctx, &pt2);
        // Rotation direction is a convention; assert it is a cyclic shift
        // by one in one direction.
        let left = (0..enc.slots()).all(|i| close(out[i], vals[(i + 1) % enc.slots()], 1e-5));
        let right = (0..enc.slots())
            .all(|i| close(out[i], vals[(i + enc.slots() - 1) % enc.slots()], 1e-5));
        assert!(
            left || right,
            "X->X^5 is not a slot rotation: {:?} vs {:?}",
            &out[..4],
            &vals[..4]
        );
        assert!(left, "convention check: X->X^5 should rotate left by 1");
    }

    #[test]
    fn conjugation_automorphism() {
        let (ctx, enc) = setup();
        let vals: Vec<Complex64> = (0..enc.slots())
            .map(|i| Complex64::new(0.3 * i as f64, 1.0))
            .collect();
        let pt = enc.encode(&ctx, &vals, ctx.params().scale(), 2);
        let g = 2 * ctx.degree() - 1; // X -> X^{-1}
        let conj = pt.poly().automorphism(g, ctx.q_moduli(2));
        let out = enc.decode(&ctx, &Plaintext::new(conj, pt.scale(), pt.level()));
        for i in 0..enc.slots() {
            assert!(close(out[i], vals[i].conj(), 1e-5));
        }
    }
}
