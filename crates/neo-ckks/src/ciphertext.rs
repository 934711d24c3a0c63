//! Plaintext and ciphertext containers.

use neo_math::RnsPoly;

/// An encoded plaintext: one polynomial plus its scale and level.
#[derive(Debug, Clone, PartialEq)]
pub struct Plaintext {
    poly: RnsPoly,
    scale: f64,
    level: usize,
}

impl Plaintext {
    /// Wraps a polynomial with its encoding metadata.
    ///
    /// # Panics
    ///
    /// Panics if the limb count does not match `level + 1`.
    pub fn new(poly: RnsPoly, scale: f64, level: usize) -> Self {
        assert_eq!(poly.limb_count(), level + 1, "limbs must equal level + 1");
        Self { poly, scale, level }
    }

    /// The underlying polynomial.
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// Mutable polynomial access.
    pub fn poly_mut(&mut self) -> &mut RnsPoly {
        &mut self.poly
    }

    /// Encoding scale `Δ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Ciphertext level this plaintext is aligned to.
    pub fn level(&self) -> usize {
        self.level
    }
}

/// A CKKS ciphertext `(c0, c1)` with `⟨ct, (1, s)⟩ ≈ Δ·m`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ciphertext {
    c0: RnsPoly,
    c1: RnsPoly,
    scale: f64,
    level: usize,
}

impl Ciphertext {
    /// Wraps two polynomials with scale/level metadata.
    ///
    /// # Panics
    ///
    /// Panics if limb counts disagree with `level + 1`.
    pub fn new(c0: RnsPoly, c1: RnsPoly, scale: f64, level: usize) -> Self {
        assert_eq!(c0.limb_count(), level + 1);
        assert_eq!(c1.limb_count(), level + 1);
        Self {
            c0,
            c1,
            scale,
            level,
        }
    }

    /// First component (the `b` part).
    pub fn c0(&self) -> &RnsPoly {
        &self.c0
    }

    /// Second component (the `a` part).
    pub fn c1(&self) -> &RnsPoly {
        &self.c1
    }

    /// Mutable component access.
    pub fn parts_mut(&mut self) -> (&mut RnsPoly, &mut RnsPoly) {
        (&mut self.c0, &mut self.c1)
    }

    /// Current scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Overrides the tracked scale (used by rescaling).
    pub fn set_scale(&mut self, scale: f64) {
        self.scale = scale;
    }

    /// Current level `l`.
    pub fn level(&self) -> usize {
        self.level
    }
}
