use crate::MathError;

/// A word-size prime modulus `q < 2^62` with cached reduction constants.
///
/// All CKKS limb arithmetic in this repository runs through this type. The
/// 62-bit bound leaves two bits of slack so that `a + b` of two reduced
/// values never overflows `u64`, matching the lazy-reduction style of GPU
/// FHE kernels.
///
/// ```rust
/// # fn main() -> Result<(), neo_math::MathError> {
/// let q = neo_math::Modulus::new(0x1000000000b4001)?; // a 60-bit NTT prime
/// let x = q.pow(3, q.value() - 1); // Fermat: 3^(q-1) = 1
/// assert_eq!(x, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
    /// High 64 bits of `floor((2^128 - 1) / q)`, the 128-bit Barrett ratio.
    barrett_hi: u64,
    /// Low 64 bits of the Barrett ratio.
    barrett_lo: u64,
}

impl Modulus {
    /// Creates a modulus. `q` need not be prime for plain arithmetic, but
    /// everything in `neo-ckks` assumes primality.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] unless `2 <= q < 2^62`.
    pub fn new(q: u64) -> Result<Self, MathError> {
        if !(2..(1u64 << 62)).contains(&q) {
            return Err(MathError::InvalidModulus(q));
        }
        let ratio = u128::MAX / q as u128;
        Ok(Self {
            q,
            barrett_hi: (ratio >> 64) as u64,
            barrett_lo: ratio as u64,
        })
    }

    /// The raw modulus value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.q
    }

    /// Number of bits in `q`.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// `(a + b) mod q` for already-reduced operands.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// `(a - b) mod q` for already-reduced operands.
    #[inline(always)]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// `-a mod q` for a reduced operand.
    #[inline(always)]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// `(a * b) mod q` via 128-bit widening and Barrett reduction.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Reduces an arbitrary `u64` into `[0, q)` by Barrett reduction: the
    /// quotient estimate `floor(a * ratio / 2^128)` (with `ratio` the cached
    /// 128-bit reciprocal) undershoots `a/q` by at most 2, so two
    /// conditional subtractions finish the job — no hardware divide.
    #[inline(always)]
    pub fn reduce(&self, a: u64) -> u64 {
        // a * ratio = a*hi*2^64 + a*lo; the estimate drops only fractional
        // bits of a*lo/2^64 (< 1) plus ratio's truncation error (< 1).
        let t = (a as u128 * self.barrett_lo as u128) >> 64;
        let est = ((a as u128 * self.barrett_hi as u128 + t) >> 64) as u64;
        let mut r = a.wrapping_sub(est.wrapping_mul(self.q));
        // Undershoot ≤ 3 and 4q < 2^64 bound this loop at three iterations;
        // in practice it almost never runs more than once, so the branch
        // predictor hides it. (A branch-free cmov ladder was measurably
        // slower inside the NTT butterfly loops: the cmovs serialize the
        // dependency chain that speculation otherwise breaks.)
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Reduces an arbitrary `u128` into `[0, q)` by Barrett reduction with a
    /// 256-bit high product. The estimate undershoots the true quotient by
    /// at most 3, and `4q < 2^64` (guaranteed by `q < 2^62`) keeps the
    /// remainder inside `u64` before the final corrections.
    #[inline(always)]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        let (x1, x0) = ((a >> 64) as u64, a as u64);
        let (r1, r0) = (self.barrett_hi, self.barrett_lo);
        // est = floor(a * ratio / 2^256-ish): accumulate the three cross
        // products that reach bit 128, tracking the one possible carry.
        let t0 = (x0 as u128 * r0 as u128) >> 64;
        let s = x0 as u128 * r1 as u128 + t0; // < 2^128: (2^64-1)^2 + 2^64
        let (sum, carry) = (x1 as u128 * r0 as u128).overflowing_add(s);
        let est = x1 as u128 * r1 as u128 + (sum >> 64) + ((carry as u128) << 64);
        let mut r = (a.wrapping_sub(est.wrapping_mul(self.q as u128))) as u64;
        // Same bounded correction loop as `reduce` — see the note there on
        // why the predicted branch beats a cmov ladder in the hot loops.
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Modular exponentiation `a^e mod q` (square and multiply).
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (assumes `q` prime).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NoInverse`] when `a ≡ 0 (mod q)`.
    pub fn inv(&self, a: u64) -> Result<u64, MathError> {
        let a = self.reduce(a);
        if a == 0 {
            return Err(MathError::NoInverse {
                value: a,
                modulus: self.q,
            });
        }
        Ok(self.pow(a, self.q - 2))
    }

    /// Precomputes a Shoup multiplier for repeated `mul` by constant `w`.
    #[inline]
    pub fn shoup(&self, w: u64) -> ShoupMul {
        debug_assert!(w < self.q);
        ShoupMul {
            w,
            w_shoup: (((w as u128) << 64) / self.q as u128) as u64,
        }
    }

    /// `(a * w) mod q` using the precomputed Shoup constant — one mulhi, one
    /// mullo and a conditional subtraction, the butterfly workhorse.
    #[inline(always)]
    pub fn mul_shoup(&self, a: u64, s: ShoupMul) -> u64 {
        let r = self.mul_shoup_lazy(a, s);
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Lazy Shoup multiplication: returns `(a * w) mod q` **or** that value
    /// plus `q`, i.e. a representative in `[0, 2q)`, skipping the final
    /// conditional subtraction. Valid for *any* `a: u64` (not only reduced
    /// values) as long as `s.w < q` — the property that lets NTT butterflies
    /// defer reduction across stages (Harvey-style lazy butterflies).
    #[inline(always)]
    pub fn mul_shoup_lazy(&self, a: u64, s: ShoupMul) -> u64 {
        debug_assert!(s.w < self.q);
        let hi = ((a as u128 * s.w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(s.w).wrapping_sub(hi.wrapping_mul(self.q))
    }

    /// Converts a centered residue in `[0, q)` to a signed value in
    /// `[-q/2, q/2)`.
    #[inline]
    pub fn to_signed(&self, a: u64) -> i64 {
        debug_assert!(a < self.q);
        if a >= self.q / 2 + (self.q & 1) {
            -((self.q - a) as i64)
        } else {
            a as i64
        }
    }
}

/// A constant prepared for Shoup multiplication against a fixed [`Modulus`].
///
/// `repr(C)` is load-bearing: the SIMD backend reads slices of pairs as
/// flat `[w, w_shoup, w, w_shoup, …]` words with two wide loads and a
/// deinterleave, which needs the field order and absence of padding
/// guaranteed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct ShoupMul {
    /// The constant itself, reduced mod q.
    pub w: u64,
    /// `floor(w * 2^64 / q)`.
    pub w_shoup: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 0x0FFF_FFFF_FFF4_0001; // 60-bit prime used by SEAL

    #[test]
    fn rejects_bad_moduli() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(1 << 62).is_err());
        assert!(Modulus::new(2).is_ok());
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let m = Modulus::new(Q).unwrap();
        let a = Q - 3;
        let b = 5;
        assert_eq!(m.add(a, b), 2);
        assert_eq!(m.sub(2, b), Q - 3);
        assert_eq!(m.add(a, m.neg(a)), 0);
    }

    #[test]
    fn mul_matches_u128() {
        let m = Modulus::new(Q).unwrap();
        let a = 0x0123_4567_89AB_CDEF % Q;
        let b = 0x0FED_CBA9_8765_4321 % Q;
        assert_eq!(m.mul(a, b), ((a as u128 * b as u128) % Q as u128) as u64);
    }

    #[test]
    fn pow_and_inv() {
        let q = crate::primes::ntt_primes(60, 1 << 12, 1).unwrap()[0];
        let m = Modulus::new(q).unwrap();
        let a = 123_456_789u64;
        let inv = m.inv(a).unwrap();
        assert_eq!(m.mul(a, inv), 1);
        assert!(m.inv(0).is_err());
    }

    #[test]
    fn shoup_matches_plain_mul() {
        let m = Modulus::new(Q).unwrap();
        let w = 0x0ABC_DEF0_1234_5678 % Q;
        let s = m.shoup(w);
        for a in [0u64, 1, 2, Q - 1, Q / 2, 0x1234_5678] {
            assert_eq!(m.mul_shoup(a, s), m.mul(a, w), "a={a}");
        }
    }

    #[test]
    fn barrett_reduce_edge_cases() {
        for q in [2u64, 3, 17, (1 << 32) - 5, Q, (1 << 62) - 1, (1 << 62) - 57] {
            let m = Modulus::new(q).unwrap();
            for a in [0u64, 1, q - 1, q, q + 1, 2 * q, u64::MAX, u64::MAX - 1] {
                assert_eq!(m.reduce(a), a % q, "reduce a={a} q={q}");
            }
            for x in [
                0u128,
                1,
                q as u128 * q as u128,
                u128::MAX,
                u128::MAX - 1,
                (u64::MAX as u128) << 64,
                0x1234_5678_9ABC_DEF0_1122_3344_5566_7788,
            ] {
                assert_eq!(
                    m.reduce_u128(x),
                    (x % q as u128) as u64,
                    "reduce_u128 x={x} q={q}"
                );
            }
        }
    }

    #[test]
    fn shoup_lazy_in_range_and_congruent() {
        let m = Modulus::new(Q).unwrap();
        let w = 0x0123_4567_89AB_CDEF % Q;
        let s = m.shoup(w);
        // Lazy Shoup admits ANY u64 input, reduced or not.
        for a in [0u64, 1, Q - 1, Q, 2 * Q - 1, u64::MAX, u64::MAX / 3] {
            let r = m.mul_shoup_lazy(a, s);
            assert!(r < 2 * Q, "lazy out of [0,2q): a={a} r={r}");
            assert_eq!(r % Q, m.mul(m.reduce(a), w), "congruence a={a}");
        }
    }

    #[test]
    fn signed_conversion() {
        let m = Modulus::new(17).unwrap();
        assert_eq!(m.to_signed(16), -1);
        assert_eq!(m.to_signed(8), 8);
        assert_eq!(m.to_signed(9), -8);
        assert_eq!(m.to_signed(0), 0);
    }
}
