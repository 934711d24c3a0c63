//! Modular-arithmetic and RNS (residue number system) substrate for the Neo
//! CKKS reproduction.
//!
//! This crate provides the numeric foundation every other crate builds on:
//!
//! * [`Modulus`] — a word-size prime modulus with fast reduction and the
//!   Shoup multiplication used inside NTT butterflies.
//! * [`primes`] — deterministic Miller–Rabin testing and generation of
//!   NTT-friendly primes (`q ≡ 1 mod 2N`).
//! * [`RnsBasis`] — an ordered set of coprime moduli with the cached
//!   constants (`q̂_i`, `q̂_i⁻¹ mod q_i`, …) that base conversion needs.
//! * [`bconv`] — the *BConv* primitive of the paper: approximate (Mod Up
//!   style) and exact (floating-point–corrected) RNS base conversion.
//! * [`RnsPoly`] — polynomials in `Z_Q[X]/(X^N+1)` stored limb-major, the
//!   ciphertext component representation, with automorphism support.
//! * [`PackedPoly`] — limbs stored at the bytes their modulus needs, the
//!   form of the KLSS keys the key-switch inner product streams.
//! * [`recycle`] — the limb-buffer recycler every `RnsPoly` limb and the
//!   host kernels' limb-length scratch come from and go back to.
//! * [`BigUint`] — a minimal unsigned big integer used for CRT
//!   reconstruction in tests and in the CKKS decoder.
//!
//! # Example
//!
//! ```rust
//! use neo_math::{primes, Modulus};
//!
//! # fn main() -> Result<(), neo_math::MathError> {
//! let qs = primes::ntt_primes(36, 1 << 12, 3)?;
//! let m = Modulus::new(qs[0])?;
//! assert_eq!(m.mul(m.value() - 1, m.value() - 1), 1); // (-1)^2 = 1
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod backend;
pub mod bconv;
mod biguint;
mod error;
mod modulus;
pub mod packed;
pub mod poly;
pub mod primes;
pub mod recycle;
pub mod rns;

pub use backend::{BackendKind, ComputeBackend, PortableBackend, SimdBackend};
pub use bconv::BconvTable;
pub use biguint::BigUint;
pub use error::MathError;
pub use modulus::{Modulus, ShoupMul};
pub use packed::PackedPoly;
pub use poly::{Domain, RnsPoly};
pub use rns::RnsBasis;

/// Reduces a signed value into `[0, q)`.
///
/// Useful when converting centered (two's-complement style) coefficients,
/// e.g. encoder output or ternary secrets, into RNS residues.
///
/// ```rust
/// assert_eq!(neo_math::signed_mod(-1, 17), 16);
/// assert_eq!(neo_math::signed_mod(35, 17), 1);
/// ```
pub fn signed_mod(v: i64, q: u64) -> u64 {
    let m = v.unsigned_abs();
    if m < q {
        // Secrets, errors and encoder output lie well inside (−q, q):
        // one subtraction, where the `i128` remainder below is a library
        // call of about 10 ns.
        return if v < 0 { q - m } else { m };
    }
    (v as i128).rem_euclid(q as i128) as u64
}

#[cfg(test)]
mod tests {
    /// The short path for `|v| < q` and the `i128` remainder agree, at
    /// the edges of both and at the extremes of `i64`.
    #[test]
    fn signed_mod_is_the_euclidean_remainder() {
        for q in [2u64, 17, (1 << 36) - 5, 1 << 62, u64::MAX] {
            let qi = q.min(i64::MAX as u64) as i64;
            let edges = [0, 1, qi - 1, qi, qi.saturating_add(1), i64::MAX];
            for v in edges.into_iter().flat_map(|v| [v, -v]).chain([i64::MIN]) {
                let want = i128::from(v).rem_euclid(i128::from(q)) as u64;
                assert_eq!(super::signed_mod(v, q), want, "v={v} q={q}");
            }
        }
    }
}
