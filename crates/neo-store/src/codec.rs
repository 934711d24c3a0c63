//! Versioned binary payload codecs.
//!
//! Every `encode_*` writes little-endian fields with explicit lengths;
//! every `decode_*` validates lengths, tags, and structural invariants
//! and returns a typed [`NeoError::FaultDetected`] on anything
//! unexpected. Decoders run **after** the payload checksum has been
//! verified, so a decode failure means either a format bug or a
//! checksum collision — both are refused, never guessed at.

use neo_ckks::Ciphertext;
use neo_error::NeoError;
use neo_math::{Domain, RnsPoly};

/// Reader over a payload with bounds-checked little-endian accessors.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn corrupt(detail: impl Into<String>) -> NeoError {
    NeoError::fault_detected("store_record", detail)
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NeoError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(corrupt(format!(
                "payload truncated: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.bytes.len()
            )));
        };
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, NeoError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u64(&mut self) -> Result<u64, NeoError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, NeoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `n` as a usize, refusing lengths that cannot fit in memory.
    pub(crate) fn len(&mut self, what: &str) -> Result<usize, NeoError> {
        let n = self.u64()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.bytes.len().saturating_mul(8) + 1024)
            .ok_or_else(|| corrupt(format!("implausible {what} length {n}")))
    }

    /// Decoding must consume the whole payload — trailing garbage is as
    /// suspicious as a short read.
    pub(crate) fn finish(self) -> Result<(), NeoError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after decode",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// RNS polynomials
// ---------------------------------------------------------------------------

fn encode_poly_to(p: &RnsPoly, out: &mut Vec<u8>) {
    out.push(match p.domain() {
        Domain::Coeff => 0,
        Domain::Ntt => 1,
    });
    out.extend_from_slice(&(p.limb_count() as u64).to_le_bytes());
    out.extend_from_slice(&(p.degree() as u64).to_le_bytes());
    for limb in p.limbs() {
        for &c in limb {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
}

fn decode_poly(r: &mut Reader<'_>) -> Result<RnsPoly, NeoError> {
    let domain = match r.u8()? {
        0 => Domain::Coeff,
        1 => Domain::Ntt,
        d => return Err(corrupt(format!("unknown poly domain tag {d}"))),
    };
    let limb_count = r.len("limb count")?;
    let degree = r.len("degree")?;
    if !degree.is_power_of_two() || degree == 0 || limb_count == 0 {
        return Err(corrupt(format!(
            "implausible poly shape: {limb_count} limbs of degree {degree}"
        )));
    }
    let mut limbs = Vec::with_capacity(limb_count);
    for _ in 0..limb_count {
        let mut limb = Vec::with_capacity(degree);
        for _ in 0..degree {
            limb.push(r.u64()?);
        }
        limbs.push(limb);
    }
    RnsPoly::from_limbs(limbs, domain).map_err(|e| corrupt(format!("poly rejected: {e}")))
}

/// Encodes a vector of polynomials (a KSK's `b`-parts).
pub fn encode_polys(polys: &[RnsPoly]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(polys.len() as u64).to_le_bytes());
    for p in polys {
        encode_poly_to(p, &mut out);
    }
    out
}

/// Decodes [`encode_polys`].
///
/// # Errors
///
/// [`NeoError::FaultDetected`] on truncation, implausible shapes, or
/// trailing bytes.
pub fn decode_polys(bytes: &[u8]) -> Result<Vec<RnsPoly>, NeoError> {
    let mut r = Reader::new(bytes);
    let n = r.len("poly count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_poly(&mut r)?);
    }
    r.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Secret keys
// ---------------------------------------------------------------------------

/// Encodes ternary secret-key coefficients, one byte each.
pub fn encode_secret_key(coeffs: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + coeffs.len());
    out.extend_from_slice(&(coeffs.len() as u64).to_le_bytes());
    for &c in coeffs {
        out.push(c as u8);
    }
    out
}

/// Decodes [`encode_secret_key`]; the ternary range is revalidated by
/// [`neo_ckks::SecretKey::from_coeffs`] downstream.
///
/// # Errors
///
/// [`NeoError::FaultDetected`] on truncation, a non-ternary byte, or
/// trailing bytes.
pub fn decode_secret_key(bytes: &[u8]) -> Result<Vec<i64>, NeoError> {
    let mut r = Reader::new(bytes);
    let n = r.len("coefficient count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let c = r.u8()? as i8;
        if c.abs() > 1 {
            return Err(corrupt(format!("non-ternary secret coefficient {c}")));
        }
        out.push(i64::from(c));
    }
    r.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Ciphertexts
// ---------------------------------------------------------------------------

/// Encodes a [`Ciphertext`] (scale, level, both components).
pub fn encode_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&ct.scale().to_bits().to_le_bytes());
    out.extend_from_slice(&(ct.level() as u64).to_le_bytes());
    encode_poly_to(ct.c0(), &mut out);
    encode_poly_to(ct.c1(), &mut out);
    out
}

/// Decodes [`encode_ciphertext`], revalidating the level/limb invariant
/// the [`Ciphertext`] constructor demands.
///
/// # Errors
///
/// [`NeoError::FaultDetected`] on truncation, shape violations, or
/// trailing bytes.
pub fn decode_ciphertext(bytes: &[u8]) -> Result<Ciphertext, NeoError> {
    let mut r = Reader::new(bytes);
    let scale = r.f64()?;
    let level = r.len("level")?;
    let c0 = decode_poly(&mut r)?;
    let c1 = decode_poly(&mut r)?;
    r.finish()?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(corrupt(format!("implausible ciphertext scale {scale}")));
    }
    if c0.limb_count() != level + 1 || c1.limb_count() != level + 1 || c0.degree() != c1.degree() {
        return Err(corrupt(format!(
            "ciphertext shape mismatch: level {level} with {}/{} limbs",
            c0.limb_count(),
            c1.limb_count()
        )));
    }
    Ok(Ciphertext::new(c0, c1, scale, level))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(seed: u64, limbs: usize, n: usize) -> RnsPoly {
        let data: Vec<Vec<u64>> = (0..limbs)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        neo_fault::splitmix64(seed ^ ((i * n + j) as u64)) % 0xFFFF_FFFF_0000_0001
                    })
                    .collect()
            })
            .collect();
        RnsPoly::from_limbs(data, Domain::Ntt).expect("valid limbs")
    }

    #[test]
    fn polys_roundtrip() {
        let ps = vec![poly(1, 3, 16), poly(2, 3, 16)];
        let bytes = encode_polys(&ps);
        let back = decode_polys(&bytes).expect("roundtrip");
        assert_eq!(ps, back);
    }

    #[test]
    fn truncated_polys_are_refused() {
        let bytes = encode_polys(&[poly(1, 2, 8)]);
        for cut in [0, 8, 9, bytes.len() - 1] {
            assert!(decode_polys(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is refused too.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_polys(&extended).is_err());
    }

    #[test]
    fn secret_key_roundtrips_and_rejects_non_ternary() {
        let coeffs: Vec<i64> = (0..64).map(|i| ((i % 3) as i64) - 1).collect();
        let bytes = encode_secret_key(&coeffs);
        assert_eq!(decode_secret_key(&bytes).expect("roundtrip"), coeffs);
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] = 7;
        assert!(decode_secret_key(&bad).is_err());
    }

    #[test]
    fn ciphertexts_roundtrip_and_check_shape() {
        let ct = Ciphertext::new(poly(3, 3, 16), poly(4, 3, 16), 2f64.powi(40), 2);
        let bytes = encode_ciphertext(&ct);
        let back = decode_ciphertext(&bytes).expect("roundtrip");
        assert_eq!(ct, back);

        // A level inconsistent with the limb count is refused.
        let mut r = bytes.clone();
        r[8..16].copy_from_slice(&5u64.to_le_bytes());
        assert!(decode_ciphertext(&r).is_err());
    }
}
