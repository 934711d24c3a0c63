//! Residue rows stored at the bytes their modulus needs.
//!
//! A residue modulo a `w`-bit prime fits in `⌈w/8⌉` bytes, so a row kept
//! in `u64` words carries `8 − ⌈w/8⌉` zero bytes per residue: a quarter
//! of the row at KLSS's scored `WordSize_T` = 48. [`PackedPoly`] stores a
//! polynomial's limbs at that width, little-endian, and the compute
//! backends read such rows directly ([`ComputeBackend::klss_ip`]), so a
//! key that is only ever read by an inner product never needs its `u64`
//! form.

use crate::backend::{ComputeBackend, Start};
use crate::recycle::{Recycler, LIMBS};
use crate::{Modulus, RnsPoly};

/// The recycler behind every packed row. A dropped key's rows serve the
/// next key of its shape, as [`LIMBS`] serves limbs, so regenerating keys
/// (a rebuilt session, a cleared cache) does not fault their memory in
/// from the kernel again.
static ROWS: Recycler<u8> = Recycler::new();

/// A polynomial's limbs at `width` bytes per residue, little-endian, one
/// row of `degree · width` bytes per limb. `width` is the byte count the
/// largest residue of the widest modulus needs ([`width`]: 5 bytes at
/// 36-bit primes, 6 at 48, 8 at 60). There is no padding: the rows hold
/// exactly the residues' bytes.
#[derive(Debug, PartialEq, Eq)]
pub struct PackedPoly {
    n: usize,
    width: usize,
    rows: Vec<Vec<u8>>,
}

impl PackedPoly {
    /// Packs every limb of `poly` at the [`width`] of `moduli` (the limbs'
    /// moduli).
    ///
    /// # Panics
    ///
    /// Panics when `moduli.len()` differs from the limb count.
    pub fn pack(poly: &RnsPoly, moduli: &[Modulus]) -> Self {
        assert_eq!(moduli.len(), poly.limb_count(), "moduli count mismatch");
        let width = width(moduli);
        let rows = poly.limbs().iter().map(|l| pack_row(l, width)).collect();
        Self::from_rows(rows, width)
    }

    /// Wraps rows packed at `width` bytes per residue, one per limb, as
    /// [`pack_row`] writes them.
    ///
    /// # Panics
    ///
    /// Panics when there is no row, when the rows differ in length, or
    /// when their length is not a whole number of residues.
    pub fn from_rows(rows: Vec<Vec<u8>>, width: usize) -> Self {
        let len = rows.first().expect("a packed polynomial needs a row").len();
        assert!(
            (1..=8).contains(&width)
                && len.is_multiple_of(width)
                && rows.iter().all(|r| r.len() == len),
            "packed rows must share one length, a multiple of the width"
        );
        Self {
            n: len / width,
            width,
            rows,
        }
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Number of limbs.
    pub fn limb_count(&self) -> usize {
        self.rows.len()
    }

    /// Bytes per residue.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Limb `i`'s packed row: `degree · width` bytes, residue `c` at
    /// `c · width`.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.rows[i]
    }

    /// Every limb unpacked into `u64` words: a copy, for readers that need
    /// the word form (reference checks and benchmark replays); the key
    /// switch reads the packed rows.
    pub fn limbs(&self) -> Vec<Vec<u64>> {
        self.rows
            .iter()
            .map(|row| (0..self.n).map(|c| word(row, c, self.width)).collect())
            .collect()
    }
}

impl Clone for PackedPoly {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            width: self.width,
            rows: self.rows.iter().map(|r| ROWS.copied(r)).collect(),
        }
    }
}

impl Drop for PackedPoly {
    fn drop(&mut self) {
        ROWS.give_all(self.rows.drain(..));
    }
}

/// The bytes per residue that hold every residue of the widest of
/// `moduli`, `q − 1` included: 1 to 8.
pub fn width(moduli: &[Modulus]) -> usize {
    let bits = moduli
        .iter()
        .map(|m| u64::BITS - (m.value() - 1).leading_zeros())
        .max()
        .unwrap_or(1);
    bits.div_ceil(8).max(1) as usize
}

/// A recycled row holding `x` packed at `width` bytes per residue,
/// little-endian: `x[c]` lands in bytes `c·width..(c + 1)·width`. The
/// loop writes every byte, so the row is taken from the recycler without
/// zeroing.
///
/// # Panics
///
/// Panics unless `1 ≤ width ≤ 8`. Every value must fit in `width` bytes.
pub fn pack_row(x: &[u64], width: usize) -> Vec<u8> {
    assert!((1..=8).contains(&width), "width {width} outside 1..=8");
    let mut row = ROWS.take(x.len() * width);
    // Residue c's eight little-endian bytes go to c·width; the next
    // residue's write replaces the bytes past `width`. The residues
    // within 8 bytes of the end copy only their own bytes.
    let whole = match row.len().checked_sub(8) {
        Some(room) => (room / width + 1).min(x.len()),
        None => 0,
    };
    for (c, &v) in x[..whole].iter().enumerate() {
        row[c * width..c * width + 8].copy_from_slice(&v.to_le_bytes());
    }
    for (c, &v) in x.iter().enumerate().skip(whole) {
        row[c * width..(c + 1) * width].copy_from_slice(&v.to_le_bytes()[..width]);
    }
    row
}

/// Residue `c` of a row packed at `width` bytes: one unaligned 8-byte
/// read, masked to its low `width` bytes, wherever the row has 8 bytes
/// from `c · width` on; the last residues of a row copy their own bytes.
#[inline]
pub(crate) fn word(row: &[u8], c: usize, width: usize) -> u64 {
    let at = c * width;
    match row.get(at..at + 8) {
        Some(w) => {
            u64::from_le_bytes(w.try_into().expect("an 8-byte window"))
                & (u64::MAX >> (64 - 8 * width))
        }
        None => {
            let mut w = [0u8; 8];
            w[..width].copy_from_slice(&row[at..at + width]);
            u64::from_le_bytes(w)
        }
    }
}

/// Both rows of one KLSS output digit's inner product over one `T` limb,
/// `[Σ_j x_j·k_j0, Σ_j x_j·k_j1] mod t` for the Mod Up rows `x` and the
/// packed key rows `key[j] = [k_j0, k_j1]`: one
/// [`ComputeBackend::klss_ip`] call, which writes every element, on rows
/// taken from [`LIMBS`] without zeroing.
///
/// # Panics
///
/// Panics when `x` is empty, or as the kernel does on a length mismatch.
pub fn klss_ip_rows(
    be: &dyn ComputeBackend,
    t: &Modulus,
    x: &[&[u64]],
    key: &[[&[u8]; 2]],
    width: usize,
) -> [Vec<u64>; 2] {
    let len = x.first().expect("an inner product needs a term").len();
    let [mut a, mut b] = [LIMBS.take(len), LIMBS.take(len)];
    be.klss_ip(t, x, key, width, Start::Zero, [&mut a, &mut b]);
    [a, b]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{primes, Domain};
    use rand::{Rng, SeedableRng};

    /// Packing, then unpacking, returns every residue at 36, 48 and 60
    /// bits (5, 6 and 8 bytes), on saturated rows (every residue `t − 1`)
    /// and random ones, and the rows hold exactly `degree · width` bytes.
    /// Each polynomial is packed twice, so the second pack writes rows the
    /// first gave back to the recycler.
    #[test]
    fn pack_then_limbs_round_trips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        for (bits, width) in [(36u32, 5usize), (48, 6), (60, 8)] {
            for n in [64usize, 1024] {
                let moduli: Vec<Modulus> = primes::ntt_primes(bits, 1 << 10, 3)
                    .unwrap()
                    .into_iter()
                    .map(|t| Modulus::new(t).unwrap())
                    .collect();
                let saturated: Vec<Vec<u64>> =
                    moduli.iter().map(|m| vec![m.value() - 1; n]).collect();
                let random: Vec<Vec<u64>> = moduli
                    .iter()
                    .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
                    .collect();
                for limbs in [saturated, random] {
                    let poly = RnsPoly::from_limbs(limbs.clone(), Domain::Ntt).unwrap();
                    for _ in 0..2 {
                        let packed = PackedPoly::pack(&poly, &moduli);
                        assert_eq!(packed.width(), width, "bits={bits}");
                        assert_eq!((packed.degree(), packed.limb_count()), (n, 3));
                        assert!((0..3).all(|i| packed.row(i).len() == n * width));
                        assert_eq!(packed.limbs(), limbs, "bits={bits} n={n}");
                    }
                }
            }
        }
    }
}
