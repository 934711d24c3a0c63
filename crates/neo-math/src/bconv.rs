//! RNS base conversion — the *BConv* primitive of the paper.
//!
//! Given residues of `x` in a source basis `Q = Π q_i`, BConv produces the
//! residues of (approximately) the same integer in a disjoint target basis
//! `T = Π t_j`:
//!
//! ```text
//!   BConv(x)_j = Σ_i [x_i · q̂_i⁻¹]_{q_i} · q̂_i  (mod t_j)
//! ```
//!
//! Three uses are provided, matching how FHE implementations actually use
//! the primitive:
//!
//! * [`BconvTable::convert_approx`] — the *Mod Up* flavour: no correction, so
//!   the result represents `x + ε·Q` for some small `ε ∈ {0, …, k-1}`. CKKS
//!   key-switching tolerates this overshoot (it is annihilated or divided
//!   away by `P`).
//! * [`BconvTable::convert_exact`] — adds the floating-point correction term
//!   `−round(Σ y_i/q_i)·Q`, recovering the residues of `x` itself. Required
//!   by the KLSS *Recover Limbs* step, where an overshoot of `Q` would be a
//!   correctness bug rather than noise.
//! * [`BconvTable::mod_down`] — Mod Down by `Q`: `(a − BConv(x))·Q⁻¹` on
//!   the target limbs `a` of the same value, optionally added to an
//!   accumulator `c` as one more row of weight 1.
//!
//! All three are one [`bconv_ip`] call per target limb: the correction and
//! the division are folded into that inner product as extra rows and
//! rescaled weights. Each output is then an exact sum congruent to the
//! scalar formula, reduced once — the same canonical residue. Each first
//! scales source limb `i` by `q̂_i⁻¹`; [`BconvTable::convert_exact_scaled`]
//! takes rows that already carry that factor (KLSS's Recover folds it
//! into the inverse NTT's `n⁻¹` scale).
//!
//! The exact flavour is provably safe when the represented value keeps a
//! factor-2 margin below `Q` (the KLSS `T ≥ 2βN·B·B̃` budget guarantees
//! this): the fractional sum then stays at least `1/4` away from the `1/2`
//! rounding boundary while the f64 accumulation error is below `k·2⁻⁴⁰`.
//! The backend's [`bconv_overshoot`] takes those sums in one fixed order
//! of IEEE operations and rounds them as [`f64::round`] does, so every
//! backend lands on the same counts.
//!
//! [`bconv_ip`]: crate::backend::ComputeBackend::bconv_ip
//! [`bconv_overshoot`]: crate::backend::ComputeBackend::bconv_overshoot

use crate::backend::{self, BackendKind};
use crate::recycle::LIMBS;
use crate::{MathError, Modulus, RnsBasis};
use neo_trace::Counter;

/// What [`BconvTable::convert_limbs`] folds into each target's inner
/// product besides the BConv terms `Σ_i y_i·q̂_i`.
#[derive(Clone, Copy)]
enum Fold<'a> {
    /// Nothing: the residues of `x + ε·Q`.
    Approx,
    /// The overshoot row `k` with weight `−Q`: the residues of `x`.
    Exact,
    /// Mod Down: the target limbs `a` of the same value, one row each,
    /// and every weight times `Q⁻¹`: `(a_j − BConv(x)_j)·Q⁻¹`; plus, when
    /// given, the accumulator limbs `c`, one row each of weight 1.
    Divide(&'a [Vec<u64>], Option<&'a [Vec<u64>]>),
}

/// Precomputed constants for converting from one RNS basis to another.
#[derive(Debug, Clone)]
pub struct BconvTable {
    src: RnsBasis,
    dst: RnsBasis,
    /// `q̂_i⁻¹ mod q_i` for the source basis.
    qhat_inv: Vec<u64>,
    /// `q̂_i mod t_j`, row i, col j.
    qhat_mod_dst: Vec<Vec<u64>>,
    /// `Q mod t_j` for the exact correction.
    q_mod_dst: Vec<u64>,
    /// `Q⁻¹ mod t_j` for Mod Down.
    q_inv_mod_dst: Vec<u64>,
    /// `1.0 / q_i` for the correction accumulator.
    inv_q: Vec<f64>,
    /// Compute backend for the limb-wise scaling and inner-product loops.
    backend: BackendKind,
}

impl BconvTable {
    /// Builds the table from source to target basis.
    ///
    /// # Errors
    ///
    /// [`MathError::BasisMismatch`] if the bases share a prime (they must be
    /// coprime for CRT to make sense).
    pub fn new(src: &RnsBasis, dst: &RnsBasis) -> Result<Self, MathError> {
        for q in src.primes() {
            if dst.primes().contains(&q) {
                return Err(MathError::BasisMismatch(format!(
                    "source and target bases share prime {q}"
                )));
            }
        }
        let k = src.len();
        let qhat_inv = (0..k).map(|i| src.qhat_inv(i)).collect();
        let src_primes = src.primes();
        let mut qhat_mod_dst = vec![vec![0u64; dst.len()]; k];
        let mut q_mod_dst = vec![0u64; dst.len()];
        let mut q_inv_mod_dst = vec![0u64; dst.len()];
        for (j, t) in dst.moduli().iter().enumerate() {
            for (i, row) in qhat_mod_dst.iter_mut().enumerate() {
                let mut acc = 1u64;
                for (u, &q) in src_primes.iter().enumerate() {
                    if u != i {
                        acc = t.mul(acc, t.reduce(q));
                    }
                }
                row[j] = acc;
            }
            let mut acc = 1u64;
            for &q in &src_primes {
                acc = t.mul(acc, t.reduce(q));
            }
            q_mod_dst[j] = acc;
            q_inv_mod_dst[j] = t.inv(acc)?;
        }
        let inv_q = src_primes.iter().map(|&q| 1.0 / q as f64).collect();
        Ok(Self {
            src: src.clone(),
            dst: dst.clone(),
            qhat_inv,
            qhat_mod_dst,
            q_mod_dst,
            q_inv_mod_dst,
            inv_q,
            backend: backend::active().kind(),
        })
    }

    /// Pins the limb-wise hot loops to `kind` (the constructor defaults to
    /// [`backend::active`]), a bench and test seam. Outputs are
    /// bit-identical across backends; only throughput differs.
    #[must_use]
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// The backend the limb-wise paths dispatch to.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Source basis.
    pub fn src(&self) -> &RnsBasis {
        &self.src
    }

    /// Target basis.
    pub fn dst(&self) -> &RnsBasis {
        &self.dst
    }

    /// Approximate conversion of a single coefficient.
    ///
    /// `x[i]` is the residue mod `q_i`; the result holds residues mod each
    /// `t_j` of `x + ε·Q`, `ε < src.len()`.
    pub fn convert_approx_coeff(&self, x: &[u64], out: &mut [u64]) {
        debug_assert_eq!(x.len(), self.src.len());
        debug_assert_eq!(out.len(), self.dst.len());
        let ys = self.scaled_residues(x);
        for (j, t) in self.dst.moduli().iter().enumerate() {
            let mut acc = 0u128;
            for (i, &y) in ys.iter().enumerate() {
                acc += y as u128 * self.qhat_mod_dst[i][j] as u128;
            }
            out[j] = t.reduce_u128(acc);
        }
    }

    /// Exact conversion of a single coefficient (floating-point corrected).
    ///
    /// Recovers residues of exactly `x` (as the unsigned integer in `[0,Q)`
    /// that the source residues represent). See the module docs for the
    /// precision argument.
    pub fn convert_exact_coeff(&self, x: &[u64], out: &mut [u64]) {
        debug_assert_eq!(x.len(), self.src.len());
        debug_assert_eq!(out.len(), self.dst.len());
        let ys = self.scaled_residues(x);
        let mut frac = 0.0f64;
        for (i, &y) in ys.iter().enumerate() {
            frac += y as f64 * self.inv_q[i];
        }
        let k = frac.round() as u64; // number of Q overshoots
        for (j, t) in self.dst.moduli().iter().enumerate() {
            let mut acc = 0u128;
            for (i, &y) in ys.iter().enumerate() {
                acc += y as u128 * self.qhat_mod_dst[i][j] as u128;
            }
            let raw = t.reduce_u128(acc);
            let corr = t.mul(t.reduce(k), self.q_mod_dst[j]);
            out[j] = t.sub(raw, corr);
        }
    }

    /// Approximate conversion of whole limbs (`x[limb][coeff]` layout).
    ///
    /// # Panics
    ///
    /// Panics if limb counts do not match the table's bases.
    pub fn convert_approx(&self, x: &[Vec<u64>]) -> Vec<Vec<u64>> {
        self.convert_limbs(x, Fold::Approx)
    }

    /// Exact conversion of whole limbs (`x[limb][coeff]` layout).
    ///
    /// # Panics
    ///
    /// Panics if limb counts do not match the table's bases.
    pub fn convert_exact(&self, x: &[Vec<u64>]) -> Vec<Vec<u64>> {
        self.convert_limbs(x, Fold::Exact)
    }

    /// [`Self::convert_exact`] of limbs that already carry their scaling:
    /// row `i` holds the canonical `[x_i · q̂_i⁻¹]_{q_i}`, as an inverse
    /// NTT that folds [`Self::qhat_inv`] into its `n⁻¹` scale leaves it.
    /// Bit-identical to `convert_exact(x)`, without the scaling pass.
    ///
    /// # Panics
    ///
    /// Panics if limb counts do not match the table's bases.
    pub fn convert_exact_scaled(&self, y: &[Vec<u64>]) -> Vec<Vec<u64>> {
        self.convert_scaled(y, Fold::Exact)
    }

    /// `q̂_i⁻¹ mod q_i` for each source prime `q_i`: the factor every
    /// conversion first multiplies source limb `i` by.
    pub fn qhat_inv(&self) -> &[u64] {
        &self.qhat_inv
    }

    /// Mod Down by the source modulus `Q`: for a value held as source
    /// limbs `x` and target limbs `a`, overwrites each `a[j]` with
    /// `(a_j − BConv(x)_j)·Q⁻¹ mod t_j` — the approximate conversion's
    /// residues, subtracted and divided out, as one inner product. With
    /// an accumulator `c` (canonical target residues) the result is
    /// `c_j + (a_j − BConv(x)_j)·Q⁻¹`: `c_j` is one more row of weight 1
    /// in the same exact sum, reduced once. The replaced limbs go back to
    /// the [`LIMBS`] recycler.
    ///
    /// # Panics
    ///
    /// Panics if limb counts do not match the table's bases.
    pub fn mod_down(&self, x: &[Vec<u64>], a: &mut [Vec<u64>], c: Option<&[Vec<u64>]>) {
        assert_eq!(a.len(), self.dst.len(), "target limb count mismatch");
        if let Some(c) = c {
            assert_eq!(c.len(), self.dst.len(), "accumulator limb count mismatch");
        }
        let divided = self.convert_limbs(x, Fold::Divide(a, c));
        let replaced = a.iter_mut().zip(divided);
        LIMBS.give_all(replaced.map(|(limb, new)| std::mem::replace(limb, new)));
    }

    /// Limb-major conversion on the pinned backend: scales each source
    /// limb by `q̂_i⁻¹` into a scratch row from the [`LIMBS`] recycler, then
    /// [`Self::convert_scaled`]; the scratch goes back before returning.
    /// The scaling multiply lands on the same canonical residue as the
    /// coefficient-wise oracles' `mul(reduce(x), q̂⁻¹)`.
    fn convert_limbs(&self, x: &[Vec<u64>], fold: Fold<'_>) -> Vec<Vec<u64>> {
        assert_eq!(x.len(), self.src.len(), "source limb count mismatch");
        let ys = self.scale_with(x, |len| LIMBS.take(len));
        let out = self.convert_scaled(&ys, fold);
        LIMBS.give_all(ys);
        // One multiply per scaled residue.
        neo_trace::add(Counter::ModMuls, (x[0].len() * x.len()) as u64);
        out
    }

    /// The conversion of scaled rows `y_i = [x_i · q̂_i⁻¹]_{q_i}`: one
    /// [`bconv_ip`] per target limb over the rows `y_i` and the rows `fold`
    /// appends, with weights that make the exact sum congruent to the
    /// scalar formula. Bit-identical to the coefficient-wise oracles: the
    /// inner product is an exact sum (order-independent) reduced once, and
    /// the exact correction accumulates the fractional sum in the same
    /// source-limb order so the f64 rounding decision cannot differ.
    /// Outputs and the overshoot row come from the [`LIMBS`] recycler.
    ///
    /// [`bconv_ip`]: crate::backend::ComputeBackend::bconv_ip
    fn convert_scaled(&self, ys: &[Vec<u64>], fold: Fold<'_>) -> Vec<Vec<u64>> {
        assert_eq!(ys.len(), self.src.len(), "source limb count mismatch");
        let n = ys[0].len();
        let (own, acc): (&[Vec<u64>], &[Vec<u64>]) = match fold {
            Fold::Divide(a, c) => (a, c.unwrap_or_default()),
            _ => (&[], &[]),
        };
        for limb in ys.iter().chain(own).chain(acc) {
            assert_eq!(limb.len(), n, "ragged limb lengths");
        }
        let be = backend::get(self.backend);
        // Room for the rows a fold appends: the overshoot row, or Mod
        // Down's own row and accumulator row.
        let mut rows: Vec<&[u64]> = Vec::with_capacity(ys.len() + 2);
        rows.extend(ys.iter().map(Vec::as_slice));
        let ks = matches!(fold, Fold::Exact).then(|| {
            // Overshoot counts k = round(Σ_i y_i/q_i), the fractional sums
            // taken in source-limb order per coefficient (the oracle's
            // order).
            let mut ks = LIMBS.take(n);
            be.bconv_overshoot(&rows, &self.inv_q, &mut ks);
            ks
        });
        rows.extend(ks.as_deref());
        let scaled = rows.len();
        // Exclusive bound on every row: the scaled rows are canonical and
        // the overshoot count is at most `src.len()`, so the largest
        // source modulus bounds them; Mod Down's own rows and accumulator
        // rows are canonical target residues. Backends use it to pick
        // narrower multiply paths (IFMA).
        let bound = |b: &RnsBasis| b.moduli().iter().map(Modulus::value).max();
        let y_bound = match fold {
            Fold::Divide(..) => bound(&self.src).max(bound(&self.dst)),
            _ => bound(&self.src),
        }
        .unwrap_or(u64::MAX);
        let mut w = Vec::with_capacity(ys.len() + 2);
        let out = self
            .dst
            .moduli()
            .iter()
            .enumerate()
            .map(|(j, t)| {
                w.clear();
                w.extend(self.qhat_mod_dst.iter().map(|row| row[j]));
                match fold {
                    Fold::Approx => {}
                    // −k·Q: the overshoot row is the last of `rows`.
                    Fold::Exact => w.push(t.neg(self.q_mod_dst[j])),
                    // c_j + (a_j − Σ y_i·q̂_i)·Q⁻¹
                    //   ≡ Σ y_i·(−q̂_i·Q⁻¹) + a_j·Q⁻¹ + c_j.
                    Fold::Divide(a, c) => {
                        let inv = self.q_inv_mod_dst[j];
                        for wi in &mut w {
                            *wi = t.neg(t.mul(*wi, inv));
                        }
                        w.push(inv);
                        rows.truncate(scaled);
                        rows.push(&a[j]);
                        if let Some(c) = c {
                            w.push(1);
                            rows.push(&c[j]);
                        }
                    }
                }
                // `bconv_ip` overwrites every coefficient of its output.
                let mut limb = LIMBS.take(n);
                be.bconv_ip(t, &rows, y_bound, &w, &mut limb);
                limb
            })
            .collect();
        LIMBS.give_all(ks);
        // One MAC per (coeff, src, dst) triple; the exact flavour counts
        // one correction multiply per target (Table 2's work, though it
        // now rides in the inner product).
        let (s, d) = (self.src.len() as u64, self.dst.len() as u64);
        neo_trace::add(Counter::ModMacs, n as u64 * s * d);
        if let Fold::Exact = fold {
            neo_trace::add(Counter::ModMuls, n as u64 * d);
        }
        out
    }

    /// The `α × α'` conversion matrix in row-major order:
    /// entry `(i, j)` is `q̂_i mod t_j`. This is the matrix `B` of the
    /// paper's Algorithm 2 (the matrix-multiplication BConv).
    pub fn qhat_matrix(&self) -> Vec<u64> {
        let (k, n) = (self.src.len(), self.dst.len());
        let mut out = vec![0u64; k * n];
        for i in 0..k {
            for j in 0..n {
                out[i * n + j] = self.qhat_mod_dst[i][j];
            }
        }
        out
    }

    /// Applies the per-limb scaling `y_i = [x_i · q̂_i⁻¹]_{q_i}` to whole
    /// limbs (the scalar-multiplication step of Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if the limb count differs from the source basis.
    pub fn scale_limbs(&self, x: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(x.len(), self.src.len(), "source limb count mismatch");
        let elems: u64 = x.iter().map(|l| l.len() as u64).sum();
        neo_trace::add(Counter::ModMuls, elems);
        self.scale_with(x, |len| vec![0u64; len])
    }

    /// `y_i = [x_i · q̂_i⁻¹]_{q_i}` for whole source limbs, each into a row
    /// from `row(len)` (`mul_const` overwrites every element).
    fn scale_with(&self, x: &[Vec<u64>], mut row: impl FnMut(usize) -> Vec<u64>) -> Vec<Vec<u64>> {
        let be = backend::get(self.backend);
        self.src
            .moduli()
            .iter()
            .zip(x)
            .zip(&self.qhat_inv)
            .map(|((m, limb), &hi)| {
                let mut y = row(limb.len());
                be.mul_const(m, m.shoup(hi), limb, &mut y);
                y
            })
            .collect()
    }

    /// `[x_i · q̂_i⁻¹]_{q_i}` for each source limb.
    fn scaled_residues(&self, x: &[u64]) -> Vec<u64> {
        self.src
            .moduli()
            .iter()
            .zip(x)
            .zip(&self.qhat_inv)
            .map(|((m, &xi), &hi)| m.mul(m.reduce(xi), hi))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{primes, BigUint};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bases() -> (RnsBasis, RnsBasis) {
        let qs = primes::ntt_primes(36, 1 << 10, 3).unwrap();
        let ts = primes::ntt_primes(40, 1 << 10, 4).unwrap();
        (RnsBasis::new(&qs).unwrap(), RnsBasis::new(&ts).unwrap())
    }

    fn residues(b: &RnsBasis, v: &BigUint) -> Vec<u64> {
        b.moduli().iter().map(|m| v.rem_u64(m.value())).collect()
    }

    #[test]
    fn rejects_overlapping_bases() {
        let (src, _) = bases();
        assert!(BconvTable::new(&src, &src).is_err());
    }

    #[test]
    fn exact_conversion_small_values() {
        let (src, dst) = bases();
        let table = BconvTable::new(&src, &dst).unwrap();
        for v in [0u64, 1, 12345, 0xFFFF_FFFF_FFFF] {
            let x = residues(&src, &BigUint::from_u64(v));
            let mut out = vec![0u64; dst.len()];
            table.convert_exact_coeff(&x, &mut out);
            let expect = residues(&dst, &BigUint::from_u64(v));
            assert_eq!(out, expect, "v={v}");
        }
    }

    #[test]
    fn exact_conversion_large_values() {
        let (src, dst) = bases();
        let table = BconvTable::new(&src, &dst).unwrap();
        // Values up to 3Q/8: inside the provable safe zone (the correction
        // rounding needs the value to keep a margin below Q/2; the KLSS
        // budget T >= 2*bound provides exactly this margin).
        let three_eighths = src.big_q().half().sub(&src.big_q().half().half().half());
        for delta in [0u64, 1, 999_999] {
            let v = three_eighths.sub(&BigUint::from_u64(delta + 1));
            let x = residues(&src, &v);
            let mut out = vec![0u64; dst.len()];
            table.convert_exact_coeff(&x, &mut out);
            assert_eq!(out, residues(&dst, &v), "delta={delta}");
        }
    }

    #[test]
    fn approx_conversion_overshoots_by_multiple_of_q() {
        let (src, dst) = bases();
        let table = BconvTable::new(&src, &dst).unwrap();
        // A value close to Q so the approximate sum overshoots.
        let v = src.big_q().sub(&BigUint::from_u64(1));
        let x = residues(&src, &v);
        let mut out = vec![0u64; dst.len()];
        table.convert_approx_coeff(&x, &mut out);
        // out must equal v + eps*Q in dst for some eps < src.len().
        let found = (0..src.len() as u64).any(|eps| {
            let w = v.add(&src.big_q().mul_u64(eps));
            out == residues(&dst, &w)
        });
        assert!(found, "approximate conversion not within eps*Q");
    }

    fn basis(bits: u32, count: usize) -> RnsBasis {
        RnsBasis::new(&primes::ntt_primes(bits, 1 << 10, count).unwrap()).unwrap()
    }

    fn random_limbs(b: &RnsBasis, n: usize, rng: &mut StdRng) -> Vec<Vec<u64>> {
        b.moduli()
            .iter()
            .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
            .collect()
    }

    /// The real KLSS shapes — Mod Up of a 3-limb 36-bit digit into a 5-limb
    /// 48-bit `T`, and Recover from that `T` into a 2-limb 36-bit digit —
    /// on random full-range limbs at a length with a vector tail.
    fn klss_shapes() -> Vec<(RnsBasis, RnsBasis, Vec<Vec<u64>>)> {
        let mut rng = StdRng::seed_from_u64(20);
        let n = (1 << 10) + 3;
        [(basis(36, 3), basis(48, 5)), (basis(48, 5), basis(36, 2))]
            .into_iter()
            .map(|(src, dst)| {
                let x = random_limbs(&src, n, &mut rng);
                (src, dst, x)
            })
            .collect()
    }

    #[test]
    fn limbwise_is_bit_identical_across_backends() {
        let (src, dst) = bases();
        let n = 37; // odd length exercises the vector tails
        let x: Vec<Vec<u64>> = src
            .moduli()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (0..n)
                    .map(|c| m.reduce((c as u64 + 3) * 104_729 + i as u64))
                    .collect()
            })
            .collect();
        let mut cases = vec![(src, dst, x)];
        cases.extend(klss_shapes());
        for (src, dst, x) in cases {
            let portable = BconvTable::new(&src, &dst)
                .unwrap()
                .with_backend(BackendKind::Portable);
            let simd = BconvTable::new(&src, &dst)
                .unwrap()
                .with_backend(BackendKind::Simd);
            assert_eq!(portable.backend(), BackendKind::Portable);
            assert_eq!(simd.backend(), BackendKind::Simd);
            assert_eq!(portable.convert_exact(&x), simd.convert_exact(&x));
            assert_eq!(portable.convert_approx(&x), simd.convert_approx(&x));
            assert_eq!(portable.scale_limbs(&x), simd.scale_limbs(&x));
        }
    }

    #[test]
    fn limbwise_matches_coeffwise() {
        let (src, dst) = bases();
        let n = 8;
        let x: Vec<Vec<u64>> = src
            .moduli()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (0..n)
                    .map(|c| m.reduce((c as u64 + 1) * 7919 + i as u64))
                    .collect()
            })
            .collect();
        let mut cases = vec![(src, dst, x)];
        cases.extend(klss_shapes());
        for (src, dst, x) in cases {
            let table = BconvTable::new(&src, &dst).unwrap();
            let (exact, approx) = (table.convert_exact(&x), table.convert_approx(&x));
            for c in 0..x[0].len() {
                let xcol: Vec<u64> = x.iter().map(|l| l[c]).collect();
                let (mut ecol, mut acol) = (vec![0u64; dst.len()], vec![0u64; dst.len()]);
                table.convert_exact_coeff(&xcol, &mut ecol);
                table.convert_approx_coeff(&xcol, &mut acol);
                for j in 0..dst.len() {
                    assert_eq!(exact[j][c], ecol[j]);
                    assert_eq!(approx[j][c], acol[j]);
                }
            }
        }
    }

    /// Rows that already carry `q̂_i⁻¹` convert exactly as the unscaled
    /// limbs do.
    #[test]
    fn scaled_rows_convert_as_the_unscaled_limbs() {
        for (src, dst, x) in klss_shapes() {
            for kind in [BackendKind::Portable, BackendKind::Simd] {
                let table = BconvTable::new(&src, &dst).unwrap().with_backend(kind);
                let scaled = table.convert_exact_scaled(&table.scale_limbs(&x));
                assert_eq!(scaled, table.convert_exact(&x), "{kind}");
            }
        }
    }

    /// The two-pass Mod Down `mod_down` replaced: approximate BConv, then
    /// `(a_j − conv_j)·Q⁻¹` coefficient by coefficient.
    fn mod_down_two_pass(table: &BconvTable, x: &[Vec<u64>], a: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let conv = table.convert_approx(x);
        let q = table.src().big_q();
        table
            .dst()
            .moduli()
            .iter()
            .zip(a.iter().zip(&conv))
            .map(|(t, (a, conv))| {
                let inv = t.inv(q.rem_u64(t.value())).unwrap();
                a.iter()
                    .zip(conv)
                    .map(|(&a, &c)| t.mul(t.sub(a, c), inv))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn mod_down_matches_two_pass_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        // Special limbs of both widths into data limbs of the other.
        for (src, dst, x) in klss_shapes() {
            let a = random_limbs(&dst, x[0].len(), &mut rng);
            for kind in [BackendKind::Portable, BackendKind::Simd] {
                let table = BconvTable::new(&src, &dst).unwrap().with_backend(kind);
                let mut got = a.clone();
                table.mod_down(&x, &mut got, None);
                assert_eq!(got, mod_down_two_pass(&table, &x, &a), "{kind}");
            }
        }
    }

    /// An accumulator rides as one more row: Mod Down into `c` equals
    /// Mod Down, then an add.
    #[test]
    fn mod_down_into_an_accumulator_is_mod_down_then_add() {
        let mut rng = StdRng::seed_from_u64(28);
        for (src, dst, x) in klss_shapes() {
            let (a, c) = (
                random_limbs(&dst, x[0].len(), &mut rng),
                random_limbs(&dst, x[0].len(), &mut rng),
            );
            for kind in [BackendKind::Portable, BackendKind::Simd] {
                let table = BconvTable::new(&src, &dst).unwrap().with_backend(kind);
                let mut want = a.clone();
                table.mod_down(&x, &mut want, None);
                for ((w, c), t) in want.iter_mut().zip(&c).zip(dst.moduli()) {
                    for (w, &c) in w.iter_mut().zip(c) {
                        *w = t.add(*w, c);
                    }
                }
                let mut got = a.clone();
                table.mod_down(&x, &mut got, Some(&c));
                assert_eq!(got, want, "{kind}");
            }
        }
    }
}
