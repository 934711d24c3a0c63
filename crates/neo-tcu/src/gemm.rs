//! Modular GEMM engines.
//!
//! [`GemmEngine`] is the pluggable matrix-multiplication backend of the
//! matrix NTT, the matrix BConv and IP witnesses, the ABFT wrapper and the
//! benches. Every engine reduces output column `j` by its own modulus
//! `cols[j]`: BConv's matrix form (Algorithm 2) needs that, since column
//! `j` of its `q̂` matrix holds `q̂_i mod t_j`, and a single-modulus product
//! is the case where every column carries the same modulus. Three engines
//! are provided:
//!
//! * [`ScalarGemm`] — blocked `u128` accumulation with deferred reduction
//!   (the CUDA-core path);
//! * [`Fp64TcuGemm`] — Neo's pipeline: split → FP64 `8×8×4` fragment MMAs →
//!   shift-merge → reduce;
//! * [`Int8TcuGemm`] — TensorFHE's pipeline with byte planes and INT8
//!   fragments.
//!
//! All three produce **identical** outputs, equal to the [`reference_gemm`]
//! oracle; the TCU engines really route every multiply through the
//! fragment emulation in [`crate::fragment`], and their only modular step
//! is the per-column merge.

use crate::fragment::{self, FragmentShape, FP64_FRAGMENT, INT8_FRAGMENTS};
use crate::split::{Fp64SplitScheme, Int8SplitScheme};
use neo_math::backend::accumulation_span;
use neo_math::Modulus;
use neo_trace::{Counter, SpanGuard};
use std::cell::RefCell;

thread_local! {
    // Per-plane-pair accumulator tiles, reused across gemm calls so the
    // matrix NTT and BConv don't allocate on every invocation.
    static FP64_TILE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static INT8_TILE: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
}

/// An engine that computes `C = A × B` for row-major `u64` matrices — `A`
/// is `m×k`, `B` is `k×n`, `C` is `m×n` — with output column `j` reduced
/// mod `cols[j]`.
pub trait GemmEngine {
    /// Computes the product into `out`, column `j` reduced mod `cols[j]`.
    /// Column `j` of `B` must be reduced mod `cols[j]`; each engine states
    /// how wide `A`'s entries may be.
    ///
    /// # Panics
    ///
    /// Implementations panic if `cols` or the slice lengths disagree with
    /// the dimensions.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        cols: &[Modulus],
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    );

    /// Short name for diagnostics/benches.
    fn name(&self) -> &'static str;
}

/// Modular GEMM on scalar units (CUDA-core path).
///
/// Runs an i-k-j loop over a row of `u128` accumulators with deferred
/// reduction: inside one K-span no modular reduction happens at all, and
/// the span ([`accumulation_span`] of the widest column modulus, for `A`
/// entries of any `u64`) is chosen so the accumulators provably cannot
/// wrap. Output is bit-identical to [`reference_gemm`] — both land on the
/// canonical representative of each column's modulus.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarGemm;

impl GemmEngine for ScalarGemm {
    fn gemm(
        &self,
        cols: &[Modulus],
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    ) {
        check_dims(cols, a, b, out, m, k, n);
        neo_trace::add(Counter::GemmMacs, (m * k * n) as u64);
        // A timer span: one relaxed load while the gate is off.
        let _s = SpanGuard::timer("tcu.gemm");
        let span = cols
            .iter()
            .max_by_key(|t| t.value())
            .map_or(1, |t| accumulation_span(u64::MAX, t));
        let mut acc = vec![0u128; n];
        for i in 0..m {
            acc.fill(0);
            let a_row = &a[i * k..(i + 1) * k];
            for t0 in (0..k).step_by(span) {
                for (t, &ai) in a_row.iter().enumerate().skip(t0).take(span) {
                    let ai = u128::from(ai);
                    for (s, &bj) in acc.iter_mut().zip(&b[t * n..(t + 1) * n]) {
                        *s += ai * u128::from(bj);
                    }
                }
                // Fold every accumulator below its column's modulus before
                // the next span.
                for (s, t) in acc.iter_mut().zip(cols) {
                    *s = u128::from(t.reduce_u128(*s));
                }
            }
            for (o, &s) in out[i * n..(i + 1) * n].iter_mut().zip(&acc) {
                *o = s as u64;
            }
        }
    }

    fn name(&self) -> &'static str {
        "scalar"
    }
}

/// The `O(m·k·n)` fully-reduced oracle: one product reduced and one
/// modular add per term, column `j` mod `cols[j]`. Every engine is tested
/// to match it bit for bit.
pub fn reference_gemm(
    cols: &[Modulus],
    a: &[u64],
    b: &[u64],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [u64],
) {
    check_dims(cols, a, b, out, m, k, n);
    for i in 0..m {
        for (j, q) in cols.iter().enumerate() {
            let mut acc = 0u64;
            for t in 0..k {
                let p = u128::from(a[i * k + t]) * u128::from(b[t * n + j]);
                acc = q.add(acc, q.reduce_u128(p));
            }
            out[i * n + j] = acc;
        }
    }
}

fn check_dims(cols: &[Modulus], a: &[u64], b: &[u64], out: &[u64], m: usize, k: usize, n: usize) {
    assert_eq!(cols.len(), n, "one modulus per output column");
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(out.len(), m * n, "C shape mismatch");
}

/// Adds one plane pair's exact integer tile, shifted left by `shift`, into
/// `out`, element `(i, j)` reduced mod `cols[j]`: the merge step, the only
/// modular arithmetic of a TCU engine.
fn merge(out: &mut [u64], tile: impl Iterator<Item = u128>, cols: &[Modulus], shift: u32) {
    neo_trace::add(Counter::MergeOps, out.len() as u64);
    for ((o, v), t) in out.iter_mut().zip(tile).zip(cols.iter().cycle()) {
        *o = t.add(*o, t.reduce_u128(v << shift));
    }
}

/// Neo's FP64 tensor-core GEMM. Exact for `A` entries below
/// `2^scheme.a_width()` and `B` entries below `2^scheme.b_width()`.
#[derive(Debug, Clone)]
pub struct Fp64TcuGemm {
    scheme: Fp64SplitScheme,
}

impl Fp64TcuGemm {
    /// Engine with the paper's splitting scheme for `word_size`.
    pub fn for_word_size(word_size: u32) -> Self {
        Self::new(Fp64SplitScheme::for_word_size(word_size))
    }

    /// Engine with a custom scheme (e.g. BConv's asymmetric
    /// [`Fp64SplitScheme::for_operands`]).
    pub fn new(scheme: Fp64SplitScheme) -> Self {
        Self { scheme }
    }

    /// The active splitting scheme.
    pub fn scheme(&self) -> &Fp64SplitScheme {
        &self.scheme
    }
}

impl GemmEngine for Fp64TcuGemm {
    fn gemm(
        &self,
        cols: &[Modulus],
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    ) {
        check_dims(cols, a, b, out, m, k, n);
        debug_assert!(
            cols.iter().all(|t| t.bits() <= self.scheme.word_size()),
            "modulus wider than the splitting scheme's word size"
        );
        out.fill(0);
        let a_planes = self.scheme.split_a(a);
        let b_planes = self.scheme.split_b(b);
        let kc = self.scheme.max_k();
        // Process the reduction dimension in chunks the exactness bound
        // covers; real kernels interleave a modular reduction the same way.
        FP64_TILE.with(|cell| {
            let mut tile = cell.borrow_mut();
            for k0 in (0..k).step_by(kc) {
                let kw = kc.min(k - k0);
                for (off_a, pa) in &a_planes {
                    for (off_b, pb) in &b_planes {
                        fragment_tiled_gemm_fp64(pa, pb, m, k, n, k0, kw, &mut tile);
                        let exact = tile.iter().map(|&v| {
                            debug_assert!(
                                (0.0..9_007_199_254_740_992.0).contains(&v),
                                "exactness broken"
                            );
                            v as u128
                        });
                        merge(out, exact, cols, off_a + off_b);
                    }
                }
            }
        });
    }

    fn name(&self) -> &'static str {
        "tcu-fp64"
    }
}

/// Fragment-tiled plain f64 GEMM of one plane pair over the K slice
/// `[k0, k0+kw)`, written into the caller-owned scratch `out`. Every
/// multiply goes through [`fragment::mma_fp64`].
#[allow(clippy::too_many_arguments)]
fn fragment_tiled_gemm_fp64(
    pa: &[f64],
    pb: &[f64],
    m: usize,
    k: usize,
    n: usize,
    k0: usize,
    kw: usize,
    out: &mut Vec<f64>,
) {
    let fm = FP64_FRAGMENT.m;
    let fn_ = FP64_FRAGMENT.n;
    let fk = FP64_FRAGMENT.k;
    out.clear();
    out.resize(m * n, 0.0);
    let mut fa = [0.0f64; 32];
    let mut fb = [0.0f64; 32];
    let mut fc = [0.0f64; 64];
    for i0 in (0..m).step_by(fm) {
        for j0 in (0..n).step_by(fn_) {
            fc.fill(0.0);
            for t0 in (k0..k0 + kw).step_by(fk) {
                // Load (and zero-pad) the A and B fragments.
                fa.fill(0.0);
                fb.fill(0.0);
                for i in 0..fm.min(m - i0) {
                    for t in 0..fk.min(k0 + kw - t0) {
                        fa[i * fk + t] = pa[(i0 + i) * k + (t0 + t)];
                    }
                }
                for t in 0..fk.min(k0 + kw - t0) {
                    for j in 0..fn_.min(n - j0) {
                        fb[t * fn_ + j] = pb[(t0 + t) * n + (j0 + j)];
                    }
                }
                fragment::mma_fp64(&fa, &fb, &mut fc);
            }
            for i in 0..fm.min(m - i0) {
                for j in 0..fn_.min(n - j0) {
                    out[(i0 + i) * n + (j0 + j)] = fc[i * fn_ + j];
                }
            }
        }
    }
}

/// TensorFHE's INT8 tensor-core GEMM. Exact for `A` entries below
/// `2^(8·scheme.planes_a())` and `B` entries below `2^(8·scheme.planes_b())`.
#[derive(Debug, Clone)]
pub struct Int8TcuGemm {
    scheme: Int8SplitScheme,
    shape: FragmentShape,
}

impl Int8TcuGemm {
    /// Engine with byte planes for `word_size` and the default `16×16×16`
    /// fragment.
    pub fn for_word_size(word_size: u32) -> Self {
        Self::new(Int8SplitScheme::for_word_size(word_size))
    }

    /// Engine with a custom scheme (e.g. BConv's asymmetric
    /// [`Int8SplitScheme::for_operands`]) and the default `16×16×16`
    /// fragment.
    pub fn new(scheme: Int8SplitScheme) -> Self {
        Self {
            scheme,
            shape: INT8_FRAGMENTS[0],
        }
    }

    /// Chooses a different INT8 fragment shape (e.g. `32×8×16` which the
    /// paper identifies as optimal for BConv).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not an A100 INT8 fragment shape.
    pub fn with_shape(mut self, shape: FragmentShape) -> Self {
        assert!(
            INT8_FRAGMENTS.contains(&shape),
            "unsupported INT8 fragment {shape}"
        );
        self.shape = shape;
        self
    }

    /// The active splitting scheme.
    pub fn scheme(&self) -> &Int8SplitScheme {
        &self.scheme
    }
}

impl GemmEngine for Int8TcuGemm {
    fn gemm(
        &self,
        cols: &[Modulus],
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    ) {
        check_dims(cols, a, b, out, m, k, n);
        debug_assert!(cols
            .iter()
            .all(|t| t.bits() <= 8 * self.scheme.planes() as u32));
        out.fill(0);
        let a_planes = self.scheme.split_a(a);
        let b_planes = self.scheme.split_b(b);
        INT8_TILE.with(|cell| {
            let mut tile = cell.borrow_mut();
            for (off_a, pa) in &a_planes {
                for (off_b, pb) in &b_planes {
                    fragment_tiled_gemm_int8(self.shape, pa, pb, m, k, n, &mut tile);
                    merge(out, tile.iter().map(|&v| v as u128), cols, off_a + off_b);
                }
            }
        });
    }

    fn name(&self) -> &'static str {
        "tcu-int8"
    }
}

fn fragment_tiled_gemm_int8(
    shape: FragmentShape,
    pa: &[u8],
    pb: &[u8],
    m: usize,
    k: usize,
    n: usize,
    out: &mut Vec<i64>,
) {
    let (fm, fn_, fk) = (shape.m, shape.n, shape.k);
    out.clear();
    out.resize(m * n, 0);
    let mut fa = vec![0u8; fm * fk];
    let mut fb = vec![0u8; fk * fn_];
    let mut fc = vec![0i32; fm * fn_];
    for i0 in (0..m).step_by(fm) {
        for j0 in (0..n).step_by(fn_) {
            fc.fill(0);
            for t0 in (0..k).step_by(fk) {
                fa.fill(0);
                fb.fill(0);
                for i in 0..fm.min(m - i0) {
                    for t in 0..fk.min(k - t0) {
                        fa[i * fk + t] = pa[(i0 + i) * k + (t0 + t)];
                    }
                }
                for t in 0..fk.min(k - t0) {
                    for j in 0..fn_.min(n - j0) {
                        fb[t * fn_ + j] = pb[(t0 + t) * n + (j0 + j)];
                    }
                }
                fragment::mma_int8(shape, &fa, &fb, &mut fc);
            }
            for i in 0..fm.min(m - i0) {
                for j in 0..fn_.min(n - j0) {
                    out[(i0 + i) * n + (j0 + j)] = fc[i * fn_ + j] as i64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::primes;
    use rand::{Rng, SeedableRng};

    fn modulus(bits: u32) -> Modulus {
        Modulus::new(primes::ntt_primes(bits, 1 << 10, 1).unwrap()[0]).unwrap()
    }

    fn random_mat(rng: &mut impl Rng, q: &Modulus, len: usize) -> Vec<u64> {
        (0..len).map(|_| rng.gen_range(0..q.value())).collect()
    }

    /// Every engine's product equals the per-column oracle's.
    fn assert_engines_match_oracle(
        engines: &[&dyn GemmEngine],
        cols: &[Modulus],
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<u64> {
        let mut want = vec![0u64; m * n];
        reference_gemm(cols, a, b, m, k, n, &mut want);
        for engine in engines {
            let mut got = vec![u64::MAX; m * n];
            engine.gemm(cols, a, b, m, k, n, &mut got);
            assert_eq!(got, want, "{} diverged ({m}x{k}x{n})", engine.name());
        }
        want
    }

    /// One `bits`-bit modulus in every column: returns the product.
    fn compare_engines(bits: u32, m: usize, k: usize, n: usize, seed: u64) -> Vec<u64> {
        let q = modulus(bits);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = random_mat(&mut rng, &q, m * k);
        let b = random_mat(&mut rng, &q, k * n);
        let ws = if bits <= 36 { 36 } else { 48 };
        let (fp64, int8) = (
            Fp64TcuGemm::for_word_size(ws),
            Int8TcuGemm::for_word_size(ws),
        );
        assert_engines_match_oracle(&[&ScalarGemm, &fp64, &int8], &vec![q; n], &a, &b, m, k, n)
    }

    /// `n` distinct `wb`-bit column moduli, `A` entries of `wa` bits and
    /// column `j` of `B` reduced mod `t_j`: the shape of BConv's product.
    fn per_column(
        m: usize,
        k: usize,
        n: usize,
        wa: u32,
        wb: u32,
        seed: u64,
    ) -> (Vec<Modulus>, Vec<u64>, Vec<u64>) {
        let cols: Vec<Modulus> = primes::ntt_primes(wb, 1 << 8, n)
            .unwrap()
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..1u64 << wa)).collect();
        let mut b = vec![0u64; k * n];
        for t in 0..k {
            for (j, c) in cols.iter().enumerate() {
                b[t * n + j] = rng.gen_range(0..c.value());
            }
        }
        (cols, a, b)
    }

    #[test]
    fn engines_agree_fragment_sized() {
        compare_engines(36, 8, 4, 8, 1);
        compare_engines(36, 16, 16, 16, 2);
    }

    #[test]
    fn engines_agree_odd_shapes() {
        compare_engines(36, 5, 3, 7, 3); // heavy padding
        compare_engines(36, 9, 16, 5, 4);
        compare_engines(36, 33, 9, 17, 5);
    }

    #[test]
    fn engines_agree_48_bit() {
        compare_engines(48, 16, 16, 16, 6);
        compare_engines(48, 12, 9, 8, 7);
    }

    #[test]
    fn engines_agree_long_k() {
        // K > 16 exercises the chunked accumulation path.
        compare_engines(36, 8, 40, 8, 8);
        compare_engines(48, 8, 33, 8, 9);
    }

    #[test]
    fn engines_agree_per_column_bconv_shape() {
        // BConv-like: A 36-bit, columns 40-bit, K = alpha = 4.
        let (cols, a, b) = per_column(24, 4, 6, 36, 40, 42);
        let fp64 = Fp64TcuGemm::new(Fp64SplitScheme::for_operands(36, 40));
        let int8 = Int8TcuGemm::new(Int8SplitScheme::for_operands(36, 40));
        assert_engines_match_oracle(&[&ScalarGemm, &fp64, &int8], &cols, &a, &b, 24, 4, 6);
    }

    #[test]
    fn engines_agree_per_column_recover_shape() {
        // KLSS Recover-Limbs-like: both operands 48-bit, long K.
        let (cols, a, b) = per_column(8, 20, 4, 48, 48, 43);
        let fp64 = Fp64TcuGemm::new(Fp64SplitScheme::for_operands(48, 48));
        let int8 = Int8TcuGemm::new(Int8SplitScheme::for_operands(48, 48));
        assert_engines_match_oracle(&[&ScalarGemm, &fp64, &int8], &cols, &a, &b, 8, 20, 4);
    }

    #[test]
    fn engines_agree_per_column_on_the_bconv_int8_fragment() {
        // The 32×8×16 INT8 fragment BConv runs on.
        let (cols, a, b) = per_column(16, 4, 8, 36, 40, 44);
        let int8 =
            Int8TcuGemm::new(Int8SplitScheme::for_operands(36, 40)).with_shape(INT8_FRAGMENTS[1]);
        assert_engines_match_oracle(&[&ScalarGemm, &int8], &cols, &a, &b, 16, 4, 8);
    }

    /// One modulus in every column is the single-modulus product: every
    /// engine matches the oracle and pinned FNV-1a digests of the outputs,
    /// so no single-modulus result can move.
    #[test]
    fn one_modulus_in_every_column_is_the_single_modulus_product() {
        let digest = |c: &[u64]| {
            c.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
                (h ^ v).wrapping_mul(0x100_0000_01b3)
            })
        };
        assert_eq!(digest(&compare_engines(36, 16, 16, 16, 2)), PINNED[0]);
        assert_eq!(digest(&compare_engines(48, 12, 9, 8, 7)), PINNED[1]);
        assert_eq!(digest(&compare_engines(48, 8, 33, 8, 9)), PINNED[2]);
        // A 61-bit prime and K = 600 force several mid-row folds; the TCU
        // schemes stop at 48 bits.
        let q = modulus(61);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (m, k, n) = (3usize, 600usize, 5usize);
        let a = random_mat(&mut rng, &q, m * k);
        let b = random_mat(&mut rng, &q, k * n);
        let c = assert_engines_match_oracle(&[&ScalarGemm], &vec![q; n], &a, &b, m, k, n);
        assert_eq!(digest(&c), PINNED[3]);
    }

    const PINNED: [u64; 4] = [
        0xc6a9_1897_65f8_04a4,
        0xa4a3_dcd9_ffe1_2a89,
        0x2795_853b_35d6_fb3b,
        0x8e97_f1e9_6d31_4cb3,
    ];

    #[test]
    fn names() {
        assert_eq!(ScalarGemm.name(), "scalar");
        assert_eq!(Fp64TcuGemm::for_word_size(36).name(), "tcu-fp64");
        assert_eq!(Int8TcuGemm::for_word_size(36).name(), "tcu-int8");
    }
}

#[cfg(test)]
mod blocked_property_tests {
    use super::*;
    use neo_math::primes;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The deferred-reduction i-k-j kernel is bit-identical to the
        /// fully-reduced oracle across shapes and prime widths.
        #[test]
        fn blocked_matches_reference(
            seed in any::<u64>(),
            bits in 30u32..=61,
            m in 1usize..12,
            k in 1usize..40,
            n in 1usize..12,
        ) {
            let q = Modulus::new(primes::ntt_primes(bits, 1 << 10, 1).unwrap()[0]).unwrap();
            let cols = vec![q; n];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
            let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
            let mut blocked = vec![0u64; m * n];
            let mut naive = vec![0u64; m * n];
            ScalarGemm.gemm(&cols, &a, &b, m, k, n, &mut blocked);
            reference_gemm(&cols, &a, &b, m, k, n, &mut naive);
            prop_assert_eq!(blocked, naive);
        }
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use neo_math::primes;
    use rand::{Rng, SeedableRng};

    #[test]
    fn int8_alternate_fragment_shapes_agree() {
        let q = Modulus::new(primes::ntt_primes(36, 1 << 10, 1).unwrap()[0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let (m, k, n) = (40usize, 12usize, 20usize);
        let cols = vec![q; n];
        let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
        let mut want = vec![0u64; m * n];
        reference_gemm(&cols, &a, &b, m, k, n, &mut want);
        for shape in crate::INT8_FRAGMENTS {
            let mut got = vec![0u64; m * n];
            Int8TcuGemm::for_word_size(36)
                .with_shape(shape)
                .gemm(&cols, &a, &b, m, k, n, &mut got);
            assert_eq!(got, want, "shape {shape}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported INT8 fragment")]
    fn with_shape_rejects_fp64_shape() {
        let _ = Int8TcuGemm::for_word_size(36).with_shape(crate::FP64_FRAGMENT);
    }

    #[test]
    fn fp64_custom_scheme_roundtrip() {
        // An unusual but exact custom scheme: 18-bit planes both sides.
        let scheme = crate::Fp64SplitScheme::new(36, 36, vec![18, 18], vec![18, 18], 16);
        assert_eq!(scheme.partial_products(), 4);
        let q = Modulus::new(primes::ntt_primes(36, 1 << 10, 1).unwrap()[0]).unwrap();
        let cols = vec![q; 8];
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let a: Vec<u64> = (0..8 * 8).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..8 * 8).map(|_| rng.gen_range(0..q.value())).collect();
        let mut want = vec![0u64; 64];
        let mut got = vec![0u64; 64];
        reference_gemm(&cols, &a, &b, 8, 8, 8, &mut want);
        Fp64TcuGemm::new(scheme).gemm(&cols, &a, &b, 8, 8, 8, &mut got);
        assert_eq!(got, want);
    }
}
