//! AVX-512 backend: IFMA modular kernels and an `f64` overshoot row.
//!
//! IFMA's `vpmadd52{lo,hi}uq` multiply the low 52 bits of two 64-bit lanes
//! into a 104-bit product and add its low or high 52-bit half into an
//! accumulator lane — one µop each. For every modulus `q < 2^50` the
//! Harvey lazy window `[0, 4q)` stays below `2^52`, so every residue of
//! the CKKS chains (36-bit `Q`/`P`, 48-bit `T`) is a native IFMA operand
//! and 8 lanes run per instruction with no operand splitting:
//!
//! * **Shoup multiplies** use the 52-bit constant `⌊w·2^52/q⌋`, which is
//!   exactly `w_shoup >> 12` of the plans' 64-bit [`ShoupMul`] — so the
//!   NTT plans need no new tables. The quotient estimate
//!   `madd52hi(a, w_shoup >> 12)` leaves `a·w − q̂·q` in `[0, 2q)` for any
//!   `a < 2^52`, and that remainder is computed exactly modulo `2^52`.
//! * **NTT stages** vectorise across the butterflies of a block, which all
//!   share the block's twiddle. The backend owns the stage schedule: every
//!   pair of stages whose wider span is at least 32 runs as one radix-4
//!   pass (4 loads, 4 butterflies and 4 stores per 8 lanes), so a
//!   transform of degree `2^14` makes 9 forward and 10 inverse passes over
//!   its limb instead of 14 and 15. Spans 16 and below stay single stages;
//!   spans 2, 4 and 8 (fewer than 8 butterflies per block) gather 8
//!   butterflies from two vectors with `vpermt2q`, spread their blocks'
//!   twiddles with one `vpermq` per vector, and scatter the results back.
//! * **Inner products** (`bconv_ip`, `mul_acc`) accumulate the exact sum
//!   as a base-`2^52` pair `(hi, lo)` — two µops per term — and reduce it
//!   once.
//! * **The overshoot row** of exact BConv takes 8 coefficients' `f64`
//!   sums at once with AVX-512DQ's `u64 ↔ f64` conversions, in the scalar
//!   loop's operation order, so it rounds bit for bit alike.
//!
//! Everything else falls back to [`PortableBackend`], which stays the
//! reference: moduli of `2^50` or more, transforms shorter than 64, CPUs
//! without AVX-512F, IFMA and DQ, and GEMM (off the CKKS host path).
//! Outputs equal the portable ones at every kernel boundary; lazy
//! intermediates inside an NTT may differ by multiples of `q` (the 52-bit
//! quotient estimate can differ from the 64-bit one by 1).

use super::{BackendKind, ComputeBackend, PortableBackend};
use crate::{Modulus, ShoupMul};

/// AVX-512 kernels (IFMA for moduli below `2^50`), portable kernels
/// otherwise. Bit-identical to [`PortableBackend`] at every kernel
/// boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdBackend;

/// True when the CPU runs the AVX-512 kernels: AVX-512F, AVX-512 IFMA and
/// AVX-512DQ together, the one feature set every kernel below enables.
/// `is_x86_feature_detected!` caches its probe, so this is a few loads
/// and bit tests.
pub(super) fn ifma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `$ifma` (an `ifma::` kernel call) when `$cond` holds, the portable
/// kernel `$portable` otherwise.
macro_rules! route {
    ($cond:expr, $ifma:expr, $portable:expr) => {{
        #[cfg(target_arch = "x86_64")]
        if $cond {
            // SAFETY: every route condition includes `ifma_available`,
            // directly or through `ifma::supports`, which proved
            // AVX-512F, AVX-512 IFMA and AVX-512DQ on this CPU.
            return unsafe { $ifma };
        }
        $portable
    }};
}

impl ComputeBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    // From n = 64 on every span leaves the vector loops no tail (spans
    // 2–8 read 8 block twiddles per 64 elements); smaller transforms take
    // the portable loops.
    fn ntt_forward(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) -> u64 {
        route!(
            ifma::supports(m) && x.len().is_multiple_of(64),
            ifma::forward(m, x, tw),
            PortableBackend.ntt_forward(m, x, tw)
        )
    }

    fn ntt_inverse(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul], n_inv: ShoupMul) -> u64 {
        route!(
            ifma::supports(m) && x.len().is_multiple_of(64),
            ifma::inverse(m, x, tw, n_inv),
            PortableBackend.ntt_inverse(m, x, tw, n_inv)
        )
    }

    fn mul_const(&self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
        route!(
            ifma::supports(m),
            ifma::mul_const(m, s, x, out),
            PortableBackend.mul_const(m, s, x, out)
        )
    }

    fn bconv_ip(&self, t: &Modulus, ys: &[&[u64]], y_bound: u64, w: &[u64], out: &mut [u64]) {
        route!(
            ifma::supports(t) && y_bound <= 1 << 52 && ys.len() < ifma::MAX_TERMS,
            ifma::bconv_ip(t, ys, y_bound, w, out),
            PortableBackend.bconv_ip(t, ys, y_bound, w, out)
        )
    }

    fn bconv_overshoot(&self, ys: &[&[u64]], inv_q: &[f64], out: &mut [u64]) {
        route!(
            ifma_available(),
            ifma::bconv_overshoot(ys, inv_q, out),
            PortableBackend.bconv_overshoot(ys, inv_q, out)
        )
    }

    fn mul_acc(&self, q: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
        route!(
            ifma::supports(q) && a.len() < ifma::MAX_TERMS,
            ifma::mul_acc(q, a, b, out),
            PortableBackend.mul_acc(q, a, b, out)
        )
    }

    fn gemm(
        &self,
        q: &Modulus,
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    ) {
        PortableBackend.gemm(q, a, b, m, k, n, out);
    }
}

/// The AVX-512 kernels. Each carries
/// `#[target_feature(enable = "avx512f,avx512ifma,avx512dq")]`, so calling
/// one from code without those features is `unsafe`; the dispatcher calls
/// them only after [`ifma_available`] proved all three — through
/// [`supports`](ifma::supports) for the modular kernels, which also
/// require a modulus below `2^50`, the bound every lane-range argument
/// below relies on.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::PortableBackend;
    use crate::backend::ComputeBackend;
    use crate::{Modulus, ShoupMul};
    use core::arch::x86_64::*;

    type V = __m512i;

    const MASK52: u64 = (1 << 52) - 1;

    /// Moduli below this bound keep lazy `[0, 4q)` values below `2^52`.
    const MODULUS_BOUND: u64 = 1 << 50;

    /// Whether arithmetic modulo `q` takes the IFMA path on this CPU.
    pub fn supports(q: &Modulus) -> bool {
        q.value() < MODULUS_BOUND && super::ifma_available()
    }

    /// Term count below which an inner product's base-`2^52` lane
    /// accumulators cannot overflow (each term adds `< 2^52` to `lo`).
    pub const MAX_TERMS: usize = 1 << 11;

    /// Every row from element `from` on: the operands of the portable
    /// code that finishes the `len % 8` elements whole vectors leave.
    fn tails<'a>(rows: &[&'a [u64]], from: usize) -> Vec<&'a [u64]> {
        rows.iter().map(|r| &r[from..]).collect()
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn splat(v: u64) -> V {
        _mm512_set1_epi64(v as i64)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn load(v: &[u64; 8]) -> V {
        // SAFETY: `v` is 64 readable bytes; `loadu` needs no alignment.
        unsafe { _mm512_loadu_si512(v.as_ptr().cast()) }
    }

    /// Loads `row[i..i + 8]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn load_at(row: &[u64], i: usize) -> V {
        load(row[i..].first_chunk().expect("row shorter than the output"))
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn store(v: &mut [u64; 8], x: V) {
        // SAFETY: `v` is 64 writable bytes; `storeu` needs no alignment.
        unsafe { _mm512_storeu_si512(v.as_mut_ptr().cast(), x) }
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn add(a: V, b: V) -> V {
        _mm512_add_epi64(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn sub(a: V, b: V) -> V {
        _mm512_sub_epi64(a, b)
    }

    /// `x − c` where `x ≥ c`, else `x`: the wrapped difference is huge
    /// exactly when `x < c`, so the unsigned minimum picks the answer.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn cond_sub(x: V, c: V) -> V {
        _mm512_min_epu64(_mm512_sub_epi64(x, c), x)
    }

    /// Two-source lane permute: lane `l` of the result is lane `idx[l]` of
    /// the concatenation `a ‖ b` (one `vpermt2q`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn permute(a: V, idx: V, b: V) -> V {
        _mm512_permutex2var_epi64(a, idx, b)
    }

    /// Stage kinds: a lazy forward (Cooley–Tukey) stage, the last forward
    /// stage (span 2, outputs canonical), and an inverse (Gentleman–Sande)
    /// stage.
    pub const CT: u8 = 0;
    pub const CT_FINAL: u8 = 1;
    pub const GS: u8 = 2;

    /// Per-modulus lane constants.
    pub struct Lanes {
        q: V,
        two_q: V,
        /// `2^52 − q`: adding `lo52(q̂·(2^52 − q))` subtracts `q̂·q`
        /// modulo `2^52`.
        neg_q: V,
        mask: V,
    }

    impl Lanes {
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        pub fn new(m: &Modulus) -> Self {
            let q = m.value();
            Self {
                q: splat(q),
                two_q: splat(2 * q),
                neg_q: splat((1 << 52) - q),
                mask: splat(MASK52),
            }
        }

        /// `a·w − q̂·q` for the 52-bit quotient estimate
        /// `q̂ = ⌊a·ws/2^52⌋`, `ws = ⌊w·2^52/q⌋`: in `[0, 2q)` for
        /// `a < 2^52`, `w < q`, so its low 52 bits are the whole value.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn mul_shoup_lazy(&self, a: V, w: V, ws: V) -> V {
            let zero = _mm512_setzero_si512();
            let qhat = _mm512_madd52hi_epu64(zero, a, ws);
            let prod = _mm512_madd52lo_epu64(zero, a, w);
            _mm512_and_si512(_mm512_madd52lo_epu64(prod, qhat, self.neg_q), self.mask)
        }

        /// The Harvey Cooley–Tukey butterfly: `u = lo` folded below `2q`,
        /// `t = hi·w` lazily; returns `(u + t, u + 2q − t)`, both `< 4q`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn ct(&self, lo: V, hi: V, w: V, ws: V) -> (V, V) {
            let u = cond_sub(lo, self.two_q);
            let t = self.mul_shoup_lazy(hi, w, ws);
            (add(u, t), sub(add(u, self.two_q), t))
        }

        /// The lazy Gentleman–Sande butterfly for `lo, hi < 2q`: returns
        /// `lo + hi` folded below `2q` and `(lo + 2q − hi)·w` lazily.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn gs(&self, lo: V, hi: V, w: V, ws: V) -> (V, V) {
            let s = cond_sub(add(lo, hi), self.two_q);
            (s, self.mul_shoup_lazy(sub(add(lo, self.two_q), hi), w, ws))
        }

        /// The butterfly of stage kind `KIND`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn butterfly<const KIND: u8>(&self, lo: V, hi: V, w: V, ws: V) -> (V, V) {
            match KIND {
                CT => self.ct(lo, hi, w, ws),
                CT_FINAL => {
                    let (a, b) = self.ct(lo, hi, w, ws);
                    (self.canonical(a), self.canonical(b))
                }
                _ => self.gs(lo, hi, w, ws),
            }
        }

        /// Folds `[0, 4q)` to canonical `[0, q)`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn canonical(&self, x: V) -> V {
            cond_sub(cond_sub(x, self.two_q), self.q)
        }
    }

    /// `(w, ⌊w·2^52/q⌋)` as a pair of lane constants.
    fn shoup52(m: &Modulus, w: u64) -> (u64, u64) {
        (w, m.shoup(w).w_shoup >> 12)
    }

    /// One Shoup pair broadcast to every lane as `(w, w_shoup >> 12)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn splat_shoup(s: &ShoupMul) -> (V, V) {
        (splat(s.w), splat(s.w_shoup >> 12))
    }

    /// Loads 8 Shoup pairs as `(w, w_shoup >> 12)` lane vectors: two wide
    /// loads and two deinterleaving permutes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn load_shoup(tw: &[ShoupMul; 8]) -> (V, V) {
        let words = tw.as_ptr().cast::<u64>();
        // SAFETY: `ShoupMul` is `repr(C)` with two `u64` fields and no
        // padding, so `tw` is 16 contiguous readable words.
        let (a, b) = unsafe {
            (
                _mm512_loadu_si512(words.cast()),
                _mm512_loadu_si512(words.add(8).cast()),
            )
        };
        let w = permute(a, load(&[0, 2, 4, 6, 8, 10, 12, 14]), b);
        let ws = permute(a, load(&[1, 3, 5, 7, 9, 11, 13, 15]), b);
        (w, _mm512_srli_epi64::<12>(ws))
    }

    /// Index vectors for a butterfly span with `half < 8` butterflies per
    /// block: 16 consecutive elements hold `8/half` whole blocks. `gather`
    /// picks the lo (or hi) operand of each of the 8 butterflies out of
    /// the two input vectors; `scatter` rebuilds the first (or second)
    /// input vector from the `(lo results ‖ hi results)` pair.
    const fn gather_idx(half: usize, hi: bool) -> [u64; 8] {
        let mut idx = [0u64; 8];
        let mut l = 0;
        while l < 8 {
            let off = if hi { half } else { 0 };
            idx[l] = ((l / half) * 2 * half + l % half + off) as u64;
            l += 1;
        }
        idx
    }

    const fn scatter_idx(half: usize, second: bool) -> [u64; 8] {
        let mut idx = [0u64; 8];
        let mut l = 0;
        while l < 8 {
            let g = l + if second { 8 } else { 0 };
            let (block, pos) = (g / (2 * half), g % (2 * half));
            idx[l] = if pos < half {
                block * half + pos
            } else {
                8 + block * half + pos - half
            } as u64;
            l += 1;
        }
        idx
    }

    /// The four permutes of a narrow span: gather lo, gather hi, scatter
    /// first, scatter second.
    struct Narrow([V; 4]);

    impl Narrow {
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn new(half: usize) -> Self {
            Self([
                load(&gather_idx(half, false)),
                load(&gather_idx(half, true)),
                load(&scatter_idx(half, false)),
                load(&scatter_idx(half, true)),
            ])
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn gather(&self, a: V, b: V) -> (V, V) {
            (permute(a, self.0[0], b), permute(a, self.0[1], b))
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn scatter(&self, lo: V, hi: V) -> (V, V) {
            (permute(lo, self.0[2], hi), permute(lo, self.0[3], hi))
        }
    }

    /// The widest span a forward transform of degree `n` runs as a single
    /// stage: 16 when `n` has an even number of stages, 8 when odd. Every
    /// wider stage pairs with its neighbour (the pairs' wider spans are
    /// then at least 32), and the inverse pairs the same stages.
    fn narrow_limit(n: usize) -> usize {
        if n.trailing_zeros().is_multiple_of(2) {
            16
        } else {
            8
        }
    }

    /// The forward transform: radix-4 pairs of Cooley–Tukey stages from
    /// span `n` down, then single stages from span 16 (or 8) to 4 and the
    /// final span-2 stage.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    pub fn forward(m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) -> u64 {
        let k = Lanes::new(m);
        let n = x.len();
        let mut butterflies = 0;
        let mut span = n;
        while span > narrow_limit(n) {
            let b = n / span;
            butterflies += pair::<CT>(&k, x, span, &tw[b..2 * b], &tw[2 * b..4 * b]);
            span /= 4;
        }
        while span > 2 {
            let b = n / span;
            butterflies += stage::<CT>(&k, x, span, &tw[b..2 * b]);
            span /= 2;
        }
        butterflies + stage::<CT_FINAL>(&k, x, 2, &tw[n / 2..])
    }

    /// The inverse transform: single Gentleman–Sande stages from span 2 up
    /// to span 16 (or 8), radix-4 pairs up to span `n`, then the `n⁻¹`
    /// scale.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    pub fn inverse(m: &Modulus, x: &mut [u64], tw: &[ShoupMul], n_inv: ShoupMul) -> u64 {
        let k = Lanes::new(m);
        let n = x.len();
        let mut butterflies = 0;
        let mut span = 2;
        while span <= narrow_limit(n) {
            let b = n / span;
            butterflies += stage::<GS>(&k, x, span, &tw[b..2 * b]);
            span *= 2;
        }
        // `span` is the narrower stage of each pair.
        while span < n {
            let b = n / (2 * span);
            butterflies += pair::<GS>(&k, x, 2 * span, &tw[b..2 * b], &tw[2 * b..4 * b]);
            span *= 4;
        }
        scale(&k, x, n_inv);
        butterflies
    }

    /// Two stages in one pass: span `size` with one twiddle per block
    /// (`wide`) and span `size/2` with two (`narrow`), for `size ≥ 32`.
    /// Each block's quarters `a, b, c, d` load once per 8 lanes: CT runs
    /// `(a, c)`, `(b, d)` by `wide[i]`, then `(a, b)` by `narrow[2i]` and
    /// `(c, d)` by `narrow[2i + 1]`; GS runs the same butterflies in the
    /// opposite order. Each element meets the butterflies of the two
    /// single stages in their order, so the outputs equal theirs
    /// bit for bit, lazy representatives included.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    pub fn pair<const KIND: u8>(
        k: &Lanes,
        x: &mut [u64],
        size: usize,
        wide: &[ShoupMul],
        narrow: &[ShoupMul],
    ) -> u64 {
        let quarter = size / 4;
        let mut butterflies = 0;
        for ((block, t), u) in x
            .chunks_exact_mut(size)
            .zip(wide)
            .zip(narrow.chunks_exact(2))
        {
            let (w, ws) = splat_shoup(t);
            let (v0, v0s) = splat_shoup(&u[0]);
            let (v1, v1s) = splat_shoup(&u[1]);
            let (ab, cd) = block.split_at_mut(2 * quarter);
            let (a, b) = ab.split_at_mut(quarter);
            let (c, d) = cd.split_at_mut(quarter);
            let (a, _) = a.as_chunks_mut::<8>();
            let (b, _) = b.as_chunks_mut::<8>();
            let (c, _) = c.as_chunks_mut::<8>();
            let (d, _) = d.as_chunks_mut::<8>();
            for (((a, b), c), d) in a.iter_mut().zip(b).zip(c).zip(d) {
                let (x0, x1, x2, x3) = (load(a), load(b), load(c), load(d));
                let (x0, x1, x2, x3) = if KIND == CT {
                    let (x0, x2) = k.ct(x0, x2, w, ws);
                    let (x1, x3) = k.ct(x1, x3, w, ws);
                    let (x0, x1) = k.ct(x0, x1, v0, v0s);
                    let (x2, x3) = k.ct(x2, x3, v1, v1s);
                    (x0, x1, x2, x3)
                } else {
                    let (x0, x1) = k.gs(x0, x1, v0, v0s);
                    let (x2, x3) = k.gs(x2, x3, v1, v1s);
                    let (x0, x2) = k.gs(x0, x2, w, ws);
                    let (x1, x3) = k.gs(x1, x3, w, ws);
                    (x0, x1, x2, x3)
                };
                store(a, x0);
                store(b, x1);
                store(c, x2);
                store(d, x3);
            }
            // Two stages of `size/2` butterflies each.
            butterflies += size as u64;
        }
        butterflies
    }

    /// A stage of kind `KIND` and span `size`: every block broadcasts its
    /// own twiddle across the lanes of its butterflies.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    pub fn stage<const KIND: u8>(k: &Lanes, x: &mut [u64], size: usize, tw: &[ShoupMul]) -> u64 {
        let half = size / 2;
        if half < 8 {
            return narrow_stage::<KIND>(k, x, half, tw);
        }
        for (block, t) in x.chunks_exact_mut(size).zip(tw) {
            let (w, ws) = splat_shoup(t);
            let (lo, hi) = block.split_at_mut(half);
            let (lo, _) = lo.as_chunks_mut::<8>();
            let (hi, _) = hi.as_chunks_mut::<8>();
            for (l, h) in lo.iter_mut().zip(hi) {
                let (rl, rh) = k.butterfly::<KIND>(load(l), load(h), w, ws);
                store(l, rl);
                store(h, rh);
            }
        }
        (x.len() / 2) as u64
    }

    /// Lane `l` of the twiddle vector for the `g`-th vector pair under
    /// one load of 8 block twiddles: butterfly `l` of that pair lies in
    /// block `g·(8/half) + l/half` of the 8.
    const fn spread_idx(half: usize, g: usize) -> [u64; 8] {
        let mut idx = [0u64; 8];
        let mut l = 0;
        while l < 8 {
            idx[l] = (g * (8 / half) + l / half) as u64;
            l += 1;
        }
        idx
    }

    /// Spans 2, 4 and 8: two vectors hold `8/half` whole blocks, whose 8
    /// butterflies are gathered into one lo and one hi vector. One load
    /// of 8 block twiddles serves `half` vector pairs, each spreading its
    /// blocks' twiddles across the lanes with one permute per vector.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn narrow_stage<const KIND: u8>(k: &Lanes, x: &mut [u64], half: usize, tw: &[ShoupMul]) -> u64 {
        let lanes = Narrow::new(half);
        // Pairs past the first `half` of a group do not exist; their
        // (out-of-range) indices are never used.
        let spread = [
            load(&spread_idx(half, 0)),
            load(&spread_idx(half, 1)),
            load(&spread_idx(half, 2)),
            load(&spread_idx(half, 3)),
        ];
        let (vecs, _) = x.as_chunks_mut::<8>();
        let (pairs, _) = vecs.as_chunks_mut::<2>();
        let (tws, _) = tw.as_chunks::<8>();
        for (group, t) in pairs.chunks_exact_mut(half).zip(tws) {
            let (w8, ws8) = load_shoup(t);
            for ([a, b], &idx) in group.iter_mut().zip(&spread) {
                let (w, ws) = if half == 1 {
                    (w8, ws8)
                } else {
                    (
                        _mm512_permutexvar_epi64(idx, w8),
                        _mm512_permutexvar_epi64(idx, ws8),
                    )
                };
                let (lo, hi) = lanes.gather(load(a), load(b));
                let (rl, rh) = k.butterfly::<KIND>(lo, hi, w, ws);
                let (ra, rb) = lanes.scatter(rl, rh);
                store(a, ra);
                store(b, rb);
            }
        }
        (x.len() / 2) as u64
    }

    /// `x[i] = x[i]·s.w mod q`, canonical, for `x[i] < 2q`.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    fn scale(k: &Lanes, x: &mut [u64], s: ShoupMul) {
        let (w, ws) = splat_shoup(&s);
        let (vecs, _) = x.as_chunks_mut::<8>();
        for v in vecs {
            let r = k.mul_shoup_lazy(load(v), w, ws);
            store(v, cond_sub(r, k.q));
        }
    }

    /// `out[i] = x[i]·s.w mod q` for arbitrary 64-bit `x[i]`: the input
    /// splits as `x = h·2^52 + l` (`h < 2^12`) and
    /// `x·w ≡ l·w + h·(2^52·w mod q)`; both products take one 52-bit
    /// Shoup quotient, so their combined remainder lies in `[0, 4q)`.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    pub fn mul_const(m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
        let k = Lanes::new(m);
        let (w, ws) = shoup52(m, s.w);
        let (c, cs) = shoup52(m, m.mul(m.reduce(1 << 52), s.w));
        let (w, ws, c, cs) = (splat(w), splat(ws), splat(c), splat(cs));
        let zero = _mm512_setzero_si512();
        let (outs, out_tail) = out.as_chunks_mut::<8>();
        let (xs, x_tail) = x.as_chunks::<8>();
        for (o, v) in outs.iter_mut().zip(xs) {
            let v = load(v);
            let (h, l) = (_mm512_srli_epi64::<52>(v), _mm512_and_si512(v, k.mask));
            let qhat = _mm512_madd52hi_epu64(_mm512_madd52hi_epu64(zero, l, ws), h, cs);
            let prod = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(zero, l, w), h, c);
            let r = _mm512_and_si512(_mm512_madd52lo_epu64(prod, qhat, k.neg_q), k.mask);
            store(o, k.canonical(r));
        }
        PortableBackend.mul_const(m, s, x_tail, out_tail);
    }

    /// Reduces an exact lane sum `hi·2^52 + lo` (`hi < 2^62`) to canonical
    /// `[0, q)`.
    struct WideReducer {
        k: Lanes,
        /// `2^52 mod q` and `2^104 mod q` with their 52-bit Shoup
        /// constants, and `⌊2^52/q⌋` (the Shoup constant of 1).
        c52: (V, V),
        c104: (V, V),
        one_s: V,
    }

    impl WideReducer {
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn new(m: &Modulus) -> Self {
            let c52 = m.reduce(1 << 52);
            let c104 = m.mul(c52, c52);
            let pair = |(w, ws): (u64, u64)| (splat(w), splat(ws));
            Self {
                k: Lanes::new(m),
                c52: pair(shoup52(m, c52)),
                c104: pair(shoup52(m, c104)),
                one_s: splat(shoup52(m, 1).1),
            }
        }

        /// With `h = hi + ⌊lo/2^52⌋ = h1·2^52 + h0` and `l0 = lo mod 2^52`,
        /// the sum is `≡ h1·c104 + h0·c52 + l0`. The first two products
        /// share one Shoup remainder in `[0, 4q)`; `l0` takes its own
        /// (Shoup by 1) in `[0, 2q)`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
        fn reduce(&self, hi: V, lo: V) -> V {
            let k = &self.k;
            let zero = _mm512_setzero_si512();
            let h = add(hi, _mm512_srli_epi64::<52>(lo));
            let l0 = _mm512_and_si512(lo, k.mask);
            let (h1, h0) = (_mm512_srli_epi64::<52>(h), _mm512_and_si512(h, k.mask));
            let qhat =
                _mm512_madd52hi_epu64(_mm512_madd52hi_epu64(zero, h0, self.c52.1), h1, self.c104.1);
            let prod =
                _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(zero, h0, self.c52.0), h1, self.c104.0);
            let r1 = _mm512_and_si512(_mm512_madd52lo_epu64(prod, qhat, k.neg_q), k.mask);
            let qhat = _mm512_madd52hi_epu64(zero, l0, self.one_s);
            let r2 = _mm512_and_si512(_mm512_madd52lo_epu64(l0, qhat, k.neg_q), k.mask);
            k.canonical(add(cond_sub(r1, k.two_q), r2))
        }
    }

    /// `out[c] = (Σ_i ys[i][c]·w[i]) mod t` for `ys < 2^52`, `w < t`, fewer
    /// than `2^11` rows: each term adds `< 2^52` to `lo` and `< 2^50` to
    /// `hi`, so neither lane wraps.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    pub fn bconv_ip(t: &Modulus, ys: &[&[u64]], y_bound: u64, w: &[u64], out: &mut [u64]) {
        let reducer = WideReducer::new(t);
        let (outs, tail) = out.as_chunks_mut::<8>();
        for (c, o) in outs.iter_mut().enumerate() {
            let (mut hi, mut lo) = (_mm512_setzero_si512(), _mm512_setzero_si512());
            for (row, &wi) in ys.iter().zip(w) {
                let (y, wi) = (load_at(row, 8 * c), splat(wi));
                lo = _mm512_madd52lo_epu64(lo, y, wi);
                hi = _mm512_madd52hi_epu64(hi, y, wi);
            }
            store(o, reducer.reduce(hi, lo));
        }
        if !tail.is_empty() {
            let ys = tails(ys, 8 * outs.len());
            PortableBackend.bconv_ip(t, &ys, y_bound, w, tail);
        }
    }

    /// `out[c] = (Σ_j a[j][c]·b[j][c]) mod q` for reduced inputs and fewer
    /// than `2^11` terms, never reading `out`: `lo` gains `< 2^52` per
    /// term, `hi` gains `< 2^48`.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    pub fn mul_acc(q: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
        let reducer = WideReducer::new(q);
        let (outs, tail) = out.as_chunks_mut::<8>();
        for (c, o) in outs.iter_mut().enumerate() {
            let (mut hi, mut lo) = (_mm512_setzero_si512(), _mm512_setzero_si512());
            for (x, y) in a.iter().zip(b) {
                let (x, y) = (load_at(x, 8 * c), load_at(y, 8 * c));
                lo = _mm512_madd52lo_epu64(lo, x, y);
                hi = _mm512_madd52hi_epu64(hi, x, y);
            }
            store(o, reducer.reduce(hi, lo));
        }
        if !tail.is_empty() {
            let split = 8 * outs.len();
            PortableBackend.mul_acc(q, &tails(a, split), &tails(b, split), tail);
        }
    }

    /// `out[c] = round(Σ_i ys[i][c]·inv_q[i])` with the scalar loop's IEEE
    /// operations in its order: per source row a `u64 → f64` conversion
    /// (`vcvtuqq2pd`), a multiply and an add, each rounded to nearest (no
    /// FMA); then truncation (`vcvttpd2uqq`), the remainder compared with
    /// one half, and a masked increment. Both conversions round as Rust's
    /// `as` casts do, and they are exact below `2^52`.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq")]
    pub fn bconv_overshoot(ys: &[&[u64]], inv_q: &[f64], out: &mut [u64]) {
        let (half, one) = (_mm512_set1_pd(0.5), splat(1));
        let (outs, tail) = out.as_chunks_mut::<8>();
        for (c, o) in outs.iter_mut().enumerate() {
            let mut f = _mm512_setzero_pd();
            for (row, &inv) in ys.iter().zip(inv_q) {
                let y = _mm512_cvtepu64_pd(load_at(row, 8 * c));
                f = _mm512_add_pd(f, _mm512_mul_pd(y, _mm512_set1_pd(inv)));
            }
            let t = _mm512_cvttpd_epu64(f);
            let up =
                _mm512_cmp_pd_mask::<_CMP_GE_OQ>(_mm512_sub_pd(f, _mm512_cvtepu64_pd(t)), half);
            store(o, _mm512_mask_add_epi64(t, up, t, one));
        }
        if !tail.is_empty() {
            PortableBackend.bconv_overshoot(&tails(ys, 8 * outs.len()), inv_q, tail);
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::{ifma, ifma_available};
    use crate::{primes, Modulus, ShoupMul};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One radix-4 pass equals the two single IFMA stages it replaces on
    /// the widest lazy inputs, lazy representatives included, and stays
    /// inside their windows: `[0, 4q)` forward, `[0, 2q)` inverse.
    #[test]
    fn a_radix4_pair_is_two_single_stages() {
        if !ifma_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(44);
        let n = 1 << 10;
        for bits in [30u32, 36, 48, 50] {
            let m = Modulus::new(primes::ntt_primes(bits, n, 1).unwrap()[0]).unwrap();
            let q = m.value();
            for size in [32usize, 64, 256, n] {
                let [wide, narrow]: [Vec<ShoupMul>; 2] = [n / size, 2 * n / size]
                    .map(|count| (0..count).map(|_| m.shoup(rng.gen_range(0..q))).collect());
                for (kind, window) in [(ifma::CT, 4 * q), (ifma::GS, 2 * q)] {
                    let x: Vec<u64> = (0..n).map(|_| rng.gen_range(0..window)).collect();
                    let (mut fused, mut split) = (x.clone(), x);
                    // SAFETY: `ifma_available` proved AVX-512F, IFMA and DQ.
                    unsafe {
                        let k = ifma::Lanes::new(&m);
                        if kind == ifma::CT {
                            let done =
                                ifma::pair::<{ ifma::CT }>(&k, &mut fused, size, &wide, &narrow);
                            assert_eq!(done, n as u64);
                            ifma::stage::<{ ifma::CT }>(&k, &mut split, size, &wide);
                            ifma::stage::<{ ifma::CT }>(&k, &mut split, size / 2, &narrow);
                        } else {
                            let done =
                                ifma::pair::<{ ifma::GS }>(&k, &mut fused, size, &wide, &narrow);
                            assert_eq!(done, n as u64);
                            ifma::stage::<{ ifma::GS }>(&k, &mut split, size / 2, &narrow);
                            ifma::stage::<{ ifma::GS }>(&k, &mut split, size, &wide);
                        }
                    }
                    assert_eq!(fused, split, "kind={kind} size={size} bits={bits}");
                    assert!(fused.iter().all(|&v| v < window));
                }
            }
        }
    }
}
