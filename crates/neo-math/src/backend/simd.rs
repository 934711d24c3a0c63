//! AVX-512 backend: IFMA modular kernels and an `f64` overshoot row.
//!
//! IFMA's `vpmadd52{lo,hi}uq` multiply the low 52 bits of two 64-bit lanes
//! into a 104-bit product and add its low or high 52-bit half into an
//! accumulator lane — one µop each. Every modulus `q < 2^50` leaves a
//! lane room for `4q`, so every residue of the CKKS chains (36-bit
//! `Q`/`P`, 48-bit `T`) is a native IFMA operand and 8 lanes run per
//! instruction with no operand splitting:
//!
//! * **Shoup multiplies** use the 52-bit constant `⌊w·2^52/q⌋`, which is
//!   exactly `w_shoup >> 12` of the plans' 64-bit [`ShoupMul`] — so the
//!   NTT plans need no new tables. The quotient estimate
//!   `madd52hi(a, w_shoup >> 12)` leaves `a·w − q̂·q` in `[0, 2q)` for any
//!   `a < 2^52`, and that remainder is computed exactly modulo `2^52`.
//! * **Transforms track a bound instead of reducing** (Harvey's lazy
//!   butterflies, J. Symb. Comp. 2014, and Intel HEXL's IFMA NTT, carried
//!   to the 52-bit lanes). Inside a transform a lane holds `v + k·2^52`,
//!   and only `v`, its low 52 bits, is meaningful: IFMA reads only those
//!   bits, and adds and subtracts keep them exact modulo `2^52`, so no
//!   butterfly masks. `v` stays below a bound `B`, a multiple of `q`, that
//!   the transform tracks stage by stage. A Cooley–Tukey butterfly is 3
//!   IFMA and 3 adds and raises `B` by `2q`; a Gentleman–Sande one forms
//!   `lo + hi` and `(lo + B − hi)·w`, also 3 IFMA and 3 adds, and doubles
//!   `B`. A fold — a Shoup multiply by 1, 2 IFMA, blind to the bits above
//!   `v` — goes exactly where the next stage would push `B` past `2^52`,
//!   so the fold points follow from `q` and `n`. At 36-bit primes a
//!   transform of degree `2^14` never folds; at 48-bit primes the forward
//!   folds twice and the inverse every third stage.
//! * **The backend owns the stage schedule.** Every pair of stages whose
//!   wider span is at least 32 runs as one radix-4 pass (4 loads, 4
//!   butterflies and 4 stores per 8 lanes). The narrow stages — spans 16
//!   down to 2, or 8 down to 2 when `log₂ n` is odd — run as one
//!   *register tail* over 16-element groups held in two vectors, which
//!   move between the butterfly layouts with one `vpermt2q` each and read
//!   the per-block twiddle table as it is. The forward ends in its tail,
//!   whose exit folds, masks and subtracts `q` once; the inverse starts
//!   with its tail and ends in a radix-4 pass whose span-`n` butterflies
//!   also apply the `n⁻¹` scale. A transform of degree `2^14` makes 6
//!   passes over its limb each way.
//! * **Inner products** (`bconv_ip`, `mul_acc`) accumulate the exact sum
//!   as a base-`2^52` pair `(hi, lo)` — two µops per term — and reduce it
//!   once. `mul_acc` prefetches every operand row a fixed distance ahead:
//!   the key-switch inner product streams a key far larger than a core's
//!   caches.
//! * **Packed key rows** (`klss_ip`) hold residues at `width ≤ 8`
//!   bytes; the KLSS inner product loads 8 of them with one byte-masked
//!   load (AVX-512BW) and spreads them to their lanes with one byte
//!   permute (`vpermb`, VBMI), and loads each Mod Up vector once for both
//!   key components.
//! * **The overshoot row** of exact BConv takes 8 coefficients' `f64`
//!   sums at once with AVX-512DQ's `u64 ↔ f64` conversions, in the scalar
//!   loop's operation order, so it rounds bit for bit alike.
//!
//! Everything else falls back to [`PortableBackend`], which stays the
//! reference: moduli of `2^50` or more, transforms shorter than 64, and
//! CPUs without AVX-512F, IFMA, DQ, BW and VBMI.
//! Outputs equal the portable ones at every kernel boundary, because
//! every kernel emits canonical residues; inside a transform the lanes
//! hold other representatives than the portable loops' `[0, 4q)` and
//! `[0, 2q)` windows.

use super::{check_klss_ip, BackendKind, ComputeBackend, PortableBackend};
use crate::{Modulus, ShoupMul};

/// AVX-512 kernels (IFMA for moduli below `2^50`), portable kernels
/// otherwise. Bit-identical to [`PortableBackend`] at every kernel
/// boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdBackend;

/// True when the CPU runs the AVX-512 kernels: AVX-512F, IFMA, DQ, BW and
/// VBMI together, the one feature set every kernel below enables (every
/// CPU with IFMA so far has the other four). `is_x86_feature_detected!`
/// caches its probe, so this is a few loads and bit tests.
pub(super) fn ifma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vbmi")
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
            // AVX-512F, IFMA, DQ, BW and VBMI on this CPU.
            return unsafe { $ifma };
        }
        $portable
    }};
}

impl ComputeBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    // From n = 64 on, radix-4 passes and the register tail cover every
    // stage with whole vectors, and the inverse ends in a radix-4 pass;
    // smaller transforms take the portable loops.
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

    fn klss_ip(
        &self,
        q: &Modulus,
        x: &[&[u64]],
        key: &[[&[u8]; 2]],
        width: usize,
        out: [&mut [u64]; 2],
    ) {
        check_klss_ip(x, key, width, &out);
        route!(
            ifma::supports(q) && x.len() < ifma::MAX_TERMS,
            ifma::klss_ip(q, x, key, width, out),
            PortableBackend.klss_ip(q, x, key, width, out)
        )
    }
}

/// The AVX-512 kernels. Each carries
/// `#[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]`,
/// so calling one from code without those features is `unsafe`; the
/// dispatcher calls them only after [`ifma_available`] proved all five —
/// through [`supports`](ifma::supports) for the modular kernels, which
/// also require a modulus below `2^50`, the bound every lane-range
/// argument below relies on.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::PortableBackend;
    use crate::backend::ComputeBackend;
    use crate::{Modulus, ShoupMul};
    use core::arch::x86_64::*;

    type V = __m512i;

    const MASK52: u64 = (1 << 52) - 1;

    /// `2^52`. A lane's value is its low 52 bits: the bits IFMA multiplies,
    /// and the bits adds and subtracts keep exact.
    pub const LANE: u64 = 1 << 52;

    /// Moduli below this bound keep `4q` within a lane's value, the least
    /// headroom a transform's bound needs.
    const MODULUS_BOUND: u64 = 1 << 50;

    /// Whether arithmetic modulo `q` takes the IFMA path on this CPU.
    pub fn supports(q: &Modulus) -> bool {
        q.value() < MODULUS_BOUND && super::ifma_available()
    }

    /// Term count below which an inner product's base-`2^52` lane
    /// accumulators cannot overflow (each term adds `< 2^52` to `lo`).
    pub const MAX_TERMS: usize = 1 << 11;

    /// How far ahead `mul_acc` prefetches each operand row, in vectors of
    /// 8 words (one 64-byte line each): 24 lines, 1.5 KiB per row.
    const PREFETCH_AHEAD: usize = 24;

    /// Every row from element `from` on: the operands of the portable
    /// code that finishes the `len % 8` elements whole vectors leave.
    fn tails<'a>(rows: &[&'a [u64]], from: usize) -> Vec<&'a [u64]> {
        rows.iter().map(|r| &r[from..]).collect()
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn splat(v: u64) -> V {
        _mm512_set1_epi64(v as i64)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn load(v: &[u64; 8]) -> V {
        // SAFETY: `v` is 64 readable bytes; `loadu` needs no alignment.
        unsafe { _mm512_loadu_si512(v.as_ptr().cast()) }
    }

    /// Loads `row[i..i + 8]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn load_at(row: &[u64], i: usize) -> V {
        load(row[i..].first_chunk().expect("row shorter than the output"))
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn store(v: &mut [u64; 8], x: V) {
        // SAFETY: `v` is 64 writable bytes; `storeu` needs no alignment.
        unsafe { _mm512_storeu_si512(v.as_mut_ptr().cast(), x) }
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn add(a: V, b: V) -> V {
        _mm512_add_epi64(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn sub(a: V, b: V) -> V {
        _mm512_sub_epi64(a, b)
    }

    /// `x − c` where `x ≥ c`, else `x`: the wrapped difference is huge
    /// exactly when `x < c`, so the unsigned minimum picks the answer.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn cond_sub(x: V, c: V) -> V {
        _mm512_min_epu64(_mm512_sub_epi64(x, c), x)
    }

    /// Two-source lane permute: lane `l` of the result is lane `idx[l]` of
    /// the concatenation `a ‖ b` (one `vpermt2q`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn permute(a: V, idx: V, b: V) -> V {
        _mm512_permutex2var_epi64(a, idx, b)
    }

    /// Per-modulus lane constants.
    pub struct Lanes {
        q: V,
        two_q: V,
        /// `2^52 − q`: adding `lo52(q̂·(2^52 − q))` subtracts `q̂·q`
        /// modulo `2^52`.
        neg_q: V,
        mask: V,
        /// `⌊2^52/q⌋`, the 52-bit Shoup constant of 1.
        one_s: V,
    }

    impl Lanes {
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        pub fn new(m: &Modulus) -> Self {
            let q = m.value();
            Self {
                q: splat(q),
                two_q: splat(2 * q),
                neg_q: splat(LANE - q),
                mask: splat(MASK52),
                one_s: splat(shoup52(m, 1).1),
            }
        }

        /// `a·w − q̂·q` for `a` the lane's value and the 52-bit quotient
        /// estimate `q̂ = ⌊a·ws/2^52⌋`, `ws = ⌊w·2^52/q⌋`: for `w < q` the
        /// remainder lies in `[0, 2q)`, so it is the result's whole value;
        /// the bits above are garbage.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn mul(&self, a: V, w: V, ws: V) -> V {
            let zero = _mm512_setzero_si512();
            let qhat = _mm512_madd52hi_epu64(zero, a, ws);
            let prod = _mm512_madd52lo_epu64(zero, a, w);
            _mm512_madd52lo_epu64(prod, qhat, self.neg_q)
        }

        /// A lane's value folded into `[0, 2q)`: [`Lanes::mul`] by 1, two
        /// IFMA, whatever the bits above the value hold.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn fold(&self, a: V) -> V {
            let qhat = _mm512_madd52hi_epu64(_mm512_setzero_si512(), a, self.one_s);
            _mm512_madd52lo_epu64(a, qhat, self.neg_q)
        }

        /// A lane whose value lies in `[0, 2q)`, canonical: masked, then
        /// brought below `q`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn exact(&self, a: V) -> V {
            cond_sub(_mm512_and_si512(a, self.mask), self.q)
        }

        /// The Cooley–Tukey butterfly on values below `B`: `u = lo`, folded
        /// below `2q` first when `fold`, and `t = hi·w` in `[0, 2q)`;
        /// returns `(u + t, u + 2q − t)`, below `B + 2q` (`4q` after a
        /// fold). 3 IFMA and 3 adds; a fold adds 2 IFMA.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn ct(&self, lo: V, hi: V, w: V, ws: V, fold: bool) -> (V, V) {
            let u = if fold { self.fold(lo) } else { lo };
            let t = self.mul(hi, w, ws);
            (add(u, t), sub(add(u, self.two_q), t))
        }

        /// The Gentleman–Sande butterfly on values below `B` (broadcast in
        /// `b`, a multiple of `q` with `2B ≤ 2^52`): returns `lo + hi`,
        /// below `2B` (folded below `2q` when `fold`), and
        /// `(lo + B − hi)·w`, below `2q`. 3 IFMA and 3 adds; a fold adds 2
        /// IFMA.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn gs(&self, lo: V, hi: V, b: V, w: V, ws: V, fold: bool) -> (V, V) {
            let s = add(lo, hi);
            let s = if fold { self.fold(s) } else { s };
            (s, self.mul(sub(add(lo, b), hi), w, ws))
        }

        /// Folds `[0, 4q)` to canonical `[0, q)`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn canonical(&self, x: V) -> V {
            cond_sub(cond_sub(x, self.two_q), self.q)
        }
    }

    /// The bound `B` a transform tracks: every lane's value stays below
    /// it, and it is a multiple of `q`. Each stage asks it whether to fold,
    /// so the fold points follow from `q` and the stage count alone.
    pub struct Bound {
        q: u64,
        b: u64,
    }

    impl Bound {
        /// Values below `k·q`.
        pub fn new(m: &Modulus, k: u64) -> Self {
            Self {
                q: m.value(),
                b: k * m.value(),
            }
        }

        /// The current `B`.
        pub fn get(&self) -> u64 {
            self.b
        }

        /// A Cooley–Tukey stage raises `B` by `2q`. It folds its `u`
        /// operands when that would pass `2^52`, which leaves `4q`.
        pub fn ct(&mut self) -> bool {
            let fold = self.b + 2 * self.q > LANE;
            self.b = if fold {
                4 * self.q
            } else {
                self.b + 2 * self.q
            };
            fold
        }

        /// A Gentleman–Sande stage needs `2B ≤ 2^52` and doubles `B`. It
        /// folds its sums when the next stage would not fit, which leaves
        /// `2q`. Returns the stage's own `B` and whether it folds.
        pub fn gs(&mut self) -> (u64, bool) {
            let b = self.b;
            let fold = 4 * b > LANE;
            self.b = if fold { 2 * self.q } else { 2 * b };
            (b, fold)
        }
    }

    /// `(w, ⌊w·2^52/q⌋)` as a pair of lane constants.
    fn shoup52(m: &Modulus, w: u64) -> (u64, u64) {
        (w, m.shoup(w).w_shoup >> 12)
    }

    /// One Shoup pair broadcast to every lane as `(w, w_shoup >> 12)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn splat_shoup(s: &ShoupMul) -> (V, V) {
        (splat(s.w), splat(s.w_shoup >> 12))
    }

    /// Loads 8 Shoup pairs as `(w, w_shoup >> 12)` lane vectors: two wide
    /// loads and two deinterleaving permutes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
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

    /// Loads `K < 8` Shoup pairs spread over the lanes as
    /// `(w, w_shoup >> 12)` vectors, pair `l·K/8` in lane `l`: one masked
    /// load of their `2K` words and one permute per vector.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn spread_shoup<const K: usize>(tw: &[ShoupMul; K]) -> (V, V) {
        let words = ((1u32 << (2 * K)) - 1) as __mmask8;
        // SAFETY: as in `load_shoup`, `tw` is `2K` contiguous readable
        // words, and the mask loads no other.
        let v = unsafe { _mm512_maskz_loadu_epi64(words, tw.as_ptr().cast()) };
        let [w, ws] = const { spread_idx(K) };
        (
            _mm512_permutexvar_epi64(load(&w), v),
            _mm512_srli_epi64::<12>(_mm512_permutexvar_epi64(load(&ws), v)),
        )
    }

    /// Word indices of `K` consecutive Shoup pairs spread over 8 lanes:
    /// lane `l` takes pair `l·K/8`'s `w` (first array) and `w_shoup`
    /// (second).
    const fn spread_idx(k: usize) -> [[u64; 8]; 2] {
        let mut idx = [[0; 8]; 2];
        let mut l = 0;
        while l < 8 {
            idx[0][l] = (2 * (l * k / 8)) as u64;
            idx[1][l] = idx[0][l] + 1;
            l += 1;
        }
        idx
    }

    /// The widest span the register tail runs: 16 when `log₂ n` is even,
    /// 8 when odd, so the radix-4 passes above it pair the other stages.
    fn tail_span(n: usize) -> usize {
        if n.trailing_zeros().is_multiple_of(2) {
            16
        } else {
            8
        }
    }

    /// The forward transform: radix-4 passes of Cooley–Tukey stages from
    /// span `n` down to span 32 (or 16), then the register tail, which
    /// also reduces to canonical.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    pub fn forward(m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) -> u64 {
        let k = Lanes::new(m);
        let n = x.len();
        // The contract's inputs lie in [0, 4q).
        let mut bound = Bound::new(m, 4);
        let mut butterflies = 0;
        let mut span = n;
        while span > tail_span(n) {
            let b = n / span;
            let folds = [bound.ct(), bound.ct()];
            let (wide, narrow) = (&tw[b..2 * b], &tw[2 * b..4 * b]);
            butterflies += pass::<CT>(&k, x, span, wide, narrow, folds, [0; 2]);
            span /= 4;
        }
        // The tail's stages, widest first; the stage of span `2^(bit+1)`
        // keeps its decision at `folds[bit]`.
        let mut folds = [false; 4];
        for fold in folds[..span.trailing_zeros() as usize].iter_mut().rev() {
            *fold = bound.ct();
        }
        butterflies + forward_tail(&k, x, tw, folds)
    }

    /// The inverse transform: the register tail (spans 2 up to 16, or 8),
    /// radix-4 passes of Gentleman–Sande stages up to span `n`, the last
    /// of which also applies the `n⁻¹` scale and emits canonical values.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    pub fn inverse(m: &Modulus, x: &mut [u64], tw: &[ShoupMul], n_inv: ShoupMul) -> u64 {
        let k = Lanes::new(m);
        let n = x.len();
        // The contract's inputs lie in [0, 2q).
        let mut bound = Bound::new(m, 2);
        let top = tail_span(n);
        let mut stages = [(0, false); 4];
        for stage in &mut stages[..top.trailing_zeros() as usize] {
            *stage = bound.gs();
        }
        let mut butterflies = inverse_tail(&k, x, tw, stages);
        // `span` is the narrower stage of each pass.
        let mut span = 2 * top;
        while 2 * span < n {
            let b = n / (2 * span);
            let ((b0, f0), (b1, f1)) = (bound.gs(), bound.gs());
            let (wide, narrow) = (&tw[b..2 * b], &tw[2 * b..4 * b]);
            butterflies += pass::<GS>(&k, x, 2 * span, wide, narrow, [f0, f1], [b0, b1]);
            span *= 4;
        }
        // The span-n stage reads values below 2B ≤ 2^52 and folds none:
        // its products by the scale are the exit.
        let (b0, fold) = bound.gs();
        butterflies + last_pass(&k, m, x, tw, n_inv, fold, [b0, bound.get()])
    }

    /// Pass kinds: forward (Cooley–Tukey) and inverse (Gentleman–Sande).
    pub const CT: u8 = 0;
    pub const GS: u8 = 1;

    /// A block's four quarters, 8 lanes at a time: `[a, b, c, d]` at the
    /// same offset in each.
    #[inline]
    fn quarters(block: &mut [u64]) -> impl Iterator<Item = [&mut [u64; 8]; 4]> {
        let quarter = block.len() / 4;
        let (ab, cd) = block.split_at_mut(2 * quarter);
        let (a, b) = ab.split_at_mut(quarter);
        let (c, d) = cd.split_at_mut(quarter);
        let (a, b, c, d) = (
            a.as_chunks_mut::<8>().0,
            b.as_chunks_mut::<8>().0,
            c.as_chunks_mut::<8>().0,
            d.as_chunks_mut::<8>().0,
        );
        a.iter_mut()
            .zip(b)
            .zip(c)
            .zip(d)
            .map(|(((a, b), c), d)| [a, b, c, d])
    }

    /// Two stages in one pass: span `size` with one twiddle per block
    /// (`wide`) and span `size/2` with two (`narrow`), for `size ≥ 32`.
    /// Each block's quarters `a, b, c, d` load once per 8 lanes: CT runs
    /// `(a, c)`, `(b, d)` by `wide[i]`, then `(a, b)` by `narrow[2i]` and
    /// `(c, d)` by `narrow[2i + 1]`; GS runs the same butterflies in the
    /// opposite order. `folds` and, for GS, `bounds` hold the decisions
    /// and the `B` of the two stages in the order they run.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    pub fn pass<const KIND: u8>(
        k: &Lanes,
        x: &mut [u64],
        size: usize,
        wide: &[ShoupMul],
        narrow: &[ShoupMul],
        folds: [bool; 2],
        bounds: [u64; 2],
    ) -> u64 {
        let [f0, f1] = folds;
        let (b0, b1) = (splat(bounds[0]), splat(bounds[1]));
        for ((block, t), u) in x
            .chunks_exact_mut(size)
            .zip(wide)
            .zip(narrow.chunks_exact(2))
        {
            let (w, ws) = splat_shoup(t);
            let (v0, v0s) = splat_shoup(&u[0]);
            let (v1, v1s) = splat_shoup(&u[1]);
            for [a, b, c, d] in quarters(block) {
                let (x0, x1, x2, x3) = (load(a), load(b), load(c), load(d));
                let (x0, x1, x2, x3) = if KIND == CT {
                    let (x0, x2) = k.ct(x0, x2, w, ws, f0);
                    let (x1, x3) = k.ct(x1, x3, w, ws, f0);
                    let (x0, x1) = k.ct(x0, x1, v0, v0s, f1);
                    let (x2, x3) = k.ct(x2, x3, v1, v1s, f1);
                    (x0, x1, x2, x3)
                } else {
                    let (x0, x1) = k.gs(x0, x1, b0, v0, v0s, f0);
                    let (x2, x3) = k.gs(x2, x3, b0, v1, v1s, f0);
                    let (x0, x2) = k.gs(x0, x2, b1, w, ws, f1);
                    let (x1, x3) = k.gs(x1, x3, b1, w, ws, f1);
                    (x0, x1, x2, x3)
                };
                store(a, x0);
                store(b, x1);
                store(c, x2);
                store(d, x3);
            }
        }
        // Two stages of `n/2` butterflies each.
        x.len() as u64
    }

    /// The inverse's last pass: the GS stage of span `n/2` (folding its
    /// sums when `f0`), then span `n`, whose butterflies also apply the
    /// scale `s`: `(lo + hi)·s` and `(lo + B − hi)·(w·s)`, canonical out.
    /// The scale costs no pass of its own.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn last_pass(
        k: &Lanes,
        m: &Modulus,
        x: &mut [u64],
        tw: &[ShoupMul],
        s: ShoupMul,
        f0: bool,
        bounds: [u64; 2],
    ) -> u64 {
        let (b0, b1) = (splat(bounds[0]), splat(bounds[1]));
        let (v0, v0s) = splat_shoup(&tw[2]);
        let (v1, v1s) = splat_shoup(&tw[3]);
        let (w, ws) = splat_shoup(&m.shoup(m.mul(tw[1].w, s.w)));
        let (s, ss) = splat_shoup(&s);
        for [a, b, c, d] in quarters(x) {
            let (x0, x1, x2, x3) = (load(a), load(b), load(c), load(d));
            let (x0, x1) = k.gs(x0, x1, b0, v0, v0s, f0);
            let (x2, x3) = k.gs(x2, x3, b0, v1, v1s, f0);
            store(a, k.exact(k.mul(add(x0, x2), s, ss)));
            store(b, k.exact(k.mul(add(x1, x3), s, ss)));
            store(c, k.exact(k.mul(sub(add(x0, b1), x2), w, ws)));
            store(d, k.exact(k.mul(sub(add(x1, b1), x3), w, ws)));
        }
        x.len() as u64
    }

    /// A 16-element group in two vectors, in layout `bit`: element bit
    /// `bit` picks the vector and the other three bits, in order, the lane.
    /// Layout `bit` lines up the operands of the span-`2^(bit+1)`
    /// butterflies in lane `l` of the two vectors, in block `l >> bit` of
    /// the group's `8 >> bit`; layout 3 is memory order. Returns element
    /// `e`'s vector and lane.
    const fn place(e: usize, bit: usize) -> (usize, usize) {
        (
            (e >> bit) & 1,
            (e >> (bit + 1)) << bit | (e & ((1 << bit) - 1)),
        )
    }

    /// `vpermt2q` indices that take a group from layout `from` to layout
    /// `to`: output vector `r`, lane `l` reads the input lane that holds
    /// the element layout `to` places there.
    const fn relayout(from: usize, to: usize) -> [[u64; 8]; 2] {
        let mut idx = [[0; 8]; 2];
        let mut e = 0;
        while e < 16 {
            let (r, l) = place(e, to);
            let (fr, fl) = place(e, from);
            idx[r][l] = (8 * fr + fl) as u64;
            e += 1;
        }
        idx
    }

    /// A move between two tail layouts: one `vpermt2q` per vector.
    struct Move([V; 2]);

    impl Move {
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn new(idx: [[u64; 8]; 2]) -> Self {
            Self([load(&idx[0]), load(&idx[1])])
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn apply(&self, a: V, b: V) -> (V, V) {
            (permute(a, self.0[0], b), permute(a, self.0[1], b))
        }
    }

    /// The forward's narrow stages in registers: spans 16 (when `log₂ n`
    /// is even), 8, 4 and 2 over each 16-element group held in two
    /// vectors, one pair of permutes between stages, then the exit — every
    /// value folded, masked and brought below `q` — and a permute back to
    /// memory order.
    /// `folds[bit]` is the decision of the stage of layout `bit`. Twiddles
    /// come from the per-block table: the group's 1, 2, 4 and 8 blocks.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    pub fn forward_tail(k: &Lanes, x: &mut [u64], tw: &[ShoupMul], folds: [bool; 4]) -> u64 {
        let n = x.len();
        let wide = tail_span(n) == 16;
        let to4 = Move::new(const { relayout(3, 2) });
        let to2 = Move::new(const { relayout(2, 1) });
        let to1 = Move::new(const { relayout(1, 0) });
        let back = Move::new(const { relayout(0, 3) });
        let (span8, span4, span2) = (
            tw[n / 8..n / 4].as_chunks::<2>().0,
            tw[n / 4..n / 2].as_chunks::<4>().0,
            tw[n / 2..n].as_chunks::<8>().0,
        );
        let (vecs, _) = x.as_chunks_mut::<8>();
        let (groups, _) = vecs.as_chunks_mut::<2>();
        let blocks = span8.iter().zip(span4).zip(span2);
        for (g, ([a, b], ((t8, t4), t2))) in groups.iter_mut().zip(blocks).enumerate() {
            let (mut lo, mut hi) = (load(a), load(b));
            if wide {
                let (w, ws) = splat_shoup(&tw[n / 16 + g]);
                (lo, hi) = k.ct(lo, hi, w, ws, folds[3]);
            }
            let (lo, hi) = to4.apply(lo, hi);
            let (w, ws) = spread_shoup(t8);
            let (lo, hi) = k.ct(lo, hi, w, ws, folds[2]);
            let (lo, hi) = to2.apply(lo, hi);
            let (w, ws) = spread_shoup(t4);
            let (lo, hi) = k.ct(lo, hi, w, ws, folds[1]);
            let (lo, hi) = to1.apply(lo, hi);
            let (w, ws) = load_shoup(t2);
            let (lo, hi) = k.ct(lo, hi, w, ws, folds[0]);
            let (lo, hi) = back.apply(k.exact(k.fold(lo)), k.exact(k.fold(hi)));
            store(a, lo);
            store(b, hi);
        }
        let stages = if wide { 4 } else { 3 };
        (stages * n / 2) as u64
    }

    /// The inverse's narrow stages in registers: spans 2, 4, 8 and 16
    /// (when `log₂ n` is even) over each 16-element group, the mirror of
    /// [`forward_tail`] without its exit. `stages[bit]` holds the `B` and
    /// the fold decision of the stage of layout `bit`.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    pub fn inverse_tail(
        k: &Lanes,
        x: &mut [u64],
        tw: &[ShoupMul],
        stages: [(u64, bool); 4],
    ) -> u64 {
        let n = x.len();
        let wide = tail_span(n) == 16;
        let to1 = Move::new(const { relayout(3, 0) });
        let to2 = Move::new(const { relayout(0, 1) });
        let to4 = Move::new(const { relayout(1, 2) });
        let back = Move::new(const { relayout(2, 3) });
        let [b0, b1, b2, b3] = [
            splat(stages[0].0),
            splat(stages[1].0),
            splat(stages[2].0),
            splat(stages[3].0),
        ];
        let (span8, span4, span2) = (
            tw[n / 8..n / 4].as_chunks::<2>().0,
            tw[n / 4..n / 2].as_chunks::<4>().0,
            tw[n / 2..n].as_chunks::<8>().0,
        );
        let (vecs, _) = x.as_chunks_mut::<8>();
        let (groups, _) = vecs.as_chunks_mut::<2>();
        let blocks = span8.iter().zip(span4).zip(span2);
        for (g, ([a, b], ((t8, t4), t2))) in groups.iter_mut().zip(blocks).enumerate() {
            let (lo, hi) = to1.apply(load(a), load(b));
            let (w, ws) = load_shoup(t2);
            let (lo, hi) = k.gs(lo, hi, b0, w, ws, stages[0].1);
            let (lo, hi) = to2.apply(lo, hi);
            let (w, ws) = spread_shoup(t4);
            let (lo, hi) = k.gs(lo, hi, b1, w, ws, stages[1].1);
            let (lo, hi) = to4.apply(lo, hi);
            let (w, ws) = spread_shoup(t8);
            let (lo, hi) = k.gs(lo, hi, b2, w, ws, stages[2].1);
            let (mut lo, mut hi) = back.apply(lo, hi);
            if wide {
                let (w, ws) = splat_shoup(&tw[n / 16 + g]);
                (lo, hi) = k.gs(lo, hi, b3, w, ws, stages[3].1);
            }
            store(a, lo);
            store(b, hi);
        }
        let stages = if wide { 4 } else { 3 };
        (stages * n / 2) as u64
    }

    /// `out[i] = x[i]·s.w mod q` for arbitrary 64-bit `x[i]`: the input
    /// splits as `x = h·2^52 + l` (`h < 2^12`) and
    /// `x·w ≡ l·w + h·(2^52·w mod q)`; both products take one 52-bit
    /// Shoup quotient, so their combined remainder lies in `[0, 4q)`.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
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
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
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
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
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
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
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
    /// term, `hi` gains `< 2^48`. While it sums vector `c`, it prefetches
    /// vector `c + PREFETCH_AHEAD` of every operand row, while that lies
    /// inside the rows (each at least as long as `out`): the key-switch
    /// inner product streams a key far larger than a core's caches.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    pub fn mul_acc(q: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
        let reducer = WideReducer::new(q);
        let (outs, tail) = out.as_chunks_mut::<8>();
        let vectors = outs.len();
        for (c, o) in outs.iter_mut().enumerate() {
            let ahead = 8 * (c + PREFETCH_AHEAD);
            let fetch = c + PREFETCH_AHEAD < vectors;
            let (mut hi, mut lo) = (_mm512_setzero_si512(), _mm512_setzero_si512());
            for (x, y) in a.iter().zip(b) {
                if fetch {
                    prefetch(x, ahead);
                    prefetch(y, ahead);
                }
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

    /// Asks for the cache line that holds `row[i]`, `i < row.len()`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    fn prefetch<T>(row: &[T], i: usize) {
        debug_assert!(i < row.len());
        _mm_prefetch::<_MM_HINT_T0>(row.as_ptr().wrapping_add(i).cast());
    }

    /// Loads 8 residues of a row packed at `width` bytes, each into its
    /// lane, zero-extended: one masked load of their `8·width` bytes and
    /// one `vpermb`, which moves residue `l`'s bytes to lane `l`'s low
    /// bytes and zeroes the rest.
    struct Unpack {
        idx: V,
        /// The bytes of each lane that take a residue's byte.
        lanes: __mmask64,
        /// The `8·width` bytes one load reads.
        bytes: __mmask64,
        /// `8·width`.
        vector: usize,
    }

    impl Unpack {
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn new(width: usize) -> Self {
            let (mut idx, mut lanes) = ([0u8; 64], 0u64);
            for (k, i) in idx.iter_mut().enumerate() {
                let (lane, byte) = (k / 8, k % 8);
                if byte < width {
                    *i = (lane * width + byte) as u8;
                    lanes |= 1 << k;
                }
            }
            Self {
                // SAFETY: `idx` is 64 readable bytes; `loadu` needs no
                // alignment.
                idx: unsafe { _mm512_loadu_si512(idx.as_ptr().cast()) },
                lanes,
                bytes: u64::MAX >> (64 - 8 * width),
                vector: 8 * width,
            }
        }

        /// Residues `8c..8c + 8` of `row`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
        fn load(&self, row: &[u8], c: usize) -> V {
            let chunk = &row[c * self.vector..(c + 1) * self.vector];
            // SAFETY: the mask enables the first `vector` bytes from the
            // chunk's start, exactly the chunk's readable bytes.
            let v = unsafe { _mm512_maskz_loadu_epi8(self.bytes, chunk.as_ptr().cast()) };
            _mm512_maskz_permutexvar_epi8(self.lanes, self.idx, v)
        }
    }

    /// `out[k][c] = (Σ_j x[j][c]·key[j][k][c]) mod q` for `k ∈ {0, 1}`,
    /// reduced inputs, fewer than `2^11` terms and key rows packed at
    /// `width` bytes, never reading `out`: each term loads its `x` vector
    /// once and adds its two products to two lane-sum pairs, each bounded
    /// as in `mul_acc`. Every row is prefetched `PREFETCH_AHEAD` vectors
    /// ahead, as `mul_acc` does.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
    pub fn klss_ip(
        q: &Modulus,
        x: &[&[u64]],
        key: &[[&[u8]; 2]],
        width: usize,
        out: [&mut [u64]; 2],
    ) {
        let reducer = WideReducer::new(q);
        let unpack = Unpack::new(width);
        let [o0, o1] = out;
        let (outs0, tail0) = o0.as_chunks_mut::<8>();
        let (outs1, tail1) = o1.as_chunks_mut::<8>();
        let vectors = outs0.len();
        for (c, (a, b)) in outs0.iter_mut().zip(outs1.iter_mut()).enumerate() {
            let ahead = c + PREFETCH_AHEAD;
            let fetch = ahead < vectors;
            let zero = _mm512_setzero_si512();
            let (mut hi0, mut lo0, mut hi1, mut lo1) = (zero, zero, zero, zero);
            for (row, [k0, k1]) in x.iter().zip(key) {
                if fetch {
                    prefetch(row, 8 * ahead);
                    prefetch(k0, unpack.vector * ahead);
                    prefetch(k1, unpack.vector * ahead);
                }
                let v = load_at(row, 8 * c);
                let (w0, w1) = (unpack.load(k0, c), unpack.load(k1, c));
                lo0 = _mm512_madd52lo_epu64(lo0, v, w0);
                hi0 = _mm512_madd52hi_epu64(hi0, v, w0);
                lo1 = _mm512_madd52lo_epu64(lo1, v, w1);
                hi1 = _mm512_madd52hi_epu64(hi1, v, w1);
            }
            store(a, reducer.reduce(hi0, lo0));
            store(b, reducer.reduce(hi1, lo1));
        }
        if !tail0.is_empty() {
            let split = 8 * vectors;
            let key: Vec<[&[u8]; 2]> = key
                .iter()
                .map(|pair| pair.map(|r| &r[split * width..]))
                .collect();
            PortableBackend.klss_ip(q, &tails(x, split), &key, width, [tail0, tail1]);
        }
    }

    /// `out[c] = round(Σ_i ys[i][c]·inv_q[i])` with the scalar loop's IEEE
    /// operations in its order: per source row a `u64 → f64` conversion
    /// (`vcvtuqq2pd`), a multiply and an add, each rounded to nearest (no
    /// FMA); then truncation (`vcvttpd2uqq`), the remainder compared with
    /// one half, and a masked increment. Both conversions round as Rust's
    /// `as` casts do, and they are exact below `2^52`.
    #[target_feature(enable = "avx512f,avx512ifma,avx512dq,avx512bw,avx512vbmi")]
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

    /// A scalar model of one IFMA lane, the reference for the vector
    /// kernels: IFMA multiplies the low 52 bits of its operands and adds
    /// one 52-bit half of the product to the whole 64-bit accumulator.
    mod lane {
        use crate::{Modulus, ShoupMul};

        pub const MASK: u64 = (1 << 52) - 1;

        fn product(a: u64, b: u64) -> u128 {
            u128::from(a & MASK) * u128::from(b & MASK)
        }

        pub fn madd52lo(acc: u64, a: u64, b: u64) -> u64 {
            acc.wrapping_add(product(a, b) as u64 & MASK)
        }

        pub fn madd52hi(acc: u64, a: u64, b: u64) -> u64 {
            acc.wrapping_add((product(a, b) >> 52) as u64)
        }

        /// `Lanes::mul`.
        pub fn mul(m: &Modulus, a: u64, w: ShoupMul) -> u64 {
            let qhat = madd52hi(0, a, w.w_shoup >> 12);
            madd52lo(madd52lo(0, a, w.w), qhat, (1 << 52) - m.value())
        }

        /// `Lanes::fold`: `mul` by 1.
        pub fn fold(m: &Modulus, a: u64) -> u64 {
            let qhat = madd52hi(0, a, m.shoup(1).w_shoup >> 12);
            madd52lo(a, qhat, (1 << 52) - m.value())
        }

        /// One single stage of span `size`: Cooley–Tukey or, with `b`
        /// (the stage's bound), Gentleman–Sande butterflies per block.
        pub fn stage(
            m: &Modulus,
            x: &mut [u64],
            size: usize,
            tw: &[ShoupMul],
            gs: Option<u64>,
            fold_it: bool,
        ) {
            let two_q = 2 * m.value();
            for (block, &t) in x.chunks_exact_mut(size).zip(tw) {
                let (lo, hi) = block.split_at_mut(size / 2);
                for (l, h) in lo.iter_mut().zip(hi) {
                    (*l, *h) = match gs {
                        None => {
                            let u = if fold_it { fold(m, *l) } else { *l };
                            let v = mul(m, *h, t);
                            (u.wrapping_add(v), u.wrapping_add(two_q).wrapping_sub(v))
                        }
                        Some(b) => {
                            let s = l.wrapping_add(*h);
                            let s = if fold_it { fold(m, s) } else { s };
                            (s, mul(m, l.wrapping_add(b).wrapping_sub(*h), t))
                        }
                    };
                }
            }
        }
    }

    fn modulus(bits: u32, n: usize) -> Modulus {
        Modulus::new(primes::ntt_primes(bits, n, 1).unwrap()[0]).unwrap()
    }

    /// Lanes whose values lie below `bound`, with random bits above the
    /// value, which no kernel may read.
    fn lazy(rng: &mut StdRng, n: usize, bound: u64) -> Vec<u64> {
        (0..n)
            .map(|_| rng.gen_range(0..bound) | rng.gen::<u64>() << 52)
            .collect()
    }

    /// One radix-4 pass equals the two single stages it replaces, run one
    /// at a time on the scalar lane model: every lane bit for bit, the
    /// bits above the values included. Every fold combination occurs, at
    /// bounds from the schedule's start to the edge of a lane, and every
    /// value stays below the bound the schedule tracks.
    #[test]
    fn a_radix4_pair_is_two_single_stages() {
        if !ifma_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(44);
        let n = 1 << 10;
        let mut seen = [[false; 4]; 2];
        for bits in [30u32, 36, 48, 49, 50] {
            let m = modulus(bits, n);
            let q = m.value();
            let full = ifma::LANE / q;
            for size in [32usize, 64, 256, n] {
                let [wide, narrow]: [Vec<ShoupMul>; 2] = [n / size, 2 * n / size]
                    .map(|count| (0..count).map(|_| m.shoup(rng.gen_range(0..q))).collect());
                // Forward: bounds from 4q up to a full lane.
                for start in [4, full - 3, full - 2, full]
                    .into_iter()
                    .filter(|&s| s >= 4)
                {
                    let mut bound = ifma::Bound::new(&m, start);
                    let folds = [bound.ct(), bound.ct()];
                    seen[0][usize::from(folds[0]) + 2 * usize::from(folds[1])] = true;
                    let x = lazy(&mut rng, n, start * q);
                    let (mut fused, mut split) = (x.clone(), x);
                    // SAFETY: `ifma_available` proved every feature the kernels enable.
                    let done = unsafe {
                        let k = ifma::Lanes::new(&m);
                        ifma::pass::<{ ifma::CT }>(
                            &k, &mut fused, size, &wide, &narrow, folds, [0; 2],
                        )
                    };
                    assert_eq!(done, n as u64);
                    lane::stage(&m, &mut split, size, &wide, None, folds[0]);
                    lane::stage(&m, &mut split, size / 2, &narrow, None, folds[1]);
                    assert_eq!(fused, split, "CT size={size} bits={bits} start={start}");
                    assert!(fused.iter().all(|&v| v & lane::MASK < bound.get()));
                }
                // Inverse: bounds from 2q up to half a lane.
                for start in [2, full / 8, full / 4, full / 2]
                    .into_iter()
                    .filter(|&s| s >= 2)
                {
                    let mut bound = ifma::Bound::new(&m, start);
                    let ((b0, f0), (b1, f1)) = (bound.gs(), bound.gs());
                    seen[1][usize::from(f0) + 2 * usize::from(f1)] = true;
                    let x = lazy(&mut rng, n, start * q);
                    let (mut fused, mut split) = (x.clone(), x);
                    // SAFETY: as above.
                    let done = unsafe {
                        let k = ifma::Lanes::new(&m);
                        ifma::pass::<{ ifma::GS }>(
                            &k,
                            &mut fused,
                            size,
                            &wide,
                            &narrow,
                            [f0, f1],
                            [b0, b1],
                        )
                    };
                    assert_eq!(done, n as u64);
                    lane::stage(&m, &mut split, size / 2, &narrow, Some(b0), f0);
                    lane::stage(&m, &mut split, size, &wide, Some(b1), f1);
                    assert_eq!(fused, split, "GS size={size} bits={bits} start={start}");
                    assert!(fused.iter().all(|&v| v & lane::MASK < bound.get()));
                }
            }
        }
        assert_eq!(seen, [[true; 4]; 2], "fold combinations covered");
    }

    /// The register tails equal their stages run one at a time on the
    /// scalar lane model, for every fold pattern and both tail lengths:
    /// the inverse's lanes bit for bit, the forward's canonical exit as
    /// the model's values reduced.
    #[test]
    fn a_register_tail_is_its_single_stages() {
        if !ifma_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(45);
        for (bits, log_n) in [(36u32, 6usize), (48, 7), (49, 10), (50, 11)] {
            let n = 1 << log_n;
            let m = modulus(bits, n);
            let q = m.value();
            let tw: Vec<ShoupMul> = (0..n).map(|_| m.shoup(rng.gen_range(0..q))).collect();
            // The tail spans 16 down to 2 for even log n, 8 down for odd.
            let top = if log_n % 2 == 0 { 4 } else { 3 };
            for pattern in 0..16u32 {
                let folds: [bool; 4] = std::array::from_fn(|bit| pattern >> bit & 1 == 1);
                let x = lazy(&mut rng, n, 4 * q);
                let (mut tail, mut model) = (x.clone(), x);
                // SAFETY: `ifma_available` proved every feature the kernels enable.
                let done = unsafe {
                    let k = ifma::Lanes::new(&m);
                    ifma::forward_tail(&k, &mut tail, &tw, folds)
                };
                assert_eq!(done, (top * n / 2) as u64);
                for bit in (0..top).rev() {
                    let blocks = n >> (bit + 1);
                    let span = 2 << bit;
                    lane::stage(&m, &mut model, span, &tw[blocks..], None, folds[bit]);
                }
                let exit: Vec<u64> = model
                    .iter()
                    .map(|&v| (lane::fold(&m, v) & lane::MASK) % q)
                    .collect();
                assert_eq!(tail, exit, "forward bits={bits} n={n} folds={pattern:04b}");

                // The inverse with per-stage bounds, arbitrary multiples of
                // q: the model computes the same lanes whatever they are.
                let bounds: [u64; 4] = std::array::from_fn(|_| q * rng.gen_range(2..64u64));
                let stages: [(u64, bool); 4] = std::array::from_fn(|bit| (bounds[bit], folds[bit]));
                let x = lazy(&mut rng, n, 2 * q);
                let (mut tail, mut model) = (x.clone(), x);
                // SAFETY: as above.
                let done = unsafe {
                    let k = ifma::Lanes::new(&m);
                    ifma::inverse_tail(&k, &mut tail, &tw, stages)
                };
                assert_eq!(done, (top * n / 2) as u64);
                for bit in 0..top {
                    let blocks = n >> (bit + 1);
                    let span = 2 << bit;
                    let b = Some(bounds[bit]);
                    lane::stage(&m, &mut model, span, &tw[blocks..], b, folds[bit]);
                }
                assert_eq!(tail, model, "inverse bits={bits} n={n} folds={pattern:04b}");
            }
        }
    }

    /// The fold schedule keeps every value inside a lane for every IFMA
    /// modulus and degree, and folds where the module docs say: never at
    /// 36 bits and `n = 2^14`; twice forward and every third inverse stage
    /// at 48 bits.
    #[test]
    fn the_fold_schedule_keeps_values_inside_a_lane() {
        // Folds of a whole transform of `stages` stages, forward and
        // inverse, as the drivers ask for them; the inverse's last stage
        // applies the scale and never folds.
        let folds = |m: &Modulus, stages: u32| {
            let (mut fwd, mut inv) = (ifma::Bound::new(m, 4), ifma::Bound::new(m, 2));
            let mut counts = (0, 0);
            for _ in 0..stages {
                counts.0 += u32::from(fwd.ct());
                assert!(fwd.get() <= ifma::LANE);
            }
            for _ in 1..stages {
                let (b, fold) = inv.gs();
                assert!(2 * b <= ifma::LANE);
                counts.1 += u32::from(fold);
            }
            assert!(2 * inv.get() <= ifma::LANE);
            counts
        };
        let largest = primes::ntt_primes(50, 1 << 16, 1).unwrap()[0];
        for q in [3, 97, (1 << 36) - 5, 1 << 47 | 1, largest, (1 << 50) - 1] {
            let m = Modulus::new(q).unwrap();
            for stages in 6..=40 {
                folds(&m, stages);
            }
        }
        let at = |bits| folds(&modulus(bits, 1 << 14), 14);
        assert_eq!(at(36), (0, 0));
        assert_eq!(at(48), (2, 4));
    }
}
