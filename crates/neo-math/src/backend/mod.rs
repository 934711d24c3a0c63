//! Pluggable compute backends for the hot host kernels.
//!
//! [`ComputeBackend`] is the seam between the algorithmic drivers
//! (`neo-ntt`'s transforms, `neo-math::bconv`'s limb conversion,
//! [`RnsPoly`](crate::RnsPoly)'s and `neo-ckks`'s inner products) and the
//! arithmetic loops they execute. The drivers own *what* work happens —
//! which transform, counter tallies, fault-injection hooks, ABFT checks —
//! while a backend owns *how* one transform or inner product is
//! evaluated, including how an NTT's stages group into passes over the
//! data. Every backend must land on the **bit-identical canonical
//! output**: all kernels fully reduce at their boundary (the forward NTT
//! ends canonical, the inverse's `n⁻¹` scale and `mul_const` are full
//! Shoup multiplies, bconv/`mul_acc`/`klss_ip` reduce exact sums, the
//! overshoot row repeats one scalar sequence of IEEE operations), so
//! backends are free to hold *different representatives internally* as
//! long as every intermediate stays congruent and exact: the portable
//! loops keep Harvey's `[0, 4q)` and `[0, 2q)` windows, while the IFMA
//! lanes keep a 52-bit value below a bound they track and fold only where
//! it would overflow. The modular GEMM is not a host kernel: no CKKS op
//! runs one, and its engines live in `neo-tcu`.
//!
//! Two backends ship:
//!
//! * [`PortableBackend`] — the scalar Shoup/lazy-reduction code. Always
//!   available, the correctness anchor.
//! * [`SimdBackend`] — AVX-512 kernels (stable `core::arch`, runtime
//!   feature detection): 8-lane 52-bit IFMA arithmetic whenever the
//!   modulus is below `2^50`, NTTs of radix-4 passes and an in-register
//!   tail that reduce only where the 52-bit lanes need it, and an 8-lane
//!   `f64` overshoot row, on CPUs with AVX-512F, IFMA, DQ, BW and VBMI;
//!   the portable kernels otherwise.
//!
//! Selection happens once per process: the `NEO_BACKEND` environment
//! override, else runtime CPU-feature detection ([`BackendKind::detect`]:
//! SIMD on CPUs with AVX-512F, IFMA, DQ, BW and VBMI). [`active`] hands
//! that choice to everything above the kernel objects —
//! `CkksContext::backend`, [`RnsPoly`](crate::RnsPoly)'s products and the
//! default constructors
//! (`NttPlan::new`, [`BconvTable::new`](crate::BconvTable::new)). The
//! explicit pins on the kernel objects (`NttPlan::with_backend`,
//! [`BconvTable::with_backend`](crate::BconvTable::with_backend)) are
//! bench and test seams: they let one process run both backends side by
//! side, as the cross-backend property tests and `backend_bench` do.

use crate::{Modulus, ShoupMul};
use std::sync::LazyLock;

mod portable;
mod simd;

pub use portable::PortableBackend;
pub use simd::SimdBackend;

/// Identifies a compute backend. `Copy`-cheap and hashable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Scalar Shoup/lazy-reduction kernels (the reference).
    Portable,
    /// AVX-512 kernels (IFMA for moduli below `2^50`) on CPUs with
    /// AVX-512F, IFMA, DQ, BW and VBMI; the portable kernels otherwise.
    Simd,
}

impl BackendKind {
    /// Short stable name, also accepted by [`BackendKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Portable => "portable",
            BackendKind::Simd => "simd",
        }
    }

    /// Parses a backend name (case-insensitive). `"scalar"` is accepted as
    /// an alias for portable so `NEO_BACKEND=scalar` reads naturally.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "portable" | "scalar" => Some(BackendKind::Portable),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// The process-wide default, decided once and cached:
    ///
    /// 1. `NEO_BACKEND=portable|scalar|simd` wins outright (unknown values
    ///    are ignored, not errors — benches sweep this variable);
    /// 2. otherwise, on a CPU with AVX-512F, IFMA, DQ, BW and VBMI,
    ///    [`BackendKind::Simd`];
    /// 3. otherwise [`BackendKind::Portable`].
    pub fn detect() -> Self {
        static DETECTED: LazyLock<BackendKind> = LazyLock::new(|| {
            if let Ok(v) = std::env::var("NEO_BACKEND") {
                if let Some(kind) = BackendKind::parse(&v) {
                    return kind;
                }
            }
            if simd::ifma_available() {
                return BackendKind::Simd;
            }
            BackendKind::Portable
        });
        *DETECTED
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Returns the backend implementation for `kind`. Both implementations are
/// zero-sized, so this is a static dispatch table, not an allocation.
pub fn get(kind: BackendKind) -> &'static dyn ComputeBackend {
    match kind {
        BackendKind::Portable => &PortableBackend,
        BackendKind::Simd => &SimdBackend,
    }
}

/// The process-wide backend: [`BackendKind::detect`]'s choice, resolved
/// once. Everything above the kernel objects runs on it.
pub fn active() -> &'static dyn ComputeBackend {
    get(BackendKind::detect())
}

/// The arithmetic inner loops of the hot host kernels.
///
/// Contract highlights (see module docs for the bit-identity argument):
///
/// * `ntt_forward` and `ntt_inverse` run the whole merged-ψ transform
///   (`neo-ntt`'s `radix2`) over a power-of-two `x.len() = n` with the
///   plan's `n`-entry per-block twiddle table: the stage with `b` blocks
///   reads `tw[b..2b]`, and every butterfly of block `i` uses `tw[b + i]`.
///   The backend owns the stage schedule — how stages group into passes
///   over the data — and where intermediates reduce, but not the
///   butterflies: every element meets the same butterflies, with the same
///   twiddles, in the same order, so every intermediate is congruent to
///   the portable one. The boundary windows are fixed: the forward
///   accepts `[0, 4q)` and the inverse `[0, 2q)`, with `q < 2^62`, and
///   both emit canonical `[0, q)`. Inside, the portable loops keep
///   Harvey's `[0, 4q)` (forward) and `[0, 2q)` (inverse); the IFMA lanes
///   hold a value `v` in their low 52 bits, with garbage above it, and
///   keep `v` below a tracked bound `B`, a multiple of `q`, folding only
///   where the next stage would push `B` past `2^52`. They return the
///   butterflies their own loops executed (`(n/2)·log₂ n` either way), so
///   the `NttButterflies` counter `radix2` records reflects real work for
///   *any* backend.
/// * `mul_const` accepts **arbitrary** `u64` inputs (Shoup multiplication
///   is sound for any multiplicand) and emits canonical values.
/// * `bconv_ip`, `mul_acc` and `klss_ip` compute exact integer sums
///   before reducing, so their outputs are independent of association
///   order.
/// * `bconv_overshoot` takes the IEEE operations of one fixed scalar
///   loop in one fixed order, so every backend rounds alike.
pub trait ComputeBackend: Send + Sync {
    /// Which [`BackendKind`] this implementation answers to.
    fn kind(&self) -> BackendKind;

    /// Short diagnostic name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The forward transform: Cooley–Tukey stages from span `n` down to
    /// span 2, each butterfly mapping `(u, v)` to `(u + w·v, u − w·v)`
    /// lazily, the final reduction to `[0, q)` folded into the last pass.
    /// Accepts inputs in `[0, 4q)`. Returns butterflies executed
    /// (`(n/2)·log₂ n`).
    fn ntt_forward(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) -> u64;

    /// The inverse transform: Gentleman–Sande stages from span 2 up to
    /// span `n`, each butterfly mapping `(u, v)` to `(u + v, (u − v)·w)`
    /// lazily, then the `n⁻¹` scale `x[i]·n_inv.w` as a full Shoup
    /// multiply that emits canonical `[0, q)` (a backend may apply it
    /// inside the last stage). Accepts inputs in `[0, 2q)`. Returns
    /// butterflies executed (`(n/2)·log₂ n`); the scale is not a
    /// butterfly.
    fn ntt_inverse(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul], n_inv: ShoupMul) -> u64;

    /// Element-wise constant multiply `out[i] = (x[i] · s.w) mod m`,
    /// accepting arbitrary (even unreduced) `x` and emitting canonical
    /// values — the bconv residue-scaling step.
    fn mul_const(&self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]);

    /// BConv inner product across source limbs:
    /// `out[c] = (Σ_i ys[i][c] · w[i]) mod t`, the sum taken exactly in
    /// 128 bits. `ys` are the scaled residue rows, `w` the `q̂_i mod t`
    /// column (`ys.len() == w.len()`, every row as long as `out`); callers
    /// may append rows, such as BConv's overshoot counts or Mod Down's and
    /// Rescale's own limbs, with any weight reduced mod `t`.
    ///
    /// `y_bound` is a caller-certified *exclusive* upper bound on every
    /// `ys` element (the largest source modulus). Backends may use it to
    /// select narrower multiply paths — e.g. the AVX-512 IFMA inner
    /// product, which needs both factors below `2^52` — without scanning
    /// the data. Passing a bound that the data violates is a logic error
    /// (outputs may be wrong, never unsound); `u64::MAX` is always safe.
    fn bconv_ip(&self, t: &Modulus, ys: &[&[u64]], y_bound: u64, w: &[u64], out: &mut [u64]);

    /// Exact BConv's overshoot row: `out[c] = round(Σ_i ys[i][c]·inv_q[i])`,
    /// halves rounded away from zero as [`f64::round`] does. Each sum is
    /// taken in `f64` from `+0.0` in row order, one product
    /// `ys[i][c] as f64 * inv_q[i]` and one addition per row, each rounded
    /// to nearest: no fused multiply-add. Every row is at least as long as
    /// `out`, `ys.len() == inv_q.len()`, and the sums are non-negative and
    /// below `2^52`, where truncating and comparing the remainder with one
    /// half rounds exactly.
    fn bconv_overshoot(&self, ys: &[&[u64]], inv_q: &[f64], out: &mut [u64]);

    /// Fused element-wise inner product across terms:
    /// `out[c] = (Σ_j a[j][c] · b[j][c]) mod q`, the sum taken exactly and
    /// reduced once. Write-only: `out` is never read, so it may hold
    /// anything (a recycled row needs no zeroing), and no terms give
    /// zeros. Every `a` and `b` input must be reduced (`< q`);
    /// `a.len() == b.len()` and every row is at least as long as `out`.
    fn mul_acc(&self, q: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]);

    /// The KLSS inner product of one output digit over one `T` limb, both
    /// key components in one pass:
    /// `out[k][c] = (Σ_j x[j][c] · key[j][k][c]) mod q` for `k ∈ {0, 1}`,
    /// each sum taken exactly and reduced once, each `x` row read once for
    /// both. `key[j][k]` is a row packed at `width` bytes per residue, as
    /// [`pack_row`](crate::packed::pack_row) writes it. Write-only, like
    /// [`mul_acc`](Self::mul_acc). Every input must be reduced (`< q`);
    /// `x.len() == key.len()`, both outputs have one length, every `x`
    /// row is at least that long and every key row at least `width` times
    /// that, and `1 ≤ width ≤ 8`.
    fn klss_ip(
        &self,
        q: &Modulus,
        x: &[&[u64]],
        key: &[[&[u8]; 2]],
        width: usize,
        out: [&mut [u64]; 2],
    );
}

/// [`ComputeBackend::klss_ip`]'s shape contract, checked by both backends
/// before they read a row.
fn check_klss_ip(x: &[&[u64]], key: &[[&[u8]; 2]], width: usize, out: &[&mut [u64]; 2]) {
    assert!((1..=8).contains(&width), "width {width} outside 1..=8");
    assert_eq!(x.len(), key.len(), "one key pair per Mod Up row");
    let len = out[0].len();
    assert_eq!(out[1].len(), len, "output lengths differ");
    assert!(x.iter().all(|r| r.len() >= len), "Mod Up row too short");
    assert!(
        key.iter().flatten().all(|r| r.len() >= len * width),
        "key row too short"
    );
}

/// The accumulation span: how many products `x·y` of an `x ≤ x_max` and
/// a `y` reduced mod `q` fit in a `u128` accumulator that starts below `q`
/// without wrapping (`span·x_max·(q-1) + (q-1) ≤ u128::MAX`). The portable
/// `mul_acc` and `klss_ip`, whose operands are both reduced
/// (`x_max = q - 1`), fold their sums back below `q` once per span, and so
/// does `neo-tcu`'s `ScalarGemm`, whose `A` entries may be any `u64`.
pub fn accumulation_span(x_max: u64, q: &Modulus) -> usize {
    let qm1 = u128::from(q.value() - 1);
    usize::try_from((u128::MAX - qm1) / (u128::from(x_max) * qm1).max(1))
        .unwrap_or(usize::MAX)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes;
    use rand::{Rng, SeedableRng};

    fn modulus(bits: u32) -> Modulus {
        Modulus::new(primes::ntt_primes(bits, 1 << 10, 1).unwrap()[0]).unwrap()
    }

    #[test]
    fn kind_parse_roundtrip() {
        for kind in [BackendKind::Portable, BackendKind::Simd] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(get(kind).kind(), kind);
            assert_eq!(get(kind).name(), kind.name());
        }
        assert_eq!(BackendKind::parse("SCALAR"), Some(BackendKind::Portable));
        assert_eq!(BackendKind::parse(" Simd "), Some(BackendKind::Simd));
        assert_eq!(BackendKind::parse("cuda"), None);
    }

    #[test]
    fn detect_is_stable_within_a_process() {
        assert_eq!(BackendKind::detect(), BackendKind::detect());
        assert_eq!(active().kind(), BackendKind::detect());
    }

    /// A CPU with AVX-512F, IFMA, DQ, BW and VBMI defaults to the SIMD
    /// backend, so the cross-backend tests compare two different
    /// implementations there.
    #[test]
    fn detect_picks_simd_exactly_on_ifma_cpus() {
        let overridden = std::env::var("NEO_BACKEND")
            .ok()
            .and_then(|v| BackendKind::parse(&v))
            .is_some();
        #[cfg(target_arch = "x86_64")]
        let avx512 = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vbmi");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        assert_eq!(simd::ifma_available(), avx512);
        if !overridden {
            let want = if avx512 {
                BackendKind::Simd
            } else {
                BackendKind::Portable
            };
            assert_eq!(BackendKind::detect(), want);
        }
    }

    /// Every trait method agrees bit-for-bit across backends on random
    /// inputs, including unreduced lazy values where the contract allows
    /// them.
    #[test]
    fn backends_agree_on_every_kernel() {
        let portable = get(BackendKind::Portable);
        let simd = get(BackendKind::Simd);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        // 50 bits is the largest width on the IFMA path, 51 the smallest
        // past it.
        for bits in [30u32, 36, 48, 50, 51, 61] {
            let m = modulus(bits);
            let q = m.value();

            // Whole transforms on the widest lazy inputs, random twiddles:
            // odd and even stage counts, and n < 64, which the SIMD
            // backend runs on the portable loops.
            for log_n in [3u32, 4, 6, 7, 10, 13, 14] {
                let n = 1usize << log_n;
                let tw: Vec<ShoupMul> = (0..n).map(|_| m.shoup(rng.gen_range(0..q))).collect();
                let want = u64::from(log_n) * n as u64 / 2;
                let mut a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4 * q)).collect();
                let mut b = a.clone();
                assert_eq!(portable.ntt_forward(&m, &mut a, &tw), want);
                assert_eq!(simd.ntt_forward(&m, &mut b, &tw), want);
                assert_eq!(a, b, "forward n={n} bits={bits}");
                assert!(a.iter().all(|&v| v < q));

                let n_inv = m.shoup(rng.gen_range(0..q));
                let mut a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..2 * q)).collect();
                let mut b = a.clone();
                assert_eq!(portable.ntt_inverse(&m, &mut a, &tw, n_inv), want);
                assert_eq!(simd.ntt_inverse(&m, &mut b, &tw, n_inv), want);
                assert_eq!(a, b, "inverse n={n} bits={bits}");
                assert!(a.iter().all(|&v| v < q));
            }

            let n = 64usize;
            let s = m.shoup(rng.gen_range(0..q));
            let raw: Vec<u64> = (0..n + 3).map(|_| rng.gen()).collect();
            let (mut a, mut b) = (vec![0u64; n + 3], vec![0u64; n + 3]);
            portable.mul_const(&m, s, &raw, &mut a);
            simd.mul_const(&m, s, &raw, &mut b);
            assert_eq!(a, b, "mul_const bits={bits}");

            let rows: Vec<Vec<u64>> = (0..5)
                .map(|_| (0..n + 3).map(|_| rng.gen_range(0..q)).collect())
                .collect();
            let ys: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
            let w: Vec<u64> = (0..5).map(|_| rng.gen_range(0..q)).collect();
            let (mut a, mut b) = (vec![0u64; n + 3], vec![0u64; n + 3]);
            portable.bconv_ip(&m, &ys, q, &w, &mut a);
            simd.bconv_ip(&m, &ys, q, &w, &mut b);
            assert_eq!(a, b, "bconv_ip bits={bits}");

            // q − 1 operands maximise every lane sum; 70 terms carry the
            // IFMA high lane past 2^52 and take the portable path through
            // two fold groups at 61 bits. The outputs start as different
            // junk, which the write-only kernels must ignore.
            for terms in [0usize, 1, 4, 70] {
                let rows: Vec<Vec<u64>> = (0..2 * terms)
                    .map(|_| (0..n + 3).map(|_| rng.gen_range(q - 2..q)).collect())
                    .collect();
                let xs: Vec<&[u64]> = rows[..terms].iter().map(Vec::as_slice).collect();
                let ys: Vec<&[u64]> = rows[terms..].iter().map(Vec::as_slice).collect();
                let (mut a, mut b) = (vec![u64::MAX; n + 3], vec![q; n + 3]);
                portable.mul_acc(&m, &xs, &ys, &mut a);
                simd.mul_acc(&m, &xs, &ys, &mut b);
                assert_eq!(a, b, "mul_acc terms={terms} bits={bits}");
                for (c, &got) in a.iter().enumerate() {
                    let want = xs.iter().zip(&ys).fold(0u128, |s, (x, y)| {
                        (s + u128::from(x[c]) * u128::from(y[c])) % u128::from(q)
                    });
                    assert_eq!(u128::from(got), want, "mul_acc terms={terms} bits={bits}");
                }
            }

            // The KLSS inner product over key rows packed at the modulus's
            // width equals two `mul_acc` calls on the unpacked rows, on
            // near-saturated operands, each backend over its own junk.
            let width = bits.div_ceil(8) as usize;
            let mut row = || -> Vec<u64> { (0..n + 3).map(|_| rng.gen_range(q - 2..q)).collect() };
            for terms in [0usize, 1, 4, 70] {
                let xs: Vec<Vec<u64>> = (0..terms).map(|_| row()).collect();
                let ks: Vec<[Vec<u64>; 2]> = (0..terms).map(|_| [row(), row()]).collect();
                let packed: Vec<[Vec<u8>; 2]> = ks
                    .iter()
                    .map(|pair| pair.each_ref().map(|k| crate::packed::pack_row(k, width)))
                    .collect();
                let x: Vec<&[u64]> = xs.iter().map(Vec::as_slice).collect();
                let key: Vec<[&[u8]; 2]> = packed
                    .iter()
                    .map(|pair| pair.each_ref().map(Vec::as_slice))
                    .collect();
                let want: Vec<Vec<u64>> = (0..2)
                    .map(|c| {
                        let k: Vec<&[u64]> = ks.iter().map(|pair| pair[c].as_slice()).collect();
                        let mut w = vec![0u64; n + 3];
                        portable.mul_acc(&m, &x, &k, &mut w);
                        w
                    })
                    .collect();
                for (be, junk) in [(portable, u64::MAX), (simd, q)] {
                    let (mut o0, mut o1) = (vec![junk; n + 3], vec![junk; n + 3]);
                    be.klss_ip(&m, &x, &key, width, [&mut o0, &mut o1]);
                    assert_eq!(
                        [o0, o1],
                        *want,
                        "klss_ip terms={terms} bits={bits} {}",
                        be.name()
                    );
                }
            }
        }
    }

    /// The transforms agree where the IFMA lanes' fold schedule changes:
    /// primes just below `2^46`, `2^47`, `2^48` and `2^49` and the largest
    /// NTT prime below `2^50` (36 bits, which never folds at `2^14`, for
    /// contrast), at every degree from `2^6` to `2^16`, on saturated inputs
    /// (every element at `4q − 1` forward, `2q − 1` inverse) and random
    /// ones, with the inverse scaled by `n⁻¹·f` as `inverse_scaled` does.
    #[test]
    fn transforms_agree_where_the_fold_schedule_changes() {
        let portable = get(BackendKind::Portable);
        let simd = get(BackendKind::Simd);
        let mut rng = rand::rngs::StdRng::seed_from_u64(46);
        for bits in [36u32, 46, 47, 48, 49, 50] {
            let m = Modulus::new(primes::ntt_primes(bits, 1 << 16, 1).unwrap()[0]).unwrap();
            let q = m.value();
            for log_n in 6..=16u32 {
                let n = 1usize << log_n;
                let tw: Vec<ShoupMul> = (0..n).map(|_| m.shoup(rng.gen_range(0..q))).collect();
                let want = u64::from(log_n) * n as u64 / 2;
                let random: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4 * q)).collect();
                for x in [vec![4 * q - 1; n], random] {
                    let (mut a, mut b) = (x.clone(), x);
                    assert_eq!(portable.ntt_forward(&m, &mut a, &tw), want);
                    assert_eq!(simd.ntt_forward(&m, &mut b, &tw), want);
                    assert_eq!(a, b, "forward n={n} bits={bits}");
                }
                let n_inv = m.inv(n as u64 % q).unwrap();
                for factor in [1, q - 1, rng.gen_range(0..q)] {
                    let scale = m.shoup(m.mul(n_inv, factor));
                    let random: Vec<u64> = (0..n).map(|_| rng.gen_range(0..2 * q)).collect();
                    for x in [vec![2 * q - 1; n], random] {
                        let (mut a, mut b) = (x.clone(), x);
                        assert_eq!(portable.ntt_inverse(&m, &mut a, &tw, scale), want);
                        assert_eq!(simd.ntt_inverse(&m, &mut b, &tw, scale), want);
                        assert_eq!(a, b, "inverse n={n} bits={bits} factor={factor}");
                    }
                }
            }
        }
    }

    /// `bconv_overshoot` rounds alike on both backends: random rows of
    /// 1–8 source limbs at the KLSS widths, and crafted rows whose `f64`
    /// sum is exactly `k + 1/2` or one ulp either side, at lengths with
    /// and without a vector tail.
    #[test]
    fn backends_agree_on_the_overshoot_row() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        // Both backends, each over a stale output row; returns the counts.
        let run = |ys: &[Vec<u64>], inv: &[f64]| {
            let rows: Vec<&[u64]> = ys.iter().map(Vec::as_slice).collect();
            let (mut a, mut b) = (vec![u64::MAX; ys[0].len()], vec![7; ys[0].len()]);
            get(BackendKind::Portable).bconv_overshoot(&rows, inv, &mut a);
            get(BackendKind::Simd).bconv_overshoot(&rows, inv, &mut b);
            assert_eq!(a, b);
            a
        };
        // `k + 1/2` and its two neighbours, each with its rounded count.
        let halves = |k: u64| {
            let h = k as f64 + 0.5;
            [(h.next_down(), k), (h, k + 1), (h.next_up(), k + 1)]
        };
        for bits in [36u32, 48] {
            let scale = 0.5f64.powi(bits as i32);
            for r in 1..=8usize {
                let qs = primes::ntt_primes(bits, 1 << 10, r).unwrap();
                let inv: Vec<f64> = qs.iter().map(|&q| 1.0 / q as f64).collect();
                for len in [64usize, 67] {
                    let ys: Vec<Vec<u64>> = qs
                        .iter()
                        .map(|&q| (0..len).map(|_| rng.gen_range(0..q)).collect())
                        .collect();
                    assert!(run(&ys, &inv).iter().all(|&k| k <= r as u64));

                    // One row: its weight is the target over 2^(bits−1).
                    if r == 1 {
                        for (t, k) in halves(0) {
                            let mut y: Vec<u64> =
                                (0..len).map(|_| rng.gen_range(0..1 << bits)).collect();
                            y[len - 1] = 1 << (bits - 1);
                            assert_eq!(run(&[y], &[t * 2.0 * scale])[len - 1], k, "t={t:e}");
                        }
                        continue;
                    }
                    // Rows 0..r−1 weigh 2^−bits and sum to h or h − 2^−bits
                    // exactly; the last row weighs 2^−60 and adds the rest of
                    // the target. Every partial sum is exact.
                    let fine = 0.5f64.powi(60);
                    let mut w = vec![scale; r - 1];
                    w.push(fine);
                    let mut ys: Vec<Vec<u64>> = (0..r)
                        .map(|_| (0..len).map(|_| rng.gen_range(0..1 << bits)).collect())
                        .collect();
                    let mut want = Vec::new();
                    for k in 0..r as u64 - 1 {
                        for (t, count) in halves(k) {
                            let h = k as f64 + 0.5;
                            let bulk = if t < h { h - scale } else { h };
                            let col = len - 1 - 3 * want.len();
                            let mut rest = (bulk / scale) as u64;
                            for row in &mut ys[..r - 1] {
                                row[col] = rest.min((1 << bits) - 1);
                                rest -= row[col];
                            }
                            ys[r - 1][col] = ((t - bulk) / fine) as u64;
                            let sum = ys
                                .iter()
                                .zip(&w)
                                .fold(0.0, |f, (y, &w)| f + y[col] as f64 * w);
                            assert_eq!((rest, sum), (0, t), "crafted column");
                            want.push((col, count));
                        }
                    }
                    let got = run(&ys, &w);
                    for (col, count) in want {
                        assert_eq!(got[col], count, "bits={bits} r={r} len={len} col={col}");
                    }
                }
            }
        }
        // Two rows a fused multiply-add would round differently:
        // 129·2^−60 + fl(7·w) is exactly 3/2, the fused 129·2^−60 + 7·w
        // lands one ulp below it.
        let (a, w) = (129.0 * 0.5f64.powi(60), 1.5f64.next_down() / 7.0);
        assert_eq!((a + 7.0 * w, 7.0f64.mul_add(w, a).round()), (1.5, 1.0));
        for len in [64usize, 67] {
            let mut ys: Vec<Vec<u64>> = (0..2)
                .map(|_| (0..len).map(|_| rng.gen_range(0..1 << 36)).collect())
                .collect();
            for col in [0, len - 1] {
                (ys[0][col], ys[1][col]) = (129, 7);
            }
            let got = run(&ys, &[0.5f64.powi(60), w]);
            assert_eq!((got[0], got[len - 1]), (2, 2), "len={len}");
        }
    }
}
