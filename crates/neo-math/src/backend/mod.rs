//! Pluggable compute backends for the three hot kernels.
//!
//! [`ComputeBackend`] is the seam between the algorithmic drivers
//! (`neo-ntt`'s stage loops, `neo-math::bconv`'s limb conversion,
//! [`RnsPoly`](crate::RnsPoly)'s and `neo-ckks`'s inner products,
//! `neo-tcu`'s blocked GEMM) and the arithmetic inner loops they execute.
//! The drivers own *what* work happens — stage ordering, counter tallies,
//! fault-injection hooks, ABFT checks — while a backend owns *how* one
//! stage/inner-product/tile is evaluated. Every backend must land on the
//! **bit-identical canonical output**: all kernels fully reduce at their
//! boundary (the NTT's final stage folds `[0, 4q) → [0, q)`, the inverse
//! scale and `mul_const` are full Shoup multiplies, bconv/`mul_acc`/GEMM
//! reduce exact sums), so backends are free to hold *different lazy
//! representatives internally* — e.g. skipping the `ω⁰ = 1` multiply
//! scalar-side while vectorizing it uniformly — as long as every
//! intermediate stays congruent and inside the `[0, 4q)` window.
//!
//! Two backends ship:
//!
//! * [`PortableBackend`] — the scalar Shoup/lazy-reduction code. Always
//!   available, the correctness anchor.
//! * [`SimdBackend`] — AVX-512 IFMA kernels (stable `core::arch`, runtime
//!   feature detection): 8-lane 52-bit arithmetic whenever the modulus is
//!   below `2^50` and the CPU has IFMA, the portable kernels otherwise.
//!
//! Selection happens once per process: the `NEO_BACKEND` environment
//! override, else runtime CPU-feature detection ([`BackendKind::detect`]:
//! SIMD on CPUs with AVX-512 IFMA). [`active`] hands that choice to
//! everything above the kernel objects — `CkksContext::backend`,
//! [`RnsPoly`](crate::RnsPoly)'s products and the default constructors
//! (`NttPlan::new`, [`BconvTable::new`](crate::BconvTable::new),
//! `BackendGemm::auto`). The explicit pins on the kernel objects
//! (`NttPlan::with_backend`, [`BconvTable::with_backend`](crate::BconvTable::with_backend),
//! `BackendGemm::new`) are bench and test seams: they let one process run
//! both backends side by side, as the cross-backend property tests and
//! `backend_bench` do.

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
    /// AVX-512 IFMA kernels for moduli below `2^50` on CPUs that have
    /// them; the portable kernels otherwise.
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
    /// 2. otherwise, on a CPU with AVX-512F and AVX-512 IFMA,
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

/// The arithmetic inner loops of the three hot kernels.
///
/// Contract highlights (see module docs for the bit-identity argument):
///
/// * NTT stage methods operate on the Harvey lazy window: inputs `< 4q`,
///   outputs `< 4q`, with `q < 2^62`. They return the number of
///   butterflies executed, tallied from their own loop structure, so the
///   driver's `NttButterflies` counter reflects real work for *any*
///   backend.
/// * `ntt_fwd_stage_final` and `ntt_scale` emit canonical `[0, q)` values.
/// * `mul_const` accepts **arbitrary** `u64` inputs (Shoup multiplication
///   is sound for any multiplicand) and emits canonical values.
/// * `bconv_ip`, `mul_acc` and `gemm` compute exact integer sums before
///   reducing, so their outputs are independent of association order.
pub trait ComputeBackend: Send + Sync {
    /// Which [`BackendKind`] this implementation answers to.
    fn kind(&self) -> BackendKind;

    /// Short diagnostic name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Merged ψ-twist + first butterfly stage of the forward NTT: for each
    /// adjacent pair `(x[2i], x[2i+1])`, both operands take one lazy Shoup
    /// multiply by `psi_rev[2i]`/`psi_rev[2i+1]` (landing in `[0, 2q)`),
    /// then the size-2 butterfly. Returns butterflies executed (`n/2`).
    fn ntt_twist_stage(&self, m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64;

    /// One middle forward stage of span `size`: every `size`-length block
    /// runs `size/2` lazy butterflies against the stage-major twiddles
    /// `stage` (`stage.len() == size/2`, `stage[0]` is `ω⁰ = 1`). Inputs
    /// and outputs stay in `[0, 4q)`. Returns butterflies executed.
    fn ntt_fwd_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64;

    /// The last forward stage (span `x.len()`) with the final
    /// `[0, 4q) → [0, q)` reduction folded into the butterfly outputs.
    /// Returns butterflies executed (`x.len()/2`).
    fn ntt_fwd_stage_final(&self, m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64;

    /// One inverse stage of span `size` (identical butterfly recurrence to
    /// [`ntt_fwd_stage`](Self::ntt_fwd_stage), kept distinct because the
    /// inverse runs *every* stage through it, including `size == 2` and
    /// `size == n`). Returns butterflies executed.
    fn ntt_inv_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64;

    /// Merged untwist-and-scale of the inverse NTT: `x[i] = x[i] · tw[i]`
    /// as a full Shoup multiply, accepting the stage loop's unreduced
    /// `[0, 4q)` values and emitting canonical `[0, q)`.
    fn ntt_scale(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]);

    /// Element-wise constant multiply `out[i] = (x[i] · s.w) mod m`,
    /// accepting arbitrary (even unreduced) `x` and emitting canonical
    /// values — the bconv residue-scaling step.
    fn mul_const(&self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]);

    /// BConv inner product across source limbs:
    /// `out[c] = (Σ_i ys[i][c] · w[i]) mod t`, the sum taken exactly in
    /// 128 bits. `ys` are the scaled residue rows, `w` the `q̂_i mod t`
    /// column (`ys.len() == w.len()`, every row as long as `out`).
    ///
    /// `y_bound` is a caller-certified *exclusive* upper bound on every
    /// `ys` element (the largest source modulus). Backends may use it to
    /// select narrower multiply paths — e.g. the AVX-512 IFMA inner
    /// product, which needs both factors below `2^52` — without scanning
    /// the data. Passing a bound that the data violates is a logic error
    /// (outputs may be wrong, never unsound); `u64::MAX` is always safe.
    fn bconv_ip(&self, t: &Modulus, ys: &[&[u64]], y_bound: u64, w: &[u64], out: &mut [u64]);

    /// Fused element-wise multiply-accumulate across terms:
    /// `out[c] = (out[c] + Σ_j a[j][c] · b[j][c]) mod q`, the sum taken
    /// exactly and reduced once — a zeroed `out` gives the plain inner
    /// product. Every input, `out` included, must be reduced (`< q`);
    /// `a.len() == b.len()` and every row is at least as long as `out`.
    fn mul_acc(&self, q: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]);

    /// Blocked deferred-reduction modular GEMM: `out = a·b (mod q)` for
    /// row-major `m×k` / `k×n` operands with reduced entries. Dimension
    /// checks and work-counter tallies are the caller's job
    /// (`neo-tcu::gemm` keeps them engine-side so every engine pays the
    /// same accounting).
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        q: &Modulus,
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    );
}

/// The accumulation span: how many products of reduced operands fit in a
/// `u128` accumulator that starts below `q` without wrapping
/// (`span·(q-1)² + (q-1) ≤ u128::MAX`). GEMM folds its accumulators back
/// below `q` once per span, and so does the portable `mul_acc`.
pub(crate) fn gemm_span(q: &Modulus) -> usize {
    let qm1 = u128::from(q.value() - 1);
    usize::try_from((u128::MAX - qm1) / (qm1 * qm1).max(1))
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

    /// A CPU with AVX-512 IFMA defaults to the SIMD backend, so the
    /// cross-backend tests compare two different implementations there.
    #[test]
    fn detect_picks_simd_exactly_on_ifma_cpus() {
        let overridden = std::env::var("NEO_BACKEND")
            .ok()
            .and_then(|v| BackendKind::parse(&v))
            .is_some();
        if !overridden {
            let want = if simd::ifma_available() {
                BackendKind::Simd
            } else {
                BackendKind::Portable
            };
            assert_eq!(BackendKind::detect(), want);
        }
    }

    /// Every trait method agrees bit-for-bit across backends on random
    /// inputs, including unreduced `[0, 4q)` lazy values where the
    /// contract allows them.
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
            let n = 64usize;
            let lazy: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4 * q)).collect();
            let tw: Vec<ShoupMul> = (0..n).map(|_| m.shoup(rng.gen_range(0..q))).collect();

            // Stage kernels (uniform-twiddle path needs stage[0] = shoup(1)
            // to match the canonical-twiddle layout the plans provide).
            for size in [2usize, 4, 8, 16, 64] {
                let mut stage: Vec<ShoupMul> = (0..size / 2)
                    .map(|_| m.shoup(rng.gen_range(0..q)))
                    .collect();
                stage[0] = m.shoup(1);
                let (mut a, mut b) = (lazy.clone(), lazy.clone());
                if size >= 4 {
                    assert_eq!(
                        portable.ntt_fwd_stage(&m, &mut a, size, &stage),
                        simd.ntt_fwd_stage(&m, &mut b, size, &stage)
                    );
                    // Lazy representatives may differ; canonical values not.
                    for (&x, &y) in a.iter().zip(&b) {
                        assert_eq!(x % q, y % q, "fwd stage size={size} bits={bits}");
                        assert!(x < 4 * q && y < 4 * q);
                    }
                }
                let (mut a, mut b) = (lazy.clone(), lazy.clone());
                assert_eq!(
                    portable.ntt_inv_stage(&m, &mut a, size, &stage),
                    simd.ntt_inv_stage(&m, &mut b, size, &stage)
                );
                for (&x, &y) in a.iter().zip(&b) {
                    assert_eq!(x % q, y % q, "inv stage size={size} bits={bits}");
                    assert!(x < 4 * q && y < 4 * q);
                }
            }
            let stage: Vec<ShoupMul> = (0..n / 2).map(|_| m.shoup(rng.gen_range(0..q))).collect();
            let (mut a, mut b) = (lazy.clone(), lazy.clone());
            assert_eq!(
                portable.ntt_fwd_stage_final(&m, &mut a, &stage),
                simd.ntt_fwd_stage_final(&m, &mut b, &stage)
            );
            assert_eq!(a, b, "final stage bits={bits}");
            assert!(a.iter().all(|&v| v < q));

            let (mut a, mut b) = (lazy.clone(), lazy.clone());
            assert_eq!(
                portable.ntt_twist_stage(&m, &mut a, &tw),
                simd.ntt_twist_stage(&m, &mut b, &tw)
            );
            for (&x, &y) in a.iter().zip(&b) {
                assert_eq!(x % q, y % q, "twist bits={bits}");
            }

            let (mut a, mut b) = (lazy.clone(), lazy.clone());
            portable.ntt_scale(&m, &mut a, &tw);
            simd.ntt_scale(&m, &mut b, &tw);
            assert_eq!(a, b, "scale bits={bits}");
            assert!(a.iter().all(|&v| v < q));

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

            // q − 1 operands and accumulator maximise every lane sum; 70
            // terms carry the IFMA high lane past 2^52 and take the
            // portable path through two fold groups at 61 bits.
            for terms in [1usize, 4, 70] {
                let rows: Vec<Vec<u64>> = (0..2 * terms)
                    .map(|_| (0..n + 3).map(|_| rng.gen_range(q - 2..q)).collect())
                    .collect();
                let xs: Vec<&[u64]> = rows[..terms].iter().map(Vec::as_slice).collect();
                let ys: Vec<&[u64]> = rows[terms..].iter().map(Vec::as_slice).collect();
                let (mut a, mut b) = (vec![q - 1; n + 3], vec![q - 1; n + 3]);
                portable.mul_acc(&m, &xs, &ys, &mut a);
                simd.mul_acc(&m, &xs, &ys, &mut b);
                assert_eq!(a, b, "mul_acc terms={terms} bits={bits}");
            }

            let (gm, gk, gn) = (5usize, 600usize, 19usize);
            let ga: Vec<u64> = (0..gm * gk).map(|_| rng.gen_range(0..q)).collect();
            let gb: Vec<u64> = (0..gk * gn).map(|_| rng.gen_range(0..q)).collect();
            let (mut a, mut b) = (vec![0u64; gm * gn], vec![0u64; gm * gn]);
            portable.gemm(&m, &ga, &gb, gm, gk, gn, &mut a);
            simd.gemm(&m, &ga, &gb, gm, gk, gn, &mut b);
            assert_eq!(a, b, "gemm bits={bits}");
        }
    }
}
