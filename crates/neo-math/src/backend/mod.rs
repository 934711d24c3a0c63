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
//! representatives internally* — e.g. a 52-bit Shoup quotient that lands
//! `q` away from the 64-bit one — as long as every intermediate stays
//! congruent and inside the stage's lazy window.
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
/// * NTT stage methods run one radix-2 stage of the merged-ψ transform
///   (`neo-ntt`'s `radix2`): the `i`-th run of `size` elements is one
///   block, and every butterfly in it uses the block's own twiddle
///   `tw[i]` (`tw.len() == x.len() / size`). Forward (Cooley–Tukey)
///   stages take and return the Harvey lazy window `[0, 4q)`, inverse
///   (Gentleman–Sande) stages `[0, 2q)`, with `q < 2^62`. They return the
///   number of butterflies executed, tallied from their own loop
///   structure, so the `NttButterflies` counter `radix2` records
///   reflects real work for *any* backend.
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

    /// One forward Cooley–Tukey stage of span `size` (`size ≥ 4`): in
    /// block `i`, each butterfly maps `(u, v)` to `(u + w·v, u − w·v)`
    /// for `w = tw[i]`, lazily. Inputs and outputs stay in `[0, 4q)`.
    /// Returns butterflies executed (`x.len()/2`).
    fn ntt_fwd_stage(&self, m: &Modulus, x: &mut [u64], size: usize, tw: &[ShoupMul]) -> u64;

    /// The last forward stage (span 2, one twiddle per adjacent pair)
    /// with the final `[0, 4q) → [0, q)` reduction folded into the
    /// butterfly outputs. Returns butterflies executed (`x.len()/2`).
    fn ntt_fwd_stage_final(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) -> u64;

    /// One inverse Gentleman–Sande stage of span `size` (`size ≥ 2`): in
    /// block `i`, each butterfly maps `(u, v)` to `(u + v, (u − v)·w)`
    /// for `w = tw[i]`, lazily. Inputs and outputs stay in `[0, 2q)`.
    /// Returns butterflies executed (`x.len()/2`).
    fn ntt_inv_stage(&self, m: &Modulus, x: &mut [u64], size: usize, tw: &[ShoupMul]) -> u64;

    /// The inverse NTT's `n⁻¹` scale: `x[i] = x[i] · s.w` as a full Shoup
    /// multiply, accepting the stage loop's `[0, 2q)` values and emitting
    /// canonical `[0, q)`.
    fn ntt_scale(&self, m: &Modulus, x: &mut [u64], s: ShoupMul);

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
            let n = 64usize;
            let lazy: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4 * q)).collect();
            let lazy2: Vec<u64> = (0..n).map(|_| rng.gen_range(0..2 * q)).collect();

            // Stage kernels at every span, one random twiddle per block.
            // Lazy representatives may differ; canonical values not.
            for size in [2usize, 4, 8, 16, 32, 64] {
                let tw: Vec<ShoupMul> = (0..n / size)
                    .map(|_| m.shoup(rng.gen_range(0..q)))
                    .collect();
                if size >= 4 {
                    let (mut a, mut b) = (lazy.clone(), lazy.clone());
                    assert_eq!(
                        portable.ntt_fwd_stage(&m, &mut a, size, &tw),
                        simd.ntt_fwd_stage(&m, &mut b, size, &tw)
                    );
                    for (&x, &y) in a.iter().zip(&b) {
                        assert_eq!(x % q, y % q, "fwd stage size={size} bits={bits}");
                        assert!(x < 4 * q && y < 4 * q);
                    }
                } else {
                    let (mut a, mut b) = (lazy.clone(), lazy.clone());
                    assert_eq!(
                        portable.ntt_fwd_stage_final(&m, &mut a, &tw),
                        simd.ntt_fwd_stage_final(&m, &mut b, &tw)
                    );
                    assert_eq!(a, b, "final stage bits={bits}");
                    assert!(a.iter().all(|&v| v < q));
                }
                let (mut a, mut b) = (lazy2.clone(), lazy2.clone());
                assert_eq!(
                    portable.ntt_inv_stage(&m, &mut a, size, &tw),
                    simd.ntt_inv_stage(&m, &mut b, size, &tw)
                );
                for (&x, &y) in a.iter().zip(&b) {
                    assert_eq!(x % q, y % q, "inv stage size={size} bits={bits}");
                    assert!(x < 2 * q && y < 2 * q);
                }
            }

            let s = m.shoup(rng.gen_range(0..q));
            let (mut a, mut b) = (lazy2.clone(), lazy2.clone());
            portable.ntt_scale(&m, &mut a, s);
            simd.ntt_scale(&m, &mut b, s);
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
