//! Tensor-core (TCU) emulation for the Neo reproduction.
//!
//! NVIDIA tensor cores execute fixed-shape fragment matrix-multiply-
//! accumulate (MMA) operations. The A100 supports, among others:
//!
//! * `FP64` fragments of shape **8×8×4** (Neo's workhorse), and
//! * `INT8` fragments of shape **16×16×16**, **32×8×16**, **8×32×16**
//!   (TensorFHE's choice).
//!
//! Neither data type can represent a 36- or 48-bit CKKS limb directly, so
//! modular GEMMs are *emulated* by splitting operands into low-bit planes,
//! running one fragment GEMM per plane pair, and merging the partial
//! products with shifts before modular reduction (Section 3.4 of the
//! paper). This crate reproduces that pipeline **bit-exactly** in software:
//!
//! * [`fragment`] — the raw fragment MMA semantics (f64 FMA grids, i32
//!   accumulating u8 products);
//! * [`split`] — the FP64 12/24-bit splitting schemes and INT8 byte planes,
//!   with exactness checks (`wa + wb + log2(K) ≤ 53`);
//! * [`gemm`] — the [`GemmEngine`] trait, whose products reduce each
//!   output column by its own modulus, plus three engines: scalar
//!   (CUDA-core), FP64-TCU and INT8-TCU, all producing identical results;
//! * [`abft`] — Huang–Abraham checksums over a single-modulus product;
//! * [`stats`] — Booth complexity, fragment counts, padding and the
//!   *valid proportion* metric of the paper's Fig. 12.
//!
//! # Example
//!
//! ```rust
//! use neo_math::Modulus;
//! use neo_tcu::{Fp64TcuGemm, GemmEngine, ScalarGemm};
//!
//! # fn main() -> Result<(), neo_math::MathError> {
//! let q = Modulus::new(neo_math::primes::ntt_primes(36, 1 << 10, 1)?[0])?;
//! let a = vec![123456789u64 % q.value(); 8 * 4];
//! let b = vec![987654321u64 % q.value(); 4 * 8];
//! let cols = [q; 8]; // one modulus per output column
//! let mut c_ref = vec![0u64; 8 * 8];
//! let mut c_tcu = vec![0u64; 8 * 8];
//! ScalarGemm.gemm(&cols, &a, &b, 8, 4, 8, &mut c_ref);
//! Fp64TcuGemm::for_word_size(36).gemm(&cols, &a, &b, 8, 4, 8, &mut c_tcu);
//! assert_eq!(c_ref, c_tcu);
//! # Ok(())
//! # }
//! ```

pub mod abft;
pub mod fragment;
pub mod gemm;
pub mod split;
pub mod stats;

pub use abft::{verify_gemm, CheckedGemm};
pub use fragment::{FragmentShape, FP64_FRAGMENT, INT8_FRAGMENTS};
pub use gemm::{reference_gemm, Fp64TcuGemm, GemmEngine, Int8TcuGemm, ScalarGemm};
pub use split::{Fp64SplitScheme, Int8SplitScheme};
pub use stats::{booth_complexity_fp64, booth_complexity_int8, valid_proportion, GemmDims};
