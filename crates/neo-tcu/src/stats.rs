//! Static cost accounting for TCU-emulated GEMMs.
//!
//! These pure functions compute, from matrix dimensions and a splitting
//! scheme, the quantities the paper reasons about: Booth complexity
//! (number of partial fragment GEMMs), fragment counts, and the *valid
//! proportion* of fragment compute that lands on real (non-padding) data —
//! the metric of Fig. 12 that drives Neo's IP mapping decision
//! (TCU when > 80%, CUDA cores otherwise).

use crate::fragment::FragmentShape;
use crate::split::{Fp64SplitScheme, Int8SplitScheme};

/// Dimensions of one modular GEMM, `C(m×n) = A(m×k) × B(k×n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmDims {
    /// Rows of A.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of B.
    pub n: usize,
}

impl GemmDims {
    /// Convenience constructor.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        Self { m, k, n }
    }

    /// Multiply-accumulate count of the plain (unsplit) modular GEMM.
    pub fn macs(&self) -> u64 {
        (self.m * self.k * self.n) as u64
    }

    /// Fragment tiles needed for one plane-pair GEMM under `shape`
    /// (with zero padding of every partial dimension).
    pub fn fragments(&self, shape: FragmentShape) -> u64 {
        (self.m.div_ceil(shape.m) * self.n.div_ceil(shape.n) * self.k.div_ceil(shape.k)) as u64
    }

    /// Padded MAC count under `shape` for one plane pair.
    pub fn padded_macs(&self, shape: FragmentShape) -> u64 {
        self.fragments(shape) * shape.macs() as u64
    }
}

/// The paper's FP64 Booth complexity: partial fragment GEMMs per modular
/// GEMM (3 for 36-bit words, 2×2 = 4 for 48-bit words).
pub fn booth_complexity_fp64(word_size: u32) -> u64 {
    Fp64SplitScheme::for_word_size(word_size).partial_products() as u64
}

/// The INT8 Booth complexity: `⌈w/8⌉²` (25 for 36-bit, 36 for 48-bit).
pub fn booth_complexity_int8(word_size: u32) -> u64 {
    Int8SplitScheme::for_word_size(word_size).partial_products() as u64
}

/// Fraction of fragment MACs that act on real data rather than padding
/// (Fig. 12). `1.0` when every dimension divides the fragment shape.
pub fn valid_proportion(dims: GemmDims, shape: FragmentShape) -> f64 {
    dims.macs() as f64 / dims.padded_macs(shape) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FP64_FRAGMENT, INT8_FRAGMENTS};

    #[test]
    fn booth_matches_paper() {
        assert_eq!(booth_complexity_fp64(36), 3);
        assert_eq!(booth_complexity_fp64(48), 4);
        assert_eq!(booth_complexity_int8(36), 25);
        assert_eq!(booth_complexity_int8(48), 36);
    }

    #[test]
    fn ntt_shape_is_fully_valid_on_fp64() {
        // Radix-16 NTT: (BS * N/16) x 16 x 16 — all dims divide 8/8/4.
        let dims = GemmDims::new(128 * 4096, 16, 16);
        assert_eq!(valid_proportion(dims, FP64_FRAGMENT), 1.0);
    }

    #[test]
    fn bconv_int8_padding_matches_paper() {
        // Paper Fig. 11: BConv with alpha=4 (K), alpha'=8 (N) on INT8
        // 32x8x16 has only 25% valid computation.
        let dims = GemmDims::new(32, 4, 8);
        let prop = valid_proportion(dims, INT8_FRAGMENTS[1]); // 32x8x16
        assert!((prop - 0.25).abs() < 1e-12, "got {prop}");
        // And 100% on FP64 (8|32, 8|8, 4|4).
        assert_eq!(valid_proportion(dims, FP64_FRAGMENT), 1.0);
    }

    #[test]
    fn ip_valid_proportion_varies_with_beta() {
        // IP: N = beta~, K = beta. At beta=9, beta~=8 (Set-C, l=35):
        let full = valid_proportion(GemmDims::new(128, 9, 8), FP64_FRAGMENT);
        // K=9 pads to 12 -> 75%.
        assert!((full - 0.75).abs() < 1e-12, "got {full}");
        // Small beta pads much worse.
        let small = valid_proportion(GemmDims::new(128, 2, 2), FP64_FRAGMENT);
        assert!(small < 0.25);
    }

    #[test]
    fn fragment_counts() {
        let dims = GemmDims::new(16, 16, 16);
        assert_eq!(dims.fragments(FP64_FRAGMENT), 2 * 2 * 4);
        assert_eq!(dims.fragments(INT8_FRAGMENTS[0]), 1);
    }
}
