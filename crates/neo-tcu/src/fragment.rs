//! Raw tensor-core fragment MMA semantics.
//!
//! A fragment MMA computes `D = A × B + C` for fixed operand shapes
//! `M×K`, `K×N`, `M×N`. This module emulates the two A100 paths the paper
//! uses — FP64 `8×8×4` and INT8 `{16×16×16, 32×8×16, 8×32×16}` — with the
//! exact accumulation semantics of the hardware (f64 FMA, i32 integer
//! accumulate), so higher layers can assert bit-exactness of the emulated
//! modular GEMMs.

/// A supported fragment shape `M × N × K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragmentShape {
    /// Rows of A / rows of the output tile.
    pub m: usize,
    /// Columns of B / columns of the output tile.
    pub n: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
}

impl FragmentShape {
    /// Multiply-accumulate operations per fragment MMA.
    pub fn macs(&self) -> usize {
        self.m * self.n * self.k
    }
}

impl std::fmt::Display for FragmentShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// The single FP64 fragment shape on A100: `8×8×4`.
pub const FP64_FRAGMENT: FragmentShape = FragmentShape { m: 8, n: 8, k: 4 };

/// The INT8 fragment shapes on A100.
pub const INT8_FRAGMENTS: [FragmentShape; 3] = [
    FragmentShape {
        m: 16,
        n: 16,
        k: 16,
    },
    FragmentShape { m: 32, n: 8, k: 16 },
    FragmentShape { m: 8, n: 32, k: 16 },
];

/// One FP64 fragment MMA: `d = a(8×4) × b(4×8) + c(8×8)`, row-major slices.
///
/// Exactness: the hardware performs true IEEE-754 double FMAs. When all
/// products and partial sums are integers below `2^53`, the result is the
/// exact integer result — this is the property Neo's splitting scheme is
/// engineered around.
///
/// # Panics
///
/// Panics if the slices do not have lengths 32/32/64.
pub fn mma_fp64(a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), 8 * 4);
    assert_eq!(b.len(), 4 * 8);
    assert_eq!(c.len(), 8 * 8);
    neo_trace::add(neo_trace::Counter::TcuFp64Macs, FP64_FRAGMENT.macs() as u64);
    for i in 0..8 {
        for j in 0..8 {
            let mut acc = c[i * 8 + j];
            for t in 0..4 {
                acc += a[i * 4 + t] * b[t * 8 + j];
            }
            c[i * 8 + j] = acc;
        }
    }
    if neo_fault::armed() {
        neo_fault::corrupt_f64(neo_fault::FaultSite::TcuFragment, c);
    }
}

/// One INT8 fragment MMA of the given shape: `d = a × b + c` with unsigned
/// 8-bit operands and 32-bit accumulation (the `u8` wmma path TensorFHE
/// uses for byte planes).
///
/// # Panics
///
/// Panics if `shape` is not one of [`INT8_FRAGMENTS`] or slice lengths
/// disagree with the shape.
pub fn mma_int8(shape: FragmentShape, a: &[u8], b: &[u8], c: &mut [i32]) {
    assert!(
        INT8_FRAGMENTS.contains(&shape),
        "unsupported INT8 fragment {shape}"
    );
    assert_eq!(a.len(), shape.m * shape.k);
    assert_eq!(b.len(), shape.k * shape.n);
    assert_eq!(c.len(), shape.m * shape.n);
    neo_trace::add(neo_trace::Counter::TcuInt8Macs, shape.macs() as u64);
    for i in 0..shape.m {
        for j in 0..shape.n {
            let mut acc = c[i * shape.n + j];
            for t in 0..shape.k {
                acc += a[i * shape.k + t] as i32 * b[t * shape.n + j] as i32;
            }
            c[i * shape.n + j] = acc;
        }
    }
    if neo_fault::armed() {
        neo_fault::corrupt_i32(neo_fault::FaultSite::TcuFragment, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp64_identity() {
        // A = I (8x4 slice of identity), B arbitrary: D = B rows.
        let mut a = vec![0.0; 32];
        for i in 0..4 {
            a[i * 4 + i] = 1.0;
        }
        let b: Vec<f64> = (0..32).map(|x| x as f64).collect();
        let mut c = vec![0.0; 64];
        mma_fp64(&a, &b, &mut c);
        for i in 0..4 {
            for j in 0..8 {
                assert_eq!(c[i * 8 + j], b[i * 8 + j]);
            }
        }
        // Rows 4..8 of A are zero => zero outputs.
        for v in &c[32..] {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn fp64_accumulates_into_c() {
        let a = vec![1.0; 32];
        let b = vec![1.0; 32];
        let mut c = vec![10.0; 64];
        mma_fp64(&a, &b, &mut c);
        for v in &c {
            assert_eq!(*v, 14.0); // 10 + K(=4) * 1
        }
    }

    #[test]
    fn fp64_exact_at_52_bits() {
        // max magnitude per the paper: 2^36 * 2^12 * K(4 here) stays exact.
        let a = vec![(1u64 << 36) as f64; 32];
        let b = vec![((1u64 << 12) - 1) as f64; 32];
        let mut c = vec![0.0; 64];
        mma_fp64(&a, &b, &mut c);
        let expect = 4u128 * (1u128 << 36) * ((1u128 << 12) - 1);
        for v in &c {
            assert_eq!(*v as u128, expect);
        }
    }

    #[test]
    fn int8_all_shapes() {
        for shape in INT8_FRAGMENTS {
            let a = vec![3u8; shape.m * shape.k];
            let b = vec![5u8; shape.k * shape.n];
            let mut c = vec![7i32; shape.m * shape.n];
            mma_int8(shape, &a, &b, &mut c);
            for v in &c {
                assert_eq!(*v, 7 + shape.k as i32 * 15);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported INT8 fragment")]
    fn int8_rejects_fp64_shape() {
        let mut c = vec![0i32; 64];
        mma_int8(FP64_FRAGMENT, &[0; 32], &[0; 32], &mut c);
    }

    #[test]
    fn shape_metrics() {
        assert_eq!(FP64_FRAGMENT.macs(), 256);
        assert_eq!(INT8_FRAGMENTS[0].macs(), 4096);
    }
}
