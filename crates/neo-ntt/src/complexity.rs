//! Closed-form operation counts for the NTT variants — these feed the
//! device model and reproduce the complexity arithmetic of Section 4.4
//! (four-step `2^25` vs Radix-16 `2^22` matmul MACs at `N = 2^16`).

/// Matmul MACs per polynomial for the four-step NTT (`N·(N1+N2)`).
pub fn four_step_matmul_macs(n: usize) -> u64 {
    let log = n.trailing_zeros();
    let n1 = 1u64 << log.div_ceil(2);
    let n2 = n as u64 / n1;
    n as u64 * (n1 + n2)
}

/// Matmul MACs per polynomial for the Radix-16 NTT.
///
/// Peeling 16-point stages gives `g(n) = n · (16·s + r)` where
/// `n = 16^s · r`, `r ≤ 16`.
pub fn radix16_matmul_macs(n: usize) -> u64 {
    let mut rem = n as u64;
    let mut acc = 0u64;
    while rem > 16 {
        acc += 16;
        rem /= 16;
    }
    acc += rem;
    n as u64 * acc
}

/// Number of 16-wide GEMM stages in the Radix-16 decomposition (4 for
/// `N = 2^16`; with the twist/twiddle/transpose interleavings this is the
/// "ten-step" pipeline of the paper).
pub fn radix16_stages(n: usize) -> u32 {
    let mut rem = n as u64;
    let mut s = 0u32;
    while rem > 16 {
        s += 1;
        rem /= 16;
    }
    s + 1
}

/// Butterfly MACs of the radix-2 reference (`(N/2)·log2 N` butterflies,
/// 1 mul + 2 add each; counted as MACs).
pub fn radix2_butterfly_macs(n: usize) -> u64 {
    (n as u64 / 2) * n.trailing_zeros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_numbers() {
        let n = 1 << 16;
        assert_eq!(four_step_matmul_macs(n), 1 << 25);
        assert_eq!(radix16_matmul_macs(n), 1 << 22);
        assert_eq!(radix16_stages(n), 4);
        // The paper's 8x matmul-work reduction.
        assert_eq!(four_step_matmul_macs(n) / radix16_matmul_macs(n), 8);
    }

    #[test]
    fn non_power_of_16() {
        // n = 32 = 16 * 2: one 16-stage plus a 2-point remainder.
        assert_eq!(radix16_matmul_macs(32), 32 * 18);
        assert_eq!(radix16_stages(32), 2);
        // n = 2^12: 16 * 16 * 16.
        assert_eq!(radix16_matmul_macs(1 << 12), (1 << 12) * 48);
    }

    #[test]
    fn radix2_count() {
        assert_eq!(radix2_butterfly_macs(1 << 16), (1 << 15) * 16);
    }
}
