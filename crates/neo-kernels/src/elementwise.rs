//! Element-wise kernels: ModMUL, ModADD, and AUTO (Fig. 4, right).
//!
//! These kernels have no matrix-multiplication structure, so they always
//! map onto CUDA cores. This module prices them; the host's element-wise
//! work runs in `neo-math`.

use crate::geometry::ElemGeom;
use neo_gpu_sim::costs::WORD_BYTES;
use neo_gpu_sim::KernelProfile;

/// Profile of ModMUL over `g.elems` elements.
pub fn profile_modmul(g: &ElemGeom) -> KernelProfile {
    let e = g.elems as f64;
    KernelProfile::new("modmul")
        .cuda_modmacs(e)
        .bytes(2.0 * WORD_BYTES * e, WORD_BYTES * e)
        .launches(1.0)
}

/// Profile of ModADD over `g.elems` elements (¼ the cost of a MAC).
pub fn profile_modadd(g: &ElemGeom) -> KernelProfile {
    let e = g.elems as f64;
    KernelProfile::new("modadd")
        .cuda_modmacs(0.25 * e)
        .bytes(2.0 * WORD_BYTES * e, WORD_BYTES * e)
        .launches(1.0)
}

/// Profile of AUTO over `g.elems` elements (pure permutation).
pub fn profile_auto(g: &ElemGeom) -> KernelProfile {
    let e = g.elems as f64;
    KernelProfile::new("auto")
        .cuda_modmacs(0.25 * e)
        .bytes(WORD_BYTES * e, WORD_BYTES * e)
        .launches(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale() {
        let small = profile_modmul(&ElemGeom { elems: 100 });
        let big = profile_modmul(&ElemGeom { elems: 1000 });
        assert!((big.cuda_modmacs / small.cuda_modmacs - 10.0).abs() < 1e-12);
        assert!(profile_modadd(&ElemGeom { elems: 100 }).cuda_modmacs < small.cuda_modmacs);
    }
}
