//! The BConv kernel — original (Algorithm 1) and matrix form (Algorithm 2).
//!
//! BConv converts limbs from one RNS basis to another. The original
//! algorithm scalar-multiplies and accumulates once per *output* limb, so
//! every input coefficient is fetched `α'` times. The Neo form scales the
//! input once, reorders it so the `α` dimension is innermost, and performs
//! one `(BatchSize·N) × α × α'` matrix multiplication against the constant
//! `q̂` matrix — each datum is fetched exactly once (Fig. 6).

use crate::geometry::{BconvGeom, MatmulTarget};
use neo_gpu_sim::costs::{MERGE_COST, REORDER_COST, SPLIT_COST, WORD_BYTES};
use neo_gpu_sim::KernelProfile;
use neo_math::BconvTable;
use neo_tcu::{
    Fp64SplitScheme, Fp64TcuGemm, GemmDims, GemmEngine, Int8SplitScheme, Int8TcuGemm, ScalarGemm,
    FP64_FRAGMENT, INT8_FRAGMENTS,
};
use neo_trace::{span, Counter};
use rayon::prelude::*;

/// Original element-wise BConv (Algorithm 1): per output limb, walk every
/// input limb, scalar-multiply and accumulate.
///
/// # Panics
///
/// Panics if `input.len()` differs from the table's source basis size.
pub fn bconv_original(table: &BconvTable, input: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let (alpha, alpha_out) = (table.src().len(), table.dst().len());
    let n = input.first().map_or(0, Vec::len) as u64;
    let _s = span!(
        "kernel.bconv.orig",
        n = n,
        alpha = alpha,
        alpha_out = alpha_out
    );
    // Algorithm 1 re-reads every input coefficient once per output limb
    // and launches one kernel per output limb.
    let word = WORD_BYTES as u64;
    neo_trace::add(Counter::BytesRead, word * n * (alpha * alpha_out) as u64);
    neo_trace::add(Counter::BytesWritten, word * n * alpha_out as u64);
    neo_trace::add(Counter::Launches, alpha_out as u64);
    // The element-wise reference in neo-math implements exactly the
    // Algorithm-1 data access pattern.
    table.convert_approx(input)
}

/// Matrix-form BConv (Algorithm 2) with the GEMM on scalar units —
/// used to validate the reordering independent of the TCU emulation.
///
/// # Panics
///
/// Panics if `input.len()` differs from the table's source basis size.
pub fn bconv_matrix_scalar(table: &BconvTable, input: &[Vec<u64>]) -> Vec<Vec<u64>> {
    bconv_matrix_impl(table, input, MatmulTarget::Cuda)
}

/// Matrix-form BConv with the GEMM on emulated FP64 tensor-core fragments
/// (Neo's mapping, Fig. 11 right).
///
/// # Panics
///
/// Panics if `input.len()` differs from the table's source basis size.
pub fn bconv_matrix_fp64(table: &BconvTable, input: &[Vec<u64>]) -> Vec<Vec<u64>> {
    bconv_matrix_impl(table, input, MatmulTarget::TcuFp64)
}

/// Matrix-form BConv with the GEMM on emulated INT8 fragments
/// (the TensorFHE-style mapping of Fig. 11 left).
///
/// # Panics
///
/// Panics if `input.len()` differs from the table's source basis size.
pub fn bconv_matrix_int8(table: &BconvTable, input: &[Vec<u64>]) -> Vec<Vec<u64>> {
    bconv_matrix_impl(table, input, MatmulTarget::TcuInt8)
}

fn bconv_matrix_impl(
    table: &BconvTable,
    input: &[Vec<u64>],
    target: MatmulTarget,
) -> Vec<Vec<u64>> {
    let alpha = table.src().len();
    let alpha_out = table.dst().len();
    assert_eq!(input.len(), alpha, "source limb count mismatch");
    let n = input[0].len();
    let _s = span!(
        "kernel.bconv.matrix",
        n = n,
        alpha = alpha,
        alpha_out = alpha_out
    );
    // One fused launch: input and the q̂ matrix read once, output written
    // once, two layout reorders.
    let word = WORD_BYTES as u64;
    neo_trace::add(
        Counter::BytesRead,
        word * (n * alpha + alpha * alpha_out) as u64,
    );
    neo_trace::add(Counter::BytesWritten, word * (n * alpha_out) as u64);
    neo_trace::add(Counter::Launches, 1);
    neo_trace::add(Counter::ReorderOps, (n * alpha + n * alpha_out) as u64);
    // Step 1: scalar multiplication y_i = [x_i * q̂_i^{-1}]_{q_i}.
    let scaled = table.scale_limbs(input);
    // Step 2: data reorder — α innermost: A[(coeff), i] (Fig. 6).
    // One row per coefficient; rows are disjoint, so the transpose fans
    // out across the pool.
    let mut a = vec![0u64; n * alpha];
    a.par_chunks_mut(alpha)
        .enumerate()
        .for_each(|(coeff, row)| {
            for (i, limb) in scaled.iter().enumerate() {
                row[i] = limb[coeff];
            }
        });
    // Step 3: one (n × α × α') GEMM against the q̂ matrix, column j
    // reduced mod t_j.
    let b = table.qhat_matrix();
    let w_src = table.src().moduli().iter().map(|m| m.bits()).max().unwrap();
    let w_dst = table.dst().moduli().iter().map(|m| m.bits()).max().unwrap();
    let engine: Box<dyn GemmEngine> = match target {
        MatmulTarget::Cuda => Box::new(ScalarGemm),
        MatmulTarget::TcuFp64 => Box::new(Fp64TcuGemm::new(Fp64SplitScheme::for_operands(
            w_src, w_dst,
        ))),
        // 32×8×16 — the best INT8 shape for BConv per Fig. 11.
        MatmulTarget::TcuInt8 => Box::new(
            Int8TcuGemm::new(Int8SplitScheme::for_operands(w_src, w_dst))
                .with_shape(INT8_FRAGMENTS[1]),
        ),
    };
    let mut c = vec![0u64; n * alpha_out];
    engine.gemm(table.dst().moduli(), &a, &b, n, alpha, alpha_out, &mut c);
    // Step 4: reorder back to limb-major, one worker per output limb.
    let mut out = vec![vec![0u64; n]; alpha_out];
    out.par_iter_mut().enumerate().for_each(|(j, limb)| {
        for (coeff, v) in limb.iter_mut().enumerate() {
            *v = c[coeff * alpha_out + j];
        }
    });
    out
}

/// Profile of the original element-wise BConv: every input coefficient is
/// re-read once per output limb, and one kernel is launched per output
/// limb.
pub fn profile_original(g: &BconvGeom) -> KernelProfile {
    let vol = (g.n * g.batch) as f64;
    let (alpha, alpha_out) = (g.alpha as f64, g.alpha_out as f64);
    KernelProfile::new("bconv-orig")
        .cuda_modmacs(vol * alpha + vol * alpha * alpha_out)
        .bytes(
            WORD_BYTES * vol * alpha * alpha_out,
            WORD_BYTES * vol * alpha_out,
        )
        .launches(alpha_out)
}

/// Profile of the matrix-form BConv on the chosen matmul target: input
/// read once, GEMM on the target component, single fused launch.
pub fn profile_matrix(g: &BconvGeom, target: MatmulTarget) -> KernelProfile {
    let vol = (g.n * g.batch) as f64;
    let (alpha, alpha_out) = (g.alpha as f64, g.alpha_out as f64);
    let dims = GemmDims::new(g.n * g.batch, g.alpha, g.alpha_out);
    let mut cuda = vol * alpha // scalar multiplication step
        + REORDER_COST * vol * (alpha + alpha_out); // pre/post reorder
    let mut tcu_fp64 = 0.0;
    let mut tcu_int8 = 0.0;
    match target {
        MatmulTarget::Cuda => {
            cuda += dims.macs() as f64;
        }
        MatmulTarget::TcuFp64 => {
            let scheme = Fp64SplitScheme::for_operands(g.w_src, g.w_dst);
            tcu_fp64 = (scheme.partial_products() as u64 * dims.padded_macs(FP64_FRAGMENT)) as f64;
            cuda += SPLIT_COST * scheme.a_planes() as f64 * vol * alpha
                + MERGE_COST * scheme.partial_products() as f64 * vol * alpha_out;
        }
        MatmulTarget::TcuInt8 => {
            let scheme = Int8SplitScheme::for_operands(g.w_src, g.w_dst);
            tcu_int8 =
                (scheme.partial_products() as u64 * dims.padded_macs(INT8_FRAGMENTS[1])) as f64;
            cuda += SPLIT_COST * scheme.planes_a() as f64 * vol * alpha
                + MERGE_COST * scheme.partial_products() as f64 * vol * alpha_out;
        }
    }
    KernelProfile::new("bconv-matrix")
        .cuda_modmacs(cuda)
        .tcu_fp64_macs(tcu_fp64)
        .tcu_int8_macs(tcu_int8)
        .bytes(
            WORD_BYTES * (vol * alpha + alpha * alpha_out),
            WORD_BYTES * vol * alpha_out,
        )
        .launches(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::{primes, RnsBasis};
    use rand::{Rng, SeedableRng};

    fn table(alpha: usize, alpha_out: usize) -> BconvTable {
        let src = RnsBasis::new(&primes::ntt_primes(36, 64, alpha).unwrap()).unwrap();
        let dst = RnsBasis::new(&primes::ntt_primes(40, 64, alpha_out).unwrap()).unwrap();
        BconvTable::new(&src, &dst).unwrap()
    }

    fn random_input(t: &BconvTable, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        t.src()
            .moduli()
            .iter()
            .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
            .collect()
    }

    #[test]
    fn matrix_forms_match_original() {
        let t = table(4, 8);
        let input = random_input(&t, 48, 1);
        let want = bconv_original(&t, &input);
        assert_eq!(bconv_matrix_scalar(&t, &input), want);
        assert_eq!(bconv_matrix_fp64(&t, &input), want);
        assert_eq!(bconv_matrix_int8(&t, &input), want);
    }

    #[test]
    fn matrix_form_odd_sizes() {
        let t = table(3, 5);
        let input = random_input(&t, 40, 2);
        let want = bconv_original(&t, &input);
        assert_eq!(bconv_matrix_fp64(&t, &input), want);
    }

    #[test]
    fn original_profile_rereads_input() {
        let g = BconvGeom {
            n: 1 << 16,
            batch: 128,
            alpha: 4,
            alpha_out: 8,
            w_src: 36,
            w_dst: 48,
        };
        let orig = profile_original(&g);
        let opt = profile_matrix(&g, MatmulTarget::TcuFp64);
        // The headline data-reuse claim: matrix BConv reads ~alpha_out x less.
        let ratio = orig.bytes_read / opt.bytes_read;
        assert!(ratio > 7.0 && ratio <= 8.0 + 1e-9, "ratio {ratio}");
        assert!(opt.launches < orig.launches);
    }

    #[test]
    fn tcu_profile_moves_macs_off_cuda() {
        let g = BconvGeom {
            n: 1 << 14,
            batch: 8,
            alpha: 4,
            alpha_out: 8,
            w_src: 36,
            w_dst: 48,
        };
        let cuda = profile_matrix(&g, MatmulTarget::Cuda);
        let fp64 = profile_matrix(&g, MatmulTarget::TcuFp64);
        assert!(fp64.cuda_modmacs < cuda.cuda_modmacs);
        assert!(fp64.tcu_fp64_macs > 0.0);
        assert_eq!(cuda.tcu_fp64_macs, 0.0);
    }
}
