//! The IP (inner product) kernel — original (Algorithm 3) and matrix form
//! (Algorithm 4).
//!
//! In the KLSS method, IP multiply-accumulates `β` ciphertext digit groups
//! against `β̃ × β` evaluation-key limbs over `R_T`. The original algorithm
//! is a nest of element-wise ModMULs in which each ciphertext coefficient
//! is fetched `β̃` times. Neo reorders limbs to `N × α' × BatchSize × β`
//! and keys to `N × α' × β × β̃` (Fig. 8), turning the computation into
//! `N·α'` independent `BatchSize × β × β̃` matrix multiplications in which
//! every datum is fetched exactly once (Fig. 7).
//!
//! Data model used here (all `Vec`-nested, limb-major):
//!
//! * ciphertext digits: `c[j][k]` — digit `j ∈ [β]`, limb `k ∈ [α']`, a row
//!   of `batch · n` coefficients (batch-major);
//! * evaluation keys:   `evk[i][j][k]` — output digit `i ∈ [β̃]`, one row of
//!   `n` coefficients (keys are per-polynomial, not per-batch);
//! * output:            `out[i][k]` — `batch · n` coefficients.

use crate::geometry::{IpGeom, MatmulTarget};
use neo_gpu_sim::costs::{MERGE_COST, REORDER_COST, SPLIT_COST, WORD_BYTES};
use neo_gpu_sim::KernelProfile;
use neo_math::Modulus;
use neo_tcu::{
    Fp64TcuGemm, GemmDims, GemmEngine, Int8TcuGemm, ScalarGemm, FP64_FRAGMENT, INT8_FRAGMENTS,
};
use neo_trace::{span, Counter};
use rayon::prelude::*;

/// Original element-wise IP (Algorithm 3): for every output digit `i`,
/// re-read all ciphertext limbs and accumulate `c[j] * evk[i][j]`.
///
/// # Panics
///
/// Panics if the nesting does not match `(beta, alpha_p, beta_t)` or limb
/// lengths disagree.
pub fn ip_original(
    moduli: &[Modulus],
    batch: usize,
    c: &[Vec<Vec<u64>>],
    evk: &[Vec<Vec<Vec<u64>>>],
) -> Vec<Vec<Vec<u64>>> {
    let alpha_p = c[0].len();
    let beta = c.len();
    let beta_t = evk.len();
    let bn = c[0][0].len();
    let n = bn / batch;
    assert_eq!(moduli.len(), alpha_p, "one modulus per R_T limb");
    let _s = span!("kernel.ip.orig", beta, beta_t, alpha_p, batch, n);
    // Algorithm 3: one ModMUL launch per (i, j) pair; ciphertext re-read
    // per output digit, accumulator round-trips per reduction step.
    let word = WORD_BYTES as u64;
    let vol = (bn * alpha_p) as u64;
    let key_vol = (n * alpha_p) as u64;
    neo_trace::add(Counter::ModMacs, (beta_t * beta) as u64 * vol);
    neo_trace::add(
        Counter::BytesRead,
        word * ((beta_t * beta) as u64 * (vol + key_vol) + (beta_t * (beta - 1)) as u64 * vol),
    );
    neo_trace::add(Counter::BytesWritten, word * (beta_t * beta) as u64 * vol);
    neo_trace::add(Counter::Launches, (beta * beta_t) as u64);
    let mut out = vec![vec![vec![0u64; bn]; alpha_p]; beta_t];
    for (i, out_i) in out.iter_mut().enumerate() {
        for (j, c_j) in c.iter().enumerate() {
            for (k, m) in moduli.iter().enumerate() {
                let key = &evk[i][j][k];
                assert_eq!(key.len(), n, "key limb length mismatch");
                let acc = &mut out_i[k];
                let limb = &c_j[k];
                for b in 0..batch {
                    for (l, &kv) in key.iter().enumerate() {
                        let idx = b * n + l;
                        acc[idx] = m.add(acc[idx], m.mul(limb[idx], kv));
                    }
                }
            }
        }
    }
    out
}

/// Matrix-form IP (Algorithm 4) on a chosen matmul target: reorder, then
/// `n·α'` GEMMs of shape `batch × β × β̃`, then reorder back.
///
/// # Panics
///
/// Same conditions as [`ip_original`].
pub fn ip_matrix(
    moduli: &[Modulus],
    batch: usize,
    c: &[Vec<Vec<u64>>],
    evk: &[Vec<Vec<Vec<u64>>>],
    target: MatmulTarget,
) -> Vec<Vec<Vec<u64>>> {
    let beta = c.len();
    let alpha_p = c[0].len();
    let beta_t = evk.len();
    let bn = c[0][0].len();
    let n = bn / batch;
    assert_eq!(moduli.len(), alpha_p, "one modulus per R_T limb");
    let _s = span!("kernel.ip.matrix", beta, beta_t, alpha_p, batch, n);
    // One fused launch: ciphertext and keys read once, output written once.
    let word = WORD_BYTES as u64;
    let vol = (bn * alpha_p) as u64;
    let key_vol = (n * alpha_p) as u64;
    neo_trace::add(
        Counter::BytesRead,
        word * (beta as u64 * vol + (beta_t * beta) as u64 * key_vol),
    );
    neo_trace::add(Counter::BytesWritten, word * beta_t as u64 * vol);
    neo_trace::add(Counter::Launches, 1);
    let w = moduli.iter().map(|m| m.bits()).max().unwrap();
    let engine: Box<dyn GemmEngine + Sync> = match target {
        MatmulTarget::Cuda => Box::new(ScalarGemm),
        MatmulTarget::TcuFp64 => Box::new(Fp64TcuGemm::for_word_size(w.clamp(2, 48))),
        MatmulTarget::TcuInt8 => Box::new(Int8TcuGemm::for_word_size(w)),
    };
    // R_T limbs are fully independent (one modulus each), so each limb's
    // n GEMM chain runs on its own worker with private reorder buffers.
    let per_limb: Vec<Vec<Vec<u64>>> = (0..alpha_p)
        .into_par_iter()
        .map(|k| {
            // Every output column of this limb's GEMMs reduces mod q_k.
            let cols = vec![moduli[k]; beta_t];
            let mut a = vec![0u64; batch * beta];
            let mut bmat = vec![0u64; beta * beta_t];
            let mut cmat = vec![0u64; batch * beta_t];
            let mut out_k = vec![vec![0u64; bn]; beta_t];
            // Per-coefficient gather of A and B plus the scatter of C are
            // the Fig. 8 reorders (counted once per limb, n coefficients).
            neo_trace::add(
                Counter::ReorderOps,
                (n * (batch * beta + beta * beta_t + batch * beta_t)) as u64,
            );
            for l in 0..n {
                // A[b][j] = c[j][k][b·n + l]  (limbs reordered, Fig. 8 top)
                for b in 0..batch {
                    for j in 0..beta {
                        a[b * beta + j] = c[j][k][b * n + l];
                    }
                }
                // B[j][i] = evk[i][j][k][l]   (keys reordered, Fig. 8 bottom)
                for j in 0..beta {
                    for i in 0..beta_t {
                        bmat[j * beta_t + i] = evk[i][j][k][l];
                    }
                }
                engine.gemm(&cols, &a, &bmat, batch, beta, beta_t, &mut cmat);
                for b in 0..batch {
                    for (i, out_i) in out_k.iter_mut().enumerate() {
                        out_i[b * n + l] = cmat[b * beta_t + i];
                    }
                }
            }
            out_k
        })
        .collect();
    // Stitch back into [output digit][limb] order.
    let mut out = vec![vec![Vec::new(); alpha_p]; beta_t];
    for (k, limb_rows) in per_limb.into_iter().enumerate() {
        for (i, row) in limb_rows.into_iter().enumerate() {
            out[i][k] = row;
        }
    }
    out
}

/// Profile of the original element-wise IP: built from independent ModMUL
/// kernels (Algorithm 3), so ciphertext limbs are re-read once per output
/// digit *and* the accumulator is written and re-read once per reduction
/// step, with one launch per `(i, j)` pair.
pub fn profile_original(g: &IpGeom) -> KernelProfile {
    let vol = (g.n * g.batch * g.alpha_p) as f64; // one group's coefficients
    let (beta, beta_t, cc) = (g.beta as f64, g.beta_t as f64, g.components as f64);
    let key_vol = (g.n * g.alpha_p) as f64;
    KernelProfile::new("ip-orig")
        .cuda_modmacs(cc * beta * beta_t * vol)
        .bytes(
            WORD_BYTES
                * (beta_t * beta * vol
                    + cc * beta_t * beta * key_vol
                    + cc * (beta - 1.0).max(0.0) * beta_t * vol), // accumulator re-reads
            WORD_BYTES * cc * beta * beta_t * vol, // accumulator written per step
        )
        .launches(beta * beta_t)
}

/// Profile of the matrix-form IP: single pass over ciphertext and keys,
/// GEMMs on the chosen target, one fused launch.
pub fn profile_matrix(g: &IpGeom, target: MatmulTarget) -> KernelProfile {
    let vol = (g.n * g.batch * g.alpha_p) as f64;
    let (beta, beta_t, cc) = (g.beta as f64, g.beta_t as f64, g.components as f64);
    let key_vol = (g.n * g.alpha_p) as f64;
    let dims = GemmDims::new(g.batch, g.beta, g.beta_t);
    let gemms = cc * (g.n * g.alpha_p) as f64;
    let mut cuda = REORDER_COST * (beta * vol + cc * beta_t * beta * key_vol + cc * beta_t * vol);
    let mut tcu_fp64 = 0.0;
    let mut tcu_int8 = 0.0;
    match target {
        MatmulTarget::Cuda => {
            cuda += gemms * dims.macs() as f64;
        }
        MatmulTarget::TcuFp64 => {
            let scheme = neo_tcu::Fp64SplitScheme::for_word_size(g.w);
            tcu_fp64 =
                gemms * (scheme.partial_products() as u64 * dims.padded_macs(FP64_FRAGMENT)) as f64;
            cuda += SPLIT_COST * scheme.a_planes() as f64 * beta * vol
                + MERGE_COST * scheme.partial_products() as f64 * cc * beta_t * vol;
        }
        MatmulTarget::TcuInt8 => {
            let scheme = neo_tcu::Int8SplitScheme::for_word_size(g.w);
            tcu_int8 = gemms
                * (scheme.partial_products() as u64 * dims.padded_macs(INT8_FRAGMENTS[0])) as f64;
            cuda += SPLIT_COST * scheme.planes_a() as f64 * beta * vol
                + MERGE_COST * scheme.partial_products() as f64 * cc * beta_t * vol;
        }
    }
    KernelProfile::new("ip-matrix")
        .cuda_modmacs(cuda)
        .tcu_fp64_macs(tcu_fp64)
        .tcu_int8_macs(tcu_int8)
        .bytes(
            WORD_BYTES * (beta * vol + cc * beta_t * beta * key_vol),
            WORD_BYTES * cc * beta_t * vol,
        )
        .launches(1.0)
}

/// The valid proportion of the IP matrix multiplication on FP64 fragments
/// (Fig. 12): drives Neo's runtime mapping choice.
pub fn fp64_valid_proportion(g: &IpGeom) -> f64 {
    neo_tcu::valid_proportion(GemmDims::new(g.batch, g.beta, g.beta_t), FP64_FRAGMENT)
}

/// Neo maps IP matmuls to the TCU only when the valid proportion exceeds
/// this threshold (Section 4.5.3).
pub const TCU_VALID_THRESHOLD: f64 = 0.8;

/// The mapping Neo chooses for this geometry: TCU FP64 when valid work
/// exceeds 80%, CUDA cores otherwise.
pub fn neo_target(g: &IpGeom) -> MatmulTarget {
    if fp64_valid_proportion(g) > TCU_VALID_THRESHOLD {
        MatmulTarget::TcuFp64
    } else {
        MatmulTarget::Cuda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::primes;
    use rand::{Rng, SeedableRng};

    fn moduli(k: usize, bits: u32) -> Vec<Modulus> {
        primes::ntt_primes(bits, 64, k)
            .unwrap()
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect()
    }

    #[allow(clippy::type_complexity)]
    fn random_ip_data(
        ms: &[Modulus],
        beta: usize,
        beta_t: usize,
        batch: usize,
        n: usize,
        seed: u64,
    ) -> (Vec<Vec<Vec<u64>>>, Vec<Vec<Vec<Vec<u64>>>>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let alpha_p = ms.len();
        let c = (0..beta)
            .map(|_| {
                (0..alpha_p)
                    .map(|k| {
                        (0..batch * n)
                            .map(|_| rng.gen_range(0..ms[k].value()))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let evk = (0..beta_t)
            .map(|_| {
                (0..beta)
                    .map(|_| {
                        (0..alpha_p)
                            .map(|k| (0..n).map(|_| rng.gen_range(0..ms[k].value())).collect())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        (c, evk)
    }

    #[test]
    fn matrix_matches_original_all_targets() {
        let ms = moduli(2, 36);
        let (c, evk) = random_ip_data(&ms, 3, 4, 2, 8, 1);
        let want = ip_original(&ms, 2, &c, &evk);
        for target in [
            MatmulTarget::Cuda,
            MatmulTarget::TcuFp64,
            MatmulTarget::TcuInt8,
        ] {
            assert_eq!(ip_matrix(&ms, 2, &c, &evk, target), want, "{target:?}");
        }
    }

    #[test]
    fn matrix_matches_original_48bit() {
        let ms = moduli(2, 48);
        let (c, evk) = random_ip_data(&ms, 4, 3, 3, 4, 2);
        let want = ip_original(&ms, 3, &c, &evk);
        assert_eq!(ip_matrix(&ms, 3, &c, &evk, MatmulTarget::TcuFp64), want);
    }

    #[test]
    fn original_profile_rereads_beta_t_times() {
        let g = IpGeom {
            n: 1 << 16,
            batch: 128,
            alpha_p: 8,
            beta: 9,
            beta_t: 8,
            components: 2,
            w: 48,
        };
        let orig = profile_original(&g);
        let opt = profile_matrix(&g, MatmulTarget::TcuFp64);
        // Ciphertext volume dominates; reads shrink ~beta_t fold.
        assert!(orig.bytes_read / opt.bytes_read > 4.0);
        assert_eq!(opt.launches, 1.0);
        assert_eq!(orig.launches, (9 * 8) as f64);
    }

    #[test]
    fn mapping_threshold() {
        // Set-C at l = 35: beta = 9, beta~ = 8 -> 75% valid -> CUDA cores.
        let g = IpGeom {
            n: 1 << 16,
            batch: 128,
            alpha_p: 8,
            beta: 9,
            beta_t: 8,
            components: 2,
            w: 48,
        };
        assert_eq!(neo_target(&g), MatmulTarget::Cuda);
        // beta = 8, beta~ = 8 divides fragments exactly -> TCU.
        let g2 = IpGeom { beta: 8, ..g };
        assert_eq!(neo_target(&g2), MatmulTarget::TcuFp64);
    }
}
