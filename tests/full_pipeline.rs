//! Cross-crate integration tests: the full stack from fragment emulation
//! up through CKKS operations and the performance model.

use neo::ckks::encoding::Complex64;
use neo::ckks::keys::{KeyChest, PublicKey, SecretKey};
use neo::ckks::{ops, CkksContext, CkksParams, Encoder, KsMethod, ParamSet};
use neo::gpu_sim::DeviceModel;
use neo::kernels::bconv;
use neo::math::{BconvTable, RnsBasis};
use neo::ntt::{matrix, radix2, NttPlan};
use neo::tcu::{Fp64TcuGemm, ScalarGemm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The TCU-emulated radix-16 NTT slots straight into polynomial
/// multiplication and produces the same ciphertext-level results as the
/// radix-2 reference.
#[test]
fn tcu_ntt_is_a_drop_in_replacement() {
    let n = 256;
    let q = neo::math::primes::ntt_primes(36, n, 1).unwrap()[0];
    let plan = NttPlan::new(q, n).unwrap();
    let m = plan.modulus();
    let mut rng = StdRng::seed_from_u64(1);
    let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
    let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
    // Multiply via the TCU-emulated matrix NTT.
    let engine = Fp64TcuGemm::for_word_size(36);
    let mut fa = a.clone();
    let mut fb = b.clone();
    matrix::forward_radix16(&plan, &mut fa, &engine);
    matrix::forward_radix16(&plan, &mut fb, &engine);
    for (x, &y) in fa.iter_mut().zip(&fb) {
        *x = m.mul(*x, y);
    }
    matrix::inverse_radix16(&plan, &mut fa, &engine);
    // Reference via radix-2.
    let mut ra = a.clone();
    let mut rb = b.clone();
    radix2::forward(&plan, &mut ra);
    radix2::forward(&plan, &mut rb);
    for (x, &y) in ra.iter_mut().zip(&rb) {
        *x = m.mul(*x, y);
    }
    radix2::inverse(&plan, &mut ra);
    assert_eq!(fa, ra);
}

/// The kernel crate's matrix BConv applied to real ciphertext digit data
/// agrees with the math crate's element-wise conversion (the path the
/// CKKS key switch uses).
#[test]
fn kernel_bconv_matches_ckks_mod_up_path() {
    let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
    let digit_primes = ctx.q_primes()[..2].to_vec();
    let t_primes = ctx.t_primes().to_vec();
    let src = RnsBasis::new(&digit_primes).unwrap();
    let dst = RnsBasis::new(&t_primes).unwrap();
    let table = BconvTable::new(&src, &dst).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let input: Vec<Vec<u64>> = digit_primes
        .iter()
        .map(|&q| (0..ctx.degree()).map(|_| rng.gen_range(0..q)).collect())
        .collect();
    let elementwise = bconv::bconv_original(&table, &input);
    let matrix_fp64 = bconv::bconv_matrix_fp64(&table, &input);
    assert_eq!(elementwise, matrix_fp64);
}

/// Depth-3 computation mixing every operation type, against a plaintext
/// oracle: ((x*y) rotated + x) * conj(x).
#[test]
fn mixed_operation_pipeline() {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
    let mut rng = StdRng::seed_from_u64(3);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
    let chest = KeyChest::new(ctx.clone(), sk, 4);
    let enc = Encoder::new(ctx.degree());
    let slots = enc.slots();
    let x: Vec<Complex64> = (0..slots)
        .map(|i| Complex64::new(0.5 * (i as f64 * 0.2).cos(), 0.1))
        .collect();
    let y: Vec<Complex64> = (0..slots)
        .map(|i| Complex64::new(0.3, 0.4 * (i as f64 * 0.15).sin()))
        .collect();
    let scale = ctx.params().scale();
    let ct_x = ops::try_encrypt(&ctx, &pk, &enc.encode(&ctx, &x, scale, 5), &mut rng).unwrap();
    let ct_y = ops::try_encrypt(&ctx, &pk, &enc.encode(&ctx, &y, scale, 5), &mut rng).unwrap();

    let xy = ops::try_rescale(
        &ctx,
        &ops::try_hmult(&chest, &ct_x, &ct_y, KsMethod::Klss).unwrap(),
    )
    .unwrap();
    let rot = ops::try_hrotate(&chest, &xy, 3, KsMethod::Hybrid).unwrap();
    let x_low = ops::try_level_reduce(&ct_x, rot.level()).unwrap();
    let sum = ops::try_hadd(&ctx, &rot, &x_low).unwrap();
    let conj = ops::try_hconjugate(&chest, &x_low, KsMethod::Klss).unwrap();
    let out_ct = ops::try_rescale(
        &ctx,
        &ops::try_hmult(&chest, &sum, &conj, KsMethod::Klss).unwrap(),
    )
    .unwrap();

    let got = enc.decode(
        &ctx,
        &ops::try_decrypt(&ctx, chest.secret_key(), &out_ct).unwrap(),
    );
    for i in 0..slots {
        let want = (x[(i + 3) % slots] * y[(i + 3) % slots] + x[i]) * x[i].conj();
        let err = (got[i] - want).abs();
        assert!(
            err < 5e-2,
            "slot {i}: {:?} vs {want:?} (err {err:.2e})",
            got[i]
        );
    }
}

/// The cost model is internally consistent with the paper's headline:
/// Neo beats TensorFHE and HEonGPU at every level.
#[test]
fn cost_model_headline_consistency() {
    use neo::ckks::cost::{op_time_us, CostConfig, Operation};
    let dev = DeviceModel::a100();
    let (pa, pc, pe) = (
        ParamSet::A.params(),
        ParamSet::C.params(),
        ParamSet::E.params(),
    );
    for l in [11usize, 23, 35] {
        let neo_t = op_time_us(&dev, &pc, l, Operation::HMult, &CostConfig::neo());
        let tf = op_time_us(&dev, &pa, l, Operation::HMult, &CostConfig::tensorfhe());
        let he = op_time_us(&dev, &pe, l, Operation::HMult, &CostConfig::heongpu());
        assert!(neo_t < tf, "level {l}: Neo {neo_t} !< TensorFHE {tf}");
        assert!(neo_t < he, "level {l}: Neo {neo_t} !< HEonGPU {he}");
    }
}

/// Set-C KLSS geometry invariants used throughout the paper.
#[test]
fn paper_geometry_invariants() {
    let p = ParamSet::C.params();
    assert_eq!((p.alpha(), p.alpha_prime()), (4, 8));
    assert_eq!((p.beta(35), p.beta_tilde(35)), (9, 8));
    assert_eq!(p.n(), 1 << 16);
    // Booth complexities of Section 3.4.
    assert_eq!(neo::tcu::booth_complexity_fp64(36), 3);
    assert_eq!(neo::tcu::booth_complexity_int8(36), 25);
    assert_eq!(neo::tcu::booth_complexity_fp64(48), 4);
    assert_eq!(neo::tcu::booth_complexity_int8(48), 36);
}

/// Engines are interchangeable in a single GEMM (spot check at the root
/// so the umbrella crate exercises the whole dependency chain).
#[test]
fn umbrella_reexports_work_together() {
    use neo::tcu::GemmEngine;
    let q = neo::math::Modulus::new(neo::math::primes::ntt_primes(36, 64, 1).unwrap()[0]).unwrap();
    let a = vec![3u64; 8 * 4];
    let b = vec![5u64; 4 * 8];
    let mut c1 = vec![0u64; 64];
    let mut c2 = vec![0u64; 64];
    ScalarGemm.gemm(&[q; 8], &a, &b, 8, 4, 8, &mut c1);
    Fp64TcuGemm::for_word_size(36).gemm(&[q; 8], &a, &b, 8, 4, 8, &mut c2);
    assert_eq!(c1, c2);
    assert!(c1.iter().all(|&v| v == 60));
}
