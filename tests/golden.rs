//! Golden digests: a fixed-seed `test_small` KLSS session must produce the
//! same ciphertext bytes and the same relinearisation key, bit for bit,
//! across refactors of the transforms, the samplers and the key switch.
//! One Hybrid HMult→Rescale pins the other key switch's Mod Up, inner
//! product and Mod Down. A seven-diagonal BSGS linear transform (baby
//! step 3, three giant rotations) pins the transform under both key
//! switches.
//!
//! Every digest is `neo_store::checksum64` of bytes whose layout does not
//! depend on the evaluation-domain slot order: ciphertexts are encoded in
//! coefficient form, and the key parts are taken back to coefficient form
//! before they are hashed. A change that permutes the NTT output but not
//! the uniform sampler (or the other way round) moves every key `a`-part
//! to a different polynomial and fails here.
//!
//! On a mismatch the test prints every digest it computed, so a change
//! that is meant to move them shows the new constants in one run.

use neo::ckks::encoding::Complex64;
use neo::ckks::keys::KeyTarget;
use neo::ckks::ops::{try_hmult, try_rescale};
use neo::ckks::{CkksParams, FheEngine, KsMethod, LinearTransform};
use neo::math::RnsPoly;
use neo::store::checksum64;
use neo::store::codec::{encode_ciphertext, encode_polys};

const ENGINE_SEED: u64 = 0x601d;
const HMULT_RESCALE: u64 = 0xb3c5_e2d3_cf46_f2b1;
const HROTATE: u64 = 0xb0d2_472e_dfbc_d99e;
const RELIN_A_COEFF: u64 = 0x6876_35d6_4244_26db;
const RELIN_B_COEFF: u64 = 0x6ef5_f32f_8189_bd5c;
const HYBRID_HMULT_RESCALE: u64 = 0x635c_02bb_14d1_4ac0;
const BSGS_KLSS: u64 = 0x6f9b_95dc_361c_31e7;
const BSGS_HYBRID: u64 = 0x581b_c98a_b247_84f3;

/// Seven diagonals: with baby step 3 they fall into the giant groups of
/// shifts 0, 3, 6 and `slots - 1`'s group, over baby steps 0, 1 and 2.
fn seven_diagonals(slots: usize) -> LinearTransform {
    let diagonals = [0, 1, 2, 4, 6, 8, slots - 1]
        .into_iter()
        .map(|d| {
            let diag = (0..slots)
                .map(|i| {
                    let re = ((i * 7 + d * 3) % 13) as f64 / 26.0 - 0.25;
                    Complex64::new(re, ((i + 2 * d) % 5) as f64 / 20.0)
                })
                .collect();
            (d, diag)
        })
        .collect();
    LinearTransform::try_from_diagonals(slots, diagonals).unwrap()
}

/// `polys` (NTT domain) taken back to coefficient form, then encoded.
fn coeff_bytes(engine: &FheEngine, level: usize, mut polys: Vec<RnsPoly>) -> Vec<u8> {
    let ctx = engine.context();
    let qp = ctx.qp_moduli(level);
    for p in &mut polys {
        ctx.try_ntt_inverse(p, &qp).unwrap();
    }
    encode_polys(&polys)
}

#[test]
fn fixed_seed_session_digests_are_pinned() {
    let engine = FheEngine::new(CkksParams::test_small(), ENGINE_SEED).unwrap();
    assert_eq!(engine.method(), KsMethod::Klss);
    let level = engine.max_level();
    let a = engine
        .encrypt_f64(&[0.75, -1.5, 0.125, 2.0], level)
        .unwrap();
    let b = engine
        .encrypt_f64(&[-0.5, 1.25, 3.0, -0.25], level)
        .unwrap();
    let product = engine.rescale(&engine.hmult(&a, &b).unwrap()).unwrap();
    let rotated = engine.hrotate(&a, 5).unwrap();
    let chest = engine.chest();
    let lt = seven_diagonals(engine.slots());
    // The engine picks baby step ⌈√7⌉ = 3 under its own method, KLSS.
    let bsgs_klss = engine.apply_transform_bsgs(&lt, &a).unwrap();
    let bsgs_hybrid = lt
        .try_apply_bsgs(chest, engine.encoder(), &a, 3, KsMethod::Hybrid)
        .unwrap();
    let got = [
        ("HMULT_RESCALE", checksum64(&encode_ciphertext(&product))),
        ("HROTATE", checksum64(&encode_ciphertext(&rotated))),
        (
            "RELIN_A_COEFF",
            checksum64(&coeff_bytes(
                &engine,
                level,
                chest.regen_a_parts(level, KeyTarget::Relin),
            )),
        ),
        (
            "RELIN_B_COEFF",
            checksum64(&coeff_bytes(
                &engine,
                level,
                chest.export_b_parts(level, KeyTarget::Relin).unwrap(),
            )),
        ),
        (
            "HYBRID_HMULT_RESCALE",
            checksum64(&encode_ciphertext(
                &try_rescale(
                    engine.context(),
                    &try_hmult(chest, &a, &b, KsMethod::Hybrid).unwrap(),
                )
                .unwrap(),
            )),
        ),
        ("BSGS_KLSS", checksum64(&encode_ciphertext(&bsgs_klss))),
        ("BSGS_HYBRID", checksum64(&encode_ciphertext(&bsgs_hybrid))),
    ];
    for (name, digest) in got {
        println!("{name}: {digest:#018x}");
    }
    let want = [
        HMULT_RESCALE,
        HROTATE,
        RELIN_A_COEFF,
        RELIN_B_COEFF,
        HYBRID_HMULT_RESCALE,
        BSGS_KLSS,
        BSGS_HYBRID,
    ];
    assert_eq!(got.map(|(_, d)| d), want, "golden digests moved");
}
