//! Error-path coverage of the fallible CKKS API: every documented refusal
//! returns its typed [`NeoError`] instead of panicking, the engine's
//! policy guardrails fire, and batch execution isolates per-op failures
//! while keeping the valid subset bit-identical to a clean run.

use neo::ckks::ops;
use neo::math::{Domain, RnsPoly};
use neo::prelude::*;
use neo::store::codec;
use neo_bench::run_sequential;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn engine() -> FheEngine {
    FheEngine::new(CkksParams::test_tiny(), 7).unwrap()
}

#[test]
fn rescale_at_level_zero_is_chain_exhausted() {
    let e = engine();
    let mut ct = e.encrypt_f64(&[0.5], 1).unwrap();
    ct = e.rescale(&ct).unwrap();
    assert_eq!(ct.level(), 0);
    let err = e.rescale(&ct).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ModulusChainExhausted);
    let err = e.double_rescale(&ct).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ModulusChainExhausted);
}

#[test]
fn level_mismatch_without_auto_align() {
    let mut e = engine();
    e.set_policy(OpPolicy {
        auto_align_levels: false,
        ..OpPolicy::default()
    });
    let a = e.encrypt_f64(&[1.0], 3).unwrap();
    let b = e.encrypt_f64(&[1.0], 2).unwrap();
    for err in [
        e.hadd(&a, &b).unwrap_err(),
        e.hsub(&a, &b).unwrap_err(),
        e.hmult(&a, &b).unwrap_err(),
    ] {
        assert_eq!(err.kind(), ErrorKind::LevelMismatch);
    }
    // The default policy aligns instead of refusing.
    e.set_policy(OpPolicy::default());
    assert_eq!(e.hadd(&a, &b).unwrap().level(), 2);
}

#[test]
fn scale_mismatch_is_typed() {
    let e = engine();
    let a = e.encrypt_f64(&[0.5], 3).unwrap();
    let sq = e.hmult(&a, &a).unwrap(); // scale Δ²
    let err = ops::try_hadd(e.context(), &sq, &a).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ScaleMismatch);
}

#[test]
fn level_reduce_cannot_raise() {
    let e = engine();
    let a = e.encrypt_f64(&[0.5], 2).unwrap();
    let err = e.level_reduce(&a, 3).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ParameterMismatch);
}

#[test]
fn encode_overflow_and_level_bounds_are_invalid_params() {
    let e = engine();
    let too_many = vec![0.1; e.slots() + 1];
    assert_eq!(
        e.encode_f64(&too_many, 3).unwrap_err().kind(),
        ErrorKind::InvalidParams
    );
    assert_eq!(
        e.encrypt_f64(&[0.1], e.max_level() + 1).unwrap_err().kind(),
        ErrorKind::ParameterMismatch
    );
}

#[test]
fn noise_floor_guardrail_fires() {
    let mut e = engine();
    e.set_policy(OpPolicy {
        min_noise_budget_bits: 1e6, // impossible floor: everything refused
        ..OpPolicy::default()
    });
    let a = e.encrypt_f64(&[0.5], 3).unwrap();
    let err = e.hmult(&a, &a).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::NoiseBudgetExhausted);
}

#[test]
fn warm_key_policy_refuses_cold_keys() {
    let mut e = engine();
    e.set_policy(OpPolicy {
        require_warm_keys: true,
        ..OpPolicy::default()
    });
    let a = e.encrypt_f64(&[0.5], 3).unwrap();
    let err = e.hrotate(&a, 1).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::KeySwitchKeyMissing);
}

#[test]
fn error_counters_tally_by_kind() {
    let e = engine();
    let a = e.encrypt_f64(&[0.5], 1).unwrap();
    let low = e.rescale(&a).unwrap();
    let before = neo::trace::error_count(ErrorKind::ModulusChainExhausted.name());
    let _ = e.rescale(&low).unwrap_err();
    // Other tests in this binary may tally concurrently; monotonic check.
    let after = neo::trace::error_count(ErrorKind::ModulusChainExhausted.name());
    assert!(after > before);
}

/// The site a [`NeoError::ParameterMismatch`] names.
fn mismatch_site(err: &NeoError) -> &'static str {
    match err {
        NeoError::ParameterMismatch { op, .. } => op,
        other => panic!("expected a parameter mismatch, got {other}"),
    }
}

/// `try_ntt_forward`/`try_ntt_inverse` refuse a poly in the wrong domain,
/// with a limb count other than `moduli.len()`, or of another degree than
/// the context's: a typed error, the input left alone, no panic.
#[test]
fn try_ntt_refuses_bad_inputs() {
    let e = engine();
    let ctx = e.context();
    let moduli = ctx.q_moduli(2).to_vec();
    let n = ctx.degree();
    let mut rng = StdRng::seed_from_u64(5);
    for (site, from, to) in [
        ("ntt_forward", Domain::Coeff, Domain::Ntt),
        ("ntt_inverse", Domain::Ntt, Domain::Coeff),
    ] {
        let bad = [
            RnsPoly::random_uniform(&mut rng, n, &moduli, to),
            RnsPoly::random_uniform(&mut rng, n, &moduli[..2], from),
            RnsPoly::random_uniform(&mut rng, n / 2, &moduli, from),
        ];
        for poly in bad {
            let mut p = poly.clone();
            let err = match from {
                Domain::Coeff => ctx.try_ntt_forward(&mut p, &moduli),
                Domain::Ntt => ctx.try_ntt_inverse(&mut p, &moduli),
            }
            .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::ParameterMismatch, "{err}");
            assert_eq!(mismatch_site(&err), site);
            assert_eq!(p, poly, "a refused transform must not touch its input");
        }
    }
}

/// A ciphertext whose polys are tagged NTT-domain, as the store's
/// `decode_ciphertext` accepts it, is refused by every op that
/// transforms it.
#[test]
fn ntt_domain_ciphertexts_are_refused() {
    let e = engine();
    let level = e.max_level();
    let ct = e.encrypt_f64(&[0.5, -0.25], level).unwrap();
    let tag = |p: &RnsPoly| RnsPoly::from_limbs(p.limbs().to_vec(), Domain::Ntt).unwrap();
    let tagged = Ciphertext::new(tag(ct.c0()), tag(ct.c1()), ct.scale(), level);
    let bad = codec::decode_ciphertext(&codec::encode_ciphertext(&tagged)).unwrap();
    let pt = e.encode_f64(&[2.0], level).unwrap();
    for err in [
        e.hmult(&bad, &ct).unwrap_err(),
        e.hmult(&ct, &bad).unwrap_err(),
        e.pmult(&bad, &pt).unwrap_err(),
        e.decrypt(&bad).unwrap_err(),
    ] {
        assert_eq!(err.kind(), ErrorKind::ParameterMismatch, "{err}");
        assert_eq!(mismatch_site(&err), "ntt_forward");
    }
}

/// A ciphertext deeper than the chain is refused by every op, linear
/// transforms and polynomial evaluation included, with the typed error
/// encrypt, decrypt and rotation already give, never a panic.
#[test]
fn ciphertexts_deeper_than_the_chain_are_refused() {
    let e = engine();
    let ctx = e.context();
    let level = e.max_level() + 2;
    let deep = || RnsPoly::zero(ctx.degree(), level + 1, Domain::Coeff);
    let ct = Ciphertext::new(deep(), deep(), e.default_scale(), level);
    let pt = Plaintext::new(deep(), e.default_scale(), level);
    // Diagonal 0 alone: no rotation runs before the first encode.
    let ones = vec![Complex64::new(1.0, 0.0); e.slots()];
    let identity = LinearTransform::try_from_diagonals(e.slots(), [(0, ones)].into()).unwrap();
    for err in [
        e.apply_transform(&identity, &ct).unwrap_err(),
        e.apply_transform_bsgs(&identity, &ct).unwrap_err(),
        e.eval_polynomial(&ct, &[0.5, 1.0]).unwrap_err(),
        e.hadd(&ct, &ct).unwrap_err(),
        e.hsub(&ct, &ct).unwrap_err(),
        e.padd(&ct, &pt).unwrap_err(),
        e.pmult(&ct, &pt).unwrap_err(),
        e.hmult(&ct, &ct).unwrap_err(),
        e.rescale(&ct).unwrap_err(),
        e.hrotate(&ct, 1).unwrap_err(),
        ops::try_pmult(ctx, &ct, &pt).unwrap_err(),
    ] {
        assert_eq!(err.kind(), ErrorKind::ParameterMismatch, "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Binary ops on operands with arbitrary (possibly mismatched)
    /// levels either succeed or return one of the documented kinds —
    /// they never panic.
    #[test]
    fn binary_ops_never_panic(la in 0usize..=5, lb in 0usize..=5, seed in any::<u64>()) {
        let mut e = FheEngine::new(CkksParams::test_tiny(), seed % 32).unwrap();
        e.set_policy(OpPolicy { auto_align_levels: false, ..OpPolicy::default() });
        let a = e.encrypt_f64(&[0.5, -0.25], la).unwrap();
        let b = e.encrypt_f64(&[0.125, 1.0], lb).unwrap();
        for r in [e.hadd(&a, &b), e.hsub(&a, &b), e.hmult(&a, &b)] {
            match r {
                // Mismatched levels are always refused as LevelMismatch;
                // at equal-but-low levels hmult may instead refuse with
                // NoiseBudgetExhausted (a Δ² product at the chain's tail
                // has no budget left). Nothing panics.
                Err(err) if la != lb => {
                    prop_assert_eq!(err.kind(), ErrorKind::LevelMismatch);
                }
                Err(err) => {
                    prop_assert_eq!(err.kind(), ErrorKind::NoiseBudgetExhausted);
                }
                Ok(_) => prop_assert_eq!(la, lb),
            }
        }
    }

    /// Rescale chains refuse exactly at chain exhaustion, with the
    /// documented kind, at every starting level.
    #[test]
    fn rescale_chain_fails_exactly_at_zero(start in 0usize..=5) {
        let e = engine();
        let mut ct = e.encrypt_f64(&[0.5], start).unwrap();
        for _ in 0..start {
            ct = e.rescale(&ct).unwrap();
        }
        prop_assert_eq!(ct.level(), 0);
        prop_assert_eq!(
            e.rescale(&ct).unwrap_err().kind(),
            ErrorKind::ModulusChainExhausted
        );
    }
}

fn chest_and_inputs(seed: u64, count: usize) -> (KeyChest, Vec<Ciphertext>) {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
    let enc = Encoder::new(ctx.degree());
    let level = ctx.params().max_level;
    let scale = ctx.params().scale();
    let inputs: Vec<_> = (0..count)
        .map(|i| {
            let vals: Vec<Complex64> = (0..enc.slots())
                .map(|j| Complex64::new(((i * 29 + j * 3) % 17) as f64 / 17.0 - 0.3, 0.0))
                .collect();
            let pt = enc.encode(&ctx, &vals, scale, level);
            ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap()
        })
        .collect();
    (KeyChest::new(ctx, sk, seed ^ 0xbad5eed), inputs)
}

/// Acceptance criterion: a batch with injected invalid operations still
/// returns results for every valid operation — bit-identical to a run
/// without the invalid ops — plus a structured error for the failed op
/// and `PoisonedInput` for its dependents, exactly as the sequential
/// reference does.
#[test]
fn batch_isolates_injected_failures() {
    let (chest, inputs) = chest_and_inputs(5, 2);

    // The clean program: a diamond of valid work.
    let mut clean = BatchProgram::new();
    let m = clean
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(1)))
        .unwrap();
    let r = clean.try_push(BatchOp::Rescale(m)).unwrap();
    let left = clean.try_push(BatchOp::HRotate(r, 2)).unwrap();
    let right = clean.try_push(BatchOp::HRotate(r, 3)).unwrap();
    clean.try_push(BatchOp::HAdd(left, right)).unwrap();
    let n_clean = clean.ops.len();

    // Same program plus injected invalid work appended at the end:
    // a Δ² product HAdd-ed to a Δ input (scale mismatch), and a
    // rotation of that failed sum (poisoned downstream).
    let mut dirty = clean.clone();
    let sq = dirty
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
        .unwrap();
    let bad = dirty.try_push(BatchOp::HAdd(sq, Slot::Input(1))).unwrap();
    let poisoned = dirty.try_push(BatchOp::HRotate(bad, 1)).unwrap();

    let want = clean.execute(&chest, &inputs, KsMethod::Klss).unwrap();
    let got = dirty.execute(&chest, &inputs, KsMethod::Klss).unwrap();
    assert_eq!(got.len(), n_clean + 3);
    assert_eq!(
        got,
        run_sequential(&dirty, &chest, &inputs, KsMethod::Klss),
        "executor diverged from the sequential reference"
    );

    // Every valid op still produced its result, bit-identical.
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(
            w.as_ref().unwrap(),
            g.as_ref().unwrap(),
            "valid op {i} diverged from the clean run"
        );
    }
    // The injected square itself is fine; the mismatched add carries
    // its typed error; the dependent rotation is poisoned with the
    // upstream index.
    let (sq_i, bad_i, poisoned_i) = match (sq, bad, poisoned) {
        (Slot::Op(a), Slot::Op(b), Slot::Op(c)) => (a, b, c),
        _ => unreachable!(),
    };
    assert!(got[sq_i].is_ok());
    assert_eq!(
        got[bad_i].as_ref().unwrap_err().kind(),
        ErrorKind::ScaleMismatch
    );
    match got[poisoned_i].as_ref().unwrap_err() {
        NeoError::PoisonedInput { op_index, upstream } => {
            assert_eq!(*op_index, poisoned_i);
            assert_eq!(*upstream, bad_i);
        }
        other => panic!("expected PoisonedInput, got {other:?}"),
    }
}

/// Program-wide problems surface on the outer `Result`.
#[test]
fn batch_outer_errors_are_typed() {
    let (chest, inputs) = chest_and_inputs(6, 1);
    let mut prog = BatchProgram::new();
    prog.try_push(BatchOp::HRotate(Slot::Input(3), 1)).unwrap();
    let err = prog.execute(&chest, &inputs, KsMethod::Klss).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ParameterMismatch);

    let err = BatchProgram::new()
        .try_push(BatchOp::Rescale(Slot::Op(0)))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidParams);
}
