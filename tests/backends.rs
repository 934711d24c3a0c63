//! Cross-backend bit-identity: the portable and SIMD compute backends
//! must produce byte-for-byte equal outputs on every kernel the
//! [`neo_math::ComputeBackend`] seam covers — forward/inverse NTT, RNS
//! base conversion, the fused multiply-accumulate and the KLSS inner
//! product over packed key rows — across random primes on both sides of
//! the SIMD backend's `2^50` IFMA bound and bootstrapping-adjacent
//! degrees. The modular GEMM is no backend kernel: its ABFT-checked
//! CUDA-core engine is pinned against the oracle instead. The
//! kernel tests pin each backend on the kernel objects in one process.
//! The backend is a process-wide fact above them, so whole CKKS
//! operations and a session-store round trip are compared against a
//! child process that re-runs this binary under the other `NEO_BACKEND`.
//! Equality of canonical outputs (not just congruence) is the contract
//! that makes the backend a pure throughput knob: ABFT checksums,
//! integrity tokens, stored sessions and golden test vectors all remain
//! valid regardless of which backend computed them.

use neo_math::backend::{self, Start};
use neo_math::{packed, BackendKind, BconvTable, Modulus, RnsBasis};
use neo_ntt::{radix2, NttPlan};
use neo_tcu::{reference_gemm, CheckedGemm, ScalarGemm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Serialises the tests that run NTTs: `engine_detects_injected_ntt_fault`
/// arms a process-wide once-only NTT-stage fault, which a transform on
/// another test thread could otherwise draw.
fn ntt_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn random_vec(rng: &mut StdRng, len: usize, q: u64) -> Vec<u64> {
    (0..len).map(|_| rng.gen_range(0..q)).collect()
}

proptest! {
    // Each case builds fresh plans at large degrees; keep the counts low
    // (the deterministic #[test] cases below pin the n = 2^14 corner).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Forward and inverse NTT agree bit-for-bit across backends, and the
    /// SIMD round trip restores the input exactly.
    #[test]
    fn ntt_is_bit_identical_across_backends(
        seed in any::<u64>(),
        bits in 30u32..=59,
        log_n in 10u32..=13,
    ) {
        let _l = ntt_lock();
        let n = 1usize << log_n;
        let q = neo_math::primes::ntt_primes(bits, n, 1).unwrap()[0];
        let portable = NttPlan::with_backend(q, n, BackendKind::Portable).unwrap();
        let simd = NttPlan::with_backend(q, n, BackendKind::Simd).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(&mut rng, n, q);
        let (mut fp, mut fs) = (a.clone(), a.clone());
        radix2::forward(&portable, &mut fp);
        radix2::forward(&simd, &mut fs);
        prop_assert_eq!(&fp, &fs, "forward diverged (q={}, n={})", q, n);
        radix2::inverse(&portable, &mut fp);
        radix2::inverse(&simd, &mut fs);
        prop_assert_eq!(&fp, &fs, "inverse diverged (q={}, n={})", q, n);
        prop_assert_eq!(&fs, &a, "round trip lost the input");
    }

    /// Exact and approximate base conversion agree bit-for-bit.
    #[test]
    fn bconv_is_bit_identical_across_backends(
        seed in any::<u64>(),
        src_limbs in 2usize..=4,
        dst_limbs in 2usize..=4,
        n in 33usize..=257,
    ) {
        let src = RnsBasis::new(
            &neo_math::primes::ntt_primes(36, 1 << 10, src_limbs).unwrap(),
        ).unwrap();
        let dst = RnsBasis::new(
            &neo_math::primes::ntt_primes(40, 1 << 10, dst_limbs).unwrap(),
        ).unwrap();
        let portable = BconvTable::new(&src, &dst).unwrap().with_backend(BackendKind::Portable);
        let simd = BconvTable::new(&src, &dst).unwrap().with_backend(BackendKind::Simd);
        let mut rng = StdRng::seed_from_u64(seed);
        let limbs: Vec<Vec<u64>> = src
            .moduli()
            .iter()
            .map(|m| random_vec(&mut rng, n, m.value()))
            .collect();
        prop_assert_eq!(portable.convert_exact(&limbs), simd.convert_exact(&limbs));
        prop_assert_eq!(portable.convert_approx(&limbs), simd.convert_approx(&limbs));
        prop_assert_eq!(portable.scale_limbs(&limbs), simd.scale_limbs(&limbs));
    }

    /// The ABFT-verified scalar GEMM accepts its own products, and they
    /// equal the fully reduced oracle's, across random primes and shapes.
    #[test]
    fn checked_scalar_gemm_matches_the_oracle(
        seed in any::<u64>(),
        bits in 30u32..=61,
        m in 1usize..16,
        k in 1usize..80,
        n in 1usize..16,
    ) {
        let q = Modulus::new(
            neo_math::primes::ntt_primes(bits, 1 << 10, 1).unwrap()[0],
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(&mut rng, m * k, q.value());
        let b = random_vec(&mut rng, k * n, q.value());
        let (mut got, mut want) = (vec![0u64; m * n], vec![0u64; m * n]);
        CheckedGemm::new(ScalarGemm)
            .gemm_verified(&q, &a, &b, m, k, n, &mut got)
            .unwrap();
        reference_gemm(&vec![q; n], &a, &b, m, k, n, &mut want);
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused inner product agrees across backends for 1–8 terms and
    /// ragged lengths, and equals the exact sum reduced once; `saturate`
    /// makes every operand `q − 1`, the largest sum the lanes must hold.
    /// The kernel is write-only: each backend's output starts as its own
    /// random junk, which it must ignore.
    #[test]
    fn mul_acc_is_bit_identical_across_backends(
        seed in any::<u64>(),
        bits in 30u32..=61,
        terms in 1usize..=8,
        len in 1usize..=70,
        saturate in any::<bool>(),
    ) {
        let q = Modulus::new(
            neo_math::primes::ntt_primes(bits, 1 << 4, 1).unwrap()[0],
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u64>> = (0..2 * terms)
            .map(|_| if saturate {
                vec![q.value() - 1; len]
            } else {
                random_vec(&mut rng, len, q.value())
            })
            .collect();
        let xs: Vec<&[u64]> = rows[..terms].iter().map(Vec::as_slice).collect();
        let ys: Vec<&[u64]> = rows[terms..].iter().map(Vec::as_slice).collect();
        let mut junk = || -> Vec<u64> { (0..len).map(|_| rng.gen()).collect() };
        let (mut p, mut s) = (junk(), junk());
        backend::get(BackendKind::Portable).mul_acc(&q, &xs, &ys, Start::Zero, &mut p);
        backend::get(BackendKind::Simd).mul_acc(&q, &xs, &ys, Start::Zero, &mut s);
        let want: Vec<u64> = (0..len)
            .map(|c| {
                let sum = xs.iter().zip(&ys).fold(0u128, |acc, (x, y)| {
                    (acc + u128::from(x[c]) * u128::from(y[c])) % u128::from(q.value())
                });
                sum as u64
            })
            .collect();
        prop_assert_eq!(&p, &want);
        prop_assert_eq!(s, want);
    }

    /// The KLSS inner product over packed key rows agrees across backends
    /// for 1–8 terms, ragged lengths and every packing width from 4 to 8
    /// bytes, and equals two `mul_acc` calls on the unpacked rows; both
    /// outputs start as junk.
    #[test]
    fn klss_ip_is_bit_identical_across_backends(
        seed in any::<u64>(),
        bits in 30u32..=61,
        terms in 1usize..=8,
        len in 1usize..=70,
        saturate in any::<bool>(),
    ) {
        let q = Modulus::new(
            neo_math::primes::ntt_primes(bits, 1 << 4, 1).unwrap()[0],
        ).unwrap();
        let width = bits.div_ceil(8) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row = || if saturate {
            vec![q.value() - 1; len]
        } else {
            random_vec(&mut rng, len, q.value())
        };
        let xs: Vec<Vec<u64>> = (0..terms).map(|_| row()).collect();
        let ks: Vec<[Vec<u64>; 2]> = (0..terms).map(|_| [row(), row()]).collect();
        let packed: Vec<[Vec<u8>; 2]> = ks
            .iter()
            .map(|pair| pair.each_ref().map(|k| packed::pack_row(k, width)))
            .collect();
        let x: Vec<&[u64]> = xs.iter().map(Vec::as_slice).collect();
        let key: Vec<[&[u8]; 2]> = packed
            .iter()
            .map(|pair| pair.each_ref().map(Vec::as_slice))
            .collect();
        let want: Vec<Vec<u64>> = (0..2)
            .map(|c| {
                let k: Vec<&[u64]> = ks.iter().map(|pair| pair[c].as_slice()).collect();
                let mut w = vec![0u64; len];
                backend::get(BackendKind::Portable).mul_acc(&q, &x, &k, Start::Zero, &mut w);
                w
            })
            .collect();
        for kind in [BackendKind::Portable, BackendKind::Simd] {
            let mut junk = || -> Vec<u64> { (0..len).map(|_| rng.gen()).collect() };
            let (mut o0, mut o1) = (junk(), junk());
            backend::get(kind).klss_ip(&q, &x, &key, width, Start::Zero, [&mut o0, &mut o1]);
            prop_assert_eq!(&[o0, o1][..], &want[..], "{}", kind);
        }
    }

    /// `mul_const` accepts raw, unreduced 64-bit inputs; at the
    /// workloads' 36- and 48-bit primes the SIMD backend splits them into
    /// 52-bit halves and must still match.
    #[test]
    fn mul_const_raw_inputs_are_bit_identical_across_backends(
        seed in any::<u64>(),
        wide in any::<bool>(),
        len in 1usize..=70,
    ) {
        let bits = if wide { 48 } else { 36 };
        let q = Modulus::new(
            neo_math::primes::ntt_primes(bits, 1 << 4, 1).unwrap()[0],
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = q.shoup(rng.gen_range(0..q.value()));
        let mut x: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
        x[0] = u64::MAX;
        let (mut p, mut v) = (vec![0u64; len], vec![0u64; len]);
        backend::get(BackendKind::Portable).mul_const(&q, s, &x, &mut p);
        backend::get(BackendKind::Simd).mul_const(&q, s, &x, &mut v);
        prop_assert_eq!(p, v);
    }
}

/// The smallest prime `≥ 2^50` with `q ≡ 1 (mod 2n)`: the first modulus
/// past the IFMA bound.
fn ntt_prime_above_2_50(n: usize) -> u64 {
    let mut q = (1u64 << 50) + 1;
    while !neo_math::primes::is_prime(q) {
        q += 2 * n as u64;
    }
    q
}

/// The acceptance corner pinned deterministically: `n = 2^14` forward and
/// inverse NTT, bit-identical across backends at the workloads' 36- and
/// 48-bit primes, the largest NTT prime below `2^50` (the widest IFMA
/// modulus), the smallest one above it, and a 55-bit prime.
#[test]
fn ntt_n16384_bit_identity() {
    let _l = ntt_lock();
    let n = 1usize << 14;
    let mut primes: Vec<u64> = [36, 48, 50, 55]
        .iter()
        .map(|&bits| neo_math::primes::ntt_primes(bits, n, 1).unwrap()[0])
        .collect();
    primes.push(ntt_prime_above_2_50(n));
    let mut rng = StdRng::seed_from_u64(16384);
    for q in primes {
        let portable = NttPlan::with_backend(q, n, BackendKind::Portable).unwrap();
        let simd = NttPlan::with_backend(q, n, BackendKind::Simd).unwrap();
        let a = random_vec(&mut rng, n, q);
        let (mut fp, mut fs) = (a.clone(), a.clone());
        radix2::forward(&portable, &mut fp);
        radix2::forward(&simd, &mut fs);
        assert_eq!(fp, fs, "forward diverged at q = {q}");
        let mut ip = fp.clone();
        radix2::inverse(&portable, &mut ip);
        radix2::inverse(&simd, &mut fs);
        assert_eq!(ip, fs, "inverse diverged at q = {q}");
        assert_eq!(fs, a, "round trip lost the input at q = {q}");
    }
}

/// `forward(a)[k] = a(ψ^{2·rev(k)+1})` on both pinned backends, checked
/// by Horner evaluation at 16 seeded `k`, at the IFMA widths and past
/// the `2^50` bound.
#[test]
fn ntt_evaluation_order_holds_on_both_backends() {
    let _l = ntt_lock();
    let mut rng = StdRng::seed_from_u64(0x0dd);
    for log_n in [4u32, 10, 14] {
        let n = 1usize << log_n;
        let mut primes: Vec<u64> = [36, 48, 55, 61]
            .iter()
            .map(|&bits| neo_math::primes::ntt_primes(bits, n, 1).unwrap()[0])
            .collect();
        primes.push(ntt_prime_above_2_50(n));
        for q in primes {
            let a = random_vec(&mut rng, n, q);
            let points: Vec<usize> = (0..16).map(|_| rng.gen_range(0..n)).collect();
            for kind in [BackendKind::Portable, BackendKind::Simd] {
                let plan = NttPlan::with_backend(q, n, kind).unwrap();
                let m = plan.modulus();
                let mut y = a.clone();
                radix2::forward(&plan, &mut y);
                for &k in &points {
                    let rev = k.reverse_bits() >> (usize::BITS - log_n);
                    let z = m.pow(plan.psi_pows()[1], 2 * rev as u64 + 1);
                    let at_z = a.iter().rev().fold(0, |acc, &c| m.add(m.mul(acc, z), c));
                    assert_eq!(y[k], at_z, "{kind} n={n} q={q} k={k}");
                }
            }
        }
    }
}

/// Re-runs this test binary's `#[ignore]`d `helper` in a child process
/// under the backend this process does not run (`NEO_BACKEND` is the
/// only selector), checks that the child ran there, and returns the
/// digest it printed.
fn digest_under_other_backend(helper: &str) -> String {
    let other = match BackendKind::detect() {
        BackendKind::Portable => BackendKind::Simd,
        BackendKind::Simd => BackendKind::Portable,
    };
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", helper, "--ignored", "--nocapture"])
        .env("NEO_BACKEND", other.name())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{helper} failed under {other}:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let field = |name: &str| {
        let rest = stdout.split(&format!("{name}=")).nth(1)?;
        rest.split_whitespace().next().map(str::to_owned)
    };
    assert_eq!(field("backend").as_deref(), Some(other.name()), "{stdout}");
    field("digest").unwrap_or_else(|| panic!("{helper} printed no digest:\n{stdout}"))
}

/// The line a child-process helper prints for [`digest_under_other_backend`].
fn print_digest(digest: u64) {
    println!("backend={} digest={digest:016x}", BackendKind::detect());
}

/// Digest of a KLSS HMult→Rescale and an HRotate on `test_small` (engine
/// seed 11): the tensor, key-switch inner product, Mod Down and rescale
/// all run on the process-wide backend.
fn ckks_ops_digest() -> u64 {
    use neo_ckks::{CkksParams, FheEngine, KsMethod};
    use neo_store::codec::encode_ciphertext;

    let _l = ntt_lock();
    let engine = FheEngine::new(CkksParams::test_small(), 11).unwrap();
    assert_eq!(engine.method(), KsMethod::Klss);
    let level = engine.max_level();
    let a = engine.encrypt_f64(&[0.5, -0.25, 1.5], level).unwrap();
    let b = engine.encrypt_f64(&[1.25, 0.75, -2.0], level).unwrap();
    let product = engine.rescale(&engine.hmult(&a, &b).unwrap()).unwrap();
    let mut bytes = encode_ciphertext(&product);
    bytes.extend(encode_ciphertext(&engine.hrotate(&a, 3).unwrap()));
    neo_store::checksum64(&bytes)
}

#[test]
#[ignore = "child process of ckks_ops_are_bit_identical_across_backends"]
fn ckks_ops_digest_helper() {
    print_digest(ckks_ops_digest());
}

/// Whole operations give the same ciphertext bytes in a child process
/// running the other backend.
#[test]
fn ckks_ops_are_bit_identical_across_backends() {
    let own = format!("{:016x}", ckks_ops_digest());
    assert_eq!(digest_under_other_backend("ckks_ops_digest_helper"), own);
}

const STORE_TENANT: u64 = 3;
const STORE_SEED: u64 = 21;

/// The session store a test process writes for its child to open.
fn store_path(writer_pid: u32) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("neo-backends-{writer_pid}.neostore"))
}

/// Digest of the decrypted slots of `ct` and of a rotated square of it,
/// with every key switch refused unless its key is already warm.
fn session_digest(engine: neo_ckks::FheEngine, ct: &neo_ckks::Ciphertext) -> u64 {
    let engine = engine.with_policy(neo_ckks::OpPolicy {
        require_warm_keys: true,
        ..neo_ckks::OpPolicy::default()
    });
    let square = engine.rescale(&engine.hmult(ct, ct).unwrap()).unwrap();
    let rotated = engine.hrotate(&square, 1).unwrap();
    let bytes: Vec<u8> = [ct, &rotated]
        .into_iter()
        .flat_map(|c| engine.decrypt_f64(c).unwrap())
        .flat_map(f64::to_le_bytes)
        .collect();
    neo_store::checksum64(&bytes)
}

#[test]
#[ignore = "child process of store_written_under_one_backend_warm_starts_under_the_other"]
fn store_session_digest_helper() {
    use neo_ckks::{CkksContext, CkksParams};
    use std::sync::Arc;

    let path = store_path(std::os::unix::process::parent_id());
    if !path.exists() {
        eprintln!("{} is missing: run the parent test", path.display());
        return;
    }
    let _l = ntt_lock();
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
    let mut store = neo_store::SessionStore::open(&path, ctx).unwrap();
    assert!(store.has_session(STORE_TENANT), "session not found");
    let engine = store.warm_start(STORE_TENANT).unwrap().expect("warm start");
    let ct = store
        .load_ciphertext(STORE_TENANT, 0)
        .unwrap()
        .expect("saved ciphertext");
    print_digest(session_digest(engine, &ct));
}

/// A `test_tiny` session committed under this process's backend (secret
/// key, warm KSKs, one ciphertext) warm-starts in a child process under
/// the other backend and decrypts to the same slots: no record depends on
/// the backend that wrote it.
#[test]
fn store_written_under_one_backend_warm_starts_under_the_other() {
    use neo_ckks::{CkksContext, CkksParams, FheEngine};
    use std::sync::Arc;

    let path = store_path(std::process::id());
    let _ = std::fs::remove_file(&path);
    let own = {
        let _l = ntt_lock();
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let engine = FheEngine::with_context(Arc::clone(&ctx), STORE_SEED).unwrap();
        let ct = engine
            .encrypt_f64(&[0.5, -1.25, 2.0], engine.max_level())
            .unwrap();
        // Warm the relinearisation key and the rotation key the digest uses.
        let square = engine.rescale(&engine.hmult(&ct, &ct).unwrap()).unwrap();
        engine.hrotate(&square, 1).unwrap();
        let mut store = neo_store::SessionStore::open(&path, ctx).unwrap();
        store
            .save_engine(STORE_TENANT, &engine, STORE_SEED)
            .unwrap();
        store.save_ciphertext(STORE_TENANT, 0, &ct);
        store.commit().unwrap();
        format!("{:016x}", session_digest(engine, &ct))
    };
    let child = digest_under_other_backend("store_session_digest_helper");
    let _ = std::fs::remove_file(&path);
    assert_eq!(child, own);
}

/// An injected NTT-stage fault inside a CKKS engine is detected by the
/// ABFT spot checks on whichever backend the process runs; CI runs this
/// under the detected, the portable and the forced-SIMD backend.
#[test]
fn engine_detects_injected_ntt_fault() {
    use neo_ckks::{encoding::Complex64, CkksParams, ErrorKind, FheEngine, OpPolicy, VerifyPolicy};
    use neo_fault::{FaultPlan, FaultScope, FaultSite, FaultSpec};
    use std::sync::Arc;

    let _l = ntt_lock();
    // Engine ops install their own VerifyScope from the policy, so the
    // always-verify request must live there.
    let engine = FheEngine::new(CkksParams::test_tiny(), 7)
        .unwrap()
        .with_policy(OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        });
    // Encode outside the armed window so the single fault lands inside
    // the encryption's NTTs, not the encoder's.
    let pt = engine
        .encode(&[Complex64::new(0.5, -1.25)], engine.max_level())
        .unwrap();

    let plan = Arc::new(FaultPlan::new(0xf00d).with_site(FaultSite::NttStage, FaultSpec::once()));
    let scope = FaultScope::install(plan.clone());
    let result = engine.encrypt(&pt);
    drop(scope);
    assert_eq!(
        plan.injected(FaultSite::NttStage),
        1,
        "fault was not injected"
    );
    let err = result.expect_err("injected NTT fault must be detected");
    assert_eq!(err.kind(), ErrorKind::FaultDetected);
}
