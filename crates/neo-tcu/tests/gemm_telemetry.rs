//! The work counters, the `tcu.gemm` span histogram and the
//! `tcu_abft_detections_total` counter are process-wide, so these tests
//! count exact increments in a binary of their own, where no other test's
//! GEMM or ABFT check runs concurrently.

use neo_math::Modulus;
use neo_tcu::{verify_gemm, GemmEngine, ScalarGemm};
use neo_trace::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_operands(seed: u64, q: &Modulus, len: usize) -> (Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row = || (0..len).map(|_| rng.gen_range(0..q.value())).collect();
    (row(), row())
}

fn modulus() -> Modulus {
    Modulus::new(neo_math::primes::ntt_primes(36, 8, 1).unwrap()[0]).unwrap()
}

#[test]
fn clean_product_verifies_and_tallies() {
    let q = modulus();
    let (a, b) = random_operands(1, &q, 32);
    let mut c = vec![0u64; 64];
    ScalarGemm.gemm(&[q; 8], &a, &b, 8, 4, 8, &mut c);
    let (r, w) = neo_trace::record(|| verify_gemm(&q, &a, &b, 8, 4, 8, &c));
    r.unwrap();
    assert_eq!(w.get(Counter::AbftChecks), 1);
    assert!(w.get(Counter::AbftMacs) > 0);
}

#[test]
fn gemm_span_and_detections_record_under_the_gate() {
    let q = modulus();
    let (a, b) = random_operands(3, &q, 16);
    let mut c = vec![0u64; 16];
    let gemm_ns = neo_trace::span::duration_histogram("tcu.gemm");
    let detections = neo_trace::counter("tcu_abft_detections_total", &[]);
    let ((), _) = neo_trace::record(|| {
        let (timed, detected) = (gemm_ns.count(), detections.get());
        ScalarGemm.gemm(&[q; 4], &a, &b, 4, 4, 4, &mut c);
        assert_eq!(gemm_ns.count(), timed + 1);
        verify_gemm(&q, &a, &b, 4, 4, 4, &c).expect("clean gemm verifies");
        assert_eq!(detections.get(), detected);
        // Corrupt one limb: the check fails and the detection counter moves.
        c[5] ^= 1 << 17;
        assert!(verify_gemm(&q, &a, &b, 4, 4, 4, &c).is_err());
        assert_eq!(detections.get(), detected + 1);
    });
}
