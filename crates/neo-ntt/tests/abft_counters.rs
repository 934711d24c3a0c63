//! The work counters are process-wide, so a concurrent test's spot
//! checks would land in this test's recorded deltas: it lives in a binary
//! of its own.

use neo_ntt::{radix2, spot_check_forward, NttPlan};
use neo_trace::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One forward spot check charges one check and the two identities'
/// `3n` MACs.
#[test]
fn checks_tally_abft_counters() {
    let n = 32;
    let q = neo_math::primes::ntt_primes(36, n, 1).unwrap()[0];
    let p = NttPlan::new(q, n).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let coeffs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
    let mut evals = coeffs.clone();
    radix2::forward(&p, &mut evals);
    let (r, w) = neo_trace::record(|| spot_check_forward(&p, &coeffs, &evals, 0));
    r.unwrap();
    assert_eq!(w.get(Counter::AbftChecks), 1);
    assert_eq!(w.get(Counter::AbftMacs), 3 * 32);
}
