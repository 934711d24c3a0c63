//! The work counters are process-wide, so a concurrent test's spot
//! checks would land in this test's recorded deltas: it lives in a binary
//! of its own.

use neo_ntt::{radix2, spot_check_transform, NttPlan};
use neo_trace::Counter;

/// The plan re-hash runs on the first spot check that uses a plan object
/// and is remembered there: later checks charge only the identities'
/// `3n` MACs, and a clone is re-hashed again before it is trusted.
#[test]
fn the_plan_rehash_runs_once_per_plan_object() {
    let n = 64;
    let q = neo_math::primes::ntt_primes(36, n, 1).unwrap()[0];
    let plan = NttPlan::new(q, n).unwrap();
    let coeffs: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % q).collect();
    let mut evals = coeffs.clone();
    radix2::forward(&plan, &mut evals);
    let macs = |p: &NttPlan| {
        let (r, w) = neo_trace::record(|| spot_check_transform(p, &coeffs, &evals, 0, true, 1));
        r.unwrap();
        w.get(Counter::AbftMacs)
    };
    let n = n as u64;
    assert_eq!(macs(&plan), 11 * n);
    assert_eq!(macs(&plan), 3 * n);
    let copy = plan.clone();
    assert_eq!(macs(&copy), 11 * n);
    assert_eq!(macs(&copy), 3 * n);
    assert_eq!(macs(&plan), 3 * n);
}
