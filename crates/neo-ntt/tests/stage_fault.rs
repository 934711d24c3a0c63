//! An armed `neo-fault` scope is process-wide: any transform on any thread
//! can draw its fault. This test arms a once-only NTT-stage fault, so it
//! lives in a binary of its own, where no other test's transform shares
//! the armed window.

use neo_fault::{FaultPlan, FaultScope, FaultSite, FaultSpec};
use neo_ntt::{radix2, spot_check_forward, NttPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[test]
fn injected_stage_fault_is_detected() {
    let q = neo_math::primes::ntt_primes(36, 64, 1).unwrap()[0];
    let p = NttPlan::new(q, 64).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let coeffs: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
    let fault = Arc::new(FaultPlan::new(21).with_site(FaultSite::NttStage, FaultSpec::once()));
    let scope = FaultScope::install(fault.clone());
    let mut evals = coeffs.clone();
    radix2::forward(&p, &mut evals);
    drop(scope);
    assert_eq!(fault.injected(FaultSite::NttStage), 1);
    assert!(spot_check_forward(&p, &coeffs, &evals, 3).is_err());
}
