//! An armed `neo-fault` scope is process-wide: any plan-cache hit on any
//! thread can draw its fault. This test arms a once-only `NttPlan` fault
//! and clears the shared cache, so it lives in a binary of its own, where
//! no other test's `get_or_build` shares the armed window.

use neo_fault::{FaultPlan, FaultScope, FaultSite, FaultSpec};
use neo_ntt::cache::{clear, get_or_build, quarantine_corrupt, stats};
use std::sync::Arc;

#[test]
fn poisoned_entry_is_quarantined_and_rebuilt() {
    clear();
    let q = neo_math::primes::ntt_primes(36, 64, 1).unwrap()[0];
    let clean = get_or_build(q, 64).unwrap();
    assert_eq!(quarantine_corrupt(), 0, "clean cache has nothing to evict");

    // Poison the resident entry via the injection hook.
    let plan = Arc::new(FaultPlan::new(3).with_site(FaultSite::NttPlan, FaultSpec::once()));
    let scope = FaultScope::install(plan.clone());
    let poisoned = get_or_build(q, 64).unwrap();
    drop(scope);
    assert_eq!(plan.injected(FaultSite::NttPlan), 1);
    assert!(!Arc::ptr_eq(&clean, &poisoned));
    assert!(!poisoned.verify_integrity(), "poison keeps the clean token");
    assert!(clean.verify_integrity());

    // Quarantine convicts exactly one entry and rebuilds it clean.
    assert_eq!(quarantine_corrupt(), 1);
    assert_eq!(stats().evictions, 1);
    let rebuilt = get_or_build(q, 64).unwrap();
    assert!(rebuilt.verify_integrity());
    assert_eq!(rebuilt.integrity_token(), clean.integrity_token());
    assert_eq!(quarantine_corrupt(), 0);
}
