//! The traced run reads `neo-trace` work counters around single
//! operations; they must repeat exactly between two runs with one seed,
//! or counts could not be compared across commits.

use neo_ckks::ops::galois_element;
use neo_ckks::{CkksParams, FheEngine, KeyTarget};
use neo_perfbench::layers::{exact_counts, op_counts, EXACT};

/// One run's per-op counters: a fresh session from `seed`, then one
/// HMult and one HRotate.
fn counts(seed: u64) -> ([u64; 5], [u64; 5]) {
    let engine = FheEngine::new(CkksParams::test_small(), seed).expect("session");
    let level = engine.max_level();
    let n = engine.context().degree();
    for target in [KeyTarget::Relin, KeyTarget::Galois(galois_element(n, 3))] {
        engine
            .chest()
            .warm(level, target, engine.method())
            .expect("key");
    }
    let a = engine.encrypt_f64(&[0.5, -0.25], level).expect("encrypt");
    let b = engine.encrypt_f64(&[1.5, 0.75], level).expect("encrypt");
    let (mult, rot) = op_counts(&engine, &a, &b, 3).expect("ops");
    (exact_counts(&mult), exact_counts(&rot))
}

#[test]
fn per_op_counters_repeat_exactly_across_runs() {
    let first = counts(7);
    let second = counts(7);
    assert_eq!(first, second, "counters {EXACT:?} differ between runs");
    // HMult and HRotate both run NTT butterflies and BConv MACs.
    for c in [first.0, first.1] {
        assert!(c[0] > 0 && c[1] > 0, "{c:?}");
    }
}
