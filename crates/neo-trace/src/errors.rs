//! Process-wide error tallies, keyed by error-kind name.
//!
//! The fallible API layer (`neo-error`) reports every constructed error
//! here so a long-running service can answer "how many requests failed,
//! and why" without scraping logs. Unlike the work [`crate::counters`],
//! error tallies are *not* gated on [`crate::enabled`]: errors are cold
//! by definition, and refusing an op is exactly the moment telemetry must
//! not be off. The backing store is a mutex-guarded map — contention is
//! irrelevant on a path that fires once per refused operation.

use std::collections::BTreeMap;
use std::sync::Mutex;

static ERRORS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Tallies one error of the given kind. `kind` must be a stable
/// `snake_case` name (the `ErrorKind::name()` of the error crate).
pub fn count_error(kind: &'static str) {
    let mut map = ERRORS.lock().unwrap_or_else(|e| e.into_inner());
    *map.entry(kind).or_insert(0) += 1;
}

/// The tally of one error kind since the process-wide counters were last
/// reset.
pub fn error_count(kind: &str) -> u64 {
    let map = ERRORS.lock().unwrap_or_else(|e| e.into_inner());
    map.get(kind).copied().unwrap_or(0)
}

/// All `(kind, count)` pairs with a non-zero tally, sorted by kind name.
pub fn error_counts() -> Vec<(&'static str, u64)> {
    let map = ERRORS.lock().unwrap_or_else(|e| e.into_inner());
    map.iter()
        .filter(|(_, &v)| v != 0)
        .map(|(&k, &v)| (k, v))
        .collect()
}

/// Zeroes every error tally.
pub(crate) fn reset_errors() {
    ERRORS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_accumulate_per_kind() {
        // Use names no other test touches, and run under the record()
        // lock so the reset regression test below cannot clear the map
        // between our increments and assertions.
        let _ = crate::record(|| {
            count_error("test_kind_a");
            count_error("test_kind_a");
            count_error("test_kind_b");
            assert!(error_count("test_kind_a") >= 2);
            assert!(error_count("test_kind_b") >= 1);
            assert_eq!(error_count("test_kind_never"), 0);
            assert!(error_counts().iter().any(|&(k, _)| k == "test_kind_a"));
        });
    }

    #[test]
    fn reset_clears_error_tallies() {
        // Regression: `neo_trace::reset()` must zero the per-kind error
        // tallies along with the work counters and spans — a stale tally
        // surviving reset() would double-count every error in long-running
        // sessions that reset between batches. Runs under the record()
        // lock so the process-wide clear cannot race the tally test above.
        let _ = crate::record(|| {
            count_error("test_reset_kind");
            assert!(error_count("test_reset_kind") >= 1);
            crate::reset();
            assert_eq!(error_count("test_reset_kind"), 0);
            assert!(error_counts().iter().all(|&(k, _)| k != "test_reset_kind"));
        });
    }
}
