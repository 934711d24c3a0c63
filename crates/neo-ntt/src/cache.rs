//! Process-wide cache of [`NttPlan`]s keyed by `(q, n)`.
//!
//! Plan construction is expensive — four power tables plus two Shoup
//! twiddle tables, each `O(n)` multiplications — and the CKKS stack asks
//! for the same handful of `(prime, degree)` pairs from many call sites
//! (context setup, key switching, kernels, tests). The cache hands out
//! `Arc`s so a plan is built once per process and shared freely across
//! threads.
//!
//! The cache keeps its own hit/miss/discard/eviction tallies (see
//! [`stats`]) — the one place each cache event is counted.
//! [`publish_cache_metrics`] copies them into `ntt_plan_cache_*` gauges
//! of the `neo-trace` registry on demand, so the hot path stays untouched.

use crate::NttPlan;
use neo_math::MathError;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

/// A resident plan plus the integrity token captured when it entered the
/// cache. The token is stored *beside* the plan (not just inside it) so a
/// corrupted-in-memory plan cannot vouch for itself: quarantine compares
/// the live tables against the token recorded at insertion.
struct CachedPlan {
    plan: Arc<NttPlan>,
    token: u64,
}

/// Plans are built with [`NttPlan::new`], so every resident plan runs on
/// the process-wide backend.
type PlanMap = HashMap<(u64, usize), CachedPlan>;

static PLAN_CACHE: LazyLock<RwLock<PlanMap>> = LazyLock::new(|| RwLock::new(HashMap::new()));

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static DISCARDED: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the cache's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to build a plan.
    pub misses: u64,
    /// Plans built by a thread that lost the insertion race and were
    /// thrown away (each one is wasted `O(n)` work — benign, but visible).
    pub discarded_builds: u64,
    /// Plans evicted by [`quarantine_corrupt`] because their tables no
    /// longer matched the insertion-time integrity token.
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
}

/// Returns the cached plan for `(q, n)`, building and inserting it on the
/// first request. Concurrent callers for the same key all receive the
/// same `Arc`. A race may build a plan twice; only one instance is kept
/// and the loser is counted in [`CacheStats::discarded_builds`].
///
/// # Errors
///
/// Propagates [`NttPlan::new`] errors; failures are not cached.
pub fn get_or_build(q: u64, n: usize) -> Result<Arc<NttPlan>, MathError> {
    // Clone out of a scoped read guard: the injection path below needs
    // the write lock, which would deadlock under a live read guard.
    let hit = {
        let cache = PLAN_CACHE.read();
        cache.get(&(q, n)).map(|e| e.plan.clone())
    };
    if let Some(plan) = hit {
        HITS.fetch_add(1, Ordering::Relaxed);
        // Fault injection: serve (and keep serving) a plan whose twiddle
        // tables rotted after insertion. The stored token still describes
        // the clean tables, so quarantine_corrupt() can convict it.
        if neo_fault::armed() {
            if let Some(h) = neo_fault::draw_entropy(neo_fault::FaultSite::NttPlan) {
                let poisoned = Arc::new(plan.poisoned_clone(h));
                if let Some(entry) = PLAN_CACHE.write().get_mut(&(q, n)) {
                    entry.plan = poisoned.clone();
                }
                return Ok(poisoned);
            }
        }
        return Ok(plan);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    // Build outside the write lock: construction costs O(n) multiplies
    // and other keys shouldn't wait on it.
    let built = Arc::new(NttPlan::new(q, n)?);
    let mut cache = PLAN_CACHE.write();
    match cache.entry((q, n)) {
        Entry::Occupied(e) => {
            // Another thread built the same plan first; ours is discarded.
            DISCARDED.fetch_add(1, Ordering::Relaxed);
            Ok(e.get().plan.clone())
        }
        Entry::Vacant(v) => {
            let token = built.integrity_token();
            Ok(v.insert(CachedPlan { plan: built, token }).plan.clone())
        }
    }
}

/// Audits every resident plan against its insertion-time integrity token,
/// evicting and rebuilding the ones that fail. Returns the number of
/// plans quarantined. Outstanding `Arc`s to a poisoned plan stay alive
/// (and stay poisoned) — callers must re-fetch after a detected fault,
/// which is exactly what the retrying executors do.
pub fn quarantine_corrupt() -> usize {
    let mut cache = PLAN_CACHE.write();
    let corrupt: Vec<(u64, usize)> = cache
        .iter()
        .filter(|(_, e)| e.plan.checksum() != e.token)
        .map(|(&k, _)| k)
        .collect();
    for &(q, n) in &corrupt {
        cache.remove(&(q, n));
        EVICTIONS.fetch_add(1, Ordering::Relaxed);
        // Rebuild once: the key built successfully before, so a failure
        // here (impossible for a previously valid (q, n)) just leaves the
        // entry absent for the next get_or_build to rebuild.
        if let Ok(fresh) = NttPlan::new(q, n) {
            let fresh = Arc::new(fresh);
            let token = fresh.integrity_token();
            cache.insert((q, n), CachedPlan { plan: fresh, token });
        }
    }
    corrupt.len()
}

/// Number of plans currently cached (diagnostics/tests).
pub fn cached_plans() -> usize {
    PLAN_CACHE.read().len()
}

/// Lifetime hit/miss/discard statistics plus current entry count.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        discarded_builds: DISCARDED.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        entries: cached_plans(),
    }
}

/// Copies the lifetime statistics ([`stats`]) into `ntt_plan_cache_*`
/// gauges of the default `neo-trace` registry. Call before
/// [`neo_trace::MetricsRegistry::snapshot`] to get fresh values; a no-op
/// while the telemetry gate is off.
pub fn publish_cache_metrics() {
    if !neo_trace::enabled() {
        return;
    }
    let s = stats();
    neo_trace::gauge("ntt_plan_cache_hits", &[]).set(s.hits as f64);
    neo_trace::gauge("ntt_plan_cache_misses", &[]).set(s.misses as f64);
    neo_trace::gauge("ntt_plan_cache_discarded_builds", &[]).set(s.discarded_builds as f64);
    neo_trace::gauge("ntt_plan_cache_evictions", &[]).set(s.evictions as f64);
    neo_trace::gauge("ntt_plan_cache_entries", &[]).set(s.entries as f64);
}

/// Empties the cache and zeroes the statistics. Intended for tests that
/// need a cold cache; outstanding `Arc`s stay valid.
pub fn clear() {
    let mut cache = PLAN_CACHE.write();
    cache.clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    DISCARDED.store(0, Ordering::Relaxed);
    EVICTIONS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::primes;
    use std::sync::Mutex;

    /// `clear()` wipes the shared cache, so tests in this module (which
    /// the harness runs in parallel threads) serialise through this lock.
    static CACHE_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        CACHE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn repeated_requests_share_one_arc() {
        let _g = lock();
        let q = primes::ntt_primes(36, 128, 1).unwrap()[0];
        let a = get_or_build(q, 128).unwrap();
        let b = get_or_build(q, 128).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.degree(), 128);
        assert_eq!(a.modulus().value(), q);
    }

    #[test]
    fn distinct_keys_get_distinct_plans() {
        let _g = lock();
        let qs = primes::ntt_primes(36, 64, 2).unwrap();
        let a = get_or_build(qs[0], 64).unwrap();
        let b = get_or_build(qs[1], 64).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(cached_plans() >= 2);
    }

    #[test]
    fn concurrent_callers_converge_on_one_plan() {
        let _g = lock();
        let q = primes::ntt_primes(36, 256, 1).unwrap()[0];
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || get_or_build(q, 256).unwrap()))
            .collect();
        let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p), "cache returned different Arcs");
        }
    }

    #[test]
    fn errors_are_propagated_not_cached() {
        let _g = lock();
        assert!(get_or_build(6, 64).is_err()); // composite q
        let q = primes::ntt_primes(36, 64, 1).unwrap()[0];
        assert!(get_or_build(q, 48).is_err()); // degree not a power of two
    }

    #[test]
    fn stats_track_miss_then_hits() {
        let _g = lock();
        clear();
        assert_eq!(stats(), CacheStats::default());
        let q = primes::ntt_primes(36, 512, 1).unwrap()[0];
        let _a = get_or_build(q, 512).unwrap();
        let _b = get_or_build(q, 512).unwrap();
        let _c = get_or_build(q, 512).unwrap();
        let s = stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.entries, 1);
        // Sequential use never discards a build.
        assert_eq!(s.discarded_builds, 0);
    }

    #[test]
    fn clear_empties_cache_and_resets_stats() {
        let _g = lock();
        let q = primes::ntt_primes(36, 1024, 1).unwrap()[0];
        let plan = get_or_build(q, 1024).unwrap();
        assert!(cached_plans() >= 1);
        clear();
        assert_eq!(cached_plans(), 0);
        assert_eq!(stats(), CacheStats::default());
        // The Arc we already hold survives the purge.
        assert_eq!(plan.degree(), 1024);
        // Re-requesting rebuilds (a fresh miss).
        let rebuilt = get_or_build(q, 1024).unwrap();
        assert!(!Arc::ptr_eq(&plan, &rebuilt));
        assert_eq!(stats().misses, 1);
    }

    #[test]
    fn cache_gauges_mirror_stats() {
        let _g = lock();
        clear();
        let q = primes::ntt_primes(36, 128, 1).unwrap()[0];
        let _a = get_or_build(q, 128).unwrap();
        let _b = get_or_build(q, 128).unwrap();
        let (snap, _) = neo_trace::record(|| {
            publish_cache_metrics();
            neo_trace::registry().snapshot()
        });
        // At least this test's miss and hit: verify.rs's tests share the
        // process-wide cache without taking this module's lock.
        for name in ["misses", "hits", "entries"] {
            let v = snap.gauge(&format!("ntt_plan_cache_{name}"), &[]);
            assert!(v.is_some_and(|v| v >= 1.0), "{name}: {v:?}");
        }
        clear();
    }

    #[test]
    fn racing_builders_are_counted_not_leaked() {
        let _g = lock();
        clear();
        let q = primes::ntt_primes(36, 2048, 1).unwrap()[0];
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let b = barrier.clone();
                std::thread::spawn(move || {
                    b.wait();
                    get_or_build(q, 2048).unwrap()
                })
            })
            .collect();
        let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p));
        }
        let s = stats();
        // Every build beyond the one that was kept must be accounted for
        // as a discard; hits cover the rest.
        assert_eq!(s.entries, 1);
        assert_eq!(s.misses, s.discarded_builds + 1);
        assert_eq!(s.hits + s.misses, 8);
    }
}
