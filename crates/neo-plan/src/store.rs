//! [`PlanStore`] — a concurrent cache of tuned execution plans.

use crate::keys::PlanKey;
use crate::metrics;
use crate::ExecPlan;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Concurrent map from [`PlanKey`] to the winning [`ExecPlan`], with
/// hit/miss accounting.
///
/// The store never evicts: keys embed a full parameter fingerprint, so
/// entries tuned for a stale context simply stop being addressed when the
/// context changes. Share one store across
/// planner and admission via `Arc`.
#[derive(Default)]
pub struct PlanStore {
    map: RwLock<HashMap<PlanKey, ExecPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for PlanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanStore")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl PlanStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a cached plan, counting the outcome (and the
    /// `plan_store_*` metrics when the registry is enabled).
    pub fn get(&self, key: &PlanKey) -> Option<ExecPlan> {
        let found = self.map.read().get(key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        metrics::note_lookup(found.is_some());
        found
    }

    /// Caches `plan` under `key`, replacing any previous entry.
    pub fn insert(&self, key: PlanKey, plan: ExecPlan) {
        let len = {
            let mut m = self.map.write();
            m.insert(key, plan);
            m.len()
        };
        metrics::set_size(len);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// A snapshot of every cached `(key, plan)` pair, sorted by key for
    /// deterministic iteration — what a persistence layer enumerates when
    /// flushing the cache to disk.
    pub fn entries(&self) -> Vec<(PlanKey, ExecPlan)> {
        let mut out: Vec<(PlanKey, ExecPlan)> = self
            .map
            .read()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        out.sort_by_key(|(k, _)| (k.fingerprint, k.shape));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_ckks::CkksParams;

    #[test]
    fn counts_hits_and_misses() {
        let store = PlanStore::new();
        let p = CkksParams::test_tiny();
        let key = PlanKey {
            fingerprint: crate::param_fingerprint(&p),
            shape: 7,
        };
        assert!(store.get(&key).is_none());
        store.insert(key, ExecPlan::unplanned(&p));
        assert!(store.get(&key).is_some());
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.len(), 1);
    }
}
