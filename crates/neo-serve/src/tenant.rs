//! Per-tenant sessions and the registry that owns them.
//!
//! A [`TenantSession`] wraps one [`FheEngine`] — its own secret/public
//! keys, key chest, guardrail policy and recovery budget — while every
//! session built by one [`TenantRegistry`] shares a single
//! [`CkksContext`] `Arc` (prime chains, BConv tables; NTT plans live in
//! the process-wide `neo_ntt` plan cache), so registering ten thousand
//! tenants costs ten thousand key generations, not ten thousand
//! parameter setups.

use neo_ckks::{CkksContext, CkksParams, FheEngine, NeoError, OpPolicy};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Opaque tenant identifier, chosen by the caller at registration.
pub type TenantId = u64;

/// Per-tenant service agreement: engine policy plus the recovery budget
/// the admission layer enforces.
#[derive(Debug, Clone, Copy)]
pub struct TenantConfig {
    /// Guardrail policy installed on the tenant's engine (auto-rescale,
    /// level alignment, noise floor, warm-key requirement, verification).
    pub policy: OpPolicy,
    /// Per-request retry ceiling handed to
    /// [`neo_ckks::BatchProgram::execute_with_report`].
    pub max_retries: u32,
    /// Recovery budget: once a tenant's cumulative retries + recovered
    /// faults exceed this, further submissions are shed with
    /// [`NeoError::Overloaded`] (`what = "retry_budget"`) until
    /// [`TenantSession::reset_budget_window`] is called. A faulty tenant
    /// burning the executor on retries is thereby throttled instead of
    /// taxing its neighbors.
    pub fault_budget: u64,
    /// Maximum queued + executing requests for this tenant; submissions
    /// beyond it are shed with [`NeoError::Overloaded`]
    /// (`what = "tenant_inflight"`).
    pub max_inflight: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            policy: OpPolicy::default(),
            max_retries: neo_ckks::DEFAULT_MAX_RETRIES,
            fault_budget: 64,
            max_inflight: 64,
        }
    }
}

/// One tenant's session: engine plus service-side accounting.
pub struct TenantSession {
    id: TenantId,
    engine: FheEngine,
    cfg: TenantConfig,
    /// Retries + recovered faults charged against `cfg.fault_budget`.
    recovery_spend: AtomicU64,
    /// Requests currently queued or executing.
    inflight: AtomicUsize,
    completed: AtomicU64,
    shed: AtomicU64,
}

impl std::fmt::Debug for TenantSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSession")
            .field("id", &self.id)
            .field("cfg", &self.cfg)
            .field("recovery_spend", &self.recovery_spend())
            .field("inflight", &self.inflight())
            .field("completed", &self.completed())
            .field("shed", &self.shed())
            .finish_non_exhaustive()
    }
}

impl TenantSession {
    fn new(id: TenantId, engine: FheEngine, cfg: TenantConfig) -> Self {
        Self {
            id,
            engine,
            cfg,
            recovery_spend: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The tenant's identifier.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant's engine (keys, policy, encoder).
    pub fn engine(&self) -> &FheEngine {
        &self.engine
    }

    /// The service agreement this session was registered with.
    pub fn config(&self) -> &TenantConfig {
        &self.cfg
    }

    /// Retries + recovered faults charged so far in this budget window.
    pub fn recovery_spend(&self) -> u64 {
        self.recovery_spend.load(Ordering::Relaxed)
    }

    /// Whether the recovery budget is exhausted (new submissions will be
    /// shed until the window resets).
    pub fn budget_exhausted(&self) -> bool {
        self.recovery_spend() > self.cfg.fault_budget
    }

    /// Opens a new budget window (e.g. after the operator clears a fault
    /// or on a periodic accounting boundary).
    pub fn reset_budget_window(&self) {
        self.recovery_spend.store(0, Ordering::Relaxed);
    }

    /// Requests currently queued or executing for this tenant.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Successfully executed requests (including partially failed ones —
    /// the batch ran; per-op errors live in the response).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests shed at admission (queue depth, inflight cap, or budget).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    pub(crate) fn charge_recovery(&self, units: u64) {
        if units > 0 {
            self.recovery_spend.fetch_add(units, Ordering::Relaxed);
        }
    }

    pub(crate) fn try_acquire_inflight(&self) -> bool {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.cfg.max_inflight {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    pub(crate) fn release_inflight(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn note_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }
}

/// The set of registered tenants, all sharing one [`CkksContext`].
pub struct TenantRegistry {
    ctx: Arc<CkksContext>,
    tenants: RwLock<HashMap<TenantId, Arc<TenantSession>>>,
}

impl TenantRegistry {
    /// Builds the shared context once; tenants are registered against it
    /// and run its key-switching method ([`CkksParams::method`]). To run
    /// a planned method, pass the planner's `ExecPlan::params`.
    ///
    /// # Errors
    ///
    /// [`NeoError::Math`] if the parameters fail validation.
    pub fn new(params: CkksParams) -> Result<Self, NeoError> {
        Ok(Self::with_context(Arc::new(CkksContext::new(params)?)))
    }

    /// Wraps an already-built context (e.g. one shared with an existing
    /// engine).
    pub fn with_context(ctx: Arc<CkksContext>) -> Self {
        Self {
            ctx,
            tenants: RwLock::new(HashMap::new()),
        }
    }

    /// The shared parameter context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// Registers a tenant: fresh keys seeded from `seed`, shared context.
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if `id` is already registered;
    /// [`NeoError::FaultDetected`] if the tenant's key generation fails a
    /// transform check (see [`FheEngine::with_context`]).
    pub fn register(
        &self,
        id: TenantId,
        seed: u64,
        cfg: TenantConfig,
    ) -> Result<Arc<TenantSession>, NeoError> {
        let engine = FheEngine::with_context(Arc::clone(&self.ctx), seed)?;
        self.install(id, engine, cfg)
    }

    /// Shared tail of [`Self::register`] and warm-start registration:
    /// applies the config to a built engine and publishes the session.
    pub(crate) fn install(
        &self,
        id: TenantId,
        mut engine: FheEngine,
        cfg: TenantConfig,
    ) -> Result<Arc<TenantSession>, NeoError> {
        engine.set_policy(cfg.policy);
        let session = Arc::new(TenantSession::new(id, engine, cfg));
        let mut map = self.tenants.write();
        if map.contains_key(&id) {
            return Err(NeoError::invalid_params(format!(
                "tenant {id} already registered"
            )));
        }
        map.insert(id, Arc::clone(&session));
        Ok(session)
    }

    /// Registers a tenant from a persisted session, falling back to a
    /// cold [`Self::register`] when `store` holds no session for `id`.
    ///
    /// On a warm start the secret key is decoded from its record, the
    /// public key is replayed bit-identically from the recorded seed,
    /// and every persisted KSK is hydrated from its seed-compressed
    /// `b`-parts — skipping the secret-key multiplications of full
    /// generation. On a cold start the fresh session (keys only; KSKs
    /// are persisted as they warm) is saved back to `store` so the next
    /// boot is warm; the caller decides when to
    /// [`neo_store::SessionStore::commit`].
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if `id` is already registered or
    /// `store` was opened over a different context than this registry;
    /// [`NeoError::FaultDetected`] if the tenant's records are
    /// quarantined or fail integrity checks (see
    /// [`neo_store::SessionStore::warm_start`]), or a key generation fails
    /// a transform check.
    pub fn register_warm(
        &self,
        id: TenantId,
        store: &mut neo_store::SessionStore,
        seed: u64,
        cfg: TenantConfig,
    ) -> Result<Arc<TenantSession>, NeoError> {
        if !Arc::ptr_eq(store.context(), &self.ctx) {
            return Err(NeoError::invalid_params(
                "session store and registry must share one context",
            ));
        }
        match store.warm_start(id)? {
            Some(engine) => self.install(id, engine, cfg),
            None => {
                let session = self.register(id, seed, cfg)?;
                store.save_engine(id, session.engine(), seed)?;
                Ok(session)
            }
        }
    }

    /// [`Self::register`] with the default [`TenantConfig`].
    ///
    /// # Errors
    ///
    /// See [`Self::register`].
    pub fn register_default(
        &self,
        id: TenantId,
        seed: u64,
    ) -> Result<Arc<TenantSession>, NeoError> {
        self.register(id, seed, TenantConfig::default())
    }

    /// Looks a tenant up by id.
    pub fn get(&self, id: TenantId) -> Option<Arc<TenantSession>> {
        self.tenants.read().get(&id).cloned()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.read().is_empty()
    }

    /// Ids of all registered tenants, sorted (deterministic iteration).
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self.tenants.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_ckks::CkksParams;

    #[test]
    fn sessions_share_context_but_not_keys() {
        let reg = TenantRegistry::new(CkksParams::test_tiny()).expect("params");
        let a = reg.register_default(1, 11).expect("register");
        let b = reg.register_default(2, 22).expect("register");
        assert!(Arc::ptr_eq(a.engine().context(), b.engine().context()));

        // Same plaintext encrypts to different ciphertexts under the two
        // tenants' keys, and each decrypts only under its own engine.
        let level = a.engine().max_level();
        let ca = a.engine().encrypt_f64(&[1.0, 2.0], level).expect("enc a");
        let got = a.engine().decrypt_f64(&ca).expect("dec a");
        assert!((got[0] - 1.0).abs() < 1e-3 && (got[1] - 2.0).abs() < 1e-3);
        let wrong = b.engine().decrypt_f64(&ca).expect("dec under wrong key");
        assert!(
            (wrong[0] - 1.0).abs() > 1e-3,
            "tenant B's key must not decrypt tenant A's ciphertext"
        );
    }

    #[test]
    fn duplicate_registration_rejected() {
        let reg = TenantRegistry::new(CkksParams::test_tiny()).expect("params");
        reg.register_default(7, 1).expect("first");
        let err = reg.register_default(7, 2).expect_err("duplicate");
        assert_eq!(err.kind().name(), "invalid_params");
    }

    #[test]
    fn warm_registration_replays_the_cold_session() {
        let mut path = std::env::temp_dir();
        path.push(format!("neo-serve-warm-{}.neostore", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let reg = TenantRegistry::new(CkksParams::test_tiny()).expect("params");
        let mut store =
            neo_store::SessionStore::open(&path, Arc::clone(reg.context())).expect("open store");
        // First boot: cold start, persisted behind the scenes.
        let cold = reg
            .register_warm(1, &mut store, 77, TenantConfig::default())
            .expect("cold register");
        let level = cold.engine().max_level();
        let ct = cold.engine().encrypt_f64(&[4.5], level).expect("enc");
        store.commit().expect("commit");

        // Second boot: fresh registry, warm start from the store.
        let reg2 = TenantRegistry::with_context(Arc::clone(reg.context()));
        let mut store2 =
            neo_store::SessionStore::open(&path, Arc::clone(reg2.context())).expect("reopen store");
        let warm = reg2
            .register_warm(1, &mut store2, 0, TenantConfig::default())
            .expect("warm register");
        let got = warm.engine().decrypt_f64(&ct).expect("dec");
        assert!(
            (got[0] - 4.5).abs() < 1e-3,
            "warm session must decrypt the cold session's ciphertext"
        );

        // A store over a different context is refused.
        let foreign = TenantRegistry::new(CkksParams::test_tiny()).expect("params");
        let err = foreign
            .register_warm(2, &mut store2, 0, TenantConfig::default())
            .expect_err("foreign context");
        assert_eq!(err.kind().name(), "invalid_params");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn inflight_cap_and_budget_accounting() {
        let reg = TenantRegistry::new(CkksParams::test_tiny()).expect("params");
        let cfg = TenantConfig {
            max_inflight: 2,
            fault_budget: 3,
            ..TenantConfig::default()
        };
        let s = reg.register(9, 5, cfg).expect("register");
        assert!(s.try_acquire_inflight());
        assert!(s.try_acquire_inflight());
        assert!(!s.try_acquire_inflight(), "cap of 2");
        s.release_inflight();
        assert!(s.try_acquire_inflight());

        assert!(!s.budget_exhausted());
        s.charge_recovery(4);
        assert!(s.budget_exhausted());
        s.reset_budget_window();
        assert!(!s.budget_exhausted());
    }
}
