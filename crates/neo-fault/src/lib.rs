//! Deterministic fault injection and verification policy for the Neo stack.
//!
//! Production FHE accelerators must assume transient datapath faults: a
//! flipped accumulator bit inside a tensor-core fragment is silently folded
//! into ciphertext noise and only surfaces as a garbage decryption much
//! later. This crate provides the *injection* half of the fault-tolerance
//! story — a seedable, deterministic [`FaultPlan`] that flips bits at named
//! sites throughout the stack — plus the process-wide [`VerifyPolicy`] gate
//! that decides how often the ABFT checkers (GEMM checksums in `neo-tcu`,
//! NTT spot checks in `neo-ntt`) actually run.
//!
//! Design mirrors `neo_trace`'s gate: a relaxed [`armed`] `AtomicBool` keeps
//! the disarmed fast path to a single load, and a scope guard
//! ([`FaultScope`]) owns a global lock so concurrent tests serialize instead
//! of corrupting each other's plans. Every draw is a pure function of
//! `(seed, site, opportunity index)` via splitmix64, so a failing seed
//! reproduces exactly.
//!
//! The crate is intentionally dependency-free so every layer of the stack
//! can use it without cycles.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Number of named injection sites.
pub const N_SITES: usize = 8;

/// A named fault-injection site in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultSite {
    /// Bit flip in a `neo-tcu` fragment accumulator (`mma_fp64`/`mma_int8`).
    TcuFragment = 0,
    /// Corrupted limb after `neo-ntt` stage execution (forward/inverse).
    NttStage = 1,
    /// Poisoned `NttPlan` served from the plan cache (corrupt twiddles).
    NttPlan = 2,
    /// Dropped or duplicated kernel completion in `neo-sched::sim`.
    SchedCompletion = 3,
    /// Spurious `FaultDetected` error surfaced from a `neo-ckks` op.
    CkksOp = 4,
    /// Bytes corrupted between serialization and the disk in a
    /// `neo-store` commit (a write-path bit flip the recovery scan must
    /// catch on the next open).
    StoreWrite = 5,
    /// Bytes corrupted between the disk and deserialization in a
    /// `neo-store` read (bit-rot the per-record checksum must catch at
    /// `get` time).
    StoreRead = 6,
    /// A store commit truncated at a seeded offset (a torn write /
    /// crashed filesystem; the recovery scan must classify the tail
    /// instead of serving it).
    StoreTorn = 7,
}

impl FaultSite {
    /// All sites, in discriminant order.
    pub const ALL: [FaultSite; N_SITES] = [
        FaultSite::TcuFragment,
        FaultSite::NttStage,
        FaultSite::NttPlan,
        FaultSite::SchedCompletion,
        FaultSite::CkksOp,
        FaultSite::StoreWrite,
        FaultSite::StoreRead,
        FaultSite::StoreTorn,
    ];

    /// Per-site salt folded into every draw so sites are independent
    /// streams even under the same seed.
    const fn salt(self) -> u64 {
        // Arbitrary odd constants; distinct per site.
        match self {
            FaultSite::TcuFragment => 0x9e37_79b9_7f4a_7c15,
            FaultSite::NttStage => 0xbf58_476d_1ce4_e5b9,
            FaultSite::NttPlan => 0x94d0_49bb_1331_11eb,
            FaultSite::SchedCompletion => 0xd6e8_feb8_6659_fd93,
            FaultSite::CkksOp => 0xa076_1d64_78bd_642f,
            FaultSite::StoreWrite => 0xe703_7ed1_b185_33db,
            FaultSite::StoreRead => 0xc4ce_b9fe_1a85_ec53,
            FaultSite::StoreTorn => 0x8ebc_6af0_9c88_c6e3,
        }
    }
}

/// How a site fires: a ppm probability over a bounded window of
/// opportunities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Firing probability in parts-per-million (1_000_000 = every
    /// opportunity).
    pub probability_ppm: u32,
    /// Number of initial opportunities that never fire (lets a trial skip
    /// e.g. key generation and target steady-state ops).
    pub skip: u64,
    /// Upper bound on total fires; once reached the site goes quiet.
    pub max_fires: u64,
}

impl FaultSpec {
    /// Fires on every opportunity (after `skip`), without bound.
    pub const fn always() -> Self {
        Self {
            probability_ppm: 1_000_000,
            skip: 0,
            max_fires: u64::MAX,
        }
    }

    /// Fires exactly once, on the first opportunity.
    pub const fn once() -> Self {
        Self {
            probability_ppm: 1_000_000,
            skip: 0,
            max_fires: 1,
        }
    }

    /// Fires exactly once, after skipping the first `skip` opportunities.
    pub const fn once_after(skip: u64) -> Self {
        Self {
            probability_ppm: 1_000_000,
            skip,
            max_fires: 1,
        }
    }

    /// Fires with the given ppm probability on every opportunity.
    pub const fn with_probability_ppm(ppm: u32) -> Self {
        Self {
            probability_ppm: ppm,
            skip: 0,
            max_fires: u64::MAX,
        }
    }

    /// Caps the number of fires.
    pub const fn max_fires(mut self, n: u64) -> Self {
        self.max_fires = n;
        self
    }
}

/// SplitMix64 — the standard seeded mixer; good enough to decorrelate
/// (seed, site, opportunity) triples and cheap enough for hot paths.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic, seedable fault plan: which sites fire, when, how often.
///
/// All counters are atomics so a plan can be consulted from rayon workers;
/// determinism of *which values get corrupted* is preserved because each
/// draw hashes its own opportunity index, though under parallel execution
/// the assignment of opportunity indices to call sites follows scheduling
/// order.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    specs: [Option<FaultSpec>; N_SITES],
    opportunities: [AtomicU64; N_SITES],
    injected: [AtomicU64; N_SITES],
    recovered: [AtomicU64; N_SITES],
}

impl FaultPlan {
    /// A plan with the given seed and no armed sites.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            specs: [None; N_SITES],
            opportunities: Default::default(),
            injected: Default::default(),
            recovered: Default::default(),
        }
    }

    /// Arms `site` with `spec` (builder style).
    #[must_use]
    pub fn with_site(mut self, site: FaultSite, spec: FaultSpec) -> Self {
        self.specs[site as usize] = Some(spec);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One opportunity at `site`: returns `Some(entropy)` iff the site
    /// fires. The entropy word drives index/bit selection downstream.
    pub fn draw(&self, site: FaultSite) -> Option<u64> {
        let i = site as usize;
        let spec = self.specs[i]?;
        let k = self.opportunities[i].fetch_add(1, Ordering::Relaxed);
        if k < spec.skip {
            return None;
        }
        let h = splitmix64(self.seed ^ site.salt() ^ k.wrapping_mul(0xff51_afd7_ed55_8ccd));
        if h % 1_000_000 >= u64::from(spec.probability_ppm) {
            return None;
        }
        // Respect max_fires without a lock: claim a fire slot atomically.
        let claimed = self.injected[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                (v < spec.max_fires).then(|| v + 1)
            })
            .is_ok();
        claimed.then_some(h)
    }

    /// Records that an injected fault at `site` was detected and recovered.
    pub fn note_recovery(&self, site: FaultSite) {
        self.recovered[site as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Opportunities observed at `site` so far.
    pub fn opportunities(&self, site: FaultSite) -> u64 {
        self.opportunities[site as usize].load(Ordering::Relaxed)
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site as usize].load(Ordering::Relaxed)
    }

    /// Recoveries recorded at `site` so far.
    pub fn recovered(&self, site: FaultSite) -> u64 {
        self.recovered[site as usize].load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Global arming state
// ---------------------------------------------------------------------------

static ARMED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

fn lock_scope() -> MutexGuard<'static, ()> {
    SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True iff a [`FaultPlan`] is currently installed. Single relaxed load —
/// this is the only cost injection sites pay in production.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// RAII guard that installs a plan process-wide for its lifetime.
///
/// Holds a global mutex so concurrent scopes (e.g. `cargo test` threads)
/// serialize rather than trample each other's plans — same discipline as
/// `neo_trace::record`.
#[must_use = "the plan disarms when the scope drops"]
pub struct FaultScope {
    _guard: MutexGuard<'static, ()>,
}

impl FaultScope {
    /// Installs `plan` and arms injection until the returned guard drops.
    pub fn install(plan: Arc<FaultPlan>) -> Self {
        let guard = lock_scope();
        *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = Some(plan);
        ARMED.store(true, Ordering::SeqCst);
        Self { _guard: guard }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// One opportunity at `site` against the installed plan (if any).
fn active_draw(site: FaultSite) -> Option<u64> {
    if !armed() {
        return None;
    }
    let guard = ACTIVE.read().unwrap_or_else(PoisonError::into_inner);
    guard.as_ref()?.draw(site)
}

/// True iff the installed plan fires at `site` on this opportunity.
/// Used for fault kinds that need no entropy (spurious errors).
pub fn fires(site: FaultSite) -> bool {
    active_draw(site).is_some()
}

/// One opportunity at `site`, returning the draw's entropy word when it
/// fires — for injection sites that pick their own corruption target
/// (e.g. which twiddle of a poisoned plan to flip).
pub fn draw_entropy(site: FaultSite) -> Option<u64> {
    active_draw(site)
}

/// Records a recovery against the installed plan, if one is armed.
pub fn note_recovery(site: FaultSite) {
    if !armed() {
        return;
    }
    let guard = ACTIVE.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(plan) = guard.as_ref() {
        plan.note_recovery(site);
    }
}

// ---------------------------------------------------------------------------
// Corruption helpers
// ---------------------------------------------------------------------------

/// Flips one bit of one element of `xs` if the site fires. Returns `true`
/// iff a fault was injected.
pub fn corrupt_limb(site: FaultSite, xs: &mut [u64]) -> bool {
    if xs.is_empty() {
        return false;
    }
    match active_draw(site) {
        Some(h) => {
            let idx = (h >> 32) as usize % xs.len();
            let bit = (h >> 8) % 64;
            xs[idx] ^= 1 << bit;
            true
        }
        None => false,
    }
}

/// Flips one bit (below 2^52) of one element of `xs` if the site fires.
///
/// The values must be exact non-negative integers below 2^53 — the
/// invariant the FP64 TCU pipeline maintains — so the flip is applied in
/// integer space: the corrupted value is still an exact integer in range,
/// modelling an accumulator-register bit flip rather than a NaN storm.
pub fn corrupt_f64(site: FaultSite, xs: &mut [f64]) -> bool {
    if xs.is_empty() {
        return false;
    }
    match active_draw(site) {
        Some(h) => {
            let idx = (h >> 32) as usize % xs.len();
            let bit = (h >> 8) % 52;
            let as_int = xs[idx] as i64;
            xs[idx] = (as_int ^ (1 << bit)) as f64;
            true
        }
        None => false,
    }
}

/// Flips one bit (below the sign bit) of one element of `xs` if the site
/// fires.
pub fn corrupt_i32(site: FaultSite, xs: &mut [i32]) -> bool {
    if xs.is_empty() {
        return false;
    }
    match active_draw(site) {
        Some(h) => {
            let idx = (h >> 32) as usize % xs.len();
            let bit = (h >> 8) % 31;
            xs[idx] ^= 1 << bit;
            true
        }
        None => false,
    }
}

/// Flips one bit of one byte of `xs` if the site fires. Returns `true`
/// iff a fault was injected. This is the store-path analogue of
/// [`corrupt_limb`]: it models bit-rot on a serialized record, either on
/// the write path ([`FaultSite::StoreWrite`]) or the read path
/// ([`FaultSite::StoreRead`]).
pub fn corrupt_bytes(site: FaultSite, xs: &mut [u8]) -> bool {
    if xs.is_empty() {
        return false;
    }
    match active_draw(site) {
        Some(h) => {
            let idx = (h >> 32) as usize % xs.len();
            let bit = (h >> 8) % 8;
            xs[idx] ^= 1 << bit;
            true
        }
        None => false,
    }
}

/// Draws a torn-write length for a buffer of `len` bytes if
/// [`FaultSite::StoreTorn`] fires: the commit is truncated to the returned
/// prefix length (always `< len`), modelling a crash mid-write after the
/// filesystem persisted only a prefix.
pub fn torn_len(len: usize) -> Option<usize> {
    if len == 0 {
        return None;
    }
    active_draw(FaultSite::StoreTorn).map(|h| (h >> 16) as usize % len)
}

/// What happens to a kernel-completion signal in the scheduler simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionFault {
    /// The completion interrupt is lost; the executor's watchdog must
    /// detect the engine going idle with an unreported node.
    Dropped,
    /// The completion is delivered twice; the executor must deduplicate.
    Duplicated,
}

/// Draws a completion fault at [`FaultSite::SchedCompletion`], if armed.
pub fn completion_fault() -> Option<CompletionFault> {
    active_draw(FaultSite::SchedCompletion).map(|h| {
        if (h >> 16) & 1 == 0 {
            CompletionFault::Dropped
        } else {
            CompletionFault::Duplicated
        }
    })
}

// ---------------------------------------------------------------------------
// Verification policy
// ---------------------------------------------------------------------------

/// How often the ABFT checkers run.
///
/// Lives here (not in `neo-ckks`) so `neo-ntt`/`neo-tcu` can consult the
/// gate without a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// Never verify — zero overhead, counters untouched.
    #[default]
    Off,
    /// Verify one in every `n` eligible operations.
    Sampled(u32),
    /// Verify every eligible operation.
    Always,
}

impl VerifyPolicy {
    fn encode(self) -> u64 {
        match self {
            VerifyPolicy::Off => 0,
            VerifyPolicy::Always => 1,
            // Sampled(0) and Sampled(1) both mean "every op".
            VerifyPolicy::Sampled(n) if n <= 1 => 1,
            VerifyPolicy::Sampled(n) => u64::from(n),
        }
    }

    fn decode(v: u64) -> Self {
        match v {
            0 => VerifyPolicy::Off,
            1 => VerifyPolicy::Always,
            n => VerifyPolicy::Sampled(n as u32),
        }
    }
}

static VERIFY_POLICY: AtomicU64 = AtomicU64::new(0);
static VERIFY_TICK: AtomicU64 = AtomicU64::new(0);

/// The currently installed verification policy.
pub fn verify_policy() -> VerifyPolicy {
    VerifyPolicy::decode(VERIFY_POLICY.load(Ordering::Relaxed))
}

/// RAII guard installing a [`VerifyPolicy`] process-wide; restores the
/// previous policy on drop. Process-global (not thread-local) so the check
/// also covers work an op fans out to rayon workers.
#[must_use = "the policy reverts when the scope drops"]
pub struct VerifyScope {
    prev: u64,
}

impl VerifyScope {
    /// Installs `policy` until the returned guard drops.
    pub fn enter(policy: VerifyPolicy) -> Self {
        let prev = VERIFY_POLICY.swap(policy.encode(), Ordering::Relaxed);
        Self { prev }
    }
}

impl Drop for VerifyScope {
    fn drop(&mut self) {
        VERIFY_POLICY.store(self.prev, Ordering::Relaxed);
    }
}

/// Consumes one verification tick: `true` iff the current op should be
/// verified under the installed policy.
///
/// `Off` is a single relaxed load; `Sampled(n)` spends one atomic
/// increment and verifies every n-th eligible op process-wide.
#[inline]
pub fn verification_due() -> bool {
    match VERIFY_POLICY.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        n => VERIFY_TICK
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that install scopes (they share process globals).
    fn with_scope<R>(plan: FaultPlan, f: impl FnOnce(&Arc<FaultPlan>) -> R) -> R {
        let plan = Arc::new(plan);
        let scope = FaultScope::install(plan.clone());
        let r = f(&plan);
        drop(scope);
        r
    }

    #[test]
    fn all_lists_sites_in_discriminant_order() {
        for (i, s) in FaultSite::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
    }

    #[test]
    fn disarmed_is_inert() {
        let _guard = lock_scope();
        assert!(!armed());
        let mut xs = [7u64, 8, 9];
        assert!(!corrupt_limb(FaultSite::NttStage, &mut xs));
        assert_eq!(xs, [7, 8, 9]);
        assert!(!fires(FaultSite::CkksOp));
        assert!(completion_fault().is_none());
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let pattern = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).with_site(
                FaultSite::TcuFragment,
                FaultSpec::with_probability_ppm(250_000),
            );
            (0..64)
                .map(|_| plan.draw(FaultSite::TcuFragment).is_some())
                .collect()
        };
        assert_eq!(pattern(42), pattern(42));
        assert_ne!(pattern(42), pattern(43), "different seeds should differ");
        assert!(
            pattern(42).iter().any(|&b| b),
            "25% over 64 draws should fire"
        );
        assert!(!pattern(42).iter().all(|&b| b));
    }

    #[test]
    fn skip_and_max_fires_bound_the_window() {
        let plan = FaultPlan::new(1).with_site(FaultSite::NttStage, FaultSpec::once_after(3));
        let fired: Vec<bool> = (0..8)
            .map(|_| plan.draw(FaultSite::NttStage).is_some())
            .collect();
        assert_eq!(
            fired,
            [false, false, false, true, false, false, false, false]
        );
        assert_eq!(plan.injected(FaultSite::NttStage), 1);
        assert_eq!(plan.opportunities(FaultSite::NttStage), 8);
    }

    #[test]
    fn corrupt_limb_flips_exactly_one_bit() {
        let plan = FaultPlan::new(9).with_site(FaultSite::NttStage, FaultSpec::always());
        with_scope(plan, |p| {
            let orig = [1u64, 2, 3, 4];
            let mut xs = orig;
            assert!(corrupt_limb(FaultSite::NttStage, &mut xs));
            let flipped: u32 = orig
                .iter()
                .zip(&xs)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1);
            assert_eq!(p.injected(FaultSite::NttStage), 1);
        });
    }

    #[test]
    fn corrupt_f64_stays_an_exact_integer_below_2_53() {
        let plan = FaultPlan::new(11).with_site(FaultSite::TcuFragment, FaultSpec::always());
        with_scope(plan, |_| {
            for v in [0.0f64, 1.0, 123456789.0, (1u64 << 52) as f64] {
                let mut xs = [v];
                assert!(corrupt_f64(FaultSite::TcuFragment, &mut xs));
                assert_ne!(xs[0], v, "flip must change the value");
                assert!(xs[0] >= 0.0 && xs[0] < 9_007_199_254_740_992.0);
                assert_eq!(xs[0].fract(), 0.0, "must stay an exact integer");
            }
        });
    }

    #[test]
    fn corrupt_bytes_flips_exactly_one_bit() {
        let plan = FaultPlan::new(13).with_site(FaultSite::StoreWrite, FaultSpec::always());
        with_scope(plan, |p| {
            let orig = [0xA5u8, 0x5A, 0xFF, 0x00, 0x42];
            let mut xs = orig;
            assert!(corrupt_bytes(FaultSite::StoreWrite, &mut xs));
            let flipped: u32 = orig
                .iter()
                .zip(&xs)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1);
            assert_eq!(p.injected(FaultSite::StoreWrite), 1);
        });
    }

    #[test]
    fn torn_len_is_a_strict_prefix() {
        let plan = FaultPlan::new(17).with_site(FaultSite::StoreTorn, FaultSpec::always());
        with_scope(plan, |_| {
            for len in [1usize, 2, 64, 4096] {
                let torn = torn_len(len).expect("always-armed site must fire");
                assert!(torn < len, "torn length {torn} must be < {len}");
            }
            assert!(torn_len(0).is_none(), "empty buffer cannot tear");
        });
    }

    #[test]
    fn recovery_tallies_flow_into_the_plan() {
        let plan = FaultPlan::new(5).with_site(FaultSite::CkksOp, FaultSpec::once());
        with_scope(plan, |p| {
            assert!(fires(FaultSite::CkksOp));
            assert!(!fires(FaultSite::CkksOp), "max_fires=1 caps injection");
            note_recovery(FaultSite::CkksOp);
            let site = FaultSite::CkksOp;
            assert_eq!((p.injected(site), p.recovered(site)), (1, 1));
        });
    }

    #[test]
    fn verify_policy_roundtrips_and_samples() {
        let _guard = lock_scope();
        assert_eq!(verify_policy(), VerifyPolicy::Off);
        assert!(!verification_due());
        {
            let _scope = VerifyScope::enter(VerifyPolicy::Always);
            assert_eq!(verify_policy(), VerifyPolicy::Always);
            assert!(verification_due() && verification_due());
            {
                let _inner = VerifyScope::enter(VerifyPolicy::Sampled(4));
                assert_eq!(verify_policy(), VerifyPolicy::Sampled(4));
                let due = (0..8).filter(|_| verification_due()).count();
                assert_eq!(due, 2, "1-in-4 over 8 ticks");
            }
            assert_eq!(
                verify_policy(),
                VerifyPolicy::Always,
                "nested scope restores"
            );
        }
        assert_eq!(verify_policy(), VerifyPolicy::Off);
        // Sampled(0|1) normalize to Always.
        let _scope = VerifyScope::enter(VerifyPolicy::Sampled(1));
        assert_eq!(verify_policy(), VerifyPolicy::Always);
    }
}
