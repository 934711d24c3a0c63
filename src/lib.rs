//! # Neo — CKKS FHE with tensor-core-style matrix kernels
//!
//! Umbrella crate for the Neo reproduction (ISCA'25: *"Neo: Towards
//! Efficient Fully Homomorphic Encryption Acceleration using Tensor Core"*).
//! Re-exports every sub-crate under one roof so applications can depend on
//! a single crate:
//!
//! ```rust
//! use neo::math::primes;
//! let qs = primes::ntt_primes(36, 1 << 12, 3).expect("primes exist");
//! assert_eq!(qs.len(), 3);
//! ```
//!
//! See the crate READMEs and `DESIGN.md` for the architecture overview and
//! the experiment index mapping each paper table/figure to a bench target.

/// Application workloads: PackBootstrap, HELR, ResNet-20/32/56.
pub use neo_apps as apps;
/// TensorFHE / HEonGPU / CPU baseline execution models.
pub use neo_baselines as baselines;
/// The CKKS scheme: encoding, keys, operations, Hybrid/KLSS key-switching,
/// rescaling, and bootstrapping.
pub use neo_ckks as ckks;
/// Deterministic fault injection ([`fault::FaultPlan`]) and the ABFT
/// verification gate ([`fault::VerifyPolicy`]).
pub use neo_fault as fault;
/// A100 analytic device model and kernel timing.
pub use neo_gpu_sim as gpu_sim;
/// The six Neo kernels in original and matrix-multiplication form.
pub use neo_kernels as kernels;
/// Modular arithmetic, RNS bases, base conversion, RNS polynomials.
pub use neo_math as math;
/// Negacyclic NTTs: radix-2, four-step, and radix-16 (ten-step) matrix form.
pub use neo_ntt as ntt;
/// Sim-driven execution-plan autotuner: prices candidate parameter sets
/// through the scheduler's simulator and returns the cheapest as a
/// [`plan::ExecPlan`], whose parameters a session is built from.
pub use neo_plan as plan;
/// Kernel-DAG scheduling for the device model: fusion rewrites and the
/// discrete-event multi-stream simulator. (The host's batch executor is
/// [`ckks::BatchProgram::execute`].)
pub use neo_sched as sched;
/// Multi-tenant serving: per-tenant sessions over a shared context,
/// urgency-ordered admission that coalesces batches by window and op
/// cap, typed backpressure.
pub use neo_serve as serve;
/// Crash-safe persistent key & ciphertext store: checksummed records,
/// atomic commits, integrity quarantine, and seed-compressed KSK warm
/// starts.
pub use neo_store as store;
/// Tensor-core fragment emulation (FP64 / INT8) and splitting schemes.
pub use neo_tcu as tcu;
/// The one telemetry layer: one gate over work counters, spans (the only
/// timer — each closing span feeds a duration histogram), the labeled
/// metrics registry, and the tree / Chrome-trace / Prometheus / JSON
/// exporters.
pub use neo_trace as trace;

/// The one-line import for applications: the [`ckks::FheEngine`] session
/// facade, its error and policy types, parameter construction, and the
/// handful of value types its methods exchange.
///
/// ```rust
/// use neo::prelude::*;
///
/// # fn main() -> Result<(), NeoError> {
/// let engine = FheEngine::new(CkksParams::test_tiny(), 1)?;
/// let ct = engine.encrypt_f64(&[0.5, 0.25], 3)?;
/// let out = engine.decrypt_f64(&engine.hadd(&ct, &ct)?)?;
/// assert!((out[0] - 1.0).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use neo_ckks::encoding::Complex64;
    pub use neo_ckks::{
        BatchOp, BatchProgram, BatchReport, Ciphertext, CkksContext, CkksParams, CkksParamsBuilder,
        Encoder, ErrorKind, FheEngine, KeyChest, KeyTarget, KsMethod, LinearTransform, NeoError,
        OpPolicy, ParamSet, Plaintext, PublicKey, SecretKey, Slot, VerifyPolicy,
    };
}
