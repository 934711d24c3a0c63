//! RNS-CKKS for the Neo reproduction: encoding, key generation, the
//! primitive homomorphic operations, and both key-switching methods the
//! paper contrasts (Hybrid and KLSS), plus the cost models that drive the
//! paper's tables and figures.
//!
//! # Quick start
//!
//! The [`FheEngine`] session facade is the preferred entry point: it
//! bundles context, keys and encoder, every operation returns
//! [`Result<_, NeoError>`], and an [`OpPolicy`] applies runtime
//! guardrails (level alignment, noise-budget floor, warm-key checks).
//!
//! ```rust
//! use neo_ckks::{CkksParams, FheEngine, NeoError};
//!
//! # fn main() -> Result<(), NeoError> {
//! let engine = FheEngine::new(CkksParams::test_tiny(), 1)?;
//! let ct = engine.encrypt_f64(&[1.5, -2.0], 3)?;
//! let sq = engine.rescale(&engine.hmult(&ct, &ct)?)?; // square it
//! let out = engine.decrypt_f64(&sq)?;
//! assert!((out[0] - 2.25).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```
//!
//! The free functions in [`ops`] are available in fallible `try_*` form
//! (the original panicking names were removed after their one-release
//! migration window). A session runs its parameters' key-switching
//! method ([`CkksParams::method`]: KLSS exactly when
//! [`CkksParams::klss`] is set) and verifies under its
//! [`OpPolicy::verify`] alone. Tuning is choosing parameters: the
//! `neo-plan` crate's autotuner prices candidate parameter sets through
//! the `neo-sched` simulator, and a session built from the winner's
//! parameters runs the planned method. The compute backend is not a
//! knob: every session in a process runs on the one
//! [`neo_math::backend::active`] resolves.

// Library code must surface failures as typed `NeoError`s, never by
// unwrapping; tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod bootstrap;
pub mod ciphertext;
pub mod complexity;
pub mod context;
pub mod cost;
pub mod encoding;
pub mod engine;
pub mod keys;
pub mod keyswitch;
pub mod linear;
pub(crate) mod metrics;
pub mod noise;
pub mod ops;
pub mod params;
pub mod sched;

pub use batch::{BatchOp, BatchProgram, BatchReport, Slot, DEFAULT_MAX_RETRIES};
pub use ciphertext::{Ciphertext, Plaintext};
pub use context::CkksContext;
pub use encoding::Encoder;
pub use engine::{FheEngine, OpPolicy};
pub use keys::{KeyChest, KeyTarget, PublicKey, SecretKey};
pub use linear::LinearTransform;
pub use neo_error::{ErrorKind, NeoError};
pub use neo_fault::VerifyPolicy;
pub use params::{CkksParams, CkksParamsBuilder, KlssConfig, KsMethod, ParamSet};
