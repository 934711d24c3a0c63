//! # neo-plan — a sim-driven execution-plan autotuner
//!
//! Every performance-relevant knob in the Neo stack — key-switching
//! method, KLSS `WordSize_T`, kernel fusion, stream count, ABFT verify
//! policy — can be priced by the `neo-sched` discrete-event simulator.
//! This crate closes the loop: given a workload (a
//! [`neo_ckks::BatchProgram`] or a bootstrap trace) and a parameter
//! set, the [`Planner`] sweeps the knob space through
//! [`neo_sched::simulate_best`] and returns the winning configuration
//! as a typed [`ExecPlan`] with its predicted makespan. Install the
//! plan on a session via [`neo_ckks::FheEngine::with_plan`] — the
//! single planned surface replacing per-knob setters — and run batches
//! with `execute_batch` as usual.
//!
//! Winning plans are cached in a [`PlanStore`] keyed by
//! ([`param_fingerprint`], workload shape hash), with gate-disciplined
//! hit/miss metrics (`plan_store_hits_total` /
//! `plan_store_misses_total` / `plan_store_size`); `neo-store` persists
//! the cache with a tenant's session.
//!
//! Of the swept knobs only the key-switching method changes ciphertext
//! *bits* (both methods decrypt identically); fusion, streams and
//! `WordSize_T` price the device model only, so planned host execution
//! is bit-identical to an unplanned run under the same method.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

mod keys;
mod metrics;
mod planner;
mod store;

pub use keys::{param_fingerprint, program_shape, trace_shape, PlanKey};
pub use neo_ckks::plan::ExecPlan;
pub use planner::Planner;
pub use store::PlanStore;
