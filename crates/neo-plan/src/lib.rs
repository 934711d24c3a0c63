//! # neo-plan — a sim-driven execution-plan autotuner
//!
//! Neo's tuning choices are parameter choices: Hybrid or KLSS, and
//! KLSS's `WordSize_T` (Fig. 16). Given a workload (a
//! [`neo_ckks::BatchProgram`] or a bootstrap trace) and a base
//! parameter set, the [`Planner`] prices each candidate parameter set
//! through [`neo_sched::simulate_best`], with and without element-wise
//! fusion, and returns the cheapest as an [`ExecPlan`]: the
//! [`neo_ckks::CkksParams`] it priced, the fusion and stream count the
//! simulator found best, and the predicted makespan. Build a session
//! (or a tenant registry) from `plan.params` to run the planned method;
//! fusion and streams describe the modelled device and only re-pricing
//! reads them.
//!
//! Winning plans are cached in a [`PlanStore`] keyed by
//! ([`param_fingerprint`] of the base set, workload shape hash), with
//! gate-disciplined hit/miss metrics (`plan_store_hits_total` /
//! `plan_store_misses_total` / `plan_store_size`); `neo-store` persists
//! the cache with a tenant's session.
//!
//! Both methods decrypt to the same values. A plan's parameters keep the
//! base set's chain, and KLSS's exact conversions make its output
//! independent of `WordSize_T`, so with the same seed an engine built
//! from a plan's parameters runs bit-identically to the base set's
//! engine under the plan's method.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

mod keys;
mod metrics;
mod planner;
mod store;

pub use keys::{param_fingerprint, program_shape, trace_shape, PlanKey};
pub use planner::{ExecPlan, Planner};
pub use store::PlanStore;
