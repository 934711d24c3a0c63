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
//! Planning is a pure function of its inputs: the planner keeps no
//! cache, and the same workload always gets the same plan. A caller that
//! plans one shape many times can keep the result itself.
//!
//! Both methods decrypt to the same values. A plan's parameters keep the
//! base set's chain, and KLSS's exact conversions make its output
//! independent of `WordSize_T`, so with the same seed an engine built
//! from a plan's parameters runs bit-identically to the base set's
//! engine under the plan's method.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

mod planner;

pub use planner::{ExecPlan, Planner};
