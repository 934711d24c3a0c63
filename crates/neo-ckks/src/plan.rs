//! [`ExecPlan`] — the typed execution plan the `neo-plan` autotuner
//! produces and [`crate::FheEngine`] consumes.
//!
//! A plan bundles every performance-relevant knob that used to travel
//! through scattered per-knob setters — key-switching method,
//! `WordSize_T`, kernel fusion, stream count, ABFT verify policy — plus
//! the simulated makespan the planner predicted for the workload it was
//! tuned on. The planner itself (the sweep over
//! this space through `neo_sched::simulate_best`, and the `PlanStore`
//! cache) lives in the `neo-plan` crate; the type is defined here so the
//! engine can accept a plan without a dependency cycle.
//!
//! Only the key-switching method changes ciphertext *bits* (both
//! methods decrypt to the same values; the limb data differs). Fusion,
//! stream count, `WordSize_T` and the verify policy are timing-side
//! knobs: host execution under any of their settings is bit-identical.

use crate::params::{CkksParams, KsMethod};
use neo_fault::VerifyPolicy;

/// A tuned execution configuration: the winning point of the planner's
/// sweep, plus the simulated makespan that made it win.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPlan {
    /// Key-switching method the plan was tuned for. The only knob that
    /// changes ciphertext bits (not values).
    pub method: KsMethod,
    /// `WordSize_T` the KLSS pricing used, when [`Self::method`] is
    /// KLSS. A pricing-side knob: the functional auxiliary basis is
    /// fixed by the parameter set, so host execution ignores it.
    pub word_size_t: Option<u32>,
    /// Fuse element-wise kernel chains before scheduling.
    pub fusion: bool,
    /// Stream count the simulator found best. A device-model knob: the
    /// host executor always runs a batch's independent ops concurrently.
    pub streams: usize,
    /// ABFT verification policy priced into — and installed by — the
    /// plan.
    pub verify: VerifyPolicy,
    /// The simulated makespan of the plan's workload under this
    /// configuration, in seconds (0.0 for hand-built plans).
    pub predicted_makespan_s: f64,
}

impl ExecPlan {
    /// The all-defaults plan for `p`: the parameter set's own
    /// key-switching method, no fusion, one stream, verification off.
    /// This is what an unplanned session does, and the baseline
    /// `plan_bench` compares the planner's choice against.
    pub fn unplanned(p: &CkksParams) -> Self {
        Self {
            method: if p.klss.is_some() {
                KsMethod::Klss
            } else {
                KsMethod::Hybrid
            },
            word_size_t: p.klss.map(|k| k.word_size_t),
            fusion: false,
            streams: 1,
            verify: VerifyPolicy::Off,
            predicted_makespan_s: 0.0,
        }
    }

    /// [`Self::unplanned`] with the key-switching method pinned — the
    /// reference configuration for bit-identity checks (only the method
    /// affects ciphertext bits, so this is the default run of any plan
    /// sharing `method`).
    pub fn pinned(p: &CkksParams, method: KsMethod) -> Self {
        Self {
            method,
            ..Self::unplanned(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplanned_tracks_param_defaults() {
        let p = CkksParams::test_small();
        let plan = ExecPlan::unplanned(&p);
        assert_eq!(plan.method, KsMethod::Klss, "test_small carries KLSS");
        assert_eq!(plan.word_size_t, Some(48));
        assert!(!plan.fusion && plan.streams == 1);

        let hybrid = ExecPlan::pinned(&p, KsMethod::Hybrid);
        assert_eq!(hybrid.method, KsMethod::Hybrid);
        assert_eq!(hybrid.streams, 1);
    }
}
