//! Bootstrapping (the PackBootstrap workload): structure and costs.
//!
//! CKKS bootstrapping refreshes a ciphertext's multiplicative budget via
//! four phases: **ModRaise**, **CoeffToSlot** (CTS — a homomorphic DFT as
//! BSGS matrix-vector products), **EvalMod** (homomorphic sine via a
//! Chebyshev polynomial), and **SlotToCoeff** (STC). With small word
//! sizes, Double Rescale (DS) replaces Rescale throughout (Section 2.1).
//!
//! This module provides the full *operation plan* for one bootstrap —
//! the exact sequence of (operation, level) pairs with baby-step/giant-step
//! rotation counts — which both the performance model and the application
//! traces consume. The plan follows the standard construction
//! (Han–Ki-style CTS/STC factorization, degree-63 Chebyshev EvalMod with
//! double-angle foldings).

use crate::cost::Operation;
use crate::params::CkksParams;
use neo_error::NeoError;

/// One step of a workload trace: an operation executed at a level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// Which primitive runs.
    pub op: Operation,
    /// The ciphertext level it runs at.
    pub level: usize,
    /// How many times it repeats at this point.
    pub count: usize,
}

/// Structural description of one bootstrap.
#[derive(Debug, Clone)]
pub struct BootstrapPlan {
    /// CTS/STC radix decomposition (number of BSGS stages each).
    pub cts_stages: usize,
    /// Rotations per BSGS stage (baby + giant steps).
    pub rotations_per_stage: usize,
    /// Plaintext multiplications per BSGS stage.
    pub pmults_per_stage: usize,
    /// Chebyshev degree for EvalMod.
    pub evalmod_degree: usize,
    /// Levels consumed by CTS, EvalMod, STC (with DS when `use_ds`).
    pub use_ds: bool,
    /// Level at which the bootstrap pipeline starts (after ModRaise).
    pub start_level: usize,
}

impl BootstrapPlan {
    /// The standard plan for a parameter set: 3-stage CTS/STC over
    /// `N/2` slots, degree-63 EvalMod. DS replaces Rescale for small-word
    /// configurations (`WordSize ≤ 36`) unless the parameter set opts
    /// into single scaling (the `SS` rows of Table 5).
    ///
    /// # Errors
    ///
    /// [`NeoError::Math`] if the parameters fail validation;
    /// [`NeoError::ModulusChainExhausted`] if the chain is too short for
    /// the plan to leave any usable levels after the bootstrap.
    pub fn try_standard(p: &CkksParams) -> Result<Self, NeoError> {
        p.validate()?;
        let plan = Self::unchecked_standard(p);
        if plan.remaining_levels() == 0 {
            // The plan needs at least one level more than it consumes.
            let consumed = plan.rescale_depth()
                * (2 * plan.cts_stages + ((plan.evalmod_degree + 1) as f64).log2().ceil() as usize);
            return Err(NeoError::chain_exhausted(
                "bootstrap",
                plan.start_level,
                consumed + 1,
            ));
        }
        Ok(plan)
    }

    fn unchecked_standard(p: &CkksParams) -> Self {
        let slots = p.slots().max(2);
        let stages = 3usize;
        // Each stage multiplies by a sparse DFT factor of radix
        // r = slots^(1/stages); BSGS needs ~2*sqrt(r) rotations and r
        // pmults per stage.
        let radix = (slots as f64).powf(1.0 / stages as f64).ceil() as usize;
        let rot = (2.0 * (radix as f64).sqrt()).ceil() as usize;
        Self {
            cts_stages: stages,
            rotations_per_stage: rot.max(2),
            pmults_per_stage: radix.max(2),
            evalmod_degree: 63,
            use_ds: p.word_size <= 36 && !p.single_scaling,
            start_level: p.max_level,
        }
    }

    /// Levels one rescale consumes under this plan (2 with DS).
    fn rescale_depth(&self) -> usize {
        if self.use_ds {
            2
        } else {
            1
        }
    }

    /// The full operation trace of one bootstrap.
    pub fn trace(&self) -> Vec<TraceStep> {
        let mut steps = Vec::new();
        let d = self.rescale_depth();
        let mut level = self.start_level;
        let rescale_op = if self.use_ds {
            Operation::DoubleRescale
        } else {
            Operation::Rescale
        };
        // ModRaise is modelled as limb extension: a pass of ModMul-scale
        // work, folded into the first CTS stage's PAdd here.
        // CTS: one BSGS linear transform per stage, each consuming one
        // rescale depth.
        for _ in 0..self.cts_stages {
            steps.push(TraceStep {
                op: Operation::HRotate,
                level,
                count: self.rotations_per_stage,
            });
            steps.push(TraceStep {
                op: Operation::PMult,
                level,
                count: self.pmults_per_stage,
            });
            steps.push(TraceStep {
                op: Operation::HAdd,
                level,
                count: self.pmults_per_stage,
            });
            steps.push(TraceStep {
                op: rescale_op,
                level,
                count: 1,
            });
            level = level.saturating_sub(d);
        }
        // EvalMod: Chebyshev evaluation of degree 63 ≈ log2(63) ≈ 6
        // non-scalar mult levels via BSGS (Paterson–Stockmeyer): ~14
        // HMULTs, plus double-angle foldings (3 HMULTs).
        let ps_mults = 2 * ((self.evalmod_degree + 1) as f64).sqrt().ceil() as usize + 3;
        let evalmod_depth = ((self.evalmod_degree + 1) as f64).log2().ceil() as usize;
        for _ in 0..evalmod_depth {
            steps.push(TraceStep {
                op: Operation::HMult,
                level,
                count: ps_mults / evalmod_depth + 1,
            });
            steps.push(TraceStep {
                op: rescale_op,
                level,
                count: 1,
            });
            level = level.saturating_sub(d);
        }
        // STC mirrors CTS.
        for _ in 0..self.cts_stages {
            steps.push(TraceStep {
                op: Operation::HRotate,
                level,
                count: self.rotations_per_stage,
            });
            steps.push(TraceStep {
                op: Operation::PMult,
                level,
                count: self.pmults_per_stage,
            });
            steps.push(TraceStep {
                op: Operation::HAdd,
                level,
                count: self.pmults_per_stage,
            });
            steps.push(TraceStep {
                op: rescale_op,
                level,
                count: 1,
            });
            level = level.saturating_sub(d);
        }
        steps
    }

    /// Levels remaining after the bootstrap (`ℓ_eff` budget).
    pub fn remaining_levels(&self) -> usize {
        let consumed = self.rescale_depth()
            * (2 * self.cts_stages + ((self.evalmod_degree + 1) as f64).log2().ceil() as usize);
        self.start_level.saturating_sub(consumed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;

    #[test]
    fn plan_has_positive_budget() {
        let p = ParamSet::C.params();
        let plan = BootstrapPlan::try_standard(&p).unwrap();
        assert!(plan.use_ds, "36-bit words need DS");
        assert!(
            plan.remaining_levels() > 0,
            "bootstrap must leave usable levels"
        );
        assert!(!plan.trace().is_empty());
    }

    #[test]
    fn ds_doubles_level_consumption() {
        let p36 = ParamSet::C.params();
        let p60 = ParamSet::E.params();
        let a = BootstrapPlan::try_standard(&p36).unwrap();
        let b = BootstrapPlan::try_standard(&p60).unwrap();
        assert!(a.use_ds && !b.use_ds);
        assert!(a.remaining_levels() < b.remaining_levels());
    }

    #[test]
    fn trace_levels_never_increase() {
        let p = ParamSet::C.params();
        let plan = BootstrapPlan::try_standard(&p).unwrap();
        let mut prev = usize::MAX;
        for s in plan.trace() {
            assert!(s.level <= prev);
            prev = s.level;
        }
    }
}
