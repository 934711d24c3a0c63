//! [`Planner`] — the sweep engine that turns a workload into an
//! [`ExecPlan`].
//!
//! The sweep space is the cross product of:
//!
//! * key-switching **method** (Hybrid, and KLSS when the parameter set
//!   carries a [`neo_ckks::KlssConfig`]);
//! * KLSS **`WordSize_T`** candidates (the configured value plus the
//!   paper's interesting points 36/48/60; infeasible sizes — Eq. 4
//!   violations or prime-supply shortfalls — are skipped, not errors);
//! * elementwise **fusion** on/off ([`neo_sched::OpGraph::fuse_elementwise`]);
//! * **stream count** `1..=4` (delegated to
//!   [`neo_sched::simulate_best`]).
//!
//! Each candidate is priced by the discrete-event simulator under Neo's
//! cost configuration, with ABFT verification off. The strict minimum
//! wins, ties resolving to the earliest candidate in sweep order so
//! planning is deterministic.
//!
//! [`Planner::simulate_program_plan`] / [`simulate_trace_plan`]
//! re-price a *given* plan through the identical code path, so a
//! cross-check of a plan's `predicted_makespan_s` against the
//! simulator is exact (`==`), not approximate.
//!
//! [`simulate_trace_plan`]: Planner::simulate_trace_plan

use crate::keys::PlanKey;
use crate::store::PlanStore;
use neo_ckks::bootstrap::TraceStep;
use neo_ckks::cost::CostConfig;
use neo_ckks::sched::trace_graph;
use neo_ckks::{BatchProgram, CkksParams, ExecPlan, KsMethod, NeoError, VerifyPolicy};
use neo_gpu_sim::DeviceModel;
use neo_sched::{simulate, simulate_best, OpGraph, SimConfig};
use std::sync::Arc;

/// `WordSize_T` candidates beyond the configured value: the paper's
/// sweet spot (48) and its neighbors trading digit count against
/// modulus growth.
const EXTRA_WORD_SIZES: [u32; 3] = [36, 48, 60];

/// Stream counts the sweep tries: `1..=MAX_STREAMS`.
const MAX_STREAMS: usize = 4;

/// Sim-driven autotuner over the Neo knob space.
///
/// Construct with [`Planner::new`], optionally attach a shared
/// [`PlanStore`] or restrict the methods swept, then call
/// [`plan_program`](Planner::plan_program) or
/// [`plan_trace`](Planner::plan_trace).
#[derive(Debug, Clone)]
pub struct Planner {
    params: CkksParams,
    dev: DeviceModel,
    methods: Vec<KsMethod>,
    word_sizes: Vec<u32>,
    store: Option<Arc<PlanStore>>,
}

impl Planner {
    /// Planner for `params` priced on `dev`, with the Neo cost preset,
    /// up to 4 streams, both applicable KS methods, the default
    /// `WordSize_T` candidate set, and verify off.
    pub fn new(params: CkksParams, dev: DeviceModel) -> Self {
        let mut methods = vec![KsMethod::Hybrid];
        let mut word_sizes = Vec::new();
        if let Some(k) = params.klss {
            methods.push(KsMethod::Klss);
            word_sizes.push(k.word_size_t);
        }
        for w in EXTRA_WORD_SIZES {
            if !word_sizes.contains(&w) {
                word_sizes.push(w);
            }
        }
        Self {
            params,
            dev,
            methods,
            word_sizes,
            store: None,
        }
    }

    /// Attaches a plan cache; subsequent plans are looked up before
    /// sweeping and inserted after.
    pub fn with_store(mut self, store: Arc<PlanStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Restricts the key-switching methods swept.
    pub fn with_methods(mut self, methods: Vec<KsMethod>) -> Self {
        self.methods = methods;
        self
    }

    /// The parameter set this planner tunes for.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The attached plan cache, if any.
    pub fn store(&self) -> Option<&Arc<PlanStore>> {
        self.store.as_ref()
    }

    /// Plans a batch program executed at `input_level`.
    pub fn plan_program(
        &self,
        prog: &BatchProgram,
        input_level: usize,
    ) -> Result<ExecPlan, NeoError> {
        let key = PlanKey::for_program(&self.params, prog, input_level);
        self.plan_with(key, |p, cfg| prog.kernel_graph(p, input_level, cfg))
    }

    /// Plans a workload trace (e.g. a bootstrap's step sequence).
    pub fn plan_trace(&self, steps: &[TraceStep]) -> Result<ExecPlan, NeoError> {
        let key = PlanKey::for_trace(&self.params, steps);
        self.plan_with(key, |p, cfg| trace_graph(p, steps, cfg))
    }

    /// Re-prices `plan` for this program through the exact sweep code
    /// path; equals the plan's `predicted_makespan_s` bit-for-bit when
    /// the plan was produced by this planner.
    pub fn simulate_program_plan(
        &self,
        prog: &BatchProgram,
        input_level: usize,
        plan: &ExecPlan,
    ) -> Result<f64, NeoError> {
        self.simulate_plan_with(plan, |p, cfg| prog.kernel_graph(p, input_level, cfg))
    }

    /// Re-prices `plan` for this trace through the exact sweep code
    /// path (see [`simulate_program_plan`](Planner::simulate_program_plan)).
    pub fn simulate_trace_plan(
        &self,
        steps: &[TraceStep],
        plan: &ExecPlan,
    ) -> Result<f64, NeoError> {
        self.simulate_plan_with(plan, |p, cfg| trace_graph(p, steps, cfg))
    }

    /// Parameter set and cost config realizing `plan`'s (method,
    /// word-size) choice — what a graph builder or executor should use
    /// to reproduce the planned configuration.
    pub fn realize(&self, plan: &ExecPlan) -> Result<(CkksParams, CostConfig), NeoError> {
        self.candidate(plan.method, plan.word_size_t)
    }

    /// Parameter set and cost config realizing one (method, word-size)
    /// candidate. `Err` means the candidate is infeasible.
    fn candidate(
        &self,
        method: KsMethod,
        wst: Option<u32>,
    ) -> Result<(CkksParams, CostConfig), NeoError> {
        let cost = CostConfig {
            method,
            ..CostConfig::neo()
        };
        let params = match method {
            KsMethod::Hybrid => self.params.clone(),
            KsMethod::Klss => {
                let k = self.params.klss.ok_or_else(|| {
                    NeoError::invalid_params("cannot plan KLSS: params carry no KlssConfig")
                })?;
                let w = wst.unwrap_or(k.word_size_t);
                if w == k.word_size_t {
                    self.params.clone()
                } else {
                    CkksParams::builder()
                        .log_n(self.params.log_n)
                        .max_level(self.params.max_level)
                        .word_size(self.params.word_size)
                        .special(self.params.special)
                        .dnum(self.params.dnum)
                        .klss(w, k.alpha_tilde)
                        .batch_size(self.params.batch_size)
                        .error_std(self.params.error_std)
                        .scale_bits(self.params.scale_bits)
                        .lambda(self.params.lambda)
                        .single_scaling(self.params.single_scaling)
                        .build()?
                }
            }
        };
        Ok((params, cost))
    }

    fn plan_with(
        &self,
        key: PlanKey,
        build: impl Fn(&CkksParams, &CostConfig) -> OpGraph,
    ) -> Result<ExecPlan, NeoError> {
        if let Some(store) = &self.store {
            if let Some(plan) = store.get(&key) {
                return Ok(plan);
            }
        }
        let mut best: Option<ExecPlan> = None;
        let klss_wsts: Vec<Option<u32>> = self.word_sizes.iter().copied().map(Some).collect();
        for &method in &self.methods {
            let wsts: &[Option<u32>] = match method {
                KsMethod::Hybrid => &[None],
                KsMethod::Klss => {
                    if self.params.klss.is_none() {
                        continue;
                    }
                    &klss_wsts
                }
            };
            for &wst in wsts {
                let Ok((params, cost)) = self.candidate(method, wst) else {
                    continue; // infeasible WordSize_T — skip, don't fail
                };
                let unfused = build(&params, &cost);
                let (fused, _) = unfused.fuse_elementwise();
                for (fusion, graph) in [(false, &unfused), (true, &fused)] {
                    let sched = simulate_best(graph, &self.dev, MAX_STREAMS);
                    let better = best
                        .as_ref()
                        .is_none_or(|b| sched.makespan_s < b.predicted_makespan_s);
                    if better {
                        best = Some(ExecPlan {
                            method,
                            word_size_t: wst,
                            fusion,
                            streams: sched.streams,
                            verify: VerifyPolicy::Off,
                            predicted_makespan_s: sched.makespan_s,
                        });
                    }
                }
            }
        }
        let plan = best.ok_or_else(|| {
            NeoError::invalid_params("plan sweep found no feasible candidate configuration")
        })?;
        if let Some(store) = &self.store {
            store.insert(key, plan);
        }
        Ok(plan)
    }

    fn simulate_plan_with(
        &self,
        plan: &ExecPlan,
        build: impl Fn(&CkksParams, &CostConfig) -> OpGraph,
    ) -> Result<f64, NeoError> {
        let (params, cost) = self.candidate(plan.method, plan.word_size_t)?;
        let unfused = build(&params, &cost);
        let graph = if plan.fusion {
            unfused.fuse_elementwise().0
        } else {
            unfused
        };
        let sched = simulate(&graph, &self.dev, SimConfig::streams(plan.streams));
        Ok(sched.makespan_s * verify_factor(self.params.log_n, plan.verify))
    }
}

/// Closed-form ABFT overhead multiplier on a simulated makespan: each
/// verified op adds two checksum inner products of length `N` against
/// `N log N`-scale kernels, so full verification costs `~2/log_2 N`
/// extra, discounted by the sampling rate.
pub fn verify_factor(log_n: u32, verify: VerifyPolicy) -> f64 {
    let ln = f64::from(log_n.max(1));
    match verify {
        VerifyPolicy::Off => 1.0,
        VerifyPolicy::Always => 1.0 + 2.0 / ln,
        VerifyPolicy::Sampled(n) => 1.0 + 2.0 / (ln * f64::from(n.max(1))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_ckks::{BatchOp, Slot};

    fn hmult_batch(copies: usize) -> BatchProgram {
        let mut prog = BatchProgram::new();
        for i in 0..copies {
            let m = prog
                .try_push(BatchOp::HMult(Slot::Input(i), Slot::Input(i)))
                .unwrap();
            prog.try_push(BatchOp::Rescale(m)).unwrap();
        }
        prog
    }

    fn planner() -> Planner {
        Planner::new(CkksParams::test_small(), DeviceModel::a100())
    }

    #[test]
    fn chosen_plan_beats_or_matches_unplanned() {
        let pl = planner();
        let prog = hmult_batch(6);
        let plan = pl.plan_program(&prog, 4).unwrap();
        let unplanned = ExecPlan::unplanned(pl.params());
        let baseline = pl.simulate_program_plan(&prog, 4, &unplanned).unwrap();
        assert!(
            plan.predicted_makespan_s <= baseline,
            "planned {} > unplanned {baseline}",
            plan.predicted_makespan_s
        );
        assert!(plan.streams >= 1 && plan.streams <= 4);
    }

    #[test]
    fn predicted_makespan_matches_simulator_exactly() {
        let pl = planner();
        let prog = hmult_batch(4);
        let plan = pl.plan_program(&prog, 4).unwrap();
        let repriced = pl.simulate_program_plan(&prog, 4, &plan).unwrap();
        assert_eq!(
            plan.predicted_makespan_s, repriced,
            "cross-check must be exact"
        );
    }

    #[test]
    fn store_round_trip_hits_on_same_shape() {
        let store = Arc::new(PlanStore::new());
        let pl = planner().with_store(Arc::clone(&store));
        let prog = hmult_batch(3);
        let a = pl.plan_program(&prog, 4).unwrap();
        assert_eq!(store.misses(), 1);
        let b = pl.plan_program(&prog, 4).unwrap();
        assert_eq!(store.hits(), 1, "same shape must hit");
        assert_eq!(a, b);
        // Perturbed shape (different level) must miss.
        pl.plan_program(&prog, 3).unwrap();
        assert_eq!(store.misses(), 2, "perturbed shape must miss");
    }

    #[test]
    fn trace_planning_works() {
        let pl = planner();
        let steps = [TraceStep {
            op: neo_ckks::cost::Operation::HMult,
            level: 4,
            count: 8,
        }];
        let plan = pl.plan_trace(&steps).unwrap();
        let repriced = pl.simulate_trace_plan(&steps, &plan).unwrap();
        assert_eq!(plan.predicted_makespan_s, repriced);
    }
}
