//! [`Planner`] — the sweep engine that turns a workload into an
//! [`ExecPlan`]: the parameter set it priced cheapest, with the device
//! choices and makespan that priced it.
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
//! The method and `WordSize_T` are parameters: each candidate is the
//! base set re-keyed by [`CkksParams::with_klss`] (Hybrid candidates
//! carry `klss: None`), priced by the discrete-event simulator under
//! Neo's cost configuration. Fusion and streams are the simulator's
//! best-of for that set, reported and read only by re-pricing. The
//! strict minimum wins, ties resolving to the earliest candidate in
//! sweep order so planning is deterministic.
//!
//! [`Planner::simulate_program_plan`] / [`simulate_trace_plan`]
//! re-price a *given* plan through the identical code path, so a
//! cross-check of a plan's `predicted_makespan_s` against the
//! simulator is exact (`==`), not approximate.
//!
//! [`simulate_trace_plan`]: Planner::simulate_trace_plan

use neo_ckks::bootstrap::TraceStep;
use neo_ckks::cost::CostConfig;
use neo_ckks::sched::trace_graph;
use neo_ckks::{BatchProgram, CkksParams, KlssConfig, KsMethod, NeoError};
use neo_gpu_sim::DeviceModel;
use neo_sched::{simulate, simulate_best, OpGraph, SimConfig};

/// `WordSize_T` candidates beyond the configured value: the paper's
/// sweet spot (48) and its neighbors trading digit count against
/// modulus growth.
const EXTRA_WORD_SIZES: [u32; 3] = [36, 48, 60];

/// Stream counts the sweep tries: `1..=MAX_STREAMS`.
const MAX_STREAMS: usize = 4;

/// The planner's priced result. Build an engine or a tenant registry
/// from [`Self::params`] to run the planned method; nothing else in a
/// plan reaches the host.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// The parameter set the plan priced: the base set with the chosen
    /// KLSS configuration (its `WordSize_T`), or `klss: None` for
    /// Hybrid ([`CkksParams::method`]).
    pub params: CkksParams,
    /// Whether fusing element-wise kernel chains priced best. A device
    /// choice: reported, and read only by re-pricing.
    pub fusion: bool,
    /// The stream count the simulator found best. A device choice:
    /// reported, and read only by re-pricing.
    pub streams: usize,
    /// The simulated makespan of the planned workload, in seconds (0.0
    /// for [`Self::unplanned`]).
    pub predicted_makespan_s: f64,
}

impl ExecPlan {
    /// The all-defaults plan for `p`: its own parameters, no fusion, one
    /// stream — what an unplanned session prices at, and the baseline
    /// `plan_bench` compares the planner's choice against.
    pub fn unplanned(p: &CkksParams) -> Self {
        Self {
            params: p.clone(),
            fusion: false,
            streams: 1,
            predicted_makespan_s: 0.0,
        }
    }

    /// The cost configuration the plan is priced under: Neo's preset at
    /// its parameters' key-switching method.
    pub fn cost(&self) -> CostConfig {
        CostConfig {
            method: self.params.method(),
            ..CostConfig::neo()
        }
    }
}

/// Sim-driven autotuner over the Neo knob space.
///
/// Construct with [`Planner::new`], optionally restrict the methods
/// swept, then call [`plan_program`](Planner::plan_program) or
/// [`plan_trace`](Planner::plan_trace). Each call runs the whole sweep.
#[derive(Debug, Clone)]
pub struct Planner {
    params: CkksParams,
    dev: DeviceModel,
    methods: Vec<KsMethod>,
    word_sizes: Vec<u32>,
}

impl Planner {
    /// Planner for `params` priced on `dev`, with the Neo cost preset,
    /// up to 4 streams, both applicable KS methods and the default
    /// `WordSize_T` candidate set.
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
        }
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

    /// Plans a batch program executed at `input_level`.
    pub fn plan_program(
        &self,
        prog: &BatchProgram,
        input_level: usize,
    ) -> Result<ExecPlan, NeoError> {
        self.plan_with(|p, cfg| prog.kernel_graph(p, input_level, cfg))
    }

    /// Plans a workload trace (e.g. a bootstrap's step sequence).
    pub fn plan_trace(&self, steps: &[TraceStep]) -> Result<ExecPlan, NeoError> {
        self.plan_with(|p, cfg| trace_graph(p, steps, cfg))
    }

    /// Re-prices `plan` for this program through the exact sweep code
    /// path; equals the plan's `predicted_makespan_s` bit-for-bit when
    /// the plan was produced by this planner.
    pub fn simulate_program_plan(
        &self,
        prog: &BatchProgram,
        input_level: usize,
        plan: &ExecPlan,
    ) -> f64 {
        self.simulate_plan_with(plan, |p, cfg| prog.kernel_graph(p, input_level, cfg))
    }

    /// Re-prices `plan` for this trace through the exact sweep code
    /// path (see [`simulate_program_plan`](Planner::simulate_program_plan)).
    pub fn simulate_trace_plan(&self, steps: &[TraceStep], plan: &ExecPlan) -> f64 {
        self.simulate_plan_with(plan, |p, cfg| trace_graph(p, steps, cfg))
    }

    fn plan_with(
        &self,
        build: impl Fn(&CkksParams, &CostConfig) -> OpGraph,
    ) -> Result<ExecPlan, NeoError> {
        let mut best: Option<ExecPlan> = None;
        for &method in &self.methods {
            let klss: Vec<Option<KlssConfig>> = match (method, self.params.klss) {
                (KsMethod::Hybrid, _) => vec![None],
                (KsMethod::Klss, None) => continue,
                (KsMethod::Klss, Some(k)) => self
                    .word_sizes
                    .iter()
                    .map(|&word_size_t| Some(KlssConfig { word_size_t, ..k }))
                    .collect(),
            };
            for k in klss {
                let Ok(params) = self.params.with_klss(k) else {
                    continue; // infeasible WordSize_T — skip, don't fail
                };
                let mut candidate = ExecPlan::unplanned(&params);
                let unfused = build(&params, &candidate.cost());
                let (fused, _) = unfused.fuse_elementwise();
                for (fusion, graph) in [(false, &unfused), (true, &fused)] {
                    let sched = simulate_best(graph, &self.dev, MAX_STREAMS);
                    let better = best
                        .as_ref()
                        .is_none_or(|b| sched.makespan_s < b.predicted_makespan_s);
                    if better {
                        candidate.fusion = fusion;
                        candidate.streams = sched.streams;
                        candidate.predicted_makespan_s = sched.makespan_s;
                        best = Some(candidate.clone());
                    }
                }
            }
        }
        best.ok_or_else(|| {
            NeoError::invalid_params("plan sweep found no feasible candidate configuration")
        })
    }

    fn simulate_plan_with(
        &self,
        plan: &ExecPlan,
        build: impl Fn(&CkksParams, &CostConfig) -> OpGraph,
    ) -> f64 {
        let unfused = build(&plan.params, &plan.cost());
        let graph = if plan.fusion {
            unfused.fuse_elementwise().0
        } else {
            unfused
        };
        simulate(&graph, &self.dev, SimConfig::streams(plan.streams)).makespan_s
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
        let baseline = pl.simulate_program_plan(&prog, 4, &unplanned);
        assert!(
            plan.predicted_makespan_s <= baseline,
            "planned {} > unplanned {baseline}",
            plan.predicted_makespan_s
        );
        assert!(plan.streams >= 1 && plan.streams <= 4);
    }

    #[test]
    fn a_plan_carries_the_parameters_it_priced() {
        let base = CkksParams::test_small();
        let prog = hmult_batch(2);
        let hybrid = planner()
            .with_methods(vec![KsMethod::Hybrid])
            .plan_program(&prog, 4)
            .unwrap();
        assert_eq!(hybrid.params, base.with_klss(None).unwrap());
        let klss = planner()
            .with_methods(vec![KsMethod::Klss])
            .plan_program(&prog, 4)
            .unwrap();
        assert_eq!(klss.params, base.with_klss(klss.params.klss).unwrap());
        let k = klss
            .params
            .klss
            .expect("a KLSS plan carries its configuration");
        assert_eq!(k.alpha_tilde, base.klss.unwrap().alpha_tilde);
        assert!([36, 48, 60].contains(&k.word_size_t));
    }

    #[test]
    fn predicted_makespan_matches_simulator_exactly() {
        let pl = planner();
        let prog = hmult_batch(4);
        let plan = pl.plan_program(&prog, 4).unwrap();
        let repriced = pl.simulate_program_plan(&prog, 4, &plan);
        assert_eq!(
            plan.predicted_makespan_s, repriced,
            "cross-check must be exact"
        );
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
        let repriced = pl.simulate_trace_plan(&steps, &plan);
        assert_eq!(plan.predicted_makespan_s, repriced);
    }
}
