//! `plan_bench` — chosen-vs-default speedup of the `neo-plan` autotuner.
//!
//! Two workloads, mirroring the planner's two entry points:
//!
//! 1. **batched KLSS HMult** — `NEO_PLAN_COPIES` (default 8)
//!    independent multiply-rescale pairs, the serving layer's unit of
//!    coalesced work;
//! 2. **bootstrap trace** — the standard [`BootstrapPlan`] step
//!    sequence, the paper's end-to-end workload.
//!
//! Both are planned on the accelerator parameters (`ParamSet::C`, A100
//! device model) and the chosen plan's simulated makespan is compared
//! against [`ExecPlan::unplanned`] — the all-defaults configuration
//! (the parameters' own KS method, no fusion, one stream). The chosen
//! plan's `predicted_makespan_s` is cross-checked **exactly** (`==`)
//! against an independent re-simulation.
//!
//! Host measurement runs the HMult batch on reduced functional
//! parameters (`test_small` — the usual two-tier pricing split, as in
//! `serve_bench`): a host-side planner picks a plan, and a session built
//! from the plan's parameters (same seed) is timed against the
//! all-defaults session with [`measure::time_pair`] (alternating
//! samples, median; one run of each batch first warms keys and
//! conversion tables), with outputs asserted bit-identical to a
//! sequential loop under the plan's method on the all-defaults session's
//! keys.
//!
//! Artifacts: `BENCH_plan.json` at the repo root (or `--out <path>`) and
//! `results/plan_trace.json` — the Chrome trace of the chosen HMult
//! schedule.

#![deny(clippy::unwrap_used)]

use neo_bench::measure::{self, MeasureConfig};
use neo_bench::{emit, fmt_time, ratio, run_sequential, write_artifact};
use neo_ckks::bootstrap::BootstrapPlan;
use neo_ckks::{BatchOp, BatchProgram, Ciphertext, CkksParams, FheEngine, ParamSet, Slot};
use neo_gpu_sim::DeviceModel;
use neo_plan::{ExecPlan, Planner};
use neo_sched::{chrome_trace, simulate, SimConfig};
use neo_trace::json;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `copies` independent multiply-rescale pairs — the batched HMult
/// workload.
fn hmult_batch(copies: usize) -> BatchProgram {
    let mut prog = BatchProgram::new();
    for i in 0..copies {
        let m = prog
            .try_push(BatchOp::HMult(Slot::Input(i), Slot::Input(i)))
            .expect("hmult");
        prog.try_push(BatchOp::Rescale(m)).expect("rescale");
    }
    prog
}

fn plan_summary(p: &ExecPlan) -> String {
    format!(
        "{:?} wst={} fusion={} streams={}",
        p.params.method(),
        p.params
            .klss
            .map_or_else(|| "-".to_string(), |k| k.word_size_t.to_string()),
        p.fusion,
        p.streams,
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let copies = env_usize("NEO_PLAN_COPIES", 8);

    // --- Simulated planning on the accelerator parameters ---
    let params = ParamSet::C.params();
    let dev = DeviceModel::a100();
    let planner = Planner::new(params.clone(), dev.clone());

    let prog = hmult_batch(copies);
    let sim_level = params.max_level;
    eprintln!("[plan_bench] planning {copies}x HMult batch on ParamSet::C…");
    let hmult_plan = planner.plan_program(&prog, sim_level).expect("plan hmult");
    let hmult_default = ExecPlan::unplanned(&params);
    let hmult_default_s = planner.simulate_program_plan(&prog, sim_level, &hmult_default);
    let hmult_recheck = planner.simulate_program_plan(&prog, sim_level, &hmult_plan);
    assert_eq!(
        hmult_plan.predicted_makespan_s, hmult_recheck,
        "predicted makespan must match an independent re-simulation exactly"
    );
    let hmult_sim_speedup = ratio(hmult_default_s, hmult_plan.predicted_makespan_s);

    eprintln!("[plan_bench] planning standard bootstrap trace…");
    let bs_steps = BootstrapPlan::try_standard(&params)
        .expect("bootstrap plan")
        .trace();
    let bs_plan = planner.plan_trace(&bs_steps).expect("plan bootstrap");
    let bs_default_s = planner.simulate_trace_plan(&bs_steps, &hmult_default);
    let bs_recheck = planner.simulate_trace_plan(&bs_steps, &bs_plan);
    assert_eq!(
        bs_plan.predicted_makespan_s, bs_recheck,
        "bootstrap predicted makespan must re-simulate exactly"
    );
    let bs_sim_speedup = ratio(bs_default_s, bs_plan.predicted_makespan_s);

    // Chrome trace of the chosen HMult schedule.
    let graph = {
        let g = prog.kernel_graph(&hmult_plan.params, sim_level, &hmult_plan.cost());
        if hmult_plan.fusion {
            g.fuse_elementwise().0
        } else {
            g
        }
    };
    let sched = simulate(&graph, &dev, SimConfig::streams(hmult_plan.streams));
    write_artifact("results/plan_trace.json", &chrome_trace(&graph, &sched));

    // --- Host-measured execution on reduced functional parameters ---
    let host_params = CkksParams::test_small();
    let host_planner = Planner::new(host_params.clone(), dev.clone());
    let host_level = host_params.max_level;
    eprintln!("[plan_bench] host run: planning + executing on test_small…");
    let host_plan = host_planner
        .plan_program(&prog, host_level)
        .expect("host plan");

    let engine = FheEngine::new(host_params.clone(), 42).expect("engine");
    let inputs: Vec<_> = (0..copies)
        .map(|i| {
            let x = 0.25 + 0.5 * (i as f64) / (copies as f64);
            engine.encrypt_f64(&[x, -x], host_level).expect("encrypt")
        })
        .collect();
    // One run per session checks its outputs and warms its keys and its
    // context's conversion tables before the timed runs.
    let run = |e: &FheEngine| -> Vec<Ciphertext> {
        e.execute_batch(&prog, &inputs, false)
            .expect("batch runs")
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("every op succeeds")
    };

    // All-defaults baseline: the parameters' own method.
    let default_out = run(&engine);

    // Same-method reference: the bit-identity anchor, a sequential loop
    // under the plan's method on the all-defaults session's keys.
    let reference: Vec<_> =
        run_sequential(&prog, engine.chest(), &inputs, host_plan.params.method())
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("reference ops");

    // The planned session, built from the plan's parameters with the
    // same seed: its keys are the all-defaults session's.
    let planned_engine = FheEngine::new(host_plan.params.clone(), 42).expect("planned engine");
    let planned = run(&planned_engine);
    assert_eq!(
        planned, reference,
        "planned outputs must be bit-identical to the same-method reference"
    );
    if host_plan.params == host_params {
        assert_eq!(
            planned, default_out,
            "a plan of the default parameters must equal the unplanned run bit for bit"
        );
    }
    let identical = planned.len();
    let (default_t, planned_t) = measure::time_pair(
        &MeasureConfig::from_env(),
        || engine.execute_batch(&prog, &inputs, false),
        || planned_engine.execute_batch(&prog, &inputs, false),
    );
    let (host_default_s, host_planned_s) = (default_t.median_ns * 1e-9, planned_t.median_ns * 1e-9);
    let host_speedup = ratio(host_default_s, host_planned_s);
    let samples = default_t.samples;

    let human = format!(
        "plan_bench — {copies}x HMult batch + standard bootstrap trace\n\
         workload            default (sim)   chosen (sim)    sim speedup   chosen config\n\
         hmult_batch         {:>13}   {:>12}   {:>10.2}x   {}\n\
         bootstrap_trace     {:>13}   {:>12}   {:>10.2}x   {}\n\
         host hmult (test_small, median of {samples} alternating samples): default {} -> \
         planned {} ({host_speedup:.2}x), {identical} op outputs bit-identical",
        fmt_time(hmult_default_s),
        fmt_time(hmult_plan.predicted_makespan_s),
        hmult_sim_speedup,
        plan_summary(&hmult_plan),
        fmt_time(bs_default_s),
        fmt_time(bs_plan.predicted_makespan_s),
        bs_sim_speedup,
        plan_summary(&bs_plan),
        fmt_time(host_default_s),
        fmt_time(host_planned_s),
    );

    let plan_json = |p: &ExecPlan| {
        json!({
            "method": format!("{:?}", p.params.method()),
            "word_size_t": p.params.klss.map(|k| k.word_size_t),
            "fusion": p.fusion,
            "streams": p.streams,
            "predicted_makespan_s": p.predicted_makespan_s,
        })
    };
    let doc = json!({
        "bench": "plan",
        "copies": copies,
        "sim_params": "ParamSet::C",
        "host_params": "test_small",
        "hmult_batch": {
            "default_makespan_s": hmult_default_s,
            "chosen_makespan_s": hmult_plan.predicted_makespan_s,
            "sim_speedup": hmult_sim_speedup,
            "plan": plan_json(&hmult_plan),
            "predicted_equals_resim": true,
        },
        "bootstrap_trace": {
            "steps": bs_steps.len(),
            "default_makespan_s": bs_default_s,
            "chosen_makespan_s": bs_plan.predicted_makespan_s,
            "sim_speedup": bs_sim_speedup,
            "plan": plan_json(&bs_plan),
            "predicted_equals_resim": true,
            // No host bootstrap executor exists in this repo; the trace
            // is simulated only (the HMult batch carries the host ratio).
            "host_measured": false,
        },
        "host": {
            "default_s": host_default_s,
            "planned_s": host_planned_s,
            "host_speedup": host_speedup,
            "samples": samples,
            "plan": plan_json(&host_plan),
            "bit_identical_ops": identical,
        },
    });

    emit("BENCH_plan.json", &human, doc);

    // Acceptance: the tuned plan must strictly beat the all-defaults
    // configuration on simulated makespan for both workloads.
    assert!(
        hmult_sim_speedup > 1.0,
        "planner must beat all-defaults on the HMult batch (got {hmult_sim_speedup:.3}x)"
    );
    assert!(
        bs_sim_speedup > 1.0,
        "planner must beat all-defaults on the bootstrap trace (got {bs_sim_speedup:.3}x)"
    );
}
