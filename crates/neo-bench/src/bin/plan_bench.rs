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
//! (parameter-default KS method, no fusion, one stream). The chosen
//! plan's `predicted_makespan_s` is cross-checked **exactly** (`==`)
//! against an independent re-simulation.
//!
//! Host measurement runs the HMult batch on reduced functional
//! parameters (`test_small` — the usual two-tier pricing split, as in
//! `serve_bench`): a host-side planner picks a plan, and execution on a
//! session the plan is installed on ([`FheEngine::with_plan`]) is timed
//! against the all-defaults session, with outputs asserted
//! bit-identical to a same-method reference.
//!
//! Artifacts: `BENCH_plan.json` at the repo root,
//! `results/plan_bench.json` (via the shared `emit` convention), and
//! `results/plan_trace.json` — the Chrome trace of the chosen HMult
//! schedule.

#![deny(clippy::unwrap_used)]

use neo_bench::{emit, fmt_time, ratio};
use neo_ckks::bootstrap::BootstrapPlan;
use neo_ckks::{BatchOp, BatchProgram, CkksParams, ExecPlan, FheEngine, ParamSet, Slot};
use neo_gpu_sim::DeviceModel;
use neo_plan::{PlanStore, Planner};
use neo_sched::{chrome_trace, simulate, SimConfig};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

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
        "{:?} wst={} fusion={} streams={} verify={:?}",
        p.method,
        p.word_size_t
            .map_or_else(|| "-".to_string(), |w| w.to_string()),
        p.fusion,
        p.streams,
        p.verify
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let copies = env_usize("NEO_PLAN_COPIES", 8);
    neo_trace::enable();

    // --- Simulated planning on the accelerator parameters ---
    let params = ParamSet::C.params();
    let dev = DeviceModel::a100();
    let store = Arc::new(PlanStore::new());
    let planner = Planner::new(params.clone(), dev.clone()).with_store(Arc::clone(&store));

    let prog = hmult_batch(copies);
    let sim_level = params.max_level;
    eprintln!("[plan_bench] planning {copies}x HMult batch on ParamSet::C…");
    let hmult_plan = planner.plan_program(&prog, sim_level).expect("plan hmult");
    let hmult_default = ExecPlan::unplanned(&params);
    let hmult_default_s = planner
        .simulate_program_plan(&prog, sim_level, &hmult_default)
        .expect("price default");
    let hmult_recheck = planner
        .simulate_program_plan(&prog, sim_level, &hmult_plan)
        .expect("recheck");
    assert_eq!(
        hmult_plan.predicted_makespan_s, hmult_recheck,
        "predicted makespan must match an independent re-simulation exactly"
    );
    let hmult_sim_speedup = ratio(hmult_default_s, hmult_plan.predicted_makespan_s);

    // Same shape again: must be served from the plan cache.
    let cached = planner.plan_program(&prog, sim_level).expect("replan");
    assert_eq!(cached, hmult_plan);
    assert!(store.hits() >= 1, "second plan call must hit the store");

    eprintln!("[plan_bench] planning standard bootstrap trace…");
    let bs_steps = BootstrapPlan::try_standard(&params)
        .expect("bootstrap plan")
        .trace();
    let bs_plan = planner.plan_trace(&bs_steps).expect("plan bootstrap");
    let bs_default_s = planner
        .simulate_trace_plan(&bs_steps, &hmult_default)
        .expect("price default trace");
    let bs_recheck = planner
        .simulate_trace_plan(&bs_steps, &bs_plan)
        .expect("recheck trace");
    assert_eq!(
        bs_plan.predicted_makespan_s, bs_recheck,
        "bootstrap predicted makespan must re-simulate exactly"
    );
    let bs_sim_speedup = ratio(bs_default_s, bs_plan.predicted_makespan_s);

    // Chrome trace of the chosen HMult schedule.
    let (chosen_params, chosen_cost) = planner.realize(&hmult_plan).expect("realize");
    let graph = {
        let g = prog.kernel_graph(&chosen_params, sim_level, &chosen_cost);
        if hmult_plan.fusion {
            g.fuse_elementwise().0
        } else {
            g
        }
    };
    let sched = simulate(&graph, &dev, SimConfig::streams(hmult_plan.streams));
    if std::fs::create_dir_all("results").is_ok() {
        match std::fs::write("results/plan_trace.json", chrome_trace(&graph, &sched)) {
            Ok(()) => eprintln!("[wrote results/plan_trace.json]"),
            Err(e) => eprintln!("warning: could not write results/plan_trace.json: {e}"),
        }
    }

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
    engine.warm_program(&prog, host_level).expect("warm");

    // All-defaults baseline (parameter-default method, 1 stream).
    let t0 = Instant::now();
    let default_out = engine
        .execute_batch(&prog, &inputs, false)
        .expect("default");
    let host_default_s = t0.elapsed().as_secs_f64();

    // Same-method reference: the bit-identity anchor. Only the KS method
    // changes ciphertext bits; streams/fusion are timing-side.
    let engine = engine.with_plan(&ExecPlan::pinned(&host_params, host_plan.method));
    let reference: Vec<_> = engine
        .execute_batch(&prog, &inputs, false)
        .expect("reference")
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("reference ops");

    // Planned execution under the tuned plan.
    let engine = engine.with_plan(&host_plan);
    let t1 = Instant::now();
    let planned_out = engine
        .execute_batch(&prog, &inputs, false)
        .expect("planned");
    let host_planned_s = t1.elapsed().as_secs_f64();
    let planned: Vec<_> = planned_out
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("planned ops");
    assert_eq!(
        planned, reference,
        "planned outputs must be bit-identical to the same-method reference"
    );
    let mut identical = planned.len();
    if host_plan.method == ExecPlan::unplanned(&host_params).method {
        let default_ok: Vec<_> = default_out
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("default ops");
        assert_eq!(
            planned, default_ok,
            "same-method planned outputs must equal the unplanned run bit for bit"
        );
        identical = planned.len();
    }
    let host_speedup = ratio(host_default_s, host_planned_s);

    let human = format!(
        "plan_bench — {copies}x HMult batch + standard bootstrap trace\n\
         workload            default (sim)   chosen (sim)    sim speedup   chosen config\n\
         hmult_batch         {:>13}   {:>12}   {:>10.2}x   {}\n\
         bootstrap_trace     {:>13}   {:>12}   {:>10.2}x   {}\n\
         host hmult (test_small): default {} -> planned {} ({host_speedup:.2}x), \
         {identical} op outputs bit-identical\n\
         plan store: {} hits / {} misses ({} plans cached)",
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
        store.hits(),
        store.misses(),
        store.len(),
    );

    let plan_json = |p: &ExecPlan| {
        json!({
            "method": format!("{:?}", p.method),
            "word_size_t": p.word_size_t,
            "fusion": p.fusion,
            "streams": p.streams,
            "verify": format!("{:?}", p.verify),
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
            "plan": plan_json(&host_plan),
            "bit_identical_ops": identical,
        },
        "plan_store": {
            "hits": store.hits(),
            "misses": store.misses(),
            "cached": store.len(),
        },
    });

    match serde_json::to_string_pretty(&doc) {
        Ok(s) => match std::fs::write("BENCH_plan.json", s) {
            Ok(()) => eprintln!("[wrote BENCH_plan.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_plan.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize BENCH_plan.json: {e}"),
    }
    emit("plan_bench", &human, doc);

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
