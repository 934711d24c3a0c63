//! `bench_guard` — the CI perf-regression gate.
//!
//! Re-runs the tracked micro-kernels — the forward NTT and exact BConv
//! on the portable backend (the same setups as `backend_bench`), and
//! `gemm_256`, a 256³ product on `neo_tcu::ScalarGemm`, the CUDA-core
//! engine behind the matrix NTT, BConv and IP witnesses (no host op runs
//! a GEMM) — and the store warm start, compares each median
//! against the committed baselines in `results/baselines.json`, and
//! applies the [`neo_bench::guard`] policy: >15% slower fails the build
//! (exit 1), >7% warns. Three model rows — the 4-stream KLSS HMult
//! schedule, the coalesced serve batch and the `neo-plan` autotuner's
//! planned-HMult makespan — are deterministic simulator outputs and
//! fail on any drift from their baselines, up or down.
//!
//! Artifacts:
//! * `BENCH_metrics.json` (repo root, or `--out <path>`) — the JSON
//!   report of per-kernel guard verdicts (the telemetry gate's overhead
//!   lives in `BENCH_trace.json`);
//! * `results/bench_guard.prom` — a Prometheus-text snapshot of the
//!   `neo-trace` registry populated during the run (span durations of
//!   the GEMM and store kernels, scheduler utilization, guard gauges).
//!
//! Flags: `--update-baselines` rewrites `results/baselines.json` with
//! this run's medians (promotion; never fails the build).
//! `NEO_GUARD_INJECT_PCT=<pct>` synthetically inflates every measured
//! value so CI can prove the gate trips on a regression.

use neo_bench::guard::{self, Baselines, GuardResult, Verdict};
use neo_bench::measure::{self, MeasureConfig};
use neo_bench::{emit, fmt_time, write_artifact};
use neo_ckks::cost::{CostConfig, Operation};
use neo_ckks::sched::batch_op_graph;
use neo_ckks::{BatchOp, BatchProgram, CkksParams, FheEngine, KeyTarget, KsMethod, ParamSet, Slot};
use neo_gpu_sim::DeviceModel;
use neo_math::{BackendKind, Modulus, RnsBasis};
use neo_ntt::{radix2, NttPlan};
use neo_sched::{publish_utilization, simulate, SimConfig};
use neo_serve::{price_batch, AdmissionConfig};
use neo_store::SessionStore;
use neo_tcu::{GemmEngine, ScalarGemm};
use neo_trace::json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::Path;

const BASELINE_PATH: &str = "results/baselines.json";
const PROM_PATH: &str = "results/bench_guard.prom";

fn verdict_tag(v: Verdict) -> &'static str {
    match v {
        Verdict::Warn => "WARN",
        Verdict::Fail => "FAIL",
        _ => v.tag(),
    }
}

fn main() {
    let update_baselines = std::env::args().any(|a| a == "--update-baselines");
    let cfg = MeasureConfig::from_env();
    let inject = guard::inject_pct();
    // The tracked NTT runs with the telemetry gate off; the rest of the
    // run exercises the instrumented paths with it on, so the .prom
    // artifact carries real series.
    neo_trace::reset();
    neo_trace::disable();

    // --- Kernel setups (portable backend, backend_bench's inputs; the
    // GEMM on ScalarGemm). ---
    let n = 1usize << 14;
    let q = neo_math::primes::ntt_primes(55, n, 1).expect("55-bit NTT prime exists")[0];
    let plan = NttPlan::with_backend(q, n, BackendKind::Portable).expect("plan builds");
    let mut rng = StdRng::seed_from_u64(0xbe);
    let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();

    let ntt = measure::time(&cfg, || {
        let mut x = a.clone();
        radix2::forward(&plan, &mut x);
        x
    });
    neo_trace::enable();

    let src = RnsBasis::new(&neo_math::primes::ntt_primes(36, n, 3).expect("primes"))
        .expect("basis builds");
    let dst = RnsBasis::new(&neo_math::primes::ntt_primes(40, n, 4).expect("primes"))
        .expect("basis builds");
    let table = neo_math::BconvTable::new(&src, &dst)
        .expect("table builds")
        .with_backend(BackendKind::Portable);
    let limbs: Vec<Vec<u64>> = src
        .moduli()
        .iter()
        .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
        .collect();
    let bconv = measure::time(&cfg, || table.convert_exact(&limbs));

    let dim = 256usize;
    let qm = Modulus::new(q).expect("prime is a valid modulus");
    let ga: Vec<u64> = (0..dim * dim).map(|_| rng.gen_range(0..q)).collect();
    let gb: Vec<u64> = (0..dim * dim).map(|_| rng.gen_range(0..q)).collect();
    let cols = vec![qm; dim];
    let gemm = measure::time(&cfg, || {
        let mut out = vec![0u64; dim * dim];
        ScalarGemm.gemm(&cols, &ga, &gb, dim, dim, dim, &mut out);
        out
    });

    // Deterministic simulated kernel: the 4-stream fused KLSS HMult
    // schedule on the A100 model (sched_sweep's flagship scenario).
    let p = ParamSet::C.params();
    let hmult = batch_op_graph(&p, 35, Operation::HMult, &CostConfig::neo(), 8);
    let (hmult_fused, _) = hmult.fuse_elementwise();
    let sched = simulate(&hmult_fused, &DeviceModel::a100(), SimConfig::streams(4));
    publish_utilization(&sched);

    // Deterministic serve-layer kernel: eight paper-scale KLSS requests
    // (two multiply-rescale-add, six rotate-accumulate — serve_bench's
    // workload mix) priced as one coalesced batch; the tracked value is
    // the merged graph's best multi-stream makespan.
    let dev = DeviceModel::a100();
    let serve_progs: Vec<BatchProgram> = (0..8)
        .map(|i| {
            let mut prog = BatchProgram::new();
            if i % 4 == 0 {
                let m = prog
                    .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
                    .expect("push");
                let rs = prog.try_push(BatchOp::Rescale(m)).expect("push");
                prog.try_push(BatchOp::HAdd(rs, rs)).expect("push");
            } else {
                let r = prog
                    .try_push(BatchOp::HRotate(Slot::Input(0), 1))
                    .expect("push");
                prog.try_push(BatchOp::HAdd(r, Slot::Input(0)))
                    .expect("push");
            }
            prog
        })
        .collect();
    let serve_batch: Vec<_> = serve_progs
        .iter()
        .map(|prog| (prog, 35, KsMethod::Klss))
        .collect();
    let (_, serve_makespan) = price_batch(&serve_batch, &p, &AdmissionConfig::default(), &dev)
        .expect("ParamSet::C prices KLSS");

    // Deterministic planner kernel: the autotuner's chosen makespan for
    // the eight-copy HMult batch (plan_bench's flagship workload). A
    // regression here means either the simulator got slower-looking or
    // the sweep stopped finding the winning configuration.
    let mut plan_prog = BatchProgram::new();
    for i in 0..8 {
        let m = plan_prog
            .try_push(BatchOp::HMult(Slot::Input(i), Slot::Input(i)))
            .expect("push");
        plan_prog.try_push(BatchOp::Rescale(m)).expect("push");
    }
    let planner = neo_plan::Planner::new(p.clone(), dev.clone());
    let hmult_plan = planner
        .plan_program(&plan_prog, 35)
        .expect("plan space has feasible candidates");

    // Persistent-store kernel: warm-starting one session (recovery scan
    // + b-part decode + a-part regeneration from the key seed) from a
    // committed store file. A regression here means hydration got slower
    // than the cold keygen it exists to beat.
    let store_path = {
        let mut p = std::env::temp_dir();
        p.push(format!("neo-bench-guard-{}.neostore", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let store_ctx =
        std::sync::Arc::new(neo_ckks::CkksContext::new(CkksParams::test_tiny()).expect("params"));
    let store_level = store_ctx.params().max_level;
    {
        let engine = FheEngine::with_context(store_ctx.clone(), 0xbe).expect("cold keygen");
        engine
            .chest()
            .warm(store_level, KeyTarget::Relin, engine.method())
            .expect("cold keygen");
        let mut ss = SessionStore::open(&store_path, store_ctx.clone()).expect("open store");
        ss.save_engine(0, &engine, 0xbe).expect("save session");
        ss.commit().expect("commit");
    }
    let store_warm = measure::time(&cfg, || {
        let mut ss = SessionStore::open(&store_path, store_ctx.clone()).expect("reopen");
        ss.warm_start(0).expect("warm start").expect("persisted")
    });
    let _ = std::fs::remove_file(&store_path);

    // --- Guard evaluation. ---
    let baselines = match Baselines::load(Path::new(BASELINE_PATH)) {
        Ok(b) => b.unwrap_or_default(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let timed: Vec<(&str, f64)> = vec![
        ("ntt_forward_n16384", guard::apply_injection(ntt.median_ns)),
        ("bconv_exact_3to4", guard::apply_injection(bconv.median_ns)),
        ("gemm_256", guard::apply_injection(gemm.median_ns)),
        (
            "store_warm_start_1tenant",
            guard::apply_injection(store_warm.median_ns),
        ),
    ];
    let modelled: Vec<(&str, f64)> = vec![
        (
            "sched_klss_hmult_makespan",
            guard::apply_injection(sched.makespan_s),
        ),
        (
            "serve_coalesce8_makespan",
            guard::apply_injection(serve_makespan.as_secs_f64()),
        ),
        (
            "plan_hmult8_makespan",
            guard::apply_injection(hmult_plan.predicted_makespan_s),
        ),
    ];
    let is_model = |kernel: &str| modelled.iter().any(|(k, _)| *k == kernel);
    let results: Vec<GuardResult> = timed
        .iter()
        .map(|(k, v)| guard::evaluate(k, baselines.get(k), *v))
        .chain(
            modelled
                .iter()
                .map(|(k, v)| guard::evaluate_model(k, baselines.get(k), *v)),
        )
        .collect();
    let overall = guard::overall(&results);

    // Publish the verdicts as gauges so the .prom artifact carries them.
    for r in &results {
        neo_trace::gauge("bench_guard_change_pct", &[("kernel", &r.kernel)]).set(r.change_pct);
        neo_trace::gauge("bench_guard_measured", &[("kernel", &r.kernel)]).set(r.measured);
    }
    neo_trace::gauge("bench_guard_inject_pct", &[]).set(inject);

    // --- Human report. ---
    let mut human = format!(
        "bench_guard: perf-regression gate (warn >{:.0}%, fail >{:.0}%; \
         model rows fail on drift >1e-9)\n\
         warmup {:?}, measure {:?}, {} samples; inject {:+.1}%\n\n\
         kernel                    | baseline     | measured     | change   | verdict\n\
         --------------------------+--------------+--------------+----------+--------\n",
        guard::WARN_PCT,
        guard::FAIL_PCT,
        cfg.warmup,
        cfg.measure,
        cfg.samples,
        inject,
    );
    for r in &results {
        let unit_time = |v: f64| {
            if is_model(&r.kernel) {
                fmt_time(v)
            } else {
                fmt_time(v / 1e9)
            }
        };
        let base = r.baseline.map_or_else(
            || "     --     ".to_string(),
            |b| format!("{:>12}", unit_time(b)),
        );
        let _ = writeln!(
            human,
            "{:25} | {base} | {:>12} | {:+7.2}% | {}",
            r.kernel,
            unit_time(r.measured),
            r.change_pct,
            verdict_tag(r.verdict),
        );
    }
    let _ = writeln!(human, "\noverall: {}", verdict_tag(overall));

    // --- Artifacts. ---
    let snap = neo_trace::registry().snapshot();
    neo_trace::disable();
    write_artifact(PROM_PATH, &neo_trace::export::prometheus_text(&snap));

    let doc = json!({
        "description": "CI perf-regression gate: tracked kernel medians vs the committed \
                        results/baselines.json (warn >7%, fail >15%); the simulated makespan \
                        rows are model drift checks that fail on any relative difference \
                        above 1e-9. The NTT is timed with the telemetry gate off. Re-run \
                        with: cargo run --release -p neo-bench --bin bench_guard; promote \
                        new baselines with --update-baselines.",
        "config": {
            "warmup_ms": cfg.warmup.as_millis() as u64,
            "measure_ms": cfg.measure.as_millis() as u64,
            "samples": cfg.samples,
            "inject_pct": inject,
            "baseline_file": BASELINE_PATH,
        },
        "guard": {
            "warn_pct": guard::WARN_PCT,
            "fail_pct": guard::FAIL_PCT,
            "updated_baselines": update_baselines,
            "results": results.iter().map(GuardResult::to_json).collect::<Vec<_>>(),
            "overall": overall.tag(),
        },
    });
    emit("BENCH_metrics.json", &human, doc);

    if update_baselines {
        let mut b = Baselines::default();
        for (k, v) in timed.iter().chain(&modelled) {
            b.kernels.insert((*k).to_string(), *v);
        }
        if !b.save(Path::new(BASELINE_PATH)) {
            std::process::exit(2);
        }
        return; // promotion runs never fail the build
    }
    if overall == Verdict::Fail {
        eprintln!(
            "bench_guard: FAIL — a kernel regressed past {}% or a model row drifted",
            guard::FAIL_PCT
        );
        std::process::exit(1);
    }
}
