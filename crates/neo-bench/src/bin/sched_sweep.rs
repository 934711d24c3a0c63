//! `sched_sweep` — multi-stream scheduling sweep over the `neo-sched`
//! discrete-event simulator, plus the batch executor's host speedup.
//!
//! Sweeps 1..=8 simulated streams over two kernel DAGs on the A100 model:
//! a batch of independent KLSS HMults (`ParamSet::C`, level 35 — the
//! pipeline the acceptance criterion targets) and one CTS stage of the
//! standard bootstrap plan (BSGS rotations/pmults with the accumulation
//! barrier). Reports the fixed-stream and best-of-N makespans, modeled
//! throughput, and the elementwise-fusion statistics, then measures the
//! wall-clock speedup of the wavefront batch executor
//! (`BatchProgram::execute`) over running the same randomized program's
//! ops one by one through `ops::try_*` on real ciphertexts
//! (`test_small`), checking bit-identity along the way.
//!
//! Artifacts: `BENCH_sched.json` at the repo root (or `--out <path>`) and
//! `results/sched_trace.json` (Chrome trace of the best 4-stream HMult
//! schedule — load in `chrome://tracing` or Perfetto).

use neo_bench::measure::{self, MeasureConfig};
use neo_bench::{emit, fmt_time, run_sequential, write_artifact};
use neo_ckks::batch::BatchProgram;
use neo_ckks::bootstrap::BootstrapPlan;
use neo_ckks::cost::{CostConfig, Operation};
use neo_ckks::encoding::Complex64;
use neo_ckks::keys::{PublicKey, SecretKey};
use neo_ckks::sched::{batch_op_graph, trace_graph};
use neo_ckks::{ops, CkksContext, CkksParams, Encoder, KeyChest, KsMethod, ParamSet};
use neo_gpu_sim::DeviceModel;
use neo_sched::{chrome_trace, simulate, simulate_best, OpGraph, SimConfig};
use neo_trace::json;
use neo_trace::jsonv::JsonValue;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;

const MAX_STREAMS: usize = 8;
const HMULT_COPIES: usize = 8;

/// One simulated sweep of `g`: fixed-stream and best-of-N makespans for
/// every stream count, plus per-count modeled throughput in ops/s.
fn sweep(
    g: &OpGraph,
    dev: &DeviceModel,
    ops_in_graph: usize,
    human: &mut String,
) -> Vec<JsonValue> {
    let serial = simulate(g, dev, SimConfig::streams(1)).makespan_s;
    let mut rows = Vec::new();
    for streams in 1..=MAX_STREAMS {
        let fixed = simulate(g, dev, SimConfig::streams(streams));
        let best = simulate_best(g, dev, streams);
        let throughput = ops_in_graph as f64 / best.makespan_s;
        let _ = writeln!(
            human,
            "  {streams} streams: fixed {:>10}  best {:>10}  speedup {:>5.2}x  {:>8.1} op/s",
            fmt_time(fixed.makespan_s),
            fmt_time(best.makespan_s),
            serial / best.makespan_s,
            throughput,
        );
        rows.push(json!({
            "streams": streams,
            "makespan_s": fixed.makespan_s,
            "best_makespan_s": best.makespan_s,
            "best_streams": best.streams,
            "speedup_vs_serial": serial / best.makespan_s,
            "modeled_ops_per_s": throughput,
        }));
    }
    rows
}

fn main() {
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    let cfg = CostConfig::neo();
    let mut human = String::from("neo-sched streams sweep (A100 model, ParamSet C, KLSS)\n");

    // --- KLSS HMult batch ---------------------------------------------
    let hmult = batch_op_graph(&p, 35, Operation::HMult, &cfg, HMULT_COPIES);
    let (hmult_fused, stats) = hmult.fuse_elementwise();
    let _ = writeln!(
        human,
        "\nHMult x{HMULT_COPIES} (level 35): {} kernels, {} edges; fused: {} kernels, {:.0} launches (was {:.0})",
        hmult.len(),
        hmult.edge_count(),
        hmult_fused.len(),
        stats.launches_after,
        stats.launches_before,
    );
    let hmult_rows = sweep(&hmult_fused, &dev, HMULT_COPIES, &mut human);

    // --- Bootstrap CTS stage ------------------------------------------
    let plan = BootstrapPlan::try_standard(&p).unwrap();
    let trace = plan.trace();
    // One BSGS stage: rotations, pmults, additions, and the rescale.
    let cts: Vec<_> = trace.iter().copied().take(4).collect();
    let boot = trace_graph(&p, &cts, &cfg);
    let boot_ops: usize = cts.iter().map(|s| s.count.max(1)).sum();
    let _ = writeln!(
        human,
        "\nBootstrap CTS stage ({boot_ops} ops): {} kernels, {} edges",
        boot.len(),
        boot.edge_count(),
    );
    let boot_rows = sweep(&boot, &dev, boot_ops, &mut human);

    // --- Chrome trace of the best 4-stream HMult schedule -------------
    let schedule = simulate_best(&hmult_fused, &dev, 4);
    write_artifact(
        "results/sched_trace.json",
        &chrome_trace(&hmult_fused, &schedule),
    );

    // --- Batch executor: host wall-clock speedup ---------------------
    let ctx = Arc::new(CkksContext::new(CkksParams::test_small()).expect("test_small context"));
    let mut rng = StdRng::seed_from_u64(21);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng).expect("public key");
    let chest = KeyChest::new(ctx.clone(), sk, 22);
    let enc = Encoder::new(ctx.degree());
    let scale = ctx.params().scale();
    let level = ctx.params().max_level;
    let inputs: Vec<_> = (0..4)
        .map(|i| {
            let vals: Vec<Complex64> = (0..enc.slots())
                .map(|j| Complex64::new(((i * 17 + j * 5) % 11) as f64 / 11.0 - 0.3, 0.0))
                .collect();
            ops::try_encrypt(&ctx, &pk, &enc.encode(&ctx, &vals, scale, level), &mut rng)
                .expect("fresh encryption at max level")
        })
        .collect();
    let prog = BatchProgram::random(&mut rng, inputs.len(), 24, level, ctx.degree());
    let sequential = || run_sequential(&prog, &chest, &inputs, KsMethod::Klss);
    let executor = || {
        prog.execute(&chest, &inputs, KsMethod::Klss)
            .expect("random programs are legal")
    };
    // The first sequential run generates the keys, outside the timings.
    let reference = sequential();
    assert!(
        reference.iter().all(Result::is_ok),
        "random programs are legal"
    );
    assert_eq!(
        executor(),
        reference,
        "executor outputs diverged from the sequential reference"
    );
    let (sequential, executor) =
        measure::time_pair(&MeasureConfig::from_env(), sequential, executor);
    let (sequential_s, executor_s) = (sequential.median_ns * 1e-9, executor.median_ns * 1e-9);
    let host_speedup = sequential_s / executor_s;
    let _ = writeln!(
        human,
        "\nBatch executor (test_small, 24-op random program, {} threads, median of {} alternating samples): sequential {} vs executor {} -> {host_speedup:.2}x, bit-identical",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sequential.samples,
        fmt_time(sequential_s),
        fmt_time(executor_s),
    );

    let doc = json!({
        "bench": "sched_sweep",
        "device": "A100 analytic model",
        "param_set": "C",
        "hmult_batch": {
            "copies": HMULT_COPIES,
            "level": 35,
            "kernels": hmult.len(),
            "kernels_fused": hmult_fused.len(),
            "fusion": {
                "nodes_before": stats.nodes_before,
                "nodes_after": stats.nodes_after,
                "launches_before": stats.launches_before,
                "launches_after": stats.launches_after,
                "bytes_before": stats.bytes_before,
                "bytes_after": stats.bytes_after,
            },
            "sweep": hmult_rows,
        },
        "bootstrap_cts_stage": {
            "ops": boot_ops,
            "kernels": boot.len(),
            "sweep": boot_rows,
        },
        "batch_executor": {
            "params": "test_small",
            "program_ops": prog.ops.len(),
            "samples": sequential.samples,
            "sequential_s": sequential_s,
            "executor_s": executor_s,
            "host_speedup": host_speedup,
            "bit_identical": true,
        },
    });
    emit("BENCH_sched.json", &human, doc);
}
