//! Cross-crate scheduler tests: the `neo-sched` discrete-event simulator
//! against the one-stream serial sum `DeviceModel::serial_time_s` and
//! its overlap envelope, and the wavefront batch executor against the
//! sequential reference on real ciphertexts.

use neo::ckks::batch::{BatchOp, BatchProgram, Slot};
use neo::ckks::cost::{CostConfig, Operation};
use neo::ckks::encoding::Complex64;
use neo::ckks::keys::{KeyChest, PublicKey, SecretKey};
use neo::ckks::sched::{batch_op_graph, op_graph};
use neo::ckks::{ops, CkksContext, CkksParams, Encoder, KsMethod, ParamSet};
use neo::gpu_sim::DeviceModel;
use neo::sched::{simulate, simulate_best, SimConfig};
use neo_bench::run_sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// At one stream the simulated makespan equals the serial model
/// `Σlaunches·launch_s + max(Σcuda+Σtcu, Σmem)` on the CKKS graphs.
#[test]
fn one_stream_equals_serial_model() {
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    for cfg in [CostConfig::neo(), CostConfig::tensorfhe()] {
        for op in [Operation::HMult, Operation::HRotate, Operation::Rescale] {
            for level in [10usize, 35] {
                let g = op_graph(&p, level, op, &cfg);
                let serial = dev.serial_time_s(&g.profiles());
                let sim = simulate(&g, &dev, SimConfig::streams(1));
                let rel = (sim.makespan_s - serial).abs() / serial;
                assert!(
                    rel < 1e-9,
                    "{op:?} level {level}: simulated {} vs serial {} (rel {rel:.2e})",
                    sim.makespan_s,
                    serial
                );
            }
        }
    }
}

/// The default-config simulated makespan lands inside the compute
/// overlap envelope `[max(Σcuda, Σtcu), Σcuda + Σtcu]` (plus prologue):
/// overlap can hide at most the shorter engine's phase.
#[test]
fn default_config_within_overlap_envelope() {
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    let cfg = CostConfig::neo();
    let g = op_graph(&p, 35, Operation::HMult, &cfg);
    let sums = dev.sequence_sums(&g.profiles());
    let prologue = g.launch_prologue_s(&dev);
    let sim = simulate_best(&g, &dev, SimConfig::default().streams);
    let floor = prologue + sums.overlap_floor_s().max(sums.mem_s);
    let ceiling = prologue + sums.serial_compute_s().max(sums.mem_s);
    assert!(
        sim.makespan_s >= floor - 1e-12 && sim.makespan_s <= ceiling + 1e-12,
        "makespan {} outside [{}, {}]",
        sim.makespan_s,
        floor,
        ceiling
    );
}

/// Acceptance criterion: >1.2x modeled speedup at 4 streams on the KLSS
/// hmult pipeline (a batch of independent HMults, which is what
/// multi-stream execution overlaps).
#[test]
fn four_streams_speed_up_klss_hmult() {
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    let cfg = CostConfig::neo();
    assert_eq!(cfg.method, KsMethod::Klss);
    let g = batch_op_graph(&p, 35, Operation::HMult, &cfg, 4);
    let serial = simulate(&g, &dev, SimConfig::streams(1)).makespan_s;
    let four = simulate_best(&g, &dev, 4).makespan_s;
    let speedup = serial / four;
    assert!(
        speedup > 1.2,
        "4-stream speedup {speedup:.3} (serial {serial:.4}s, 4-stream {four:.4}s)"
    );
}

/// Simulated makespan never beats the critical-path or HBM lower bounds
/// at any stream count, and the best-of-N schedule never loses to the
/// serial sum (a forced multi-stream split of a chain may, legitimately:
/// cross-stream syncs cost time).
#[test]
fn makespan_bounds_hold_on_ckks_graphs() {
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    let cfg = CostConfig::neo();
    let g = batch_op_graph(&p, 20, Operation::HRotate, &cfg, 3);
    let serial = simulate(&g, &dev, SimConfig::streams(1)).makespan_s;
    for streams in 1..=6 {
        let sim = simulate(&g, &dev, SimConfig::streams(streams));
        assert!(sim.makespan_s >= g.critical_path_s(&dev) - 1e-12);
        assert!(sim.makespan_s >= g.memory_floor_s(&dev) - 1e-12);
        let best = simulate_best(&g, &dev, streams);
        assert!(best.makespan_s <= serial + 1e-12, "streams {streams}");
    }
}

/// Fusing the element-wise chains never increases the simulated makespan
/// on the real HMult pipeline.
#[test]
fn fusion_helps_or_is_neutral() {
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    let cfg = CostConfig::neo();
    let g = batch_op_graph(&p, 35, Operation::HMult, &cfg, 2);
    let (fused, stats) = g.fuse_elementwise();
    assert!(stats.nodes_after < stats.nodes_before);
    let before = simulate_best(&g, &dev, 4).makespan_s;
    let after = simulate_best(&fused, &dev, 4).makespan_s;
    assert!(
        after <= before + 1e-12,
        "fusion regressed: {after} vs {before}"
    );
}

fn chest_and_inputs(seed: u64, count: usize) -> (KeyChest, Vec<neo::ckks::Ciphertext>) {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng).unwrap();
    let enc = Encoder::new(ctx.degree());
    let level = ctx.params().max_level;
    let scale = ctx.params().scale();
    let inputs: Vec<_> = (0..count)
        .map(|i| {
            let vals: Vec<Complex64> = (0..enc.slots())
                .map(|j| Complex64::new(((i * 31 + j * 7) % 13) as f64 / 13.0 - 0.4, 0.0))
                .collect();
            let pt = enc.encode(&ctx, &vals, scale, level);
            ops::try_encrypt(&ctx, &pk, &pt, &mut rng).unwrap()
        })
        .collect();
    (KeyChest::new(ctx, sk, seed ^ 0x5eed), inputs)
}

/// Acceptance criterion: the wavefront batch executor returns exactly
/// what the sequential reference returns on randomized programs of
/// hmult/hrotate/rescale/hadd over real ciphertexts, for both
/// key-switching methods.
#[test]
fn batch_executor_bit_identical_to_serial() {
    for (seed, method) in [(7u64, KsMethod::Klss), (8, KsMethod::Hybrid)] {
        let (chest, inputs) = chest_and_inputs(seed, 3);
        let level = inputs[0].level();
        let mut rng = StdRng::seed_from_u64(seed * 1000 + 1);
        for round in 0..3 {
            let prog =
                BatchProgram::random(&mut rng, inputs.len(), 10, level, chest.context().degree());
            let got = prog.execute(&chest, &inputs, method).unwrap();
            assert_eq!(
                got,
                run_sequential(&prog, &chest, &inputs, method),
                "round {round} {method:?}: executor diverged from the sequential reference"
            );
            assert!(got.iter().all(|r| r.is_ok()));
        }
    }
}

/// A hand-built diamond program: concurrent branches reconverge and the
/// executor returns the sequential reference's ciphertexts.
#[test]
fn batch_executor_diamond_program() {
    let (chest, inputs) = chest_and_inputs(11, 2);
    let mut prog = BatchProgram::new();
    let m = prog
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(1)))
        .unwrap();
    let r = prog.try_push(BatchOp::Rescale(m)).unwrap();
    let left = prog.try_push(BatchOp::HRotate(r, 3)).unwrap();
    let right = prog.try_push(BatchOp::HRotate(r, 5)).unwrap();
    prog.try_push(BatchOp::HAdd(left, right)).unwrap();
    let got = prog.execute(&chest, &inputs, KsMethod::Klss).unwrap();
    assert_eq!(got, run_sequential(&prog, &chest, &inputs, KsMethod::Klss));
    assert_eq!(got.len(), 5);
    assert!(got.iter().all(|r| r.is_ok()));
}
