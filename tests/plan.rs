//! End-to-end planner properties: planned execution is bit-identical to
//! the sequential reference under the plan's key-switching method on
//! random legal programs, and the plan cache round-trips.

use neo::ckks::{BatchProgram, Ciphertext, CkksParams, FheEngine, KsMethod, NeoError};
use neo::gpu_sim::DeviceModel;
use neo::plan::{PlanStore, Planner};
use neo_bench::run_sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn unwrap_all(results: Vec<Result<Ciphertext, NeoError>>) -> Vec<Ciphertext> {
    results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("all ops succeed")
}

/// Random legal programs, both KS methods: executing under the
/// planner's chosen plan (fusion/stream knobs live) produces the same
/// ciphertext bits as the sequential reference under the same method —
/// the only knob that changes bits.
#[test]
fn planned_execution_bit_identical_on_random_programs() {
    let params = CkksParams::test_tiny();
    let dev = DeviceModel::a100();
    for method in [KsMethod::Hybrid, KsMethod::Klss] {
        for seed in [3u64, 17, 91] {
            let mut rng = StdRng::seed_from_u64(seed);
            let engine = FheEngine::new(params.clone(), seed).expect("engine");
            let level = engine.max_level();
            let n_inputs = 3usize;
            let prog =
                BatchProgram::random(&mut rng, n_inputs, 8, level, engine.context().degree());
            let inputs: Vec<Ciphertext> = (0..n_inputs)
                .map(|i| {
                    let x = (i as f64).mul_add(0.3, -0.2);
                    engine.encrypt_f64(&[x, x / 2.0], level).expect("encrypt")
                })
                .collect();
            let reference = unwrap_all(run_sequential(&prog, engine.chest(), &inputs, method));

            // The planner's chosen plan, restricted to this method.
            let planner = Planner::new(params.clone(), dev.clone()).with_methods(vec![method]);
            let plan = planner.plan_program(&prog, level).expect("plan");
            assert_eq!(plan.method, method);
            let engine = engine.with_plan(&plan);
            let planned = unwrap_all(
                engine
                    .execute_batch(&prog, &inputs, false)
                    .expect("planned"),
            );
            assert_eq!(
                planned, reference,
                "seed {seed} {method:?}: planned execution diverged from the sequential reference"
            );
        }
    }
}

/// PlanStore round-trip: the same (params, shape) key hits; perturbing
/// the program shape or the parameters misses.
#[test]
fn plan_store_round_trips_on_random_programs() {
    let params = CkksParams::test_tiny();
    let store = Arc::new(PlanStore::new());
    let planner = Planner::new(params.clone(), DeviceModel::a100()).with_store(Arc::clone(&store));
    let mut rng = StdRng::seed_from_u64(29);
    let level = params.max_level;
    let prog = BatchProgram::random(&mut rng, 2, 6, level, 1 << params.log_n);

    let first = planner.plan_program(&prog, level).expect("plan");
    assert_eq!((store.hits(), store.misses()), (0, 1));
    let second = planner.plan_program(&prog, level).expect("replan");
    assert_eq!(first, second, "cache must return the identical plan");
    assert_eq!((store.hits(), store.misses()), (1, 1));

    // Same ops at a different level: different shape, fresh sweep.
    planner.plan_program(&prog, level - 1).expect("perturbed");
    assert_eq!(store.misses(), 2, "perturbed shape must miss");

    // Same shape under different params: different fingerprint.
    let other = CkksParams::test_small();
    let other_planner =
        Planner::new(other.clone(), DeviceModel::a100()).with_store(Arc::clone(&store));
    other_planner
        .plan_program(&prog, level)
        .expect("other params");
    assert_eq!(store.misses(), 3, "re-parameterization must re-key");
    assert_eq!(store.len(), 3);
}
