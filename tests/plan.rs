//! End-to-end planner properties: an engine built from a plan's
//! parameters runs the plan's key-switching method bit-identically to
//! the sequential reference and to the base-params engine on random
//! legal programs, KLSS outputs do not depend on `WordSize_T`, a tenant
//! on a planned registry keeps its own verify policy, and planning is
//! deterministic.

use neo::ckks::{
    BatchProgram, Ciphertext, CkksParams, FheEngine, KlssConfig, KsMethod, NeoError, OpPolicy,
    VerifyPolicy,
};
use neo::gpu_sim::DeviceModel;
use neo::plan::Planner;
use neo::serve::{TenantConfig, TenantRegistry};
use neo_bench::run_sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn unwrap_all(results: Vec<Result<Ciphertext, NeoError>>) -> Vec<Ciphertext> {
    results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("all ops succeed")
}

fn encrypt_inputs(engine: &FheEngine, n_inputs: usize) -> Vec<Ciphertext> {
    (0..n_inputs)
        .map(|i| {
            let x = (i as f64).mul_add(0.3, -0.2);
            engine
                .encrypt_f64(&[x, x / 2.0], engine.max_level())
                .expect("encrypt")
        })
        .collect()
}

/// Random legal programs, both KS methods: an engine built from the
/// planner's chosen parameters runs the plan's method, and its outputs
/// equal the sequential reference on that engine and, with the same
/// seed, on the base-params engine under the plan's method: a plan's
/// parameters keep the base chain.
#[test]
fn planned_execution_bit_identical_on_random_programs() {
    let params = CkksParams::test_tiny();
    let level = params.max_level;
    let n_inputs = 3;
    for method in [KsMethod::Hybrid, KsMethod::Klss] {
        let planner = Planner::new(params.clone(), DeviceModel::a100()).with_methods(vec![method]);
        for seed in [3u64, 17, 91] {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = BatchProgram::random(&mut rng, n_inputs, 8, level, params.n());
            let plan = planner.plan_program(&prog, level).expect("plan");
            let engine = FheEngine::new(plan.params.clone(), seed).expect("engine");
            assert_eq!(engine.method(), method);
            let inputs = encrypt_inputs(&engine, n_inputs);
            let planned = unwrap_all(
                engine
                    .execute_batch(&prog, &inputs, false)
                    .expect("planned"),
            );
            let reference = unwrap_all(run_sequential(&prog, engine.chest(), &inputs, method));
            assert_eq!(
                planned, reference,
                "seed {seed} {method:?}: planned execution diverged from the sequential reference"
            );
            let base = FheEngine::new(params.clone(), seed).expect("base engine");
            assert_eq!(encrypt_inputs(&base, n_inputs), inputs);
            let on_base = unwrap_all(run_sequential(&prog, base.chest(), &inputs, method));
            assert_eq!(
                planned, on_base,
                "seed {seed} {method:?}: the plan diverged from the base engine"
            );
        }
    }
}

/// KLSS's Mod Up and Recover are exact, so a switch's output does not
/// depend on `WordSize_T`: engines re-keyed to other word sizes equal the
/// base engine under KLSS with the same seed, so a KLSS plan at any
/// `WordSize_T` runs the base engine's ciphertexts bit for bit.
#[test]
fn klss_outputs_do_not_depend_on_word_size_t() {
    let params = CkksParams::test_tiny();
    let k = params.klss.expect("test_tiny carries KLSS");
    let mut rng = StdRng::seed_from_u64(7);
    let prog = BatchProgram::random(&mut rng, 3, 8, params.max_level, params.n());
    let base = FheEngine::new(params.clone(), 7).expect("base engine");
    let inputs = encrypt_inputs(&base, 3);
    let on_base = unwrap_all(run_sequential(&prog, base.chest(), &inputs, KsMethod::Klss));
    for word_size_t in [36, 60] {
        let rekeyed = params
            .with_klss(Some(KlssConfig { word_size_t, ..k }))
            .expect("feasible WordSize_T");
        let engine = FheEngine::new(rekeyed, 7).expect("engine");
        let out = unwrap_all(run_sequential(
            &prog,
            engine.chest(),
            &inputs,
            KsMethod::Klss,
        ));
        assert_eq!(out, on_base, "WordSize_T {word_size_t}");
    }
}

/// A plan reaches a tenant only through the registry's parameters, so a
/// tenant registered with `verify: Always` keeps it.
#[test]
fn a_tenant_on_planned_params_keeps_its_verify_policy() {
    let params = CkksParams::test_tiny();
    let mut rng = StdRng::seed_from_u64(5);
    let prog = BatchProgram::random(&mut rng, 2, 6, params.max_level, params.n());
    let plan = Planner::new(params.clone(), DeviceModel::a100())
        .plan_program(&prog, params.max_level)
        .expect("plan");
    let registry = TenantRegistry::new(plan.params.clone()).expect("registry");
    let cfg = TenantConfig {
        policy: OpPolicy {
            verify: VerifyPolicy::Always,
            ..OpPolicy::default()
        },
        ..TenantConfig::default()
    };
    let tenant = registry.register(1, 5, cfg).expect("register");
    assert_eq!(tenant.engine().policy().verify, VerifyPolicy::Always);
    assert_eq!(tenant.engine().method(), plan.params.method());
}

/// Planning is a pure function of its inputs: on random programs and
/// levels, two fresh planners return equal plans, makespan bits
/// included, and each plan re-prices to its own predicted makespan.
#[test]
fn planning_is_deterministic_on_random_programs() {
    let params = CkksParams::test_tiny();
    let fresh = || Planner::new(params.clone(), DeviceModel::a100());
    for (seed, level) in [
        (29u64, params.max_level),
        (41, params.max_level - 1),
        (53, 2),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = BatchProgram::random(&mut rng, 2, 6, level, params.n());
        let a = fresh().plan_program(&prog, level).expect("plan");
        let b = fresh().plan_program(&prog, level).expect("replan");
        assert_eq!(a, b, "seed {seed} level {level}");
        assert_eq!(
            a.predicted_makespan_s.to_bits(),
            b.predicted_makespan_s.to_bits(),
            "seed {seed} level {level}"
        );
        assert_eq!(
            fresh().simulate_program_plan(&prog, level, &a),
            a.predicted_makespan_s,
            "seed {seed} level {level}: re-pricing must be exact"
        );
    }
}
