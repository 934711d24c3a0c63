//! Fault-tolerant batch execution end to end: arm a deterministic fault
//! plan, run a batch under an always-verifying engine, and watch the
//! stack recover — transient op faults retried bit-identically, a
//! poisoned NTT-plan cache entry quarantined and rebuilt, an op with an
//! exhausted retry budget isolated while the clean subset completes.
//! Finishes by measuring what the ABFT checksums actually cost, using the
//! same work counters the A100 cost model prices.
//!
//! Run with: `cargo run --release --example fault_tolerant_batch`

use neo::fault::{FaultPlan, FaultScope, FaultSite, FaultSpec};
use neo::prelude::*;
use neo::trace::Counter;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An engine that verifies every eligible operation: GEMM checksums in
    // the TCU path, NTT spot checks after every transform. Use
    // `VerifyPolicy::Sampled(n)` to amortize the cost 1-in-n in
    // production.
    let engine = FheEngine::new(CkksParams::test_tiny(), 42)?.with_policy(OpPolicy {
        verify: VerifyPolicy::Always,
        ..OpPolicy::default()
    });

    // A small program with an independent op: HMult -> Rescale, plus an
    // HAdd that shares no intermediate state with the chain.
    let mut prog = BatchProgram::new();
    let product = prog.try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(1)))?;
    prog.try_push(BatchOp::Rescale(product))?;
    prog.try_push(BatchOp::HAdd(Slot::Input(0), Slot::Input(1)))?;

    let a = engine.encrypt_f64(&[1.5, -0.5, 2.0], engine.max_level())?;
    let b = engine.encrypt_f64(&[0.5, 3.0, -1.0], engine.max_level())?;
    let inputs = vec![a, b];

    // Fault-free baseline for bit-identity comparisons.
    let clean: Vec<Ciphertext> = engine
        .execute_batch(&prog, &inputs, false)?
        .into_iter()
        .collect::<Result<_, _>>()?;

    // --- 1. A transient op fault is retried bit-identically -----------
    let plan = Arc::new(FaultPlan::new(7).with_site(FaultSite::CkksOp, FaultSpec::once()));
    let scope = FaultScope::install(plan.clone());
    let report = engine.execute_batch_with_report(&prog, &inputs, 2)?;
    drop(scope);
    let recovered: Vec<Ciphertext> = report.results.into_iter().collect::<Result<_, _>>()?;
    assert_eq!(recovered, clean);
    println!(
        "transient fault: {} injected, {} retries, {} recovered -> all outputs bit-identical",
        plan.injected(FaultSite::CkksOp),
        report.retries_attempted.iter().sum::<u32>(),
        report.faults_recovered.iter().sum::<u32>(),
    );

    // --- 2. A poisoned NTT plan is quarantined and rebuilt -------------
    let plan = Arc::new(FaultPlan::new(31).with_site(FaultSite::NttPlan, FaultSpec::once()));
    let scope = FaultScope::install(plan.clone());
    let report = engine.execute_batch_with_report(&prog, &inputs, 2)?;
    drop(scope);
    let recovered: Vec<Ciphertext> = report.results.into_iter().collect::<Result<_, _>>()?;
    assert_eq!(recovered, clean);
    println!(
        "poisoned plan: integrity token tripped, {} cache entr{} quarantined, rebuilt, recovered bit-identically",
        report.plans_quarantined,
        if report.plans_quarantined == 1 { "y" } else { "ies" },
    );

    // --- 3. Exhausted retries isolate the op; clean subset completes ---
    // Every transform output is corrupted: the HMult fails its attempt
    // and its one retry, the Rescale is poisoned, and the HAdd (no
    // transform) completes.
    let plan = Arc::new(FaultPlan::new(23).with_site(FaultSite::NttStage, FaultSpec::always()));
    let scope = FaultScope::install(plan.clone());
    let report = engine.execute_batch_with_report(&prog, &inputs, 1)?;
    drop(scope);
    for (i, r) in report.results.iter().enumerate() {
        match r {
            Ok(ct) => println!(
                "  op {i}: ok, bit-identical to clean run: {}",
                ct == &clean[i]
            ),
            Err(e) => println!("  op {i}: {:?} ({e})", e.kind()),
        }
    }

    // --- 4. What does verification cost? -------------------------------
    // Warm the unverified engine's keys first: `engine`'s are warm from
    // the runs above, and key generation is not the batch's work.
    let off = FheEngine::new(CkksParams::test_tiny(), 42)?;
    off.warm_program(&prog, off.max_level())?;
    let (_, w_off) = neo::trace::record(|| off.execute_batch(&prog, &inputs, false));
    let (_, w_on) = neo::trace::record(|| engine.execute_batch(&prog, &inputs, false));
    let base = neo::gpu_sim::KernelProfile::from_counters("off", &w_off).cuda_modmacs;
    let verified = neo::gpu_sim::KernelProfile::from_counters("on", &w_on).cuda_modmacs;
    println!(
        "\nABFT overhead: {} checks, {} checksum MACs = {:.2}% extra CUDA work \
         (VerifyPolicy::Sampled(100) would pay ~{:.3}%)",
        w_on.get(Counter::AbftChecks),
        w_on.get(Counter::AbftMacs),
        100.0 * (verified - base) / base,
        (verified - base) / base,
    );
    Ok(())
}
