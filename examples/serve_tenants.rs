//! The serving layer end to end: register tenants with their own keys and
//! policies over one shared CKKS context, submit concurrent requests, let
//! admission coalesce them into batches, and watch backpressure shed a
//! tenant that outruns its budget.
//!
//! Run with: `cargo run --release --example serve_tenants`

use neo::prelude::*;
use neo::serve::{NeoService, ServeConfig, ServiceCore, TenantConfig, TenantRegistry};
use std::sync::Arc;

/// `2x²`, homomorphically: HMult → Rescale → HAdd (the operands of the
/// add are both the rescaled square, keeping every op level-consistent).
fn double_square() -> Result<BatchProgram, NeoError> {
    let mut p = BatchProgram::new();
    let sq = p.try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))?;
    let rs = p.try_push(BatchOp::Rescale(sq))?;
    p.try_push(BatchOp::HAdd(rs, rs))?;
    Ok(p)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. One shared context, many tenants --------------------------
    // The registry owns the expensive parameter state (prime chains, NTT
    // plans, BConv tables); each registered tenant gets its own keys and
    // its own operational policy on top of it.
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny())?);
    for id in 0..4u64 {
        registry.register(
            id,
            1000 + id, // per-tenant key seed
            TenantConfig {
                policy: OpPolicy {
                    verify: VerifyPolicy::Always,
                    ..OpPolicy::default()
                },
                ..TenantConfig::default()
            },
        )?;
    }
    println!(
        "registered {} tenants over one shared context",
        registry.len()
    );

    // --- 2. Deterministic serving with ServiceCore --------------------
    let mut core = ServiceCore::new(Arc::clone(&registry), ServeConfig::default());
    let inputs: Vec<f64> = vec![0.5, -0.25, 1.5, 0.75];
    for (id, &x) in inputs.iter().enumerate() {
        let session = registry.get(id as u64).expect("registered above");
        let ct = session.engine().encrypt_f64(&[x], 3)?;
        core.submit(id as u64, double_square()?, vec![ct])?;
    }
    // All four requests were queued concurrently — one drain coalesces
    // them into a single batch whose requests run concurrently.
    let responses = core.run_until_idle();
    for resp in &responses {
        let session = registry.get(resp.tenant).expect("registered above");
        let results = resp.outcome.as_ref().map_err(Clone::clone)?;
        let last = results.last().expect("program has ops");
        let y = session
            .engine()
            .decrypt_f64(last.as_ref().map_err(Clone::clone)?)?;
        let x = inputs[resp.tenant as usize];
        println!(
            "tenant {}: x={x:+.2} -> 2x² = {:+.4} (expected {:+.4}; batch of {})",
            resp.tenant,
            y[0],
            2.0 * x * x,
            resp.batch_requests,
        );
    }
    let stats = core.stats();
    println!(
        "coalescing factor {:.1} over {} batch(es), {} shed",
        stats.coalescing_factor(),
        stats.batches,
        stats.shed_total()
    );

    // --- 3. Backpressure is typed, and per tenant ----------------------
    let mut tight = ServeConfig::default();
    tight.admission.max_queue_depth = 2;
    let mut small = ServiceCore::new(Arc::clone(&registry), tight);
    let session = registry.get(0).expect("registered above");
    let ct = session.engine().encrypt_f64(&[0.1], 3)?;
    for _ in 0..2 {
        small.submit(0, double_square()?, vec![ct.clone()])?;
    }
    match small.submit(0, double_square()?, vec![ct]) {
        Err(NeoError::Overloaded { what, .. }) => {
            println!("third concurrent request shed: Overloaded({what}) — client should back off")
        }
        other => println!("unexpected: {other:?}"),
    }
    small.run_until_idle();

    // --- 4. The threaded front-end -------------------------------------
    // NeoService runs the same loop on a worker thread behind a bounded
    // channel; submissions return handles that block until served.
    let service = NeoService::spawn(Arc::clone(&registry), ServeConfig::default());
    let mut handles = Vec::new();
    for id in 0..4u64 {
        let session = registry.get(id).expect("registered above");
        let ct = session
            .engine()
            .encrypt_f64(&[0.25 * (id as f64 + 1.0)], 3)?;
        handles.push(service.submit(id, double_square()?, vec![ct])?);
    }
    for h in handles {
        let resp = h.wait()?;
        println!(
            "async tenant {}: served in a batch of {} ({} retried, {} recovered)",
            resp.tenant, resp.batch_requests, resp.retries, resp.faults_recovered
        );
    }
    let final_stats = service.shutdown();
    println!(
        "service shutdown: {} submitted, {} completed, {} shed",
        final_stats.submitted,
        final_stats.completed,
        final_stats.shed_total()
    );
    Ok(())
}
