//! Telemetry quick-start: run a small encrypted batch with the
//! `neo-trace` gate on, then read per-op latency (span-duration) and
//! noise histograms out of one registry snapshot and export it as
//! Prometheus text and JSON.
//!
//! Run with: `cargo run --release --example metrics_snapshot`

use neo::ckks::batch::{BatchOp, BatchProgram, Slot};
use neo::prelude::*;

fn main() -> Result<(), NeoError> {
    // Telemetry is off by default (every instrumented site costs one
    // relaxed atomic load). Turn the gate on for the monitored section;
    // outside `neo::trace::record` spans only time themselves, so memory
    // stays bounded however long the gate is on.
    neo::trace::enable();

    let engine = FheEngine::new(CkksParams::test_small(), 2025)?;
    let x = engine.encrypt_f64(&[0.5, 0.25, 0.125], 3)?;
    let y = engine.encrypt_f64(&[0.1, 0.2, 0.3], 3)?;

    // (x·y rescaled, then rotated and accumulated) as a batch program.
    let mut prog = BatchProgram::new();
    let m = prog.try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(1)))?;
    let r = prog.try_push(BatchOp::Rescale(m))?;
    let rot = prog.try_push(BatchOp::HRotate(r, 1))?;
    prog.try_push(BatchOp::HAdd(r, rot))?;
    let report = engine.execute_batch_with_report(&prog, &[x, y], 2)?;
    println!(
        "batch: {} ops, {} retries, {} faults recovered\n",
        report.results.len(),
        report.retries_attempted.iter().sum::<u32>(),
        report.faults_recovered.iter().sum::<u32>()
    );

    neo::trace::disable();

    // One snapshot captures every series at one instant. An op's latency
    // is its span's duration histogram.
    let snap = neo::trace::registry().snapshot();
    for op in ["hmult", "rescale", "hrotate", "hadd"] {
        let span = format!("ckks.{op}");
        if let Some(lat) = snap.histogram(neo::trace::SPAN_DURATION_NS, &[("span", &span)]) {
            println!(
                "{op:8} n={:3}  p50={:>9} ns  p95={:>9} ns  p99={:>9} ns  max={:>9} ns",
                lat.count,
                lat.p50(),
                lat.p95(),
                lat.p99(),
                lat.max
            );
        }
        if let Some(noise) = snap.histogram("fhe_noise_consumed_bits", &[("op", op)]) {
            println!(
                "{op:8} noise consumed: p50={} bits, max={} bits",
                noise.p50(),
                noise.max
            );
        }
    }

    // Exporters: Prometheus text exposition and a JSON document.
    println!("\n--- prometheus text (excerpt) ---");
    let prom = neo::trace::export::prometheus_text(&snap);
    for line in prom.lines().filter(|l| l.contains("fhe_batch")) {
        println!("{line}");
    }
    let json = neo::trace::export::json(&snap);
    println!(
        "\nJSON export: {} bytes (parse it back with neo::trace::jsonv)",
        json.len()
    );
    Ok(())
}
