//! Multi-stream scheduling end to end: build the kernel DAG of a batch of
//! KLSS HMults, simulate it on 1..4 A100 streams with the `neo-sched`
//! discrete-event simulator, then *execute* the same kind of batch on real
//! ciphertexts with the wavefront executor, which runs the independent
//! pipelines concurrently on the rayon pool.
//!
//! Run with: `cargo run --release --example multi_stream_batch`

use neo::ckks::batch::{BatchOp, BatchProgram, Slot};
use neo::ckks::cost::{CostConfig, Operation};
use neo::ckks::encoding::Complex64;
use neo::ckks::keys::{KeyChest, PublicKey, SecretKey};
use neo::ckks::sched::batch_op_graph;
use neo::ckks::{ops, CkksContext, CkksParams, Encoder, KsMethod, ParamSet};
use neo::gpu_sim::DeviceModel;
use neo::sched::simulate_best;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Simulate: how much does multi-stream overlap buy? ---------
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    let cfg = CostConfig::neo();
    let copies = 4;
    let g = batch_op_graph(&p, 35, Operation::HMult, &cfg, copies);
    let (fused, stats) = g.fuse_elementwise();
    println!(
        "kernel DAG of {copies} independent KLSS HMults: {} kernels ({} after fusion, {:.0} -> {:.0} launches)",
        g.len(),
        fused.len(),
        stats.launches_before,
        stats.launches_after
    );
    let serial = simulate_best(&fused, &dev, 1);
    for streams in [2, 4] {
        let s = simulate_best(&fused, &dev, streams);
        println!(
            "  up to {streams} streams: {:.1} ms ({:.2}x vs 1 stream)",
            s.makespan_s * 1e3,
            serial.makespan_s / s.makespan_s
        );
    }

    // --- 2. Execute: the same batch shape on real ciphertexts ---------
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny())?);
    let mut rng = StdRng::seed_from_u64(7);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng)?;
    let chest = KeyChest::new(ctx.clone(), sk, 8);
    let enc = Encoder::new(ctx.degree());
    let level = ctx.params().max_level;
    let inputs: Vec<_> = (0..copies)
        .map(|i| {
            let vals: Vec<Complex64> = (0..enc.slots())
                .map(|j| Complex64::new(0.3 * ((i + j) as f64 * 0.4).cos(), 0.0))
                .collect();
            let pt = enc.encode(&ctx, &vals, ctx.params().scale(), level);
            ops::try_encrypt(&ctx, &pk, &pt, &mut rng)
        })
        .collect::<Result<_, _>>()?;

    // Square each input and rescale — four independent 2-op pipelines the
    // wavefront executor runs concurrently.
    let mut prog = BatchProgram::new();
    for i in 0..copies {
        let sq = prog.try_push(BatchOp::HMult(Slot::Input(i), Slot::Input(i)))?;
        prog.try_push(BatchOp::Rescale(sq))?;
    }
    let out = prog.execute(&chest, &inputs, KsMethod::Klss)?;
    println!(
        "\nexecuted {} ops over {copies} ciphertexts on the rayon pool",
        prog.ops.len()
    );

    // Decode one output to show the math still works.
    let squared = out[1].as_ref().map_err(Clone::clone)?;
    let dec = enc.decode(&ctx, &ops::try_decrypt(&ctx, chest.secret_key(), squared)?);
    let expect = 0.3 * 0.4f64.cos();
    println!(
        "input[0] squared, slot 1: {:.4} (expected {:.4})",
        dec[1].re,
        expect * expect
    );
    Ok(())
}
