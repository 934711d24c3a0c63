//! Explore the A100 performance model: per-operation times across levels
//! and schemes, application projections, and what-if questions (e.g. "how
//! much does the FP64 TCU mapping buy at my parameters?").
//!
//! Run with: `cargo run --release --example performance_model`

use neo::apps::AppKind;
use neo::baselines::SchemeModel;
use neo::ckks::cost::{op_time_us, CostConfig, Operation};
use neo::ckks::ParamSet;
use neo::gpu_sim::DeviceModel;
use neo::kernels::MatmulTarget;

fn main() {
    let dev = DeviceModel::a100();
    println!("== HMult time vs level (us per ciphertext, batch-amortized) ==");
    println!("level |  TensorFHE-A |  HEonGPU-E |    Neo-C");
    let (tf, he, neo) = (
        SchemeModel::tensorfhe(ParamSet::A),
        SchemeModel::heongpu(),
        SchemeModel::neo(ParamSet::C),
    );
    for l in (5..=35).step_by(5) {
        println!(
            "  {l:3} | {:12.0} | {:10.0} | {:8.0}",
            tf.op_time_us(l, Operation::HMult),
            he.op_time_us(l, Operation::HMult),
            neo.op_time_us(l, Operation::HMult),
        );
    }

    println!("\n== What-if: Neo with its matmuls forced onto other components ==");
    let p = ParamSet::C.params();
    for (label, target) in [
        ("CUDA cores ", MatmulTarget::Cuda),
        ("TCU INT8   ", MatmulTarget::TcuInt8),
        ("TCU FP64   ", MatmulTarget::TcuFp64),
    ] {
        let mut cfg = CostConfig::neo();
        cfg.ntt_target = target;
        cfg.bconv_target = target;
        cfg.ip_adaptive = false; // IP validity < 80% at l=35: CUDA cores
        let t = op_time_us(&dev, &p, 35, Operation::HMult, &cfg);
        println!("  matmuls on {label}: HMult = {t:7.0} us");
    }

    println!("\n== Application projections (seconds) ==");
    for app in AppKind::ALL {
        println!(
            "  {:>13}: TensorFHE-A {:8.2}  HEonGPU {:8.2}  Neo-C {:8.2}",
            app.to_string(),
            tf.app_time_s(app),
            he.app_time_s(app),
            neo.app_time_s(app),
        );
    }
}
