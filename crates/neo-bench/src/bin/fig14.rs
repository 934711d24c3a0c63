//! Fig. 14 — incremental ablation: relative application time while adding
//! +KLSS, +dataflow optimization, +ten-step NTT, and +FP64 TCU, each
//! normalized to the TensorFHE baseline.

use neo_apps::{helr, resnet, workload, AppKind};
use neo_baselines::ablation_ladder;
use neo_bench::emit;
use neo_gpu_sim::DeviceModel;
use neo_trace::json;

fn main() {
    let dev = DeviceModel::a100();
    let apps = [
        AppKind::PackBootstrap,
        AppKind::Helr,
        AppKind::ResNet20,
        AppKind::ResNet56,
    ];
    let ladder = ablation_ladder();
    let mut human = String::from("Fig. 14: relative execution time, normalized to TensorFHE\n");
    human.push_str("step             |");
    for app in apps {
        human.push_str(&format!(" {app:>13} |"));
    }
    human.push('\n');
    human.push_str(&"-".repeat(18 + apps.len() * 16));
    human.push('\n');
    let mut rows = Vec::new();
    let mut base: Vec<f64> = Vec::new();
    for step in &ladder {
        let mut cells = Vec::new();
        human.push_str(&format!("{:16} |", step.label));
        for (i, app) in apps.iter().enumerate() {
            let trace = match app {
                AppKind::PackBootstrap => workload::bootstrap_app(&step.params),
                AppKind::Helr => helr::trace(&step.params),
                AppKind::ResNet20 => resnet::trace(&step.params, resnet::ResNetDepth::D20),
                AppKind::ResNet32 => resnet::trace(&step.params, resnet::ResNetDepth::D32),
                AppKind::ResNet56 => resnet::trace(&step.params, resnet::ResNetDepth::D56),
            };
            let mut t = trace.time_s(&dev, &step.params, &step.cfg);
            if *app == AppKind::Helr {
                t /= helr::ITERATIONS as f64;
            }
            if base.len() <= i {
                base.push(t);
            }
            let rel = t / base[i];
            human.push_str(&format!("       {rel:5.2}x |"));
            cells.push(json!({ "app": app.to_string(), "relative": rel, "seconds": t }));
        }
        human.push('\n');
        rows.push(json!({ "step": step.label, "cells": cells }));
    }
    human.push_str("\nEach optimization step lowers (or holds) relative time; the final\nconfiguration is full Neo.\n");
    emit("results/fig14.json", &human, json!({ "rows": rows }));
}
