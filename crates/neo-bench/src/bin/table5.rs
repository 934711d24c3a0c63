//! Table 5 — application performance (seconds) across CPU, TensorFHE
//! (with and without single scaling), HEonGPU, and Neo.

use neo_apps::AppKind;
use neo_baselines::SchemeModel;
use neo_bench::emit;
use neo_ckks::ParamSet;
use neo_trace::json;

fn main() {
    let mut schemes: Vec<(String, SchemeModel)> = Vec::new();
    schemes.push(("CPU".into(), SchemeModel::cpu()));
    schemes.push((
        "TensorFHE_SS Set-F".into(),
        SchemeModel::tensorfhe(ParamSet::F),
    ));
    schemes.push(("Neo_SS Set-G".into(), SchemeModel::neo(ParamSet::G)));
    for set in [ParamSet::A, ParamSet::B, ParamSet::C] {
        schemes.push((format!("TensorFHE {set}"), SchemeModel::tensorfhe(set)));
    }
    schemes.push(("HEonGPU Set-E".into(), SchemeModel::heongpu()));
    schemes.push(("Neo Set-C".into(), SchemeModel::neo(ParamSet::C)));
    schemes.push(("Neo Set-D".into(), SchemeModel::neo(ParamSet::D)));

    let mut human = String::from("Table 5: application performance (seconds)\n");
    human.push_str(&format!("{:20} |", "scheme"));
    for app in AppKind::ALL {
        human.push_str(&format!(" {:>13} |", app.to_string()));
    }
    human.push('\n');
    human.push_str(&"-".repeat(22 + AppKind::ALL.len() * 16));
    human.push('\n');
    let mut rows = Vec::new();
    let mut table: Vec<Vec<f64>> = Vec::new();
    for (label, scheme) in &schemes {
        human.push_str(&format!("{label:20} |"));
        let mut cells = Vec::new();
        let mut vals = Vec::new();
        for app in AppKind::ALL {
            let t = scheme.app_time_s(app);
            human.push_str(&format!(" {:>13} |", neo_bench::fmt_time(t)));
            cells.push(json!({ "app": app.to_string(), "seconds": t }));
            vals.push(t);
        }
        human.push('\n');
        rows.push(json!({ "scheme": label, "cells": cells }));
        table.push(vals);
    }
    // Speedup summary: Neo Set-C vs best TensorFHE config per app.
    let neo_row = schemes.iter().position(|(l, _)| l == "Neo Set-C").unwrap();
    let tf_rows: Vec<usize> = schemes
        .iter()
        .enumerate()
        .filter(|(_, (l, _))| l.starts_with("TensorFHE Set"))
        .map(|(i, _)| i)
        .collect();
    let mut geo = 1.0f64;
    let mut count = 0;
    human.push_str("\nNeo Set-C speedup over TensorFHE's best full-scaling config:\n");
    for (a, app) in AppKind::ALL.iter().enumerate() {
        let best_tf = tf_rows
            .iter()
            .map(|&r| table[r][a])
            .fold(f64::INFINITY, f64::min);
        let s = best_tf / table[neo_row][a];
        geo *= s;
        count += 1;
        human.push_str(&format!("  {app}: {s:.2}x\n"));
    }
    let geo = geo.powf(1.0 / count as f64);
    human.push_str(&format!(
        "  geomean: {geo:.2}x  (paper: 3.28x vs TensorFHE's optimal configuration)\n"
    ));
    emit(
        "results/table5.json",
        &human,
        json!({ "rows": rows, "neo_vs_tensorfhe_best_geomean": geo }),
    );
}
