//! Table 6 — per-operation time at `l = 35` across schemes
//! (microseconds per ciphertext, batch-amortized).

use neo_baselines::SchemeModel;
use neo_bench::emit;
use neo_ckks::cost::Operation;
use neo_ckks::ParamSet;
use neo_trace::json;

fn main() {
    let ops = [
        ("HMult", Operation::HMult),
        ("HRotate", Operation::HRotate),
        ("PMult", Operation::PMult),
        ("HAdd", Operation::HAdd),
        ("PAdd", Operation::PAdd),
        ("Rescale", Operation::Rescale),
    ];
    let schemes = vec![
        ("CPU Set-H".to_string(), SchemeModel::cpu(), 35usize),
        (
            "TensorFHE Set-A".into(),
            SchemeModel::tensorfhe(ParamSet::A),
            35,
        ),
        (
            "TensorFHE Set-B".into(),
            SchemeModel::tensorfhe(ParamSet::B),
            35,
        ),
        ("HEonGPU Set-E".into(), SchemeModel::heongpu(), 35),
        ("Neo Set-C".into(), SchemeModel::neo(ParamSet::C), 35),
    ];
    let mut human = String::from("Table 6: operation time at l = 35 (per ciphertext)\n");
    human.push_str(&format!("{:17} |", "scheme"));
    for (name, _) in &ops {
        human.push_str(&format!(" {name:>10} |"));
    }
    human.push('\n');
    human.push_str(&"-".repeat(19 + ops.len() * 13));
    human.push('\n');
    let mut rows = Vec::new();
    for (label, scheme, level) in &schemes {
        human.push_str(&format!("{label:17} |"));
        let mut cells = Vec::new();
        for (name, op) in &ops {
            let us = scheme.op_time_us(*level, *op);
            human.push_str(&format!(" {:>10} |", neo_bench::fmt_time(us * 1e-6)));
            cells.push(json!({ "op": name, "microseconds": us }));
        }
        human.push('\n');
        rows.push(json!({ "scheme": label, "cells": cells }));
    }
    // Headline ratio: Neo HMult vs TensorFHE Set-A HMult.
    let neo = schemes[4].1.op_time_us(35, Operation::HMult);
    let tfa = schemes[1].1.op_time_us(35, Operation::HMult);
    human.push_str(&format!(
        "\nHMult: TensorFHE Set-A / Neo Set-C = {:.2}x (paper: 15304.6 / 3472.5 = 4.41x)\n",
        tfa / neo
    ));
    emit(
        "results/table6.json",
        &human,
        json!({ "rows": rows, "hmult_ratio_tfA_over_neoC": tfa / neo }),
    );
}
