//! Table 8 — KeySwitch execution time (ms) across the `d_num × α̃`
//! KLSS hyperparameter grid, other parameters as Set-B/C.

use neo_bench::emit;
use neo_ckks::cost::{keyswitch_time_us, CostConfig};
use neo_ckks::{CkksParams, KlssConfig, ParamSet};
use neo_gpu_sim::DeviceModel;
use neo_trace::json;

fn main() {
    let dev = DeviceModel::a100();
    let cfg = CostConfig::neo();
    let dnums = [4usize, 6, 9, 12, 18];
    let alpha_tildes = [4usize, 5, 6, 7, 8, 9, 10];
    let mut human = String::from(
        "Table 8: KeySwitch time (ms per ciphertext) over d_num x alpha~ (KLSS)\n        |",
    );
    for d in dnums {
        human.push_str(&format!(" d_num={d:2} |"));
    }
    human.push('\n');
    human.push_str(&"-".repeat(9 + dnums.len() * 11));
    human.push('\n');
    let mut rows = Vec::new();
    let mut best = (f64::INFINITY, 0usize, 0usize);
    for at in alpha_tildes {
        human.push_str(&format!("alph~={at:2} |"));
        let mut cells = Vec::new();
        for d in dnums {
            let mut p: CkksParams = ParamSet::B.params();
            p.dnum = d;
            p.special = p.alpha();
            p.klss = Some(KlssConfig {
                word_size_t: 48,
                alpha_tilde: at,
            });
            let t = keyswitch_time_us(&dev, &p, 35, &cfg) / 1e3;
            if t < best.0 {
                best = (t, d, at);
            }
            human.push_str(&format!(" {t:8.2} |"));
            cells.push(json!({ "dnum": d, "alpha_tilde": at, "ms": t }));
        }
        human.push('\n');
        rows.push(json!({ "alpha_tilde": at, "cells": cells }));
    }
    human.push_str(&format!(
        "\nOptimum: d_num = {}, alpha~ = {} at {:.2} ms (paper's optimum: d_num = 9, alpha~ = 5, 3.22 ms)\n",
        best.1, best.2, best.0
    ));
    emit(
        "results/table8.json",
        &human,
        json!({ "rows": rows, "best": { "dnum": best.1, "alpha_tilde": best.2, "ms": best.0 } }),
    );
}
