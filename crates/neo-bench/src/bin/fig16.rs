//! Fig. 16 — KeySwitch time: Hybrid vs KLSS with `WordSize_T` ∈
//! {36, 48, 64}, other parameters as Set-B/C, across levels. Reproduces
//! the WordSize_T trade-off (48 optimal: 36 inflates `α'`, 64 inflates
//! the Booth complexity on the TCU).

use neo_bench::emit;
use neo_ckks::cost::{keyswitch_time_us, CostConfig};
use neo_ckks::{CkksParams, KlssConfig, KsMethod, ParamSet};
use neo_gpu_sim::DeviceModel;
use neo_trace::json;

fn main() {
    let dev = DeviceModel::a100();
    let hybrid_p = ParamSet::B.params();
    let hybrid_cfg = CostConfig {
        method: KsMethod::Hybrid,
        ..CostConfig::neo()
    };
    let klss_p = |wt: u32| -> CkksParams {
        let mut p = ParamSet::C.params();
        p.klss = Some(KlssConfig {
            word_size_t: wt,
            alpha_tilde: 5,
        });
        p
    };
    let neo = CostConfig::neo();
    let mut human = String::from(
        "Fig. 16: KeySwitch time (ms per ciphertext), Hybrid vs KLSS WordSize_T\n\
         level | Hybrid | KLSS-36 | KLSS-48 | KLSS-64\n\
         ------+--------+---------+---------+--------\n",
    );
    let mut rows = Vec::new();
    for l in [11usize, 17, 23, 29, 35] {
        let th = keyswitch_time_us(&dev, &hybrid_p, l, &hybrid_cfg) / 1e3;
        let t36 = keyswitch_time_us(&dev, &klss_p(36), l, &neo) / 1e3;
        let t48 = keyswitch_time_us(&dev, &klss_p(48), l, &neo) / 1e3;
        let t64 = keyswitch_time_us(&dev, &klss_p(64), l, &neo) / 1e3;
        human.push_str(&format!(
            "  {l:3} | {th:6.2} | {t36:7.2} | {t48:7.2} | {t64:7.2}\n"
        ));
        rows.push(json!({
            "level": l, "hybrid_ms": th, "klss36_ms": t36, "klss48_ms": t48, "klss64_ms": t64,
        }));
    }
    human.push_str("\n(alpha' at WordSize_T 36/48/64: ");
    for wt in [36u32, 48, 64] {
        human.push_str(&format!("{} ", klss_p(wt).alpha_prime()));
    }
    human.push_str(")\nThe paper finds WordSize_T = 48 optimal; 64 pays the 3x3 Booth penalty.\n");
    emit("results/fig16.json", &human, json!({ "rows": rows }));
}
