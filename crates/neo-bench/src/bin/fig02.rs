//! Fig. 2 — share of BConv, IP and NTT in the total KeySwitch data
//! transfer, Hybrid (Set-B) vs KLSS (Set-C), across levels, with the
//! original (element-wise) kernels.

use neo_bench::emit;
use neo_ckks::cost::CostConfig;
use neo_ckks::sched::keyswitch_graph;
use neo_ckks::{KsMethod, ParamSet};
use neo_trace::json;

fn share(profiles: &[neo_gpu_sim::KernelProfile]) -> (f64, f64, f64, f64) {
    let total: f64 = profiles.iter().map(|p| p.total_bytes()).sum();
    let of = |key: &str| -> f64 {
        profiles
            .iter()
            .filter(|p| p.name.starts_with(key))
            .map(|p| p.total_bytes())
            .sum::<f64>()
            / total
    };
    (of("bconv") + of("recover"), of("ip"), of("ntt"), total)
}

fn main() {
    let mut human = String::from(
        "Fig. 2: kernel share of KeySwitch global-memory transfer (original kernels)\n\
         level | method |  BConv    IP    NTT   other | total GB\n\
         ------+--------+-----------------------------+---------\n",
    );
    let mut rows = Vec::new();
    for l in [5usize, 11, 17, 23, 29, 35] {
        for (label, set, method) in [
            ("Hybrid", ParamSet::B, KsMethod::Hybrid),
            ("KLSS", ParamSet::C, KsMethod::Klss),
        ] {
            let p = set.params();
            let mut cfg = CostConfig::tensorfhe();
            cfg.method = method;
            let profiles = keyswitch_graph(&p, l, &cfg).profiles();
            let (bconv, ip, ntt, total) = share(&profiles);
            human.push_str(&format!(
                "  {l:3} | {label:6} | {:5.1}% {:5.1}% {:5.1}% {:5.1}% | {:7.2}\n",
                bconv * 100.0,
                ip * 100.0,
                ntt * 100.0,
                (1.0 - bconv - ip - ntt) * 100.0,
                total / 1e9
            ));
            rows.push(json!({
                "level": l, "method": label,
                "bconv_share": bconv, "ip_share": ip, "ntt_share": ntt,
                "total_bytes": total,
            }));
        }
    }
    human.push_str(
        "\nBConv + IP dominate the transfer (the paper reports 43.4% + 41.8% at l=35, KLSS).\n",
    );
    emit("results/fig02.json", &human, json!({ "rows": rows }));
}
