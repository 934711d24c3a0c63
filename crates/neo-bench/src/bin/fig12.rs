//! Fig. 12 — valid proportion of the FP64-TCU matrix multiplications of
//! NTT, BConv, and IP as the ciphertext level drops (Set-C).

use neo_bench::emit;
use neo_ckks::ParamSet;
use neo_tcu::{valid_proportion, GemmDims, FP64_FRAGMENT};
use neo_trace::json;

fn main() {
    let p = ParamSet::C.params();
    let bs = p.batch_size;
    let n = p.n();
    let mut human = String::from(
        "Fig. 12: valid proportion of FP64 fragment matmuls vs level (Set-C)\n\
         level |  NTT    BConv    IP   | IP mapping (>80% -> TCU)\n\
         ------+-----------------------+--------------------------\n",
    );
    let mut rows = Vec::new();
    for l in (5..=35).step_by(2) {
        let ntt = valid_proportion(GemmDims::new(bs * n / 16, 16, 16), FP64_FRAGMENT);
        let bconv = valid_proportion(
            GemmDims::new(bs * n, p.alpha(), p.alpha_prime()),
            FP64_FRAGMENT,
        );
        let ip = valid_proportion(GemmDims::new(bs, p.beta(l), p.beta_tilde(l)), FP64_FRAGMENT);
        human.push_str(&format!(
            "  {l:3} | {:5.1}% {:6.1}% {:5.1}% | {}\n",
            ntt * 100.0,
            bconv * 100.0,
            ip * 100.0,
            if ip > 0.8 { "TCU FP64" } else { "CUDA cores" }
        ));
        rows.push(json!({
            "level": l, "ntt": ntt, "bconv": bconv, "ip": ip, "ip_on_tcu": ip > 0.8,
        }));
    }
    human.push_str(
        "\nNTT and BConv stay at 100% (fragment-aligned shapes); IP varies with\n\
         beta/beta~ and drives the adaptive mapping rule of Section 4.5.3.\n",
    );
    emit("results/fig12.json", &human, json!({ "rows": rows }));
}
