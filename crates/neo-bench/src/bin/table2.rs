//! Table 2 — kernel complexity of the Hybrid and KLSS methods (limb-op
//! counts), evaluated at Set-C across levels.

use neo_bench::emit;
use neo_ckks::complexity::{hybrid, klss};
use neo_ckks::ParamSet;
use neo_trace::json;

fn main() {
    let p = ParamSet::C.params();
    let mut human = String::from(
        "Table 2: KeySwitch kernel complexity (limb operations), Set-C\n\
         level | method |   ModUp     NTT      IP    INTT  Recover ModDown |   total\n\
         ------+--------+------------------------------------------------+--------\n",
    );
    let mut rows = Vec::new();
    for l in [35usize, 23, 11] {
        for (name, c) in [("Hybrid", hybrid(&p, l)), ("KLSS", klss(&p, l))] {
            human.push_str(&format!(
                "  {l:3} | {name:6} | {:7} {:7} {:7} {:7} {:7} {:7} | {:7}\n",
                c.mod_up,
                c.ntt,
                c.inner_product,
                c.intt,
                c.recover_limbs,
                c.mod_down,
                c.total()
            ));
            rows.push(json!({
                "level": l, "method": name,
                "mod_up": c.mod_up, "ntt": c.ntt, "inner_product": c.inner_product,
                "intt": c.intt, "recover_limbs": c.recover_limbs, "mod_down": c.mod_down,
                "total": c.total(),
            }));
        }
    }
    let h = hybrid(&p, 35).total();
    let k = klss(&p, 35).total();
    human.push_str(&format!(
        "\nAt l = 35: KLSS/Hybrid total complexity ratio = {:.2}\n",
        k as f64 / h as f64
    ));
    emit(
        "results/table2.json",
        &human,
        json!({ "rows": rows, "klss_over_hybrid_l35": k as f64 / h as f64 }),
    );
}
