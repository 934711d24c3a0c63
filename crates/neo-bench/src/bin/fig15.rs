//! Fig. 15 — global-memory transfer of the BConv (a) and IP (b) kernels
//! before and after the algorithm + data-layout optimization, across
//! levels (Set-C).

use neo_bench::emit;
use neo_ckks::ParamSet;
use neo_kernels::{bconv, ip, BconvGeom, IpGeom, MatmulTarget};
use neo_trace::json;

fn main() {
    let p = ParamSet::C.params();
    let wt = p.klss.unwrap().word_size_t;
    let mut human = String::from(
        "Fig. 15: kernel data transfer before/after optimization (Set-C, GB per batch)\n\
         level | BConv orig | BConv opt | ratio | IP orig | IP opt | ratio\n\
         ------+------------+-----------+-------+---------+--------+------\n",
    );
    let mut rows = Vec::new();
    for l in (5..=35).step_by(5) {
        let bg = BconvGeom {
            n: p.n(),
            batch: p.batch_size,
            alpha: p.alpha(),
            alpha_out: p.alpha_prime(),
            w_src: p.word_size,
            w_dst: wt,
        };
        let ig = IpGeom {
            n: p.n(),
            batch: p.batch_size,
            alpha_p: p.alpha_prime(),
            beta: p.beta(l),
            beta_t: p.beta_tilde(l),
            components: 2,
            w: wt,
        };
        let b_orig = bconv::profile_original(&bg).total_bytes();
        let b_opt = bconv::profile_matrix(&bg, MatmulTarget::TcuFp64).total_bytes();
        let i_orig = ip::profile_original(&ig).total_bytes();
        let i_opt = ip::profile_matrix(&ig, ip::neo_target(&ig)).total_bytes();
        human.push_str(&format!(
            "  {l:3} | {:10.2} | {:9.2} | {:4.1}x | {:7.2} | {:6.2} | {:4.1}x\n",
            b_orig / 1e9,
            b_opt / 1e9,
            b_orig / b_opt,
            i_orig / 1e9,
            i_opt / 1e9,
            i_orig / i_opt,
        ));
        rows.push(json!({
            "level": l,
            "bconv_orig_bytes": b_orig, "bconv_opt_bytes": b_opt,
            "ip_orig_bytes": i_orig, "ip_opt_bytes": i_opt,
        }));
    }
    human.push_str("\nThe matrix dataflow removes the per-output re-reads (alpha'- and\nbeta~-fold reductions respectively).\n");
    emit("results/fig15.json", &human, json!({ "rows": rows }));
}
