//! Fig. 13 — execution-time breakdown of the optimized BConv and IP
//! kernels (pre/post-processing + matmul) against their pre-optimization
//! totals, at Set-C, l = 35, normalized to a single operation.

use neo_bench::emit;
use neo_ckks::ParamSet;
use neo_gpu_sim::DeviceModel;
use neo_kernels::{bconv, ip, BconvGeom, IpGeom, MatmulTarget};
use neo_trace::json;

fn main() {
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    let l = 35usize;
    let bg = BconvGeom {
        n: p.n(),
        batch: p.batch_size,
        alpha: p.alpha(),
        alpha_out: p.alpha_prime(),
        w_src: p.word_size,
        w_dst: p.klss.unwrap().word_size_t,
    };
    let ig = IpGeom {
        n: p.n(),
        batch: p.batch_size,
        alpha_p: p.alpha_prime(),
        beta: p.beta(l),
        beta_t: p.beta_tilde(l),
        components: 2,
        w: p.klss.unwrap().word_size_t,
    };
    let bconv_orig = dev.kernel_time_us(&bconv::profile_original(&bg));
    let bconv_opt = dev.kernel_time_us(&bconv::profile_matrix(&bg, MatmulTarget::TcuFp64));
    let ip_orig = dev.kernel_time_us(&ip::profile_original(&ig));
    let ip_opt = dev.kernel_time_us(&ip::profile_matrix(&ig, ip::neo_target(&ig)));

    // Split the optimized kernels into pre/post (CUDA reorder+split+merge)
    // vs matmul by pricing components separately.
    let split_parts = |prof: neo_gpu_sim::KernelProfile| {
        let (c, t, m, lch) = dev.component_times(&prof);
        (c * 1e6, t * 1e6, m * 1e6, lch * 1e6)
    };
    let (bc_cuda, bc_tcu, _, _) = split_parts(bconv::profile_matrix(&bg, MatmulTarget::TcuFp64));
    let (ip_cuda, ip_tcu, _, _) = split_parts(ip::profile_matrix(&ig, ip::neo_target(&ig)));

    let human = format!(
        "Fig. 13: BConv / IP time, original vs optimized (Set-C, l=35, per batch)\n\
         kernel | original | optimized | pre/post (CUDA) | matmul | speedup\n\
         -------+----------+-----------+-----------------+--------+--------\n\
         BConv  | {bconv_orig:7.0}us | {bconv_opt:8.0}us | {bc_cuda:12.0}us | {bc_tcu:5.0}us | {:5.2}x\n\
         IP     | {ip_orig:7.0}us | {ip_opt:8.0}us | {ip_cuda:12.0}us | {ip_tcu:5.0}us | {:5.2}x\n\
         \n\
         (IP's matmul maps to CUDA cores at this geometry per the 80%-validity\n\
         rule, so its matmul time appears in the CUDA column.)\n",
        bconv_orig / bconv_opt,
        ip_orig / ip_opt,
    );
    emit(
        "results/fig13.json",
        &human,
        json!({
            "bconv": { "original_us": bconv_orig, "optimized_us": bconv_opt,
                        "prepost_us": bc_cuda, "matmul_us": bc_tcu },
            "ip": { "original_us": ip_orig, "optimized_us": ip_opt,
                    "prepost_us": ip_cuda, "matmul_us": ip_tcu },
        }),
    );
}
