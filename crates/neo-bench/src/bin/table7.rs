//! Table 7 — kernel throughput (#BConv/s, #IP/s, #NTT/s) for TensorFHE vs
//! Neo under Set-B geometry. One kernel "op" is one batched invocation
//! amortized per ciphertext: a BConv converts one digit (α → l+α limbs),
//! an IP performs the full inner product, an NTT transforms one limb.

use neo_bench::emit;
use neo_ckks::ParamSet;
use neo_gpu_sim::DeviceModel;
use neo_kernels::{bconv, ip, ntt, BconvGeom, IpGeom, MatmulTarget, NttAlgorithm, NttGeom};
use neo_trace::json;

fn main() {
    let dev = DeviceModel::a100();
    let p = ParamSet::B.params();
    let l = 35usize;
    let bs = p.batch_size as f64;
    let limbs_qp = l + 1 + p.special;

    let bg = BconvGeom {
        n: p.n(),
        batch: p.batch_size,
        alpha: p.alpha(),
        alpha_out: limbs_qp - p.alpha(),
        w_src: p.word_size,
        w_dst: p.word_size,
    };
    let ig = IpGeom {
        n: p.n(),
        batch: p.batch_size,
        alpha_p: limbs_qp,
        beta: p.beta(l),
        beta_t: 1,
        components: 2,
        w: p.word_size,
    };
    let ng = NttGeom {
        n: p.n(),
        count: p.batch_size,
        w: p.word_size,
    };

    let tf_bconv = dev.kernel_time_us(&bconv::profile_original(&bg)) / bs;
    let neo_bconv = dev.kernel_time_us(&bconv::profile_matrix(&bg, MatmulTarget::TcuFp64)) / bs;
    let tf_ip = dev.kernel_time_us(&ip::profile_original(&ig)) / bs;
    let neo_ip = dev.kernel_time_us(&ip::profile_matrix(&ig, MatmulTarget::Cuda)) / bs;
    let tf_ntt = dev.kernel_time_us(&ntt::profile(
        &ng,
        NttAlgorithm::FourStep,
        MatmulTarget::TcuInt8,
    )) / bs;
    let neo_ntt = dev.kernel_time_us(&ntt::profile(
        &ng,
        NttAlgorithm::Radix16,
        MatmulTarget::TcuFp64,
    )) / bs;

    let to_rate = |us: f64| 1e6 / us;
    let human = format!(
        "Table 7: kernel throughput under Set-B (ops per second)\n\
                   |   #BConv/s |     #IP/s |    #NTT/s\n\
         ----------+------------+-----------+----------\n\
         TensorFHE | {:10.0} | {:9.0} | {:9.0}\n\
         Neo       | {:10.0} | {:9.0} | {:9.0}\n\
         Speedup   | {:9.2}x | {:8.2}x | {:8.2}x\n\
         \n\
         Paper speedups: BConv 2.74x, IP 2.60x, NTT 3.74x.\n",
        to_rate(tf_bconv),
        to_rate(tf_ip),
        to_rate(tf_ntt),
        to_rate(neo_bconv),
        to_rate(neo_ip),
        to_rate(neo_ntt),
        tf_bconv / neo_bconv,
        tf_ip / neo_ip,
        tf_ntt / neo_ntt,
    );
    emit(
        "results/table7.json",
        &human,
        json!({
            "tensorfhe": { "bconv_per_s": to_rate(tf_bconv), "ip_per_s": to_rate(tf_ip), "ntt_per_s": to_rate(tf_ntt) },
            "neo": { "bconv_per_s": to_rate(neo_bconv), "ip_per_s": to_rate(neo_ip), "ntt_per_s": to_rate(neo_ntt) },
            "speedup": { "bconv": tf_bconv / neo_bconv, "ip": tf_ip / neo_ip, "ntt": tf_ntt / neo_ntt },
            "paper_speedup": { "bconv": 2.74, "ip": 2.60, "ntt": 3.74 },
        }),
    );
}
