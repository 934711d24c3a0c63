//! Operation-level cost assembly: prices CKKS operations under one
//! execution strategy on the `neo-sched` simulator.
//!
//! This is the layer that regenerates the paper's evaluation: a
//! [`CostConfig`] captures one design point (which key-switching method,
//! which NTT algorithm, which compute component each matmul runs on),
//! and [`crate::sched`] builds the kernel DAG of each CKKS operation at a
//! level. Pricing follows one rule:
//!
//! * the op's graph is built once per in-flight batch —
//!   [`SimConfig::default`]'s stream count for a
//!   [`CostConfig::multi_stream`] preset, one otherwise — fused
//!   ([`OpGraph::fuse_elementwise`]) and simulated on that many streams;
//!   the makespan divided by the batch count is the time of one batch;
//! * ciphertexts are NTT-resident (standard on GPUs); key switching pays
//!   the INTT of its input and the NTTs after Mod Up;
//! * a batch is one operation over `params.batch_size` ciphertexts;
//!   [`op_time_us`] reports the batch-amortized per-ciphertext time,
//!   which is what the paper's tables quote;
//! * small batches underutilize the GPU; utilization follows a saturating
//!   `bs / (bs + BATCH_HALF)` curve (Fig. 17).

use crate::params::{CkksParams, KsMethod};
use crate::sched::{append_keyswitch, append_op};
use neo_gpu_sim::DeviceModel;
use neo_kernels::{MatmulTarget, NttAlgorithm};
use neo_sched::{simulate, OpGraph, SimConfig};

/// Batch size at which utilization reaches 50% of its asymptote.
pub const BATCH_HALF: f64 = 24.0;

/// One end-to-end execution strategy (a row of Fig. 14's ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConfig {
    /// Key-switching method.
    pub method: KsMethod,
    /// NTT decomposition.
    pub ntt_alg: NttAlgorithm,
    /// Component executing the NTT matmuls.
    pub ntt_target: MatmulTarget,
    /// Use the matrix-form BConv (Algorithm 2) instead of element-wise.
    pub bconv_matrix: bool,
    /// Component executing the BConv matmul.
    pub bconv_target: MatmulTarget,
    /// Use the matrix-form IP (Algorithm 4) instead of element-wise.
    pub ip_matrix: bool,
    /// Apply Neo's 80%-valid-proportion rule for the IP mapping; off, the
    /// matrix-form IP runs on CUDA cores.
    pub ip_adaptive: bool,
    /// Run the Hybrid INTT per digit (`2β(l+α)` transforms, the
    /// TensorFHE implementation behavior that Table 2 records) instead of
    /// accumulating in NTT domain first (`2(l+α)`).
    pub hybrid_intt_per_digit: bool,
    /// Keep [`SimConfig::default`]'s stream count of independent batches
    /// in flight, one per stream, so one batch's CUDA-core kernels hide
    /// behind another's tensor-core kernels (Section 4.6). Off, one batch
    /// runs on one stream.
    pub multi_stream: bool,
}

impl CostConfig {
    /// Neo's full configuration: KLSS + matrix dataflow + Radix-16 NTT +
    /// FP64 TCUs with the adaptive IP mapping.
    pub fn neo() -> Self {
        Self {
            method: KsMethod::Klss,
            ntt_alg: NttAlgorithm::Radix16,
            ntt_target: MatmulTarget::TcuFp64,
            bconv_matrix: true,
            bconv_target: MatmulTarget::TcuFp64,
            ip_matrix: true,
            ip_adaptive: true,
            hybrid_intt_per_digit: false,
            multi_stream: true,
        }
    }

    /// TensorFHE: Hybrid method, four-step NTT on INT8 TCUs, element-wise
    /// BConv/IP, no CUDA/TCU cross-stream overlap.
    pub fn tensorfhe() -> Self {
        Self {
            method: KsMethod::Hybrid,
            ntt_alg: NttAlgorithm::FourStep,
            ntt_target: MatmulTarget::TcuInt8,
            bconv_matrix: false,
            bconv_target: MatmulTarget::Cuda,
            ip_matrix: false,
            ip_adaptive: false,
            hybrid_intt_per_digit: true,
            multi_stream: false,
        }
    }

    /// HEonGPU: Hybrid method, everything on CUDA cores (no TCU use), one
    /// stream.
    pub fn heongpu() -> Self {
        Self {
            method: KsMethod::Hybrid,
            ntt_alg: NttAlgorithm::Radix2,
            ntt_target: MatmulTarget::Cuda,
            bconv_matrix: false,
            bconv_target: MatmulTarget::Cuda,
            ip_matrix: false,
            ip_adaptive: false,
            hybrid_intt_per_digit: false,
            multi_stream: false,
        }
    }
}

/// A CKKS operation to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Ciphertext × ciphertext (with relinearization; excludes rescale).
    HMult,
    /// Slot rotation (with Galois key switch).
    HRotate,
    /// Ciphertext × plaintext.
    PMult,
    /// Ciphertext + ciphertext.
    HAdd,
    /// Ciphertext + plaintext.
    PAdd,
    /// One rescale.
    Rescale,
    /// Double rescale (DS).
    DoubleRescale,
}

/// Saturating batch-utilization curve (Fig. 17).
pub fn batch_utilization(batch: usize) -> f64 {
    let bs = batch as f64;
    let full = 128.0 / (128.0 + BATCH_HALF);
    (bs / (bs + BATCH_HALF)) / full
}

/// Batch-amortized per-ciphertext time of one operation, in microseconds
/// (what the paper's Table 6 quotes).
pub fn op_time_us(
    dev: &DeviceModel,
    p: &CkksParams,
    level: usize,
    op: Operation,
    cfg: &CostConfig,
) -> f64 {
    price_us(dev, p, cfg, |g, tag| {
        append_op(g, p, level, op, cfg, &[], tag);
    })
}

/// Batch-amortized per-ciphertext KeySwitch time in microseconds.
pub fn keyswitch_time_us(dev: &DeviceModel, p: &CkksParams, level: usize, cfg: &CostConfig) -> f64 {
    price_us(dev, p, cfg, |g, tag| {
        append_keyswitch(g, p, level, cfg, &[], tag);
    })
}

/// The pricing rule of the module docs: `append` adds one batch's
/// kernels (tagged with the batch index) to the graph.
fn price_us(
    dev: &DeviceModel,
    p: &CkksParams,
    cfg: &CostConfig,
    append: impl Fn(&mut OpGraph, usize),
) -> f64 {
    let batches = if cfg.multi_stream {
        SimConfig::default().streams
    } else {
        1
    };
    let mut g = OpGraph::new();
    for tag in 0..batches {
        append(&mut g, tag);
    }
    let (fused, _) = g.fuse_elementwise();
    let makespan_s = simulate(&fused, dev, SimConfig::streams(batches)).makespan_s;
    makespan_s * 1e6 / batches as f64 / batch_utilization(p.batch_size) / p.batch_size as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;

    #[test]
    fn neo_beats_tensorfhe_on_hmult() {
        let dev = DeviceModel::a100();
        let pc = ParamSet::C.params();
        let pa = ParamSet::A.params();
        let neo = op_time_us(&dev, &pc, 35, Operation::HMult, &CostConfig::neo());
        let tfhe = op_time_us(&dev, &pa, 35, Operation::HMult, &CostConfig::tensorfhe());
        let ratio = tfhe / neo;
        assert!(
            ratio > 2.0,
            "expected a large speedup, got {ratio:.2} ({tfhe:.0} vs {neo:.0})"
        );
    }

    #[test]
    fn neo_beats_heongpu() {
        let dev = DeviceModel::a100();
        let pc = ParamSet::C.params();
        let pe = ParamSet::E.params();
        let neo = op_time_us(&dev, &pc, 35, Operation::HMult, &CostConfig::neo());
        let heon = op_time_us(&dev, &pe, 35, Operation::HMult, &CostConfig::heongpu());
        assert!(
            heon > neo,
            "HEonGPU {heon:.0} should be slower than Neo {neo:.0}"
        );
    }

    #[test]
    fn cheap_ops_are_cheap() {
        let dev = DeviceModel::a100();
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let hmult = op_time_us(&dev, &p, 35, Operation::HMult, &cfg);
        let hadd = op_time_us(&dev, &p, 35, Operation::HAdd, &cfg);
        let pmult = op_time_us(&dev, &p, 35, Operation::PMult, &cfg);
        assert!(hmult / hadd > 10.0, "hmult {hmult:.1} vs hadd {hadd:.2}");
        assert!(hmult / pmult > 10.0);
    }

    #[test]
    fn keyswitch_dominates_hmult() {
        let dev = DeviceModel::a100();
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let ks = keyswitch_time_us(&dev, &p, 35, &cfg);
        let hm = op_time_us(&dev, &p, 35, Operation::HMult, &cfg);
        assert!(ks < hm && ks > 0.6 * hm, "ks {ks:.0} vs hmult {hm:.0}");
    }

    #[test]
    fn one_stream_prices_the_fused_serial_sum() {
        let dev = DeviceModel::a100();
        let ops = [
            Operation::HMult,
            Operation::HRotate,
            Operation::PMult,
            Operation::HAdd,
            Operation::PAdd,
            Operation::Rescale,
            Operation::DoubleRescale,
        ];
        for (p, cfg) in [
            (ParamSet::A.params(), CostConfig::tensorfhe()),
            (ParamSet::E.params(), CostConfig::heongpu()),
        ] {
            assert!(!cfg.multi_stream);
            for level in [11usize, 35] {
                for op in ops {
                    let (fused, _) = crate::sched::op_graph(&p, level, op, &cfg).fuse_elementwise();
                    let want = dev.serial_time_s(&fused.profiles()) * 1e6
                        / batch_utilization(p.batch_size)
                        / p.batch_size as f64;
                    let got = op_time_us(&dev, &p, level, op, &cfg);
                    let rel = (got - want).abs() / want;
                    assert!(
                        rel <= 1e-12,
                        "{:?} {op:?} l={level}: {got} vs {want}",
                        cfg.method
                    );
                }
            }
        }
    }

    #[test]
    fn multi_stream_never_prices_above_one_stream() {
        let dev = DeviceModel::a100();
        let p = ParamSet::C.params();
        let neo = CostConfig::neo();
        let one = CostConfig {
            multi_stream: false,
            ..neo
        };
        for op in [Operation::HMult, Operation::HRotate, Operation::Rescale] {
            for level in [11usize, 23, 35] {
                let multi = op_time_us(&dev, &p, level, op, &neo);
                let serial = op_time_us(&dev, &p, level, op, &one);
                assert!(multi <= serial, "{op:?} l={level}: {multi} > {serial}");
            }
        }
    }

    #[test]
    fn utilization_monotone_in_batch() {
        let mut prev = 0.0;
        for bs in [8usize, 16, 32, 64, 128] {
            let u = batch_utilization(bs);
            assert!(u > prev);
            prev = u;
        }
        assert!((batch_utilization(128) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_decreases_with_batch() {
        let dev = DeviceModel::a100();
        let mut p = ParamSet::B.params();
        let cfg = CostConfig::tensorfhe();
        let mut prev = f64::INFINITY;
        for bs in [8usize, 16, 32, 64, 128] {
            p.batch_size = bs;
            let t = op_time_us(&dev, &p, 35, Operation::HMult, &cfg);
            assert!(t < prev, "batch {bs}: {t} !< {prev}");
            prev = t;
        }
    }
}
