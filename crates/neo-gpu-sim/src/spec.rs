/// Fraction of peak throughput real kernels achieve on each component.
///
/// These are the model's only free parameters. They are fit once against
/// the paper's Table 7 kernel throughputs and then frozen for every other
/// experiment (see `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Efficiency {
    /// CUDA-core integer/modular pipelines.
    pub cuda: f64,
    /// Tensor-core FP64 path.
    pub tcu_fp64: f64,
    /// Tensor-core INT8 path.
    pub tcu_int8: f64,
    /// HBM bandwidth.
    pub memory: f64,
}

impl Default for Efficiency {
    fn default() -> Self {
        // Calibrated against the paper's Table 7 kernel throughputs and
        // Table 6 operation times, then frozen (see EXPERIMENTS.md).
        // Achieved fractions of peak are low in absolute terms, which
        // matches published FHE-kernel measurements: TensorFHE reports
        // effective INT8 throughput in the tens of TOPS against a 624
        // TOPS peak, and modular arithmetic on CUDA cores spends most
        // INT32 issue slots on reduction bookkeeping.
        Self {
            cuda: 0.25,
            tcu_fp64: 0.20,
            tcu_int8: 0.068,
            memory: 0.55,
        }
    }
}

/// Static hardware description of one GPGPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Streaming multiprocessor count (documentation/occupancy checks).
    pub sm_count: u32,
    /// Peak FP64 throughput of the CUDA cores, in FLOP/s (A100: 9.7e12).
    pub fp64_cuda_flops: f64,
    /// Peak INT32 throughput of the CUDA cores, in IOP/s (A100: 19.5e12).
    pub int32_cuda_iops: f64,
    /// Peak FP64 throughput of the tensor cores, in FLOP/s (A100: 19.5e12).
    pub fp64_tcu_flops: f64,
    /// Peak INT8 throughput of the tensor cores, in OP/s (A100: 6.24e14).
    pub int8_tcu_ops: f64,
    /// HBM bandwidth in bytes/s (A100-40GB: 1.555e12).
    pub hbm_bytes_per_s: f64,
    /// Global memory capacity in bytes (A100-40GB: 4e10).
    pub hbm_capacity_bytes: f64,
    /// Fixed cost per kernel launch, in seconds.
    pub kernel_launch_s: f64,
    /// INT32 operations equivalent to one 64-bit modular MAC on CUDA cores
    /// (wide multiply + Barrett/Shoup reduction + add).
    pub int_ops_per_modmac: f64,
    /// Achieved-fraction-of-peak calibration.
    pub efficiency: Efficiency,
}

impl DeviceSpec {
    /// The NVIDIA A100-40GB used by the paper (Table 3), with whitepaper
    /// peak numbers.
    pub fn a100() -> Self {
        Self {
            name: "NVIDIA A100-SXM4-40GB".into(),
            sm_count: 108,
            fp64_cuda_flops: 9.7e12,
            int32_cuda_iops: 19.5e12,
            fp64_tcu_flops: 19.5e12,
            int8_tcu_ops: 6.24e14,
            hbm_bytes_per_s: 1.555e12,
            hbm_capacity_bytes: 4.0e10,
            kernel_launch_s: 3.0e-6,
            int_ops_per_modmac: 16.0,
            efficiency: Efficiency::default(),
        }
    }

    /// Effective CUDA-core modular-MAC rate (MAC/s).
    pub fn cuda_modmac_rate(&self) -> f64 {
        self.int32_cuda_iops * self.efficiency.cuda / self.int_ops_per_modmac
    }

    /// Effective tensor-core FP64 MAC rate (1 MAC = 2 FLOP).
    pub fn tcu_fp64_mac_rate(&self) -> f64 {
        self.fp64_tcu_flops * self.efficiency.tcu_fp64 / 2.0
    }

    /// Effective tensor-core INT8 MAC rate (1 MAC = 2 OP).
    pub fn tcu_int8_mac_rate(&self) -> f64 {
        self.int8_tcu_ops * self.efficiency.tcu_int8 / 2.0
    }

    /// Effective memory bandwidth (bytes/s).
    pub fn mem_rate(&self) -> f64 {
        self.hbm_bytes_per_s * self.efficiency.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_headline_numbers() {
        let a = DeviceSpec::a100();
        assert_eq!(a.sm_count, 108);
        // TCU FP64 is ~2x CUDA FP64 (the paper's Section 2.3 observation).
        assert!((a.fp64_tcu_flops / a.fp64_cuda_flops - 2.0).abs() < 0.05);
        // INT8 peak far exceeds FP64 peak.
        assert!(a.int8_tcu_ops / a.fp64_tcu_flops > 30.0);
    }

    #[test]
    fn effective_rates_scale_with_efficiency() {
        let mut a = DeviceSpec::a100();
        let base = a.tcu_fp64_mac_rate();
        a.efficiency.tcu_fp64 *= 0.5;
        assert!((a.tcu_fp64_mac_rate() / base - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clone_equality() {
        let a = DeviceSpec::a100();
        let b = a.clone();
        assert_eq!(a, b);
    }
}
