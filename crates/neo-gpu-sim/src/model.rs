use crate::{DeviceSpec, KernelProfile};

/// Execution-strategy knobs for a kernel sequence (Section 4.6).
///
/// This is the *closed-form* execution model: multi-stream overlap is a
/// single scalar `overlap_eta` fudge and fusion a boolean launch-count
/// collapse. The `neo-sched` crate supersedes both with a kernel-DAG
/// simulation (a list scheduler over N streams with HBM contention and a
/// real fusion graph rewrite); the closed form is retained as the
/// analytic baseline the simulator is cross-checked against — at one
/// stream the simulated makespan equals
/// `sequence_time_s(ps, ExecConfig::naive())` exactly, and the
/// default-config makespan must land inside the eta model's
/// `[max(Σcuda, Σtcu), Σcuda + Σtcu]` compute envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Overlap CUDA-core and TCU phases across streams. `overlap_eta` is
    /// the fraction of the shorter phase hidden behind the longer one
    /// (1.0 = perfect overlap).
    pub multi_stream: bool,
    /// Fraction of min(cuda, tcu) hidden when multi-streaming.
    pub overlap_eta: f64,
    /// Fuse adjacent kernels: launches collapse (intermediate-traffic
    /// savings are already reflected in optimized kernels' profiles).
    pub fusion: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            multi_stream: true,
            overlap_eta: 0.8,
            fusion: true,
        }
    }
}

impl ExecConfig {
    /// No fusion, no multi-stream — the naive execution model used for the
    /// pre-optimization baselines.
    pub fn naive() -> Self {
        Self {
            multi_stream: false,
            overlap_eta: 0.0,
            fusion: false,
        }
    }
}

/// Per-resource totals of a kernel sequence, in seconds (except
/// `launches`). The building block both the closed-form
/// [`DeviceModel::sequence_time_s`] and the `neo-sched` envelope
/// cross-checks work from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentSums {
    /// Σ CUDA-core compute seconds.
    pub cuda_s: f64,
    /// Σ tensor-core compute seconds.
    pub tcu_s: f64,
    /// Σ HBM seconds at full bandwidth.
    pub mem_s: f64,
    /// Σ kernel launches (count, not seconds).
    pub launches: f64,
}

impl ComponentSums {
    /// Serial compute time: CUDA and TCU phases back to back.
    pub fn serial_compute_s(&self) -> f64 {
        self.cuda_s + self.tcu_s
    }

    /// Perfect-overlap compute floor: the longer engine fully hides the
    /// shorter one.
    pub fn overlap_floor_s(&self) -> f64 {
        self.cuda_s.max(self.tcu_s)
    }
}

/// Turns [`KernelProfile`] work counts into time on a [`DeviceSpec`].
#[derive(Debug, Clone)]
pub struct DeviceModel {
    spec: DeviceSpec,
}

impl DeviceModel {
    /// Model over a custom spec.
    pub fn new(spec: DeviceSpec) -> Self {
        Self { spec }
    }

    /// Model of the paper's A100.
    pub fn a100() -> Self {
        Self::new(DeviceSpec::a100())
    }

    /// The underlying spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Mutable spec access (calibration).
    pub fn spec_mut(&mut self) -> &mut DeviceSpec {
        &mut self.spec
    }

    /// Component times for one profile, in seconds:
    /// `(t_cuda, t_tcu, t_mem, t_launch)`.
    pub fn component_times(&self, p: &KernelProfile) -> (f64, f64, f64, f64) {
        let t_cuda = p.cuda_modmacs / self.spec.cuda_modmac_rate();
        let t_tcu = p.tcu_fp64_macs / self.spec.tcu_fp64_mac_rate()
            + p.tcu_int8_macs / self.spec.tcu_int8_mac_rate();
        let t_mem = p.total_bytes() / self.spec.mem_rate();
        let t_launch = p.launches * self.spec.kernel_launch_s;
        (t_cuda, t_tcu, t_mem, t_launch)
    }

    /// Roofline time of a single kernel, in seconds: compute phases are
    /// serial within one kernel, memory overlaps compute.
    pub fn kernel_time_s(&self, p: &KernelProfile) -> f64 {
        let (c, t, m, l) = self.component_times(p);
        l + (c + t).max(m)
    }

    /// Single-kernel time in microseconds.
    pub fn kernel_time_us(&self, p: &KernelProfile) -> f64 {
        self.kernel_time_s(p) * 1e6
    }

    /// Time of a sequence of kernels under an execution config, in seconds.
    ///
    /// With multi-stream enabled, the CUDA and TCU phases of *different*
    /// kernels overlap: total compute approaches
    /// `max(Σcuda, Σtcu) + (1-η)·min(Σcuda, Σtcu)`. With fusion enabled,
    /// launch counts collapse to one per kernel group boundary (modelled
    /// as 25% of the unfused launches, floor one launch).
    pub fn sequence_time_s(&self, ps: &[KernelProfile], cfg: &ExecConfig) -> f64 {
        if ps.is_empty() {
            return 0.0;
        }
        let sums = self.sequence_sums(ps);
        let mut launches = sums.launches;
        if cfg.fusion {
            launches = (launches * 0.25).max(1.0);
        }
        let compute = if cfg.multi_stream {
            sums.overlap_floor_s() + (1.0 - cfg.overlap_eta) * sums.cuda_s.min(sums.tcu_s)
        } else {
            sums.serial_compute_s()
        };
        launches * self.spec.kernel_launch_s + compute.max(sums.mem_s)
    }

    /// Per-resource totals of a kernel sequence — the sums both
    /// [`Self::sequence_time_s`] and the `neo-sched` simulator
    /// cross-check envelopes are built from.
    pub fn sequence_sums(&self, ps: &[KernelProfile]) -> ComponentSums {
        let mut sums = ComponentSums::default();
        for p in ps {
            let (c, t, m, _) = self.component_times(p);
            sums.cuda_s += c;
            sums.tcu_s += t;
            sums.mem_s += m;
            sums.launches += p.launches;
        }
        sums
    }

    /// Sequence time in microseconds.
    pub fn sequence_time_us(&self, ps: &[KernelProfile], cfg: &ExecConfig) -> f64 {
        self.sequence_time_s(ps, cfg) * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(cuda: f64, tcu: f64, mem_bytes: f64) -> KernelProfile {
        KernelProfile::new("k")
            .cuda_modmacs(cuda)
            .tcu_fp64_macs(tcu)
            .bytes(mem_bytes / 2.0, mem_bytes / 2.0)
            .launches(1.0)
    }

    #[test]
    fn compute_bound_kernel() {
        let dev = DeviceModel::a100();
        // Huge compute, tiny memory.
        let p = profile(1e12, 0.0, 1e3);
        let (c, _, m, _) = dev.component_times(&p);
        assert!(c > m);
        assert!(dev.kernel_time_s(&p) >= c);
    }

    #[test]
    fn memory_bound_kernel() {
        let dev = DeviceModel::a100();
        let p = profile(1e3, 0.0, 1e12);
        let (c, _, m, _) = dev.component_times(&p);
        assert!(m > c);
        let t = dev.kernel_time_s(&p);
        assert!((t - (dev.spec().kernel_launch_s + m)).abs() < 1e-12);
    }

    #[test]
    fn launch_overhead_floor() {
        let dev = DeviceModel::a100();
        let p = KernelProfile::new("noop").launches(1.0);
        assert!((dev.kernel_time_s(&p) - dev.spec().kernel_launch_s).abs() < 1e-15);
    }

    #[test]
    fn multi_stream_overlaps() {
        let dev = DeviceModel::a100();
        let ps = vec![profile(1e11, 0.0, 1e3), profile(0.0, 1e11, 1e3)];
        let serial = dev.sequence_time_s(&ps, &ExecConfig::naive());
        let overlapped = dev.sequence_time_s(&ps, &ExecConfig::default());
        assert!(overlapped < serial, "overlap should reduce time");
    }

    #[test]
    fn fusion_amortizes_launches() {
        let dev = DeviceModel::a100();
        let ps: Vec<KernelProfile> = (0..100)
            .map(|_| KernelProfile::new("k").launches(1.0))
            .collect();
        let unfused = dev.sequence_time_s(&ps, &ExecConfig::naive());
        let fused = dev.sequence_time_s(
            &ps,
            &ExecConfig {
                fusion: true,
                multi_stream: false,
                overlap_eta: 0.0,
            },
        );
        assert!(fused < unfused * 0.3);
    }

    #[test]
    fn tcu_fp64_beats_cuda_for_same_macs() {
        // The architectural premise: TCU FP64 MAC rate exceeds the
        // CUDA-core modular MAC rate.
        let dev = DeviceModel::a100();
        let on_cuda = profile(1e12, 0.0, 0.0);
        let on_tcu = profile(0.0, 1e12, 0.0);
        assert!(dev.kernel_time_s(&on_tcu) < dev.kernel_time_s(&on_cuda));
    }

    #[test]
    fn empty_sequence_is_free() {
        let dev = DeviceModel::a100();
        assert_eq!(dev.sequence_time_s(&[], &ExecConfig::default()), 0.0);
    }

    #[test]
    fn sequence_sums_match_naive_model() {
        let dev = DeviceModel::a100();
        let ps = vec![profile(1e9, 2e9, 1e6), profile(3e9, 0.0, 5e8)];
        let sums = dev.sequence_sums(&ps);
        assert_eq!(sums.launches, 2.0);
        assert!(sums.overlap_floor_s() <= sums.serial_compute_s());
        let naive = dev.sequence_time_s(&ps, &ExecConfig::naive());
        let rebuilt =
            sums.launches * dev.spec().kernel_launch_s + sums.serial_compute_s().max(sums.mem_s);
        assert!((naive - rebuilt).abs() <= 1e-15 * naive);
    }
}
