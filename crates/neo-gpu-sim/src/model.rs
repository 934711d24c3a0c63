use crate::{DeviceSpec, KernelProfile};

/// Per-resource totals of a kernel sequence, in seconds (except
/// `launches`). The building block of [`DeviceModel::serial_time_s`] and
/// of the `neo-sched` overlap-envelope cross-checks.
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

    /// One-stream serial time of a kernel sequence, in seconds:
    /// `Σlaunches·launch_s + max(Σcuda+Σtcu, Σmem)`.
    ///
    /// Compute phases run back to back while HBM traffic drains
    /// alongside them. This is the reference the `neo-sched` simulator
    /// must equal on one stream (property-tested), not a pricing path:
    /// the cost model prices every operation on the simulator.
    pub fn serial_time_s(&self, ps: &[KernelProfile]) -> f64 {
        let sums = self.sequence_sums(ps);
        sums.launches * self.spec.kernel_launch_s + sums.serial_compute_s().max(sums.mem_s)
    }

    /// Per-resource totals of a kernel sequence — the sums
    /// [`Self::serial_time_s`] and the `neo-sched` simulator cross-check
    /// envelopes are built from.
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
        assert_eq!(dev.serial_time_s(&[]), 0.0);
    }

    #[test]
    fn serial_time_sums_the_rooflines() {
        let dev = DeviceModel::a100();
        // One kernel: the serial sum is that kernel's roofline.
        let p = profile(1e9, 2e9, 1e6);
        assert!(
            (dev.serial_time_s(std::slice::from_ref(&p)) - dev.kernel_time_s(&p)).abs() < 1e-15
        );
        // Two kernels: compute phases add, and the memory total is
        // compared with the compute total, not kernel by kernel.
        let ps = vec![p, profile(3e9, 0.0, 5e8)];
        let sums = dev.sequence_sums(&ps);
        assert_eq!(sums.launches, 2.0);
        assert!(sums.overlap_floor_s() <= sums.serial_compute_s());
        let serial = dev.serial_time_s(&ps);
        let per_kernel: f64 = ps.iter().map(|k| dev.kernel_time_s(k)).sum();
        assert!(serial <= per_kernel + 1e-15);
        assert!(serial >= 2.0 * dev.spec().kernel_launch_s + sums.serial_compute_s());
    }
}
