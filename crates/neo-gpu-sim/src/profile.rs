use crate::costs::{MERGE_COST, REORDER_COST, SPLIT_COST};
use neo_trace::{Counter, WorkCounters};
use std::ops::{Add, AddAssign, Mul};

/// Exact work counts for one kernel invocation (or a batch of them).
///
/// Profiles are produced by the functional kernels in `neo-kernels` as pure
/// functions of the CKKS parameters; the device model turns them into time.
/// They form a commutative monoid under `+` (sequencing work) and support
/// scalar `*` (repeating a kernel), which is how operation- and
/// application-level costs are assembled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelProfile {
    /// Kernel name for reporting ("bconv", "ip", "ntt", …).
    pub name: String,
    /// Modular MACs (or equivalent scalar modular ops) on CUDA cores.
    pub cuda_modmacs: f64,
    /// Raw FP64 MACs on tensor cores (already includes Booth partials and
    /// fragment padding).
    pub tcu_fp64_macs: f64,
    /// Raw INT8 MACs on tensor cores (idem).
    pub tcu_int8_macs: f64,
    /// Bytes read from global memory.
    pub bytes_read: f64,
    /// Bytes written to global memory.
    pub bytes_written: f64,
    /// Kernel launches (fusion reduces this).
    pub launches: f64,
}

impl KernelProfile {
    /// Empty profile with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Builds a *measured* profile from `neo-trace` work counters, using
    /// the same cost weights ([`crate::costs`]) that the analytic profiles
    /// in `neo-kernels` apply: modular MACs/muls, butterflies, scalar
    /// GEMM MACs, and ABFT checksum MACs count 1 CUDA MAC each; reorder,
    /// split, and merge ops are weighted by their relative costs;
    /// tensor-core MACs, bytes, and launches map through directly. This is
    /// what makes measured and analytic profiles directly comparable —
    /// and what makes the overhead of a `VerifyPolicy` show up as real
    /// simulated time rather than disappearing from the cost model.
    pub fn from_counters(name: impl Into<String>, w: &WorkCounters) -> Self {
        let c = |counter: Counter| w.get(counter) as f64;
        Self::new(name)
            .cuda_modmacs(
                c(Counter::ModMacs)
                    + c(Counter::ModMuls)
                    + c(Counter::NttButterflies)
                    + c(Counter::GemmMacs)
                    + c(Counter::AbftMacs)
                    + REORDER_COST * c(Counter::ReorderOps)
                    + SPLIT_COST * c(Counter::SplitOps)
                    + MERGE_COST * c(Counter::MergeOps),
            )
            .tcu_fp64_macs(c(Counter::TcuFp64Macs))
            .tcu_int8_macs(c(Counter::TcuInt8Macs))
            .bytes(c(Counter::BytesRead), c(Counter::BytesWritten))
            .launches(c(Counter::Launches))
    }

    /// Sets CUDA-core modular MAC count.
    pub fn cuda_modmacs(mut self, v: f64) -> Self {
        self.cuda_modmacs = v;
        self
    }

    /// Sets tensor-core FP64 MAC count.
    pub fn tcu_fp64_macs(mut self, v: f64) -> Self {
        self.tcu_fp64_macs = v;
        self
    }

    /// Sets tensor-core INT8 MAC count.
    pub fn tcu_int8_macs(mut self, v: f64) -> Self {
        self.tcu_int8_macs = v;
        self
    }

    /// Sets global-memory traffic.
    pub fn bytes(mut self, read: f64, written: f64) -> Self {
        self.bytes_read = read;
        self.bytes_written = written;
        self
    }

    /// Sets the launch count.
    pub fn launches(mut self, v: f64) -> Self {
        self.launches = v;
        self
    }

    /// Renames the profile (useful after summing).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Total global-memory traffic.
    pub fn total_bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// True iff the profile contains no work at all.
    pub fn is_empty(&self) -> bool {
        self.cuda_modmacs == 0.0
            && self.tcu_fp64_macs == 0.0
            && self.tcu_int8_macs == 0.0
            && self.total_bytes() == 0.0
            && self.launches == 0.0
    }
}

impl Add for KernelProfile {
    type Output = KernelProfile;

    fn add(mut self, rhs: KernelProfile) -> KernelProfile {
        self += rhs;
        self
    }
}

impl AddAssign for KernelProfile {
    fn add_assign(&mut self, rhs: KernelProfile) {
        self.cuda_modmacs += rhs.cuda_modmacs;
        self.tcu_fp64_macs += rhs.tcu_fp64_macs;
        self.tcu_int8_macs += rhs.tcu_int8_macs;
        self.bytes_read += rhs.bytes_read;
        self.bytes_written += rhs.bytes_written;
        self.launches += rhs.launches;
        if self.name.is_empty() {
            self.name = rhs.name;
        }
    }
}

impl Mul<f64> for KernelProfile {
    type Output = KernelProfile;

    fn mul(mut self, s: f64) -> KernelProfile {
        self.cuda_modmacs *= s;
        self.tcu_fp64_macs *= s;
        self.tcu_int8_macs *= s;
        self.bytes_read *= s;
        self.bytes_written *= s;
        self.launches *= s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_sum() {
        let a = KernelProfile::new("a")
            .cuda_modmacs(10.0)
            .bytes(4.0, 2.0)
            .launches(1.0);
        let b = KernelProfile::new("b").tcu_fp64_macs(5.0).launches(2.0);
        let c = a.clone() + b;
        assert_eq!(c.cuda_modmacs, 10.0);
        assert_eq!(c.tcu_fp64_macs, 5.0);
        assert_eq!(c.launches, 3.0);
        assert_eq!(c.total_bytes(), 6.0);
        assert_eq!(c.name, "a");
    }

    #[test]
    fn scalar_repeat() {
        let a = KernelProfile::new("a").cuda_modmacs(3.0).launches(1.0) * 4.0;
        assert_eq!(a.cuda_modmacs, 12.0);
        assert_eq!(a.launches, 4.0);
    }

    #[test]
    fn empty_detection() {
        assert!(KernelProfile::new("x").is_empty());
        assert!(!KernelProfile::new("x").launches(1.0).is_empty());
    }

    #[test]
    fn from_counters_applies_cost_weights() {
        let (_, w) = neo_trace::record(|| {
            neo_trace::add(Counter::GemmMacs, 100);
            neo_trace::add(Counter::AbftMacs, 30);
            neo_trace::add(Counter::MergeOps, 10);
            neo_trace::add(Counter::ReorderOps, 8);
            neo_trace::add(Counter::TcuFp64Macs, 256);
            neo_trace::add(Counter::BytesRead, 640);
            neo_trace::add(Counter::Launches, 2);
        });
        let p = KernelProfile::from_counters("measured", &w);
        assert_eq!(
            p.cuda_modmacs,
            100.0 + 30.0 + MERGE_COST * 10.0 + REORDER_COST * 8.0
        );
        assert_eq!(p.tcu_fp64_macs, 256.0);
        assert_eq!(p.bytes_read, 640.0);
        assert_eq!(p.launches, 2.0);
        assert_eq!(p.name, "measured");
    }
}
