//! Measured-vs-analytic profile cross-checking.
//!
//! The analytic [`KernelProfile`]s in this crate are hand-derived formulas;
//! nothing in the type system stops them drifting away from what the
//! functional kernels actually execute. This module closes that loop:
//! [`measured_vs_analytic`] runs a real kernel on deterministic data under
//! [`neo_trace::record`] and compares the counters the hot path actually
//! incremented against the corresponding analytic counts, metric by
//! metric. Tests assert the deltas stay within tolerance (they are exactly
//! zero for the shipped kernels), so the gpu-sim cost model is continuously
//! validated by execution rather than assumed.
//!
//! The analytic expressions used here deliberately restate the Table 2
//! formulas of `neo-ckks::complexity` in kernel-local terms — per-limb
//! counts × `N` — so the workspace test suite can tie all three layers
//! (functional kernels, kernel profiles, scheme-level complexity) together.

use crate::geometry::MatmulTarget;
use crate::{bconv, ip};
use neo_gpu_sim::KernelProfile;
use neo_math::{primes, BconvTable, Modulus, RnsBasis};
use neo_ntt::{complexity, radix2, NttPlan};
use neo_trace::{record, Counter, WorkCounters};

/// One kernel invocation to cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOp {
    /// Radix-2 negacyclic NTT of one limb of degree `n` (forward and
    /// inverse, so the analytic butterfly count is `2·(n/2)·log2 n`).
    Ntt {
        /// Polynomial degree (power of two).
        n: usize,
    },
    /// Matrix-form BConv (Algorithm 2) on scalar units.
    Bconv {
        /// Coefficients per limb.
        n: usize,
        /// Source limbs.
        alpha: usize,
        /// Target limbs.
        alpha_out: usize,
    },
    /// Matrix-form IP (Algorithm 4) on scalar units.
    Ip {
        /// Polynomial degree.
        n: usize,
        /// Ciphertexts batched together.
        batch: usize,
        /// `R_T` limbs `α'`.
        alpha_p: usize,
        /// Input digits `β`.
        beta: usize,
        /// Output digits `β̃`.
        beta_t: usize,
    },
}

impl CheckOp {
    fn name(&self) -> &'static str {
        match self {
            CheckOp::Ntt { .. } => "ntt",
            CheckOp::Bconv { .. } => "bconv",
            CheckOp::Ip { .. } => "ip",
        }
    }
}

/// One metric's measured count against its analytic prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    /// Counter name (`neo_trace::Counter::name` convention).
    pub metric: &'static str,
    /// What the instrumented kernel actually tallied.
    pub measured: u64,
    /// What the closed-form profile predicts.
    pub analytic: u64,
}

impl DeltaEntry {
    /// `|measured − analytic| / analytic`; `0.0` when both are zero,
    /// `f64::INFINITY` when only the analytic side is zero.
    pub fn rel_error(&self) -> f64 {
        if self.analytic == 0 {
            if self.measured == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.measured.abs_diff(self.analytic)) as f64 / self.analytic as f64
        }
    }
}

/// The full measured-vs-analytic comparison for one kernel run.
#[derive(Debug, Clone)]
pub struct ProfileDelta {
    /// Kernel name (`"ntt"`, `"bconv"`, `"ip"`).
    pub op: String,
    /// Per-metric comparisons.
    pub entries: Vec<DeltaEntry>,
    /// Raw counter deltas of the measured run (for reports).
    pub measured: WorkCounters,
}

impl ProfileDelta {
    /// Largest relative error across the metrics.
    pub fn max_rel_error(&self) -> f64 {
        self.entries
            .iter()
            .map(DeltaEntry::rel_error)
            .fold(0.0, f64::max)
    }

    /// True iff every metric is within `tol` (e.g. `0.01` for 1%).
    pub fn within(&self, tol: f64) -> bool {
        self.max_rel_error() <= tol
    }

    /// Panics with a per-metric breakdown if any metric exceeds `tol`.
    ///
    /// # Panics
    ///
    /// See above — this is the test-facing assertion helper.
    pub fn assert_within(&self, tol: f64) {
        for e in &self.entries {
            assert!(
                e.rel_error() <= tol,
                "{}: {} measured {} vs analytic {} ({:.3}% > {:.3}%)",
                self.op,
                e.metric,
                e.measured,
                e.analytic,
                e.rel_error() * 100.0,
                tol * 100.0
            );
        }
    }

    /// The measured run as a [`KernelProfile`] (for side-by-side reports
    /// with the analytic profiles).
    pub fn measured_profile(&self) -> KernelProfile {
        KernelProfile::from_counters(format!("{}-measured", self.op), &self.measured)
    }
}

/// Deterministic reduced residues (an LCG — no RNG dependency, identical
/// across runs so the cross-check is reproducible).
fn fill(m: &Modulus, len: usize, seed: u64) -> Vec<u64> {
    let mut state = seed.wrapping_mul(2) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m.reduce(state)
        })
        .collect()
}

/// Runs `op` on deterministic data with tracing enabled and returns the
/// measured counters next to the analytic predictions.
///
/// # Panics
///
/// Panics if suitable NTT primes for the requested geometry do not exist
/// (they do for every power-of-two degree up to `2^17` used in tests).
pub fn measured_vs_analytic(op: CheckOp) -> ProfileDelta {
    let (entries, measured) = match op {
        CheckOp::Ntt { n } => check_ntt(n),
        CheckOp::Bconv {
            n,
            alpha,
            alpha_out,
        } => check_bconv(n, alpha, alpha_out),
        CheckOp::Ip {
            n,
            batch,
            alpha_p,
            beta,
            beta_t,
        } => check_ip(n, batch, alpha_p, beta, beta_t),
    };
    ProfileDelta {
        op: op.name().to_string(),
        entries,
        measured,
    }
}

fn check_ntt(n: usize) -> (Vec<DeltaEntry>, WorkCounters) {
    let q = primes::ntt_primes(36, n, 1).expect("NTT prime exists")[0];
    let plan = NttPlan::new(q, n).expect("plan builds");
    let mut x = fill(plan.modulus(), n, 0xA11CE);
    let orig = x.clone();
    let ((), w) = record(|| {
        radix2::forward(&plan, &mut x);
        radix2::inverse(&plan, &mut x);
    });
    assert_eq!(x, orig, "NTT roundtrip must be exact");
    let entries = vec![
        DeltaEntry {
            metric: "ntt_butterflies",
            measured: w.get(Counter::NttButterflies),
            analytic: 2 * complexity::radix2_butterfly_macs(n),
        },
        DeltaEntry {
            // The inverse's n⁻¹ scale pass (the untwist lives in its
            // twiddles): one Shoup multiply per coefficient.
            metric: "mod_muls",
            measured: w.get(Counter::ModMuls),
            analytic: n as u64,
        },
    ];
    (entries, w)
}

fn check_bconv(n: usize, alpha: usize, alpha_out: usize) -> (Vec<DeltaEntry>, WorkCounters) {
    let src = RnsBasis::new(&primes::ntt_primes(36, n.max(64), alpha).expect("src primes"))
        .expect("src basis");
    let dst = RnsBasis::new(&primes::ntt_primes(40, n.max(64), alpha_out).expect("dst primes"))
        .expect("dst basis");
    let table = BconvTable::new(&src, &dst).expect("coprime bases");
    let input: Vec<Vec<u64>> = src
        .moduli()
        .iter()
        .enumerate()
        .map(|(i, m)| fill(m, n, 0xBC0 + i as u64))
        .collect();
    let (out, w) = record(|| bconv::bconv_matrix_scalar(&table, &input));
    assert_eq!(out.len(), alpha_out);
    let (na, no) = (n as u64, alpha as u64);
    let entries = vec![
        DeltaEntry {
            // Table 2 Mod Up shape: α·α' limb products × N coefficients.
            metric: "gemm_macs",
            measured: w.get(Counter::GemmMacs),
            analytic: na * no * alpha_out as u64,
        },
        DeltaEntry {
            // Scaling step y_i = x_i·q̂_i⁻¹: one multiply per input datum.
            metric: "mod_muls",
            measured: w.get(Counter::ModMuls),
            analytic: na * no,
        },
        DeltaEntry {
            metric: "reorder_ops",
            measured: w.get(Counter::ReorderOps),
            analytic: na * (alpha + alpha_out) as u64,
        },
        DeltaEntry {
            metric: "launches",
            measured: w.get(Counter::Launches),
            analytic: 1,
        },
    ];
    (entries, w)
}

fn check_ip(
    n: usize,
    batch: usize,
    alpha_p: usize,
    beta: usize,
    beta_t: usize,
) -> (Vec<DeltaEntry>, WorkCounters) {
    let moduli: Vec<Modulus> = primes::ntt_primes(36, n.max(64), alpha_p)
        .expect("R_T primes")
        .into_iter()
        .map(|q| Modulus::new(q).expect("valid modulus"))
        .collect();
    let c: Vec<Vec<Vec<u64>>> = (0..beta)
        .map(|j| {
            moduli
                .iter()
                .enumerate()
                .map(|(k, m)| fill(m, batch * n, (j * 31 + k) as u64))
                .collect()
        })
        .collect();
    let evk: Vec<Vec<Vec<Vec<u64>>>> = (0..beta_t)
        .map(|i| {
            (0..beta)
                .map(|j| {
                    moduli
                        .iter()
                        .enumerate()
                        .map(|(k, m)| fill(m, n, (i * 101 + j * 13 + k) as u64))
                        .collect()
                })
                .collect()
        })
        .collect();
    let (out, w) = record(|| ip::ip_matrix(&moduli, batch, &c, &evk, MatmulTarget::Cuda));
    assert_eq!(out.len(), beta_t);
    let limb_gemms = (n * alpha_p) as u64;
    let entries = vec![
        DeltaEntry {
            // Table 2 Inner Product shape: β·β̃ limb products per batched
            // ciphertext × α'·N coefficients.
            metric: "gemm_macs",
            measured: w.get(Counter::GemmMacs),
            analytic: limb_gemms * (batch * beta * beta_t) as u64,
        },
        DeltaEntry {
            metric: "reorder_ops",
            measured: w.get(Counter::ReorderOps),
            analytic: limb_gemms * (batch * beta + beta * beta_t + batch * beta_t) as u64,
        },
        DeltaEntry {
            metric: "launches",
            measured: w.get(Counter::Launches),
            analytic: 1,
        },
    ];
    (entries, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntt_measured_matches_analytic_exactly() {
        let d = measured_vs_analytic(CheckOp::Ntt { n: 1 << 10 });
        d.assert_within(0.01);
        assert_eq!(d.max_rel_error(), 0.0);
    }

    #[test]
    fn bconv_measured_matches_analytic_exactly() {
        let d = measured_vs_analytic(CheckOp::Bconv {
            n: 256,
            alpha: 3,
            alpha_out: 4,
        });
        d.assert_within(0.01);
        assert_eq!(d.max_rel_error(), 0.0);
    }

    #[test]
    fn ip_measured_matches_analytic_exactly() {
        let d = measured_vs_analytic(CheckOp::Ip {
            n: 32,
            batch: 2,
            alpha_p: 2,
            beta: 3,
            beta_t: 4,
        });
        d.assert_within(0.01);
        assert_eq!(d.max_rel_error(), 0.0);
    }

    #[test]
    fn delta_entry_rel_error_edge_cases() {
        let exact = DeltaEntry {
            metric: "x",
            measured: 100,
            analytic: 100,
        };
        assert_eq!(exact.rel_error(), 0.0);
        let off = DeltaEntry {
            metric: "x",
            measured: 101,
            analytic: 100,
        };
        assert!((off.rel_error() - 0.01).abs() < 1e-12);
        let ghost = DeltaEntry {
            metric: "x",
            measured: 1,
            analytic: 0,
        };
        assert_eq!(ghost.rel_error(), f64::INFINITY);
    }
}
