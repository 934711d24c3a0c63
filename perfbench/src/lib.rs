//! Host wall-clock benchmark of the Neo CKKS stack.
//!
//! Three seeded workloads exercise the host-executed pipeline:
//!
//! * [`ks_ops`] — a closed loop of HMult→Rescale and HRotate on one
//!   `FheEngine` session at N = 2^14 (key-switch bound);
//! * [`c2s`] — a CoeffToSlot-shaped bootstrap segment at N = 2^13 (one
//!   ciphertext rotated under many distinct Galois keys);
//! * [`serve_open`] — 256 tenants on `test_small` served through
//!   `NeoService` by an open-loop Poisson generator.
//!
//! Every run with tracing off reports the end-to-end metrics of
//! [`report::END_TO_END`]; a separate traced run reports the per-layer
//! metrics of [`report::PER_LAYER`], timed from this crate around calls
//! into each module's public functions on inputs shaped like the
//! workload. Simulated makespans are model outputs and appear nowhere in
//! either list.

pub mod alloc;
pub mod c2s;
pub mod ks_ops;
pub mod layers;
pub mod report;
pub mod serve_open;
pub mod serving;
pub mod stats;

use neo_ckks::encoding::Complex64;
use std::time::Instant;

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (`ks-ops`, `coeff-to-slot`, `serve-open`).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A closed-loop workload measures past `--seconds` until it holds the
/// samples its tail percentile needs, but never past this multiple.
pub const MAX_STRETCH: f64 = 4.0;

/// Runs `f` and returns its result with the elapsed wall time in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used on all its threads, in ms. With
/// paravirtual steal accounting the kernel leaves out time the
/// hypervisor gave the virtual CPUs to other guests, which wall-clock
/// time cannot; threads blocked waiting for each other use none.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // valid Linux constant, so `clock_gettime` writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Wall-clock and process CPU time of one measured section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// Elapsed wall-clock time, ms.
    pub wall_ms: f64,
    /// CPU time used by every thread of the process, ms.
    pub cpu_ms: f64,
}

/// Runs `f` and returns its result with its wall-clock and CPU time.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, Times) {
    let (c0, t) = (process_cpu_ms(), Instant::now());
    let out = f();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = process_cpu_ms() - c0;
    (out, Times { wall_ms, cpu_ms })
}

/// The CPU times of `times`, ms.
pub fn cpu_ms(times: &[Times]) -> Vec<f64> {
    times.iter().map(|t| t.cpu_ms).collect()
}

/// The wall-clock times of `times`, ms.
pub fn wall_ms(times: &[Times]) -> Vec<f64> {
    times.iter().map(|t| t.wall_ms).collect()
}

/// Runs the set-up `reps` times from a cold NTT plan cache and keeps the
/// last result; earlier results are dropped before the next set-up
/// starts, so peak memory holds one set-up. Returns each rep's times.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<Times>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        neo_ntt::cache::clear();
        let (out, t) = measured(&mut f);
        times.push(t);
        last = Some(out);
    }
    (last.expect("at least one set-up"), times)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`.
/// Steal is time a virtual CPU was ready but the hypervisor ran
/// something else; a run that saw much of it measured the host's
/// neighbours as well as the program.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Bits of precision of `got` against the oracle `want`, as
/// `(worst, typical)`: `-log2` of the largest and of the mean absolute
/// slot error, capped at 60. The worst slot decides whether an output
/// fails; the mean, which seeds barely move, is what a run reports.
pub fn precision_bits(got: &[Complex64], want: &[Complex64]) -> (f64, f64) {
    let errs: Vec<f64> = got.iter().zip(want).map(|(g, w)| (*g - *w).abs()).collect();
    let bits = |err: f64| {
        if err <= 0.0 {
            60.0
        } else {
            (-err.log2()).clamp(0.0, 60.0)
        }
    };
    (
        bits(errs.iter().copied().fold(0.0, f64::max)),
        bits(stats::mean(&errs)),
    )
}

/// A run's `precision_bits`: the mean precision of each kind of checked
/// output, then the lowest of those — the typical precision of the
/// least precise operation. Steadier across seeds than the single worst
/// output.
pub fn run_precision(by_kind: &[&[f64]]) -> f64 {
    by_kind
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::mean(v))
        .fold(f64::INFINITY, f64::min)
}

/// Outputs below this precision count as failed operations.
pub const MIN_PRECISION_BITS: f64 = 10.0;

/// FNV-1a digest over the bit patterns of decrypted slot values.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds slot values into the digest.
    pub fn add(&mut self, values: &[Complex64]) {
        for v in values {
            for bits in [v.re.to_bits(), v.im.to_bits()] {
                for b in bits.to_le_bytes() {
                    self.0 ^= u64::from(b);
                    self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Seeded slot values with real and imaginary parts in `[-bound, bound)`.
pub fn random_slots<R: rand::Rng>(rng: &mut R, n: usize, bound: f64) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(rng.gen_range(-bound..bound), rng.gen_range(-bound..bound)))
        .collect()
}
