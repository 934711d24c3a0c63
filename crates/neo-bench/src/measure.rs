//! In-process timing for the table binaries, honoring the same
//! environment knobs as the vendored criterion stub so one set of
//! variables tunes every measurement in the repo:
//!
//! * `NEO_BENCH_WARMUP_MS` — warm-up window per measurement (default 200);
//! * `NEO_BENCH_MEASURE_MS` — measurement window (default 1000);
//! * `NEO_BENCH_SAMPLES` — samples taken inside the window (default 20).
//!
//! Iterations are batched so each sample is long enough to time reliably,
//! and the reported statistic of record is the **median** (robust against
//! scheduler noise on loaded CI hosts).

use std::time::{Duration, Instant};

fn env_ms(key: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_ms),
    )
}

/// Warm-up/measure/sample budget, read once per measurement.
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Warm-up window before any sample is recorded.
    pub warmup: Duration,
    /// Total measurement window the samples share.
    pub measure: Duration,
    /// Number of samples.
    pub samples: usize,
}

impl MeasureConfig {
    /// Reads `NEO_BENCH_WARMUP_MS` / `NEO_BENCH_MEASURE_MS` /
    /// `NEO_BENCH_SAMPLES`, with the stub-criterion defaults.
    pub fn from_env() -> Self {
        Self {
            warmup: env_ms("NEO_BENCH_WARMUP_MS", 200),
            measure: env_ms("NEO_BENCH_MEASURE_MS", 1000),
            samples: std::env::var("NEO_BENCH_SAMPLES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(20)
                .max(2),
        }
    }
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Per-iteration timing statistics, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample — the statistic of record.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Samples actually taken.
    pub samples: usize,
}

/// Times `f` under `cfg`: warm-up, batch sizing from the observed
/// per-iteration cost, then `samples` batched samples.
pub fn time<R, F: FnMut() -> R>(cfg: &MeasureConfig, mut f: F) -> Measurement {
    let batch = warm_up(cfg, &mut f);
    summarize((0..cfg.samples).map(|_| sample(&mut f, batch)).collect())
}

/// Times `f` and `g` like [`time`], alternating their samples so drift in
/// the host's speed hits both alike — the method for a same-run ratio.
pub fn time_pair<R, S>(
    cfg: &MeasureConfig,
    mut f: impl FnMut() -> R,
    mut g: impl FnMut() -> S,
) -> (Measurement, Measurement) {
    let (bf, bg) = (warm_up(cfg, &mut f), warm_up(cfg, &mut g));
    let (tf, tg) = (0..cfg.samples)
        .map(|_| (sample(&mut f, bf), sample(&mut g, bg)))
        .unzip();
    (summarize(tf), summarize(tg))
}

/// Runs `f` for the warm-up window and returns the batch size that makes
/// one sample last `measure / samples`.
fn warm_up<R>(cfg: &MeasureConfig, f: &mut impl FnMut() -> R) -> u64 {
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    loop {
        std::hint::black_box(f());
        warm_iters += 1;
        if warm_start.elapsed() >= cfg.warmup {
            break;
        }
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
    let sample_time = cfg.measure.as_secs_f64() / cfg.samples as f64;
    ((sample_time / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24)
}

/// One sample: nanoseconds per iteration over `batch` iterations.
fn sample<R>(f: &mut impl FnMut() -> R, batch: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e9 / batch as f64
}

fn summarize(mut times_ns: Vec<f64>) -> Measurement {
    times_ns.sort_by(|a, b| a.total_cmp(b));
    let n = times_ns.len();
    let median_ns = if n % 2 == 1 {
        times_ns[n / 2]
    } else {
        (times_ns[n / 2 - 1] + times_ns[n / 2]) / 2.0
    };
    Measurement {
        min_ns: times_ns[0],
        median_ns,
        mean_ns: times_ns.iter().sum::<f64>() / n as f64,
        max_ns: times_ns[n - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_are_honored_and_stats_are_ordered() {
        // Env vars are process-global; set them before the only read.
        std::env::set_var("NEO_BENCH_WARMUP_MS", "5");
        std::env::set_var("NEO_BENCH_MEASURE_MS", "20");
        std::env::set_var("NEO_BENCH_SAMPLES", "4");
        let cfg = MeasureConfig::from_env();
        assert_eq!(cfg.warmup, Duration::from_millis(5));
        assert_eq!(cfg.measure, Duration::from_millis(20));
        assert_eq!(cfg.samples, 4);
        let mut x = 0u64;
        let m = time(&cfg, || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert_eq!(m.samples, 4);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.median_ns <= m.max_ns);
        assert!(m.mean_ns > 0.0);
        let (p, q) = time_pair(&cfg, || x.count_ones(), || x.leading_zeros());
        assert_eq!((p.samples, q.samples), (4, 4));
        std::env::remove_var("NEO_BENCH_WARMUP_MS");
        std::env::remove_var("NEO_BENCH_MEASURE_MS");
        std::env::remove_var("NEO_BENCH_SAMPLES");
    }
}
