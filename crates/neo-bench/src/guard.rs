//! The perf-regression guard: committed baselines, measured medians, and
//! the pass/warn/fail policy `bench_guard` enforces in CI.
//!
//! The guard compares each tracked row against the committed baseline in
//! `results/baselines.json` (relative change, so the stored unit —
//! nanoseconds for timed kernels, seconds for simulated makespans —
//! cancels out). Wall-clock rows ([`evaluate`]) are timings:
//!
//! * change > [`FAIL_PCT`] (15%) slower  → **Fail** (CI exits non-zero);
//! * change > [`WARN_PCT`] (7%) slower   → **Warn** (reported, build passes);
//! * otherwise (including improvements)  → **Pass**.
//!
//! Model rows ([`evaluate_model`]) are deterministic simulator outputs,
//! not timings: they are drift checks, and a relative difference above
//! 1e-9 in either direction is a **Fail**. A model change that moves one
//! must promote the new value with `--update-baselines`.
//!
//! `NEO_GUARD_INJECT_PCT` inflates every measured value by the given
//! percentage before evaluation. It exists so CI can prove the guard
//! actually fails on a synthetic regression (the acceptance test injects
//! 20% and asserts a `Fail` verdict) without committing a slow kernel.

use neo_trace::json;
use neo_trace::jsonv::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// Slower-than-baseline percentage above which a kernel is a warning.
pub const WARN_PCT: f64 = 7.0;
/// Slower-than-baseline percentage above which a kernel fails the build.
pub const FAIL_PCT: f64 = 15.0;

/// Outcome of comparing one kernel against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the warn threshold (or faster than baseline); for a model
    /// row, equal to its baseline.
    Pass,
    /// Slower than [`WARN_PCT`] but within [`FAIL_PCT`].
    Warn,
    /// Slower than [`FAIL_PCT`], or a model row that drifted; the guard
    /// exits non-zero.
    Fail,
    /// No committed baseline for this kernel yet; informational only.
    New,
}

impl Verdict {
    /// The lowercase tag used in JSON artifacts and reports.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Warn => "warn",
            Verdict::Fail => "fail",
            Verdict::New => "new",
        }
    }
}

/// One kernel's guard evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardResult {
    /// Kernel id (matches the key in `results/baselines.json`).
    pub kernel: String,
    /// Committed baseline value (`None` for a kernel seen first here).
    pub baseline: Option<f64>,
    /// Measured median this run (after any `NEO_GUARD_INJECT_PCT`).
    pub measured: f64,
    /// Relative change vs baseline in percent; positive = slower.
    pub change_pct: f64,
    /// The policy verdict.
    pub verdict: Verdict,
}

impl GuardResult {
    /// The JSON row written into `BENCH_metrics.json`.
    pub fn to_json(&self) -> JsonValue {
        json!({
            "kernel": self.kernel.clone(),
            "baseline": self.baseline,
            "measured": self.measured,
            "change_pct": self.change_pct,
            "verdict": self.verdict.tag(),
        })
    }
}

/// Evaluates one wall-clock kernel's measured median against its
/// baseline.
pub fn evaluate(kernel: &str, baseline: Option<f64>, measured: f64) -> GuardResult {
    let (change_pct, verdict) = match baseline {
        Some(b) if b > 0.0 => {
            let pct = (measured / b - 1.0) * 100.0;
            let v = if pct > FAIL_PCT {
                Verdict::Fail
            } else if pct > WARN_PCT {
                Verdict::Warn
            } else {
                Verdict::Pass
            };
            (pct, v)
        }
        _ => (0.0, Verdict::New),
    };
    GuardResult {
        kernel: kernel.to_string(),
        baseline,
        measured,
        change_pct,
        verdict,
    }
}

/// Evaluates one model row (a deterministic simulator output) against
/// its baseline: a relative drift above 1e-9, up or down, fails.
pub fn evaluate_model(kernel: &str, baseline: Option<f64>, measured: f64) -> GuardResult {
    let mut r = evaluate(kernel, baseline, measured);
    if r.verdict != Verdict::New {
        r.verdict = if r.change_pct.abs() > 1e-9 * 100.0 {
            Verdict::Fail
        } else {
            Verdict::Pass
        };
    }
    r
}

/// Reads `NEO_GUARD_INJECT_PCT` (a synthetic slowdown percentage for CI's
/// guard-trips-on-regression test); 0 when unset or unparsable.
pub fn inject_pct() -> f64 {
    std::env::var("NEO_GUARD_INJECT_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Applies [`inject_pct`]'s synthetic slowdown to a measured value.
pub fn apply_injection(measured: f64) -> f64 {
    measured * (1.0 + inject_pct() / 100.0)
}

/// The committed baseline file: kernel id → median of record. Units are
/// per-kernel (nanoseconds for timed kernels, seconds for the simulated
/// makespan); the guard only ever compares ratios.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baselines {
    /// Map of kernel id → baseline value.
    pub kernels: BTreeMap<String, f64>,
}

impl Baselines {
    /// Loads `path` through the strict parser ([`neo_trace::jsonv`]),
    /// returning `Ok(None)` when the file does not exist (first run
    /// before `--update-baselines`).
    pub fn load(path: &Path) -> Result<Option<Self>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let doc =
            neo_trace::jsonv::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let fields = doc
            .get("kernels")
            .and_then(|k| k.as_object())
            .ok_or_else(|| format!("{}: missing \"kernels\" object", path.display()))?;
        let mut kernels = BTreeMap::new();
        for (name, v) in fields {
            let value = v
                .as_f64()
                .ok_or_else(|| format!("{}: kernel {name:?} is not a number", path.display()))?;
            kernels.insert(name.clone(), value);
        }
        Ok(Some(Self { kernels }))
    }

    /// Writes the baseline file (trailing newline) through
    /// [`crate::write_artifact`]; returns whether it was written.
    pub fn save(&self, path: &Path) -> bool {
        let kernels = self
            .kernels
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::from(*v)))
            .collect();
        let doc = json!({ "kernels": JsonValue::Obj(kernels) });
        crate::write_artifact(path, &format!("{doc}\n"))
    }

    /// The baseline value for `kernel`, if committed.
    pub fn get(&self, kernel: &str) -> Option<f64> {
        self.kernels.get(kernel).copied()
    }
}

/// The aggregate verdict across all kernels: `Fail` dominates, then
/// `Warn`; `New` never worsens the outcome.
pub fn overall(results: &[GuardResult]) -> Verdict {
    if results.iter().any(|r| r.verdict == Verdict::Fail) {
        Verdict::Fail
    } else if results.iter().any(|r| r.verdict == Verdict::Warn) {
        Verdict::Warn
    } else {
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_partition_the_change_axis() {
        assert_eq!(evaluate("k", Some(100.0), 100.0).verdict, Verdict::Pass);
        assert_eq!(evaluate("k", Some(100.0), 60.0).verdict, Verdict::Pass); // improvement
        assert_eq!(evaluate("k", Some(100.0), 106.9).verdict, Verdict::Pass);
        assert_eq!(evaluate("k", Some(100.0), 107.1).verdict, Verdict::Warn);
        assert_eq!(evaluate("k", Some(100.0), 114.9).verdict, Verdict::Warn);
        assert_eq!(evaluate("k", Some(100.0), 115.1).verdict, Verdict::Fail);
        assert_eq!(evaluate("k", None, 50.0).verdict, Verdict::New);
    }

    #[test]
    fn change_pct_is_relative() {
        let r = evaluate("k", Some(200.0), 250.0);
        assert!((r.change_pct - 25.0).abs() < 1e-9);
        assert_eq!(r.verdict, Verdict::Fail);
        let r = evaluate("k", Some(200.0), 150.0);
        assert!((r.change_pct + 25.0).abs() < 1e-9);
        assert_eq!(r.verdict, Verdict::Pass);
    }

    #[test]
    fn injected_twenty_percent_regression_fails() {
        // The CI acceptance scenario: a healthy measurement inflated by a
        // synthetic NEO_GUARD_INJECT_PCT=20 must trip the 15% fail gate.
        let baseline = 1_000.0;
        let healthy = 1_010.0; // within noise of baseline
        let injected = healthy * (1.0 + 20.0 / 100.0); // what apply_injection does
        let r = evaluate("ntt_forward_n16384", Some(baseline), injected);
        assert_eq!(r.verdict, Verdict::Fail, "change {:.1}%", r.change_pct);
        // Without injection the same measurement passes.
        assert_eq!(
            evaluate("ntt_forward_n16384", Some(baseline), healthy).verdict,
            Verdict::Pass
        );
    }

    #[test]
    fn model_rows_fail_on_drift_either_way() {
        let b = 2.4936583466535436;
        assert_eq!(evaluate_model("m", Some(b), b).verdict, Verdict::Pass);
        assert_eq!(
            evaluate_model("m", Some(b), b * (1.0 + 1e-6)).verdict,
            Verdict::Fail
        );
        assert_eq!(
            evaluate_model("m", Some(b), b * (1.0 - 1e-6)).verdict,
            Verdict::Fail
        );
        // A fall the wall-clock policy would pass is still drift.
        assert_eq!(evaluate("m", Some(b), b * 0.5).verdict, Verdict::Pass);
        assert_eq!(evaluate_model("m", Some(b), b * 0.5).verdict, Verdict::Fail);
        assert_eq!(evaluate_model("m", None, b).verdict, Verdict::New);
    }

    #[test]
    fn overall_takes_the_worst_verdict() {
        let pass = evaluate("a", Some(100.0), 100.0);
        let warn = evaluate("b", Some(100.0), 110.0);
        let fail = evaluate("c", Some(100.0), 130.0);
        let new = evaluate("d", None, 1.0);
        assert_eq!(overall(&[pass.clone(), new.clone()]), Verdict::Pass);
        assert_eq!(overall(&[pass.clone(), warn.clone()]), Verdict::Warn);
        assert_eq!(overall(&[pass, warn, fail]), Verdict::Fail);
        assert_eq!(overall(&[new]), Verdict::Pass);
    }

    #[test]
    fn baselines_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("neo_guard_test_baselines");
        let path = dir.join("baselines.json");
        let mut b = Baselines::default();
        b.kernels.insert("ntt_forward_n16384".into(), 123456.0);
        b.kernels.insert("sched_klss_hmult_makespan".into(), 0.0042);
        assert!(b.save(&path));
        let loaded = Baselines::load(&path).expect("load").expect("present");
        assert_eq!(loaded, b);
        let missing = Baselines::load(&dir.join("nope.json")).expect("load");
        assert!(missing.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
