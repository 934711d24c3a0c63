//! `fault_matrix` — every row of the fault matrix ([`neo_bench::faults`])
//! from one base seed: prints the table, writes
//! `results/fault_report.json` (or `--out <path>`), and exits non-zero
//! when the run fails — a silent outcome, a row under its injection
//! floor, or the compute or store rows under the 1000-trial floor.
//!
//! The base seed comes from `FAULT_MATRIX_SEED` (default
//! [`faults::DEFAULT_SEED`]) and is printed up front. The single-threaded
//! rows (`tcu_fragment`, `ntt_stage`, `sched_completion` and the three
//! store rows) replay exactly from it. The engine rows
//! (`ntt_stage_keygen`, `ntt_stage_bsgs`, `ntt_plan`, `ckks_op`,
//! `serve_layer`) transform limbs and run a batch's ops on the rayon pool,
//! and a `FaultPlan` hands out opportunity indices in scheduling order: the
//! seed fixes each plan, not which call draws its fires, so their tallies
//! can differ between runs of one seed (`ckks_op`'s recovered, identical
//! and detected counts do).

use neo_bench::emit;
use neo_bench::faults::{self, Row, Tally};
use neo_trace::json;
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let base: u64 = std::env::var("FAULT_MATRIX_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(faults::DEFAULT_SEED);
    println!("fault-matrix base seed: {base} (set FAULT_MATRIX_SEED to reproduce)");

    let runs: Vec<(&Row, Tally)> = faults::ROWS.iter().map(|r| (r, r.run(base))).collect();
    let mut failures = faults::trial_floor_failures(runs.iter().map(|(r, t)| (*r, t.trials)));
    let mut rows = Vec::new();
    let mut human = format!(
        "\n{:<18} {:>7} {:>9} {:>6} {:>10} {:>10} {:>9} {:>7}",
        "site", "trials", "injected", "floor", "recovered", "identical", "detected", "silent"
    );
    for (row, t) in &runs {
        let _ = write!(
            human,
            "\n{:<18} {:>7} {:>9} {:>6} {:>10} {:>10} {:>9} {:>7}",
            row.name,
            t.trials,
            t.injected,
            row.injection_floor,
            t.recovered,
            t.identical,
            t.detected,
            t.silent_seeds.len(),
        );
        failures.extend(t.failures(row));
        rows.push(json!({
            "site": row.name,
            "trials": t.trials,
            "injected": t.injected,
            "injection_floor": row.injection_floor,
            "recovered": t.recovered,
            "identical": t.identical,
            "detected": t.detected,
            "silent": t.silent_seeds.len(),
            "silent_seeds": t.silent_seeds.clone(),
        }));
    }
    let trials: u64 = runs.iter().map(|(_, t)| t.trials).sum();
    let silent: usize = runs.iter().map(|(_, t)| t.silent_seeds.len()).sum();
    let _ = write!(human, "\n\n{trials} trials, {silent} silent corruptions");

    let report = json!({
        "bench": "fault_matrix",
        "base_seed": base,
        "total_trials": trials,
        "silent_corruptions": silent,
        "failures": failures.clone(),
        "sites": rows,
    });
    emit("results/fault_report.json", &human, report);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        eprintln!("reproduce with FAULT_MATRIX_SEED={base}");
        return ExitCode::FAILURE;
    }
    println!("PASS: zero silent corruptions across {trials} seeded trials, every floor met");
    ExitCode::SUCCESS
}
