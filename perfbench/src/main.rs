//! `perfbench --workload <ks-ops|coeff-to-slot|serve-open> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end list
//! with `--trace 0`, the per-layer list with `--trace 1`. Exits 2 on bad
//! arguments or a failed set-up, and 3 without a result line when the
//! run is invalid.

use neo_perfbench::report::{Report, END_TO_END, PER_LAYER};
use neo_perfbench::{alloc::CountingAlloc, c2s, ks_ops, serve_open, Args};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match (args.workload.as_str(), args.trace) {
        ("ks-ops", false) => ks_ops::run,
        ("ks-ops", true) => ks_ops::trace,
        ("coeff-to-slot", false) => c2s::run,
        ("coeff-to-slot", true) => c2s::trace,
        ("serve-open", false) => serve_open::run,
        ("serve-open", true) => serve_open::trace,
        (w, _) => {
            eprintln!("perfbench: unknown workload {w:?}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host: backend {}, {} threads",
        neo_math::BackendKind::detect().name(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let before = neo_perfbench::cpu_ticks();
    let report: Report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (before, neo_perfbench::cpu_ticks()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("host: {share:.1}% of CPU time stolen by the hypervisor during the run");
    }
    if let Some(why) = &report.invalid {
        eprintln!("perfbench: invalid run, not scored: {why}");
        return ExitCode::from(3);
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let missing = report.missing(list);
    assert!(missing.is_empty(), "metrics not measured: {missing:?}");
    for why in &report.check_failures {
        println!("check failed: {why}");
    }
    println!("{}", report.json(list));
    ExitCode::SUCCESS
}
