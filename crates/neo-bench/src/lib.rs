//! Shared plumbing for the table/figure binaries.
//!
//! Every binary regenerates one artifact of the paper's evaluation
//! (`cargo run -p neo-bench --bin table5`, `--bin fig14`, …) or one
//! repo-local measurement, printing a formatted table to stdout and
//! writing one JSON document ([`emit`]): `results/<id>.json`, or a
//! `BENCH_*.json` record at the repo root. The library also holds the
//! fault matrix ([`faults`]) and the batch executor's sequential
//! reference ([`run_sequential`]), which the binaries and the
//! workspace's integration tests share.

#![deny(clippy::unwrap_used)]

use neo_ckks::batch::{BatchOp, BatchProgram, Slot};
use neo_ckks::{ops, Ciphertext, KeyChest, KsMethod, NeoError};
use neo_trace::jsonv::JsonValue;
use std::fs;
use std::path::{Path, PathBuf};

pub mod faults;
pub mod guard;
pub mod measure;

/// The batch executor's reference: a program's ops one by one in issue
/// order through the public `ops::try_*` calls, with a failed operand
/// poisoning the op that reads it. `BatchProgram::execute` must return
/// exactly this.
pub fn run_sequential(
    prog: &BatchProgram,
    chest: &KeyChest,
    inputs: &[Ciphertext],
    method: KsMethod,
) -> Vec<Result<Ciphertext, NeoError>> {
    let ctx = chest.context();
    let mut out: Vec<Result<Ciphertext, NeoError>> = Vec::with_capacity(prog.ops.len());
    for (idx, op) in prog.ops.iter().enumerate() {
        let get = |s: Slot| match s {
            Slot::Input(i) => Ok(&inputs[i]),
            Slot::Op(j) => out[j].as_ref().map_err(|_| NeoError::poisoned(idx, j)),
        };
        let result = match *op {
            BatchOp::HMult(a, b) => {
                get(a).and_then(|a| get(b).and_then(|b| ops::try_hmult(chest, a, b, method)))
            }
            BatchOp::HAdd(a, b) => {
                get(a).and_then(|a| get(b).and_then(|b| ops::try_hadd(ctx, a, b)))
            }
            BatchOp::HRotate(a, steps) => {
                get(a).and_then(|a| ops::try_hrotate(chest, a, steps, method))
            }
            BatchOp::Rescale(a) => get(a).and_then(|a| ops::try_rescale(ctx, a)),
        };
        out.push(result);
    }
    out
}

/// The `--out <path>` (or `--out=<path>`) argument, if given.
fn out_override() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--out=") {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// Prints the human-readable report and writes the binary's one JSON
/// document: to `default` (a `results/<id>.json` artifact or a root
/// `BENCH_*.json` record), or to the path every bench binary accepts as
/// `--out <path>` (or `--out=<path>`). See `crates/neo-bench/README.md`
/// for the artifact/promotion convention.
pub fn emit(default: &str, human: &str, doc: JsonValue) {
    println!("{human}");
    write_artifact(
        out_override().unwrap_or_else(|| default.into()),
        &doc.to_string(),
    );
}

/// Writes `text` to `path`, creating its directory, and reports the
/// outcome on stderr (`[wrote <path>]` or a warning). Returns whether the
/// file was written.
pub fn write_artifact(path: impl AsRef<Path>, text: &str) -> bool {
    let path = path.as_ref();
    let written = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fs::create_dir_all(dir),
        _ => Ok(()),
    }
    .and_then(|()| fs::write(path, text));
    match &written {
        Ok(()) => eprintln!("[wrote {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    written.is_ok()
}

/// Formats a ratio row entry, guarding divide-by-zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

/// Pretty seconds: "12.03 s" / "243.40 ms" / "81.7 us".
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.1} us", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(12.034), "12.03 s");
        assert_eq!(fmt_time(0.2434), "243.40 ms");
        assert_eq!(fmt_time(81.7e-6), "81.7 us");
    }

    #[test]
    fn ratio_guards_zero() {
        assert!(ratio(1.0, 0.0).is_nan());
        assert_eq!(ratio(6.0, 2.0), 3.0);
    }
}
