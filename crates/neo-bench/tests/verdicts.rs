//! Modelled facts that EXPERIMENTS.md's verdicts rest on, read from the
//! JSON the artifact binaries write, so a change to the timing model
//! that would move one of these verdicts fails here first.

use neo_trace::jsonv::{self, JsonValue};
use std::process::Command;

/// Runs one artifact binary with `--out` pointed at a temp file and
/// parses the JSON it writes.
fn artifact(id: &str, exe: &str) -> JsonValue {
    let out = std::env::temp_dir().join(format!("neo-verdicts-{id}-{}.json", std::process::id()));
    let run = Command::new(exe)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("artifact binary runs");
    assert!(
        run.status.success(),
        "{id} failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("artifact written");
    let _ = std::fs::remove_file(&out);
    jsonv::parse(&text).expect("artifact parses")
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing number {key:?}"))
}

/// Fig. 16: WordSize_T = 64 pays the 3×3 Booth penalty, so the KLSS-64
/// column is the slowest at every plotted level.
#[test]
fn fig16_klss64_is_slowest_at_every_level() {
    let doc = artifact("fig16", env!("CARGO_BIN_EXE_fig16"));
    let rows = doc.get("rows").and_then(JsonValue::as_array).expect("rows");
    assert!(!rows.is_empty());
    for row in rows {
        let t64 = num(row, "klss64_ms");
        for other in ["hybrid_ms", "klss36_ms", "klss48_ms"] {
            assert!(
                t64 > num(row, other),
                "level {}: KLSS-64 {t64} ms not above {other} {}",
                num(row, "level"),
                num(row, other)
            );
        }
    }
}

/// Table 8: the grid optimum lies in the d_num = 9 column, as in the
/// paper.
#[test]
fn table8_optimum_is_in_the_dnum9_column() {
    let doc = artifact("table8", env!("CARGO_BIN_EXE_table8"));
    let best = doc.get("best").expect("best");
    assert_eq!(num(best, "dnum"), 9.0, "optimum at {best:?}");
}
