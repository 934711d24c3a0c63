//! The fault matrix under the tier-1 suite: every row of
//! [`neo_bench::faults`] at its default seed. A row fails on any silent
//! corruption — an outcome neither bit-identical to the fault-free run
//! nor a typed error naming a known detection site — and on fewer
//! injections than its floor; the module documents each rule.
//!
//! This binary is its own process, so the globally armed plans cannot
//! leak into other test binaries; within it the rows serialize
//! themselves.

use neo_bench::faults::{self, DEFAULT_SEED, ROWS};

fn assert_row(name: &str) {
    let row = ROWS.iter().find(|r| r.name == name).expect("a matrix row");
    let failures = row.run(DEFAULT_SEED).failures(row);
    assert!(
        failures.is_empty(),
        "base seed {DEFAULT_SEED}: {failures:#?}"
    );
}

#[test]
fn the_matrix_covers_at_least_1000_trials() {
    let failures = faults::trial_floor_failures(ROWS.iter().map(|r| (r, r.trials)));
    assert!(failures.is_empty(), "{failures:#?}");
}

/// One test per row, named after it.
macro_rules! row_tests {
    ($($test:ident: $row:literal,)*) => {
        $(
            #[test]
            fn $test() {
                assert_row($row);
            }
        )*
    };
}

row_tests! {
    tcu_fragment_matrix: "tcu_fragment",
    ntt_stage_matrix: "ntt_stage",
    ntt_stage_keygen_matrix: "ntt_stage_keygen",
    ntt_stage_bsgs_matrix: "ntt_stage_bsgs",
    ntt_plan_matrix: "ntt_plan",
    sched_completion_matrix: "sched_completion",
    ckks_op_matrix: "ckks_op",
    serve_layer_matrix: "serve_layer",
    store_write_matrix: "store_write",
    store_torn_matrix: "store_torn",
    store_read_matrix: "store_read",
}
