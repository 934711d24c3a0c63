//! Overhead guard for the `neo-trace` telemetry gate: the radix-2 NTT
//! (counter sites plus an `ntt.forward`/`ntt.inverse` timer span each)
//! and a `test_small` HMult (the `ckks.hmult` and `keyswitch.klss` spans
//! plus every NTT and GEMM beneath them), each with the gate disabled —
//! the default, one relaxed atomic load per site — and enabled (relaxed
//! `fetch_add`s plus a clock pair and a histogram record per span). The
//! disabled cost is the price every non-profiled run pays, so it must
//! stay under ~2% of the uninstrumented kernel; numbers from this bench
//! feed `BENCH_trace.json` at the repo root.
//!
//! Calls alternate between the gate off and on, so the drift of a shared
//! host (its speed changes by up to 2x over seconds) hits both alike; each
//! line reports the median per-call time of either side.

use neo_ckks::{CkksParams, FheEngine};
use neo_ntt::{radix2, NttPlan};
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Median per-call wall time of `f` in µs with the gate off and on, over
/// `pairs` alternating calls each (after a few warm-up calls).
fn paired(pairs: usize, mut f: impl FnMut()) -> (f64, f64) {
    for _ in 0..3 {
        f();
    }
    let (mut off, mut on) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for i in 0..2 * pairs {
        let gate = i % 2 == 1;
        if gate {
            neo_trace::enable();
        }
        let t = Instant::now();
        f();
        let us = t.elapsed().as_secs_f64() * 1e6;
        neo_trace::disable();
        if gate { &mut on } else { &mut off }.push(us);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut off), median(&mut on))
}

fn report(name: &str, (off, on): (f64, f64)) {
    println!(
        "{name:28} disabled {off:10.2} us   enabled {on:10.2} us   enabled/disabled {:.4}",
        on / off
    );
}

fn main() {
    for (log_n, pairs) in [(12u32, 2000), (14, 500)] {
        let n = 1usize << log_n;
        let q = neo_math::primes::ntt_primes(55, n, 1).unwrap()[0];
        let plan = NttPlan::new(q, n).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(log_n));
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let times = paired(pairs, || {
            let mut x = a.clone();
            radix2::forward(&plan, &mut x);
            radix2::inverse(&plan, &mut x);
            black_box(x);
        });
        report(&format!("ntt_fwd_inv/{n}"), times);
    }

    let engine = FheEngine::new(CkksParams::test_small(), 7).unwrap();
    let level = engine.context().params().max_level;
    let x = engine.encrypt_f64(&[0.5, 0.25], level).unwrap();
    let y = engine.encrypt_f64(&[0.125, 0.75], level).unwrap();
    let times = paired(200, || {
        black_box(engine.hmult(&x, &y).unwrap());
    });
    report("hmult/test_small", times);
}
