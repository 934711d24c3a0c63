//! Slow-but-obvious NTT references shared by benches and property tests.
//!
//! [`forward_division_baseline`] is the radix-2 forward NTT as the tree
//! had it before the Shoup lazy-reduction rewrite: every modular multiply
//! is a 128-bit `%` division, the ψ-twist is a separate pass, and every
//! butterfly fully reduces. It is deliberately kept this naive — it is
//! the "before" row of `BENCH_ntt.json` and the oracle that pins both
//! compute backends' fast paths to an implementation with no lazy
//! representatives, no Shoup precomputation, and no vector lanes. It
//! computes natural evaluation order and permutes it to the fast path's
//! bit-reversed order at its boundary.

use crate::NttPlan;

/// The pre-Shoup division-based forward NTT (natural order in,
/// bit-reversed evaluation order out — same convention as
/// [`crate::radix2::forward`]).
///
/// # Panics
///
/// Panics if `x.len()` differs from the plan's degree.
pub fn forward_division_baseline(plan: &NttPlan, x: &mut [u64]) {
    let n = x.len();
    assert_eq!(n, plan.degree(), "length mismatch");
    let q = plan.modulus().value();
    let mulq = |a: u64, b: u64| ((a as u128 * b as u128) % q as u128) as u64;
    for (v, &p) in x.iter_mut().zip(plan.psi_pows()) {
        *v = mulq(*v, p);
    }
    crate::bit_reverse(x);
    let pows = plan.omega_pows();
    let mut size = 2;
    while size <= n {
        let half = size / 2;
        let step = n / size;
        for block in (0..n).step_by(size) {
            for j in 0..half {
                let w = pows[j * step];
                let u = x[block + j];
                let t = mulq(x[block + j + half], w);
                let s = u + t;
                x[block + j] = if s >= q { s - q } else { s };
                x[block + j + half] = if u >= t { u - t } else { u + q - t };
            }
        }
        size *= 2;
    }
    crate::bit_reverse(x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2;
    use neo_math::primes;
    use rand::{Rng, SeedableRng};

    #[test]
    fn division_baseline_matches_fast_path() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0dd5);
        for log_n in [3u32, 6, 10] {
            let n = 1usize << log_n;
            let q = primes::ntt_primes(45, n, 1).unwrap()[0];
            let plan = NttPlan::new(q, n).unwrap();
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let mut div = a.clone();
            let mut fast = a;
            forward_division_baseline(&plan, &mut div);
            radix2::forward(&plan, &mut fast);
            assert_eq!(div, fast, "n={n} q={q}");
        }
    }
}
