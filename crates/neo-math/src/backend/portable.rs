//! The scalar Shoup/lazy-reduction backend. This is the correctness
//! anchor every other backend is property-tested against, and the
//! fallback on targets without better options.

use super::{accumulation_span, check_klss_ip, BackendKind, ComputeBackend, Start};
use crate::packed::word;
use crate::{Modulus, ShoupMul};

/// Scalar Shoup/lazy-reduction kernels (the original fast path).
#[derive(Debug, Clone, Copy, Default)]
pub struct PortableBackend;

impl ComputeBackend for PortableBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Portable
    }

    fn ntt_forward(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) -> u64 {
        let n = x.len();
        let mut butterflies = 0u64;
        // Cooley–Tukey stages, widest first, lazy in [0, 4q): the stage
        // with `blocks` blocks reads twiddles blocks..2·blocks.
        let mut blocks = 1;
        while blocks < n / 2 {
            butterflies += fwd_stage(m, x, n / blocks, &tw[blocks..2 * blocks]);
            blocks *= 2;
        }
        // The span-2 stage with the final [0, 4q) -> [0, q) reduction.
        butterflies + fwd_stage_final(m, x, &tw[n / 2..])
    }

    fn ntt_inverse(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul], n_inv: ShoupMul) -> u64 {
        let n = x.len();
        let mut butterflies = 0u64;
        // Gentleman–Sande stages, narrowest first, lazy in [0, 2q).
        let mut blocks = n / 2;
        while blocks >= 1 {
            butterflies += inv_stage(m, x, n / blocks, &tw[blocks..2 * blocks]);
            blocks /= 2;
        }
        // The n⁻¹ scale: a full Shoup multiply, canonical out.
        for v in x.iter_mut() {
            *v = m.mul_shoup(*v, n_inv);
        }
        butterflies
    }

    fn mul_const(&self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
        // mul_shoup is sound for arbitrary u64 multiplicands, matching the
        // historical `m.mul(m.reduce(v), w)` on the canonical output.
        for (o, &v) in out.iter_mut().zip(x) {
            *o = m.mul_shoup(v, s);
        }
    }

    fn bconv_ip(&self, t: &Modulus, ys: &[&[u64]], _y_bound: u64, w: &[u64], out: &mut [u64]) {
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = 0u128;
            for (row, &wi) in ys.iter().zip(w) {
                acc += row[c] as u128 * wi as u128;
            }
            *o = t.reduce_u128(acc);
        }
    }

    fn bconv_overshoot(&self, ys: &[&[u64]], inv_q: &[f64], out: &mut [u64]) {
        // The f64 sums accumulate in `out` as bits (zero bits are +0.0),
        // one source row at a time, then round in place.
        out.fill(0);
        for (y, &inv) in ys.iter().zip(inv_q) {
            for (f, &v) in out.iter_mut().zip(*y) {
                *f = (f64::from_bits(*f) + v as f64 * inv).to_bits();
            }
        }
        for k in out.iter_mut() {
            *k = round_nonneg(f64::from_bits(*k));
        }
    }

    fn mul_acc(&self, q: &Modulus, a: &[&[u64]], b: &[&[u64]], start: Start, out: &mut [u64]) {
        // `span` terms fit the u128 accumulator on top of a value below q;
        // longer sums take one pass per group. Each group starts from the
        // one before; the first starts from zero, writing `out` without
        // reading it, or from `out` itself, as `start` says.
        if a.is_empty() && start == Start::Zero {
            out.fill(0);
        }
        let span = accumulation_span(q.value() - 1, q);
        for (g, (xs, ys)) in a.chunks(span).zip(b.chunks(span)).enumerate() {
            let fresh = g == 0 && start == Start::Zero;
            for (c, o) in out.iter_mut().enumerate() {
                let mut acc = if fresh { 0 } else { u128::from(*o) };
                for (x, y) in xs.iter().zip(ys) {
                    acc += u128::from(x[c]) * u128::from(y[c]);
                }
                *o = q.reduce_u128(acc);
            }
        }
    }

    fn klss_ip(
        &self,
        q: &Modulus,
        x: &[&[u64]],
        key: &[[&[u8]; 2]],
        width: usize,
        start: Start,
        out: [&mut [u64]; 2],
    ) {
        check_klss_ip(x, key, width, &out);
        let [o0, o1] = out;
        if x.is_empty() && start == Start::Zero {
            o0.fill(0);
            o1.fill(0);
        }
        // As in `mul_acc`: `span` terms per pass, the first pass starting
        // where `start` says.
        let span = accumulation_span(q.value() - 1, q);
        for (g, (xs, ks)) in x.chunks(span).zip(key.chunks(span)).enumerate() {
            let fresh = g == 0 && start == Start::Zero;
            for (c, (a, b)) in o0.iter_mut().zip(o1.iter_mut()).enumerate() {
                let (mut s0, mut s1) = if fresh {
                    (0, 0)
                } else {
                    (u128::from(*a), u128::from(*b))
                };
                for (row, [k0, k1]) in xs.iter().zip(ks) {
                    let v = u128::from(row[c]);
                    s0 += v * u128::from(word(k0, c, width));
                    s1 += v * u128::from(word(k1, c, width));
                }
                *a = q.reduce_u128(s0);
                *b = q.reduce_u128(s1);
            }
        }
    }
}

/// One forward Cooley–Tukey stage of span `size` (`size ≥ 4`): in block
/// `i`, each butterfly maps `(u, v)` to `(u + w·v, u − w·v)` for
/// `w = tw[i]`, lazily in `[0, 4q)`. Returns butterflies executed.
fn fwd_stage(m: &Modulus, x: &mut [u64], size: usize, tw: &[ShoupMul]) -> u64 {
    let two_q = 2 * m.value();
    let half = size / 2;
    let mut butterflies = 0u64;
    // chunks_exact + split_at keep the inner loop free of bounds checks,
    // which is worth ~25% at bootstrapping-sized degrees.
    for (block, &w) in x.chunks_exact_mut(size).zip(tw) {
        let (lo, hi) = block.split_at_mut(half);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let mut u = *a;
            if u >= two_q {
                u -= two_q;
            }
            let t = m.mul_shoup_lazy(*b, w);
            *a = u + t;
            *b = u + two_q - t;
        }
        butterflies += half as u64;
    }
    butterflies
}

/// The last forward stage (span 2, one twiddle per adjacent pair) with the
/// final `[0, 4q) → [0, q)` reduction folded into the butterfly outputs.
fn fwd_stage_final(m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) -> u64 {
    let q = m.value();
    let two_q = 2 * q;
    let canonical = |mut r: u64| {
        if r >= two_q {
            r -= two_q;
        }
        if r >= q {
            r -= q;
        }
        r
    };
    for (pair, &w) in x.chunks_exact_mut(2).zip(tw) {
        let mut u = pair[0];
        if u >= two_q {
            u -= two_q;
        }
        let t = m.mul_shoup_lazy(pair[1], w);
        pair[0] = canonical(u + t);
        pair[1] = canonical(u + two_q - t);
    }
    (x.len() / 2) as u64
}

/// One inverse Gentleman–Sande stage of span `size` (`size ≥ 2`): in block
/// `i`, each butterfly maps `(u, v)` to `(u + v, (u − v)·w)` for
/// `w = tw[i]`, lazily in `[0, 2q)`. Returns butterflies executed.
fn inv_stage(m: &Modulus, x: &mut [u64], size: usize, tw: &[ShoupMul]) -> u64 {
    let two_q = 2 * m.value();
    let half = size / 2;
    let mut butterflies = 0u64;
    for (block, &w) in x.chunks_exact_mut(size).zip(tw) {
        let (lo, hi) = block.split_at_mut(half);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (u, v) = (*a, *b);
            let mut s = u + v;
            if s >= two_q {
                s -= two_q;
            }
            *a = s;
            *b = m.mul_shoup_lazy(u + two_q - v, w);
        }
        butterflies += half as u64;
    }
    butterflies
}

/// `x.round()` for `0 ≤ x < 2^52` without a libm call: `x − ⌊x⌋` is exact
/// in that range, so comparing it with one half rounds halves away from
/// zero exactly as [`f64::round`] does.
fn round_nonneg(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::round_nonneg;

    #[test]
    fn rounding_matches_f64_round() {
        let mut xs = vec![0.0, 0.499_999_999_999_999_94];
        for k in 0..=8 {
            let half = k as f64 + 0.5;
            xs.extend([half.next_down(), half, half.next_up()]);
        }
        for x in xs {
            assert_eq!(round_nonneg(x), x.round() as u64, "x={x:e}");
        }
    }
}
