//! `backend_bench` — portable vs SIMD compute-backend comparison on the
//! [`neo_math::ComputeBackend`] kernels at the widths the CKKS workloads
//! run: the negacyclic NTT at `n = 2^14` (`ks-ops`) and `n = 2^13`
//! (`coeff-to-slot`) over 36-bit (`Q`/`P`) and 48-bit (`T`) primes,
//! exact RNS base conversion in the KLSS Mod-Up (3 → 5) and
//! Recover-Limbs (5 → 2) shapes, exact BConv's `f64` overshoot row over
//! Recover's 5 source rows, and the 4-term `mul_acc` of an inner product,
//! once on cached rows and once streaming its operands from a 40 MiB
//! pool; then the KLSS inner product itself, both key components per
//! pass over key rows packed at 6 bytes per residue and streamed from a
//! 40 MiB pool, as the switch streams its key. The 55-bit NTT row is
//! kept as the portable fallback: the SIMD backend runs the portable
//! kernels there, so its ratio sits at ≈1.0×.
//!
//! Before timing, every kernel's SIMD output is asserted bit-identical to
//! the portable output on the same inputs — the numbers are only
//! meaningful because the results are interchangeable — and the packed
//! inner product's to two `mul_acc` calls on the unpacked rows.
//!
//! Timing budget comes from the shared `NEO_BENCH_WARMUP_MS` /
//! `NEO_BENCH_MEASURE_MS` / `NEO_BENCH_SAMPLES` knobs (see
//! [`neo_bench::measure`]). Artifact: `BENCH_simd.json` at the repo root
//! (or `--out <path>`).

use neo_bench::measure::{self, MeasureConfig, Measurement};
use neo_bench::{emit, ratio};
use neo_math::backend::{self, Start};
use neo_math::{BackendKind, BconvTable, Domain, Modulus, PackedPoly, RnsBasis, RnsPoly};
use neo_ntt::{radix2, NttPlan};
use neo_trace::json;
use neo_trace::jsonv::JsonValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stats_json(m: &Measurement) -> JsonValue {
    json!({
        "min_us": m.min_ns / 1e3,
        "median_us": m.median_ns / 1e3,
        "mean_us": m.mean_ns / 1e3,
        "max_us": m.max_ns / 1e3,
        "samples": m.samples,
    })
}

/// Which SIMD code path a row exercises.
const IFMA: &str = "ifma";
const AVX512: &str = "avx512dq f64";
const FALLBACK: &str = "portable fallback";

/// Times the portable and SIMD versions of one kernel after asserting
/// their outputs are bit-identical, and appends the row.
struct Table {
    cfg: MeasureConfig,
    human: String,
    rows: Vec<JsonValue>,
}

impl Table {
    fn row<T: PartialEq + std::fmt::Debug>(
        &mut self,
        name: &str,
        path: &str,
        config: JsonValue,
        mut portable: impl FnMut() -> T,
        mut simd: impl FnMut() -> T,
    ) {
        assert_eq!(portable(), simd(), "{name}: SIMD diverged from portable");
        let (p, s) = measure::time_pair(&self.cfg, &mut portable, &mut simd);
        let speedup = ratio(p.median_ns, s.median_ns);
        self.human.push_str(&format!(
            "{name:34} | {path:17} | {:9.1} us | {:9.1} us | {speedup:6.2}x\n",
            p.median_ns / 1e3,
            s.median_ns / 1e3
        ));
        self.rows.push(json!({
            "kernel": name,
            "simd_path": path,
            "portable": stats_json(&p),
            "simd": stats_json(&s),
            "speedup_simd_vs_portable": speedup,
            "config": config,
        }));
    }
}

fn random_limbs(rng: &mut StdRng, basis: &RnsBasis, n: usize) -> Vec<Vec<u64>> {
    basis
        .moduli()
        .iter()
        .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
        .collect()
}

fn main() {
    let cfg = MeasureConfig::from_env();
    let mut table = Table {
        cfg,
        human: format!(
            "Compute-backend comparison (portable vs simd), detected default: {}\n\
             warmup {:?}, measure {:?}, {} samples, median per kernel\n\n\
             kernel                             | simd path         | portable med | simd med     | speedup\n\
             -----------------------------------+-------------------+--------------+--------------+--------\n",
            BackendKind::detect(),
            cfg.warmup,
            cfg.measure,
            cfg.samples
        ),
        rows: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(0xbe);
    let n = 1usize << 14;

    // --- NTT at n = 2^14 (the workloads' 36/48-bit primes, then 55 bits)
    // and at n = 2^13, coeff-to-slot's width. ---
    for (log_n, bits, path) in [
        (14u32, 36u32, IFMA),
        (14, 48, IFMA),
        (14, 55, FALLBACK),
        (13, 36, IFMA),
        (13, 48, IFMA),
    ] {
        let n = 1usize << log_n;
        let q = neo_math::primes::ntt_primes(bits, n, 1).unwrap()[0];
        let portable = NttPlan::with_backend(q, n, BackendKind::Portable).unwrap();
        let simd = NttPlan::with_backend(q, n, BackendKind::Simd).unwrap();
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut evals = a.clone();
        radix2::forward(&portable, &mut evals);
        let forward = |plan: &NttPlan| {
            let mut x = a.clone();
            radix2::forward(plan, &mut x);
            x
        };
        let inverse = |plan: &NttPlan| {
            let mut x = evals.clone();
            radix2::inverse(plan, &mut x);
            x
        };
        assert_eq!(inverse(&simd), a, "SIMD inverse NTT is not the inverse");
        let config = json!({ "n": n, "prime_bits": bits });
        // The 55-bit forward row keeps its historical name.
        let fwd_name = if bits == 55 {
            format!("ntt_forward_n{n}")
        } else {
            format!("ntt_forward_n{n}_q{bits}")
        };
        table.row(
            &fwd_name,
            path,
            config.clone(),
            || forward(&portable),
            || forward(&simd),
        );
        if bits != 55 {
            table.row(
                &format!("ntt_inverse_n{n}_q{bits}"),
                path,
                config,
                || inverse(&portable),
                || inverse(&simd),
            );
        }
    }

    // --- Exact base conversion at n = 2^14. ---
    for (name, src_bits, src_limbs, dst_bits, dst_limbs) in [
        ("bconv_exact_3to4", 36u32, 3usize, 40u32, 4usize),
        ("bconv_exact_3to5", 36, 3, 48, 5),
        ("bconv_exact_5to2", 48, 5, 36, 2),
    ] {
        let src =
            RnsBasis::new(&neo_math::primes::ntt_primes(src_bits, n, src_limbs).unwrap()).unwrap();
        let dst =
            RnsBasis::new(&neo_math::primes::ntt_primes(dst_bits, n, dst_limbs).unwrap()).unwrap();
        let portable = BconvTable::new(&src, &dst)
            .unwrap()
            .with_backend(BackendKind::Portable);
        let simd = BconvTable::new(&src, &dst)
            .unwrap()
            .with_backend(BackendKind::Simd);
        let limbs = random_limbs(&mut rng, &src, n);
        table.row(
            name,
            IFMA,
            json!({ "n": n, "src_limbs": src_limbs, "dst_limbs": dst_limbs,
                    "src_bits": src_bits, "dst_bits": dst_bits }),
            || portable.convert_exact(&limbs),
            || simd.convert_exact(&limbs),
        );
    }

    // --- Exact BConv's overshoot row alone: Recover Limbs' 5 scaled
    // 48-bit T rows. ---
    let ts = neo_math::primes::ntt_primes(48, n, 5).unwrap();
    let rows: Vec<Vec<u64>> = ts
        .iter()
        .map(|&t| (0..n).map(|_| rng.gen_range(0..t)).collect())
        .collect();
    let ys: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
    let inv_t: Vec<f64> = ts.iter().map(|&t| 1.0 / t as f64).collect();
    let overshoot = |kind: BackendKind| {
        let mut out = vec![0u64; n];
        backend::get(kind).bconv_overshoot(&ys, &inv_t, &mut out);
        out
    };
    table.row(
        "bconv_overshoot_5rows_n16384",
        AVX512,
        json!({ "n": n, "rows": ts.len(), "src_bits": 48 }),
        || overshoot(BackendKind::Portable),
        || overshoot(BackendKind::Simd),
    );

    // --- mul_acc: the KLSS inner product's 4 terms over a 48-bit prime. ---
    let terms = 4usize;
    let qt = Modulus::new(neo_math::primes::ntt_primes(48, n, 1).unwrap()[0]).unwrap();
    let rows: Vec<Vec<u64>> = (0..2 * terms)
        .map(|_| (0..n).map(|_| rng.gen_range(0..qt.value())).collect())
        .collect();
    let (xs, ys): (Vec<&[u64]>, Vec<&[u64]>) = (
        rows[..terms].iter().map(Vec::as_slice).collect(),
        rows[terms..].iter().map(Vec::as_slice).collect(),
    );
    // `mul_acc` is write-only: every call's output starts as junk, a
    // different junk per backend, that the result must not depend on.
    let mul_acc = |kind: BackendKind, junk: u64| {
        let mut out = vec![junk; n];
        backend::get(kind).mul_acc(&qt, &xs, &ys, Start::Zero, &mut out);
        out
    };
    table.row(
        "mul_acc_4terms_n16384_q48",
        IFMA,
        json!({ "n": n, "terms": terms, "prime_bits": 48 }),
        || mul_acc(BackendKind::Portable, u64::MAX),
        || mul_acc(BackendKind::Simd, 0x5eed_5eed_5eed_5eed),
    );

    // --- The same call streaming its operands, as the KLSS inner product
    // streams its key: each call takes the next 2·terms rows of a 40 MiB
    // pool (the `ks-ops` key's size), so no row is in the core's L1 or L2
    // when it is read. Each backend walks the pool from row 0, so their
    // first calls agree.
    let pool_rows = (40 << 20) / (8 * n);
    let pool: Vec<Vec<u64>> = (0..pool_rows)
        .map(|_| (0..n).map(|_| rng.gen_range(0..qt.value())).collect())
        .collect();
    let streamed = |kind: BackendKind, next: &mut usize| {
        let rows: Vec<&[u64]> = (0..2 * terms)
            .map(|j| pool[(*next + j) % pool.len()].as_slice())
            .collect();
        *next = (*next + 2 * terms) % pool.len();
        let mut out = vec![0u64; n];
        backend::get(kind).mul_acc(&qt, &rows[..terms], &rows[terms..], Start::Zero, &mut out);
        out
    };
    let (mut p_next, mut s_next) = (0, 0);
    table.row(
        "mul_acc_4terms_n16384_q48_streamed",
        IFMA,
        json!({ "n": n, "terms": terms, "prime_bits": 48, "pool_mib": 40 }),
        || streamed(BackendKind::Portable, &mut p_next),
        || streamed(BackendKind::Simd, &mut s_next),
    );

    // --- The KLSS inner product over packed key rows: the same 4 terms,
    // both key components per pass, each key residue at 6 bytes. The Mod
    // Up rows stay put, as they do across a switch's output digits; each
    // call takes the next 2·terms key rows of a 40 MiB pool of packed
    // rows, as the switch streams its key. Each backend walks the pool
    // from row 0, so their first calls agree, and those first rows are
    // checked against two `mul_acc` calls on the unpacked rows.
    let key_pool: Vec<PackedPoly> = (0..(40 << 20) / (6 * n))
        .map(|_| {
            let row = (0..n).map(|_| rng.gen_range(0..qt.value())).collect();
            let poly = RnsPoly::from_limbs(vec![row], Domain::Ntt).unwrap();
            PackedPoly::pack(&poly, &[qt])
        })
        .collect();
    let width = key_pool[0].width();
    let packed_ip = |kind: BackendKind, next: &mut usize| {
        let key: Vec<[&[u8]; 2]> = (0..terms)
            .map(|j| [0, 1].map(|c| key_pool[(*next + 2 * j + c) % key_pool.len()].row(0)))
            .collect();
        *next = (*next + 2 * terms) % key_pool.len();
        let (mut a, mut b) = (vec![0u64; n], vec![0u64; n]);
        backend::get(kind).klss_ip(&qt, &xs, &key, width, Start::Zero, [&mut a, &mut b]);
        [a, b]
    };
    let first = packed_ip(BackendKind::Simd, &mut 0);
    for (c, got) in first.iter().enumerate() {
        let key: Vec<Vec<u64>> = (0..terms)
            .map(|j| key_pool[2 * j + c].limbs().remove(0))
            .collect();
        let key: Vec<&[u64]> = key.iter().map(Vec::as_slice).collect();
        let mut want = vec![0u64; n];
        backend::get(BackendKind::Portable).mul_acc(&qt, &xs, &key, Start::Zero, &mut want);
        assert_eq!(
            got, &want,
            "packed KLSS IP diverged from mul_acc, component {c}"
        );
    }
    let (mut p_next, mut s_next) = (0, 0);
    table.row(
        "klss_ip_4terms_n16384_q48_streamed",
        IFMA,
        json!({ "n": n, "terms": terms, "prime_bits": 48, "bytes_per_word": width,
                "components": 2, "pool_mib": 40 }),
        || packed_ip(BackendKind::Portable, &mut p_next),
        || packed_ip(BackendKind::Simd, &mut s_next),
    );

    let doc = json!({
        "description": "Portable vs SIMD compute-backend medians at the CKKS workloads' \
                        widths. Bit-identity is asserted on the bench inputs before timing. \
                        Re-run with: cargo run --release -p neo-bench --bin backend_bench",
        "method": format!(
            "median of {} samples per kernel and backend after a {:?} warm-up within a \
             {:?} window (neo_bench::measure::time_pair: portable and simd samples \
             alternate); speedup = portable median / simd median",
            cfg.samples, cfg.warmup, cfg.measure
        ),
        "detected_default": BackendKind::detect().name(),
        "kernels": table.rows,
        "notes": [
            "The SIMD backend runs AVX-512 kernels on CPUs with AVX-512F, IFMA and DQ \
             (IFMA for moduli below 2^50, radix-4 NTT passes, an f64 overshoot row), and \
             the portable kernels otherwise; the row marked `portable fallback` (55-bit NTT) \
             times the same code twice.",
            "Absolute times drift between runs on a shared VM; compare same-run ratios.",
        ],
    });
    emit("BENCH_simd.json", &table.human, doc);
}
