//! `profile` — measured runtime telemetry for one CKKS op sequence, plus
//! the analytic-vs-measured kernel cross-check gate.
//!
//! Runs `encrypt → hmult (KLSS keyswitch) → rescale → hrotate → decrypt`
//! on the `test_small` parameter set with `neo-trace` enabled, printing the
//! span tree and per-op counter table, then cross-checks the NTT, BConv,
//! and IP kernels against their closed-form work counts. Exits non-zero if
//! any cross-check metric deviates by more than 1% — this is the CI gate
//! that keeps the analytic cost model honest.
//!
//! Artifacts: `results/profile.json` (counters + cross-check deltas; or
//! `--out <path>`) and `results/profile_trace.json` (Chrome trace format —
//! load in `chrome://tracing` or Perfetto).

use neo_bench::{emit, write_artifact};
use neo_ckks::bootstrap::BootstrapPlan;
use neo_ckks::cost::{op_time_us, CostConfig};
use neo_ckks::encoding::Complex64;
use neo_ckks::keys::{PublicKey, SecretKey};
use neo_ckks::{ops, CkksContext, CkksParams, Encoder, KeyChest, KsMethod};
use neo_gpu_sim::{DeviceModel, KernelProfile};
use neo_kernels::crosscheck::{measured_vs_analytic, CheckOp, ProfileDelta};
use neo_trace::json;
use neo_trace::jsonv::{self, JsonValue};
use neo_trace::{record, report, Counter, WorkCounters};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The tolerance of the measured-vs-analytic gate (satellite e).
const TOLERANCE: f64 = 0.01;

fn profile_json(p: &KernelProfile) -> JsonValue {
    json!({
        "name": p.name.clone(),
        "cuda_modmacs": p.cuda_modmacs,
        "tcu_fp64_macs": p.tcu_fp64_macs,
        "tcu_int8_macs": p.tcu_int8_macs,
        "bytes_read": p.bytes_read,
        "bytes_written": p.bytes_written,
        "launches": p.launches,
    })
}

fn delta_json(d: &ProfileDelta) -> JsonValue {
    json!({
        "op": d.op.clone(),
        "max_rel_error": d.max_rel_error(),
        "within_tolerance": d.within(TOLERANCE),
        "entries": d.entries.iter().map(|e| json!({
            "metric": e.metric,
            "measured": e.measured,
            "analytic": e.analytic,
            "rel_error": e.rel_error(),
        })).collect::<Vec<_>>(),
    })
}

fn main() {
    let params = CkksParams::test_small();
    let ctx = Arc::new(CkksContext::new(params.clone()).expect("test_small context"));
    let mut rng = StdRng::seed_from_u64(42);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng).expect("public key");
    let chest = KeyChest::new(ctx.clone(), sk, 43);
    let enc = Encoder::new(ctx.degree());
    let level = params.max_level;

    let mut human = String::from("Neo runtime profile (test_small, KLSS)\n\n");

    // --- Measured op sequence, each op recorded separately. ---
    neo_trace::reset();
    let vals = vec![Complex64::new(1.5, 0.0), Complex64::new(-0.5, 0.25)];
    let pt = enc.encode(&ctx, &vals, params.scale(), level);
    let mut op_rows = Vec::new();
    let mut push_op = |name: &str, w: WorkCounters| {
        op_rows.push((name.to_string(), w));
    };

    let (ct, w) = record(|| ops::try_encrypt(&ctx, &pk, &pt, &mut rng).expect("encrypt"));
    push_op("encrypt", w);
    let (ct2, w) = record(|| ops::try_hmult(&chest, &ct, &ct, KsMethod::Klss).expect("hmult"));
    push_op("hmult+klss", w);
    let (ct3, w) = record(|| ops::try_rescale(&ctx, &ct2).expect("rescale"));
    push_op("rescale", w);
    let (ct4, w) = record(|| ops::try_hrotate(&chest, &ct3, 1, KsMethod::Klss).expect("hrotate"));
    push_op("hrotate+klss", w);
    let (_pt_out, w) =
        record(|| ops::try_decrypt(&ctx, chest.secret_key(), &ct4).expect("decrypt"));
    push_op("decrypt", w);

    human.push_str(
        "Per-op measured work counters:\n\
         op           |    modmacs    modmuls  butterfly   gemmmacs    reorder  bytes(r+w)  launches\n\
         -------------+---------------------------------------------------------------------------\n",
    );
    let mut ops_json = Vec::new();
    for (name, w) in &op_rows {
        human.push_str(&format!(
            "{name:12} | {:10} {:10} {:10} {:10} {:10} {:11} {:9}\n",
            w.get(Counter::ModMacs),
            w.get(Counter::ModMuls),
            w.get(Counter::NttButterflies),
            w.get(Counter::GemmMacs),
            w.get(Counter::ReorderOps),
            w.get(Counter::BytesRead) + w.get(Counter::BytesWritten),
            w.get(Counter::Launches),
        ));
        let profile = KernelProfile::from_counters(name.clone(), w);
        ops_json.push(json!({
            "op": name,
            "counters": jsonv::parse(&w.to_json()).expect("counters print valid JSON"),
            "measured_profile": profile_json(&profile),
        }));
    }

    // --- Span tree of the sequence just measured. ---
    human.push_str("\nSpan tree:\n");
    human.push_str(&report::tree_report());

    // --- Bootstrap segments (analytic — the runtime path stops at the
    // primitive ops; the bootstrap plan is the paper's op trace). The
    // 5-level test_small chain cannot host a bootstrap (try_standard
    // correctly refuses it), so the analytic trace is planned at the
    // paper's L = 35 chain depth on the same geometry.
    let boot_params = CkksParams {
        max_level: 35,
        ..params.clone()
    };
    let plan = BootstrapPlan::try_standard(&boot_params).expect("bootstrap plan at paper depth");
    let trace = plan.trace();
    let dev = DeviceModel::a100();
    let cfg = CostConfig::neo();
    let per_stage = 4; // HRotate, PMult, HAdd, Rescale per CTS/STC stage
    let cts_end = plan.cts_stages * per_stage;
    let stc_start = trace.len() - plan.cts_stages * per_stage;
    let mut segments = Vec::new();
    for (seg, steps) in [
        ("CoeffToSlot", &trace[..cts_end]),
        ("EvalMod", &trace[cts_end..stc_start]),
        ("SlotToCoeff", &trace[stc_start..]),
    ] {
        let time_us: f64 = steps
            .iter()
            .map(|s| s.count as f64 * op_time_us(&dev, &boot_params, s.level.max(1), s.op, &cfg))
            .sum();
        let op_count: usize = steps.iter().map(|s| s.count).sum();
        segments.push(json!({ "segment": seg, "ops": op_count, "analytic_time_us": time_us }));
        human.push_str(&format!(
            "bootstrap {seg:12} | {op_count:4} ops | analytic {time_us:10.1} us (A100 model)\n"
        ));
    }

    // --- Analytic-vs-measured kernel cross-checks (the gate). ---
    human.push_str(&format!(
        "\nKernel cross-checks (tolerance {:.1}%):\n\
         op     | metric          |    measured |    analytic |  rel err\n\
         -------+-----------------+-------------+-------------+---------\n",
        TOLERANCE * 100.0
    ));
    let checks = [
        CheckOp::Ntt { n: 1 << 12 },
        CheckOp::Bconv {
            n: 1 << 10,
            alpha: 3,
            alpha_out: 4,
        },
        CheckOp::Ip {
            n: 256,
            batch: 2,
            alpha_p: 2,
            beta: 3,
            beta_t: 2,
        },
    ];
    let mut all_ok = true;
    let mut checks_json = Vec::new();
    for op in checks {
        let d = measured_vs_analytic(op);
        for e in &d.entries {
            human.push_str(&format!(
                "{:6} | {:15} | {:11} | {:11} | {:7.3}%\n",
                d.op,
                e.metric,
                e.measured,
                e.analytic,
                e.rel_error() * 100.0
            ));
        }
        all_ok &= d.within(TOLERANCE);
        checks_json.push(delta_json(&d));
    }
    human.push_str(&format!(
        "\ncross-check: {}\n",
        if all_ok { "PASS" } else { "FAIL" }
    ));

    // --- NTT plan-cache behaviour over the whole run. ---
    let cache = neo_ntt::cache::stats();
    human.push_str(&format!(
        "\nNTT plan cache: {} hits / {} misses / {} discarded builds / \
         {} evictions / {} resident ({} backend)\n",
        cache.hits,
        cache.misses,
        cache.discarded_builds,
        cache.evictions,
        cache.entries,
        neo_math::BackendKind::detect()
    ));

    // --- Artifacts. ---
    write_artifact("results/profile_trace.json", &report::chrome_trace());
    emit(
        "results/profile.json",
        &human,
        json!({
            "params": "test_small",
            "tolerance": TOLERANCE,
            "pass": all_ok,
            "backend": neo_math::BackendKind::detect().name(),
            "ops": ops_json,
            "bootstrap_segments": segments,
            "crosschecks": checks_json,
            "plan_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "discarded_builds": cache.discarded_builds,
                "evictions": cache.evictions,
                "entries": cache.entries,
            },
        }),
    );
    if !all_ok {
        std::process::exit(1);
    }
}
