//! `store_bench` — cold-start vs warm-start for the persistent store.
//!
//! Registers `NEO_STORE_TENANTS` tenant sessions (default 24) over one
//! shared context and measures three things:
//!
//! 1. **cold start** — building every session from scratch: ternary key
//!    sampling plus full KSK generation (relin + one rotation key per
//!    warm level), the path a restarted server without a store pays;
//! 2. **warm start** — hydrating the same sessions from a committed
//!    [`neo_store::SessionStore`]: decode the persisted `b`-parts and
//!    regenerate the public `a`-parts from the per-key PRNG streams.
//!    Every warm session is spot-checked to decrypt a ciphertext
//!    persisted by its cold twin;
//! 3. **bytes per tenant** — the seed-compressed on-disk KSK footprint
//!    (one poly per digit + 72-byte record header) against the full
//!    two-polys-per-digit representation the store avoids writing.
//!
//! The run fails (nonzero exit) if the KSK compression ratio drops
//! below the 1.8x floor the store is designed around. Artifact:
//! `BENCH_store.json` at the repo root (or `--out <path>`).

#![deny(clippy::unwrap_used)]

use neo_bench::{emit, fmt_time, ratio};
use neo_ckks::ops::galois_element;
use neo_ckks::{CkksContext, CkksParams, FheEngine, KeyTarget};
use neo_store::{RecordKind, SessionStore, HEADER_LEN};
use neo_trace::json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const RATIO_FLOOR: f64 = 1.8;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn bench_path() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("neo-store-bench-{}.neostore", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The per-tenant warm set: relin plus a step-1 rotation key at the top
/// two levels — the keys a bootstrapping-free serving loop touches.
fn warm_targets(ctx: &CkksContext) -> Vec<(usize, KeyTarget)> {
    let top = ctx.params().max_level;
    let g = galois_element(ctx.params().n(), 1);
    let mut t = vec![(top, KeyTarget::Relin), (top, KeyTarget::Galois(g))];
    if top > 0 {
        t.push((top - 1, KeyTarget::Relin));
    }
    t
}

fn tenant_seed(base: u64, id: u64) -> u64 {
    base ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[allow(clippy::expect_used)]
fn main() -> ExitCode {
    let tenants = env_u64("NEO_STORE_TENANTS", 24);
    let seed = env_u64("NEO_STORE_SEED", 42);
    let path = bench_path();
    neo_trace::enable();

    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).expect("params"));
    let targets = warm_targets(&ctx);
    let level = ctx.params().max_level;

    // --- Phase 1: cold start (key generation from nothing). ---
    eprintln!("[store_bench] cold-starting {tenants} tenants…");
    let t_cold = Instant::now();
    let cold: Vec<FheEngine> = (0..tenants)
        .map(|id| {
            let engine =
                FheEngine::with_context(ctx.clone(), tenant_seed(seed, id)).expect("cold keygen");
            for &(lv, target) in &targets {
                engine
                    .chest()
                    .warm(lv, target, engine.method())
                    .expect("cold key generation");
            }
            engine
        })
        .collect();
    let cold_s = t_cold.elapsed().as_secs_f64();

    // --- Persist every session (not part of either timed phase). ---
    let mut ss = SessionStore::open(&path, ctx.clone()).expect("open store");
    let mut reference = Vec::new();
    for (id, engine) in cold.iter().enumerate() {
        let id = id as u64;
        let x = 0.5 + id as f64 / 16.0;
        let ct = engine.encrypt_f64(&[x], level).expect("encrypt");
        ss.save_engine(id, engine, tenant_seed(seed, id))
            .expect("save session");
        ss.save_ciphertext(id, 0, &ct);
        reference.push(x);
    }
    let t_commit = Instant::now();
    ss.commit().expect("commit");
    let commit_s = t_commit.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    // --- Bytes per tenant: seeded records vs the full representation. ---
    // A full (uncompressed) KSK digit is a `[b, a]` polynomial pair; the
    // store persists only `b` and replays `a` from the chest's PRNG
    // stream. The full-representation cost is measured, not assumed: both
    // halves of every cached key are serialized through the same codec.
    let store = ss.store();
    let mut stored_ksk = 0u64;
    let mut full_ksk = 0u64;
    let mut ksk_records = 0u64;
    for id in store.ids() {
        if !id.kind.seed_recoverable() || id.kind == RecordKind::SecretKey {
            continue;
        }
        let payload = store
            .get(id)
            .expect("clean store")
            .expect("record just written");
        stored_ksk += (HEADER_LEN + payload.len()) as u64;
        ksk_records += 1;
    }
    for engine in &cold {
        let chest = engine.chest();
        for &(lv, target) in &targets {
            let mut pair = chest.export_b_parts(lv, target).expect("b-parts");
            pair.extend(chest.regen_a_parts(lv, target));
            let full_payload = neo_store::codec::encode_polys(&pair);
            full_ksk += (HEADER_LEN + full_payload.len()) as u64;
        }
    }
    let ksk_ratio = ratio(full_ksk as f64, stored_ksk as f64);
    let stored_per_tenant = stored_ksk as f64 / tenants as f64;
    let full_per_tenant = full_ksk as f64 / tenants as f64;
    drop(cold);
    drop(ss);

    // --- Phase 2: warm start (hydrate from the committed store). ---
    eprintln!(
        "[store_bench] warm-starting {tenants} tenants from {}…",
        path.display()
    );
    let t_warm = Instant::now();
    let mut warm_ss = SessionStore::open(&path, ctx.clone()).expect("reopen store");
    let warm: Vec<FheEngine> = (0..tenants)
        .map(|id| {
            warm_ss
                .warm_start(id)
                .expect("warm start")
                .expect("session was persisted")
        })
        .collect();
    let warm_s = t_warm.elapsed().as_secs_f64();

    // Spot-check: every warm session decrypts its cold twin's ciphertext.
    for (id, engine) in warm.iter().enumerate() {
        let ct = warm_ss
            .load_ciphertext(id as u64, 0)
            .expect("load ct")
            .expect("ct was persisted");
        let vals = engine.decrypt_f64(&ct).expect("decrypt");
        assert!(
            (vals[0] - reference[id]).abs() < 1e-3,
            "tenant {id}: warm session decrypted {} instead of {}",
            vals[0],
            reference[id]
        );
    }
    let _ = std::fs::remove_file(&path);

    let speedup = ratio(cold_s, warm_s);
    let human = format!(
        "store_bench: {tenants} tenants, {} warm keys each (seed {seed})\n\n\
         phase                     | total        | per tenant\n\
         --------------------------+--------------+------------\n\
         cold start (keygen)       | {:>12} | {:>10}\n\
         warm start (store)        | {:>12} | {:>10}\n\
         commit (serialize+fsync)  | {:>12} |\n\n\
         warm-start speedup: {speedup:.2}x\n\
         store file: {file_bytes} bytes total; KSK material ({ksk_records} records):\n\
         seeded {:.0} B/tenant vs full {:.0} B/tenant => {ksk_ratio:.2}x reduction (floor {RATIO_FLOOR}x)",
        targets.len(),
        fmt_time(cold_s),
        fmt_time(cold_s / tenants as f64),
        fmt_time(warm_s),
        fmt_time(warm_s / tenants as f64),
        fmt_time(commit_s),
        stored_per_tenant,
        full_per_tenant,
    );

    let doc = json!({
        "bench": "store_bench",
        "config": {
            "tenants": tenants,
            "seed": seed,
            "warm_keys_per_tenant": targets.len(),
        },
        "cold_start": {
            "total_s": cold_s,
            "per_tenant_s": cold_s / tenants as f64,
        },
        "warm_start": {
            "total_s": warm_s,
            "per_tenant_s": warm_s / tenants as f64,
            "speedup_vs_cold": speedup,
            "decrypt_spot_check": "all tenants exact",
        },
        "commit_s": commit_s,
        "bytes": {
            "file_total": file_bytes,
            "ksk_records": ksk_records,
            "ksk_stored_per_tenant": stored_per_tenant,
            "ksk_full_per_tenant": full_per_tenant,
            "ksk_reduction_x": ksk_ratio,
            "ksk_reduction_floor_x": RATIO_FLOOR,
        },
    });
    emit("BENCH_store.json", &human, doc);

    if ksk_ratio < RATIO_FLOOR {
        eprintln!(
            "FAIL: KSK compression ratio {ksk_ratio:.2}x fell below the {RATIO_FLOOR}x floor"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
