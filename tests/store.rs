//! Crash-recovery properties of the persistent store.
//!
//! Proptest drives arbitrary damage — a truncation at a random offset,
//! or a bit flip at a random (offset, bit) — into a committed store
//! file and asserts the recover-or-quarantine contract on the next
//! open: every record a damaged store *serves* is bit-identical to what
//! was written; everything else is classified as recoverable (KSK
//! kinds) or quarantined, and accounted for in the recovery report.
//! An end-to-end case damages a real persisted FHE session and proves
//! the warm start still decrypts correctly or refuses typed.

use neo::ckks::{CkksContext, CkksParams, FheEngine, KeyTarget};
use neo::store::{RecordId, RecordKind, RecordStatus, SessionStore, Store};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Unique temp path per case so parallel proptest shrink runs never
/// collide on one file.
fn case_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "neo-store-prop-{tag}-{}-{}.neostore",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// Commits a deterministic mixed-kind record set and returns the path,
/// the clean file image, and the expected payload per id.
type Fixture = (PathBuf, Vec<u8>, Vec<(RecordId, Vec<u8>)>);

fn committed_fixture(seed: u64, tag: &str) -> Fixture {
    let path = case_path(tag);
    let mut store = Store::open(&path).unwrap();
    let mut clean = Vec::new();
    for (i, kind) in [
        RecordKind::SecretKey,
        RecordKind::HybridKsk,
        RecordKind::Ciphertext,
        RecordKind::Ciphertext,
    ]
    .into_iter()
    .enumerate()
    {
        let h = neo::fault::splitmix64(seed ^ ((i as u64 + 1) << 20));
        let len = 16 + (h % 200) as usize;
        let payload: Vec<u8> = (0..len)
            .map(|j| (neo::fault::splitmix64(h ^ j as u64) & 0xFF) as u8)
            .collect();
        let id = RecordId {
            kind,
            tenant: 3,
            level: i as u64,
            aux: i as u64,
        };
        store.put(id, h, 0xBEEF, payload.clone());
        clean.push((id, payload));
    }
    store.commit().unwrap();
    let image = std::fs::read(&path).unwrap();
    (path, image, clean)
}

/// The contract every damaged open must uphold: served bytes are exact,
/// everything else is classified and reported.
fn assert_recover_or_quarantine(
    path: &PathBuf,
    clean: &[(RecordId, Vec<u8>)],
    damaged: bool,
) -> Result<(), TestCaseError> {
    let store = Store::open(path).unwrap();
    let mut intact = 0usize;
    for (id, want) in clean {
        match store.get(*id) {
            Ok(Some(got)) => {
                prop_assert_eq!(&got, want, "served bytes must be bit-identical");
                intact += 1;
            }
            Ok(None) => {
                // Missing or recoverable: the damaged kind decides.
                let st = store.status(*id);
                prop_assert!(
                    st == RecordStatus::Missing || st == RecordStatus::Recoverable,
                    "None for a {:?} record",
                    st
                );
                prop_assert!(
                    st != RecordStatus::Recoverable || id.kind.seed_recoverable(),
                    "non-KSK kind classified recoverable"
                );
            }
            Err(_) => {
                prop_assert_eq!(store.status(*id), RecordStatus::Quarantined);
            }
        }
    }
    let report = store.report();
    if damaged {
        prop_assert!(
            intact < clean.len() || report.quarantined > 0 || report.recoverable > 0,
            "damage neither surfaced in a record nor in the report"
        );
    }
    // Accounting must be consistent: valid records counted exactly.
    prop_assert_eq!(report.valid, store.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Truncating the committed file at ANY offset leaves a store that
    /// serves only exact bytes and classifies the lost tail.
    #[test]
    fn truncation_at_any_offset_recovers_or_quarantines(
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let (path, image, clean) = committed_fixture(seed, "trunc");
        let cut = (image.len() as f64 * frac) as usize;
        std::fs::write(&path, &image[..cut]).unwrap();
        let res = assert_recover_or_quarantine(&path, &clean, cut < image.len());
        let _ = std::fs::remove_file(&path);
        res?;
    }

    /// Flipping ANY single bit of the committed file is detected: the
    /// damaged record is recoverable/quarantined (or, for framing
    /// damage, the tail is) — never served corrupt.
    #[test]
    fn bit_flip_at_any_offset_recovers_or_quarantines(
        seed in any::<u64>(),
        off_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (path, image, clean) = committed_fixture(seed, "flip");
        let mut damaged = image.clone();
        let off = ((damaged.len() - 1) as f64 * off_frac) as usize;
        damaged[off] ^= 1 << bit;
        std::fs::write(&path, &damaged).unwrap();
        let res = assert_recover_or_quarantine(&path, &clean, true);
        let _ = std::fs::remove_file(&path);
        res?;
    }

    /// Double damage (truncate *and* flip a surviving bit) still upholds
    /// the contract — classifications compose.
    #[test]
    fn combined_damage_recovers_or_quarantines(
        seed in any::<u64>(),
        frac in 0.2f64..1.0,
        off_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (path, image, clean) = committed_fixture(seed, "both");
        let cut = ((image.len() as f64 * frac) as usize).max(1);
        let mut damaged = image[..cut].to_vec();
        let off = ((damaged.len() - 1) as f64 * off_frac) as usize;
        damaged[off] ^= 1 << bit;
        std::fs::write(&path, &damaged).unwrap();
        let res = assert_recover_or_quarantine(&path, &clean, true);
        let _ = std::fs::remove_file(&path);
        res?;
    }
}

/// End-to-end: damage a persisted FHE session at a seeded offset; the
/// warm start must either rebuild a session that decrypts the original
/// ciphertext exactly (seed recovery) or refuse with a typed error —
/// never decrypt wrong.
#[test]
fn damaged_session_warm_start_recovers_or_refuses() {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
    let path = case_path("session");
    let engine = FheEngine::with_context(ctx.clone(), 31).unwrap();
    let level = ctx.params().max_level;
    engine
        .chest()
        .warm(level, KeyTarget::Relin, engine.method())
        .unwrap();
    let ct = engine.encrypt_f64(&[2.75], level).unwrap();
    let mut ss = SessionStore::open(&path, ctx.clone()).unwrap();
    ss.save_engine(5, &engine, 31).unwrap();
    ss.save_ciphertext(5, 0, &ct);
    ss.commit().unwrap();
    let image = std::fs::read(&path).unwrap();

    // Sweep damage across the whole file at a seeded stride.
    let stride = (image.len() / 40).max(1);
    for (i, off) in (0..image.len()).step_by(stride).enumerate() {
        let mut damaged = image.clone();
        let bit = (neo::fault::splitmix64(off as u64) % 8) as u8;
        damaged[off] ^= 1 << bit;
        std::fs::write(&path, &damaged).unwrap();

        let mut ss2 = SessionStore::open(&path, ctx.clone()).unwrap();
        // Ok(None)/Err at either layer means the damaged record was
        // classified (recoverable/quarantined) or the start refused typed.
        if let Ok(Some(warm)) = ss2.warm_start(5) {
            // A session came back: decryptions must be exact.
            if let Ok(Some(back)) = ss2.load_ciphertext(5, 0) {
                let vals = warm.decrypt_f64(&back).unwrap();
                assert!(
                    (vals[0] - 2.75).abs() < 1e-3,
                    "offset {off} (sweep {i}): warm session decrypted WRONG value {}",
                    vals[0]
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}
