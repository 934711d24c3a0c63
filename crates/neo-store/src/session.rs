//! The typed session layer over [`Store`]: saving and warm-starting
//! whole FHE sessions and their ciphertexts.
//!
//! A [`SessionStore`] binds a [`Store`] to one parameter set (via its
//! [`param_fingerprint`]); records written under a different
//! fingerprint are ignored on load and refused on decode, so a store
//! file can be shared across parameter upgrades without ever hydrating
//! keys into the wrong context.
//!
//! KSK records are **seed-compressed**: only the digit `b`-parts are
//! persisted (one polynomial per digit instead of two), and the public
//! `a`-parts are regenerated from the chest's per-`(level, target)` PRNG
//! stream on load — roughly halving bytes-per-tenant while staying
//! bit-identical to a cold generation. The same streams make damaged KSK
//! records *self-healing*: when the recovery scan classifies one as
//! recoverable, [`SessionStore::warm_start`] regenerates it from the
//! live secret key and rewrites it.

use crate::codec;
use crate::format::{RecordId, RecordKind};
use crate::metrics;
use crate::store::{RecordStatus, Store};
use neo_ckks::{Ciphertext, CkksContext, CkksParams, FheEngine, KeyTarget, KsMethod, SecretKey};
use neo_error::NeoError;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

/// Deterministic hash of every [`CkksParams`] field: the tag every
/// record carries, so a store never hydrates a record into a context it
/// was not written for. Changing any parameter changes the fingerprint.
/// The compute backend is not a parameter, so a record answers under
/// either one.
///
/// The hash is the fixed-key [`std::collections::hash_map::DefaultHasher`]
/// over the fields in declaration order; its values are pinned by test,
/// because every record on disk carries one.
pub fn param_fingerprint(p: &CkksParams) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.log_n.hash(&mut h);
    p.max_level.hash(&mut h);
    p.word_size.hash(&mut h);
    p.special.hash(&mut h);
    p.dnum.hash(&mut h);
    p.klss.hash(&mut h);
    p.batch_size.hash(&mut h);
    p.error_std.to_bits().hash(&mut h);
    p.scale_bits.hash(&mut h);
    p.lambda.hash(&mut h);
    p.single_scaling.hash(&mut h);
    h.finish()
}

/// A [`Store`] bound to one CKKS context and its parameter fingerprint.
#[derive(Debug)]
pub struct SessionStore {
    store: Store,
    ctx: Arc<CkksContext>,
    fingerprint: u64,
}

fn ksk_kind(method: KsMethod) -> RecordKind {
    match method {
        KsMethod::Hybrid => RecordKind::HybridKsk,
        KsMethod::Klss => RecordKind::KlssKsk,
    }
}

impl SessionStore {
    /// Opens the store at `path` for sessions under `ctx`, running the
    /// recovery scan (see [`Store::open`]).
    ///
    /// # Errors
    ///
    /// [`NeoError::StoreIo`] if the file exists but cannot be read.
    pub fn open(path: impl AsRef<Path>, ctx: Arc<CkksContext>) -> Result<Self, NeoError> {
        let store = Store::open(path)?;
        let fingerprint = param_fingerprint(ctx.params());
        Ok(Self {
            store,
            ctx,
            fingerprint,
        })
    }

    /// The underlying record store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The context every hydrated engine is built over.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The parameter fingerprint every record in this session is tagged
    /// with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn sk_id(tenant: u64) -> RecordId {
        RecordId {
            kind: RecordKind::SecretKey,
            tenant,
            level: 0,
            aux: 0,
        }
    }

    fn ct_id(tenant: u64, handle: u64) -> RecordId {
        RecordId {
            kind: RecordKind::Ciphertext,
            tenant,
            level: 0,
            aux: handle,
        }
    }

    /// Whether a valid (or seed-recoverable) session for `tenant` is
    /// resident — i.e. whether [`Self::warm_start`] has anything to work
    /// with.
    pub fn has_session(&self, tenant: u64) -> bool {
        self.store.status(Self::sk_id(tenant)) == RecordStatus::Valid
            && self.store.fingerprint_of(Self::sk_id(tenant)) == Some(self.fingerprint)
    }

    /// Persists `engine`'s session for `tenant`: the secret key (tagged
    /// with `engine_seed`, the seed the engine was built with, so the
    /// replayed public key is bit-identical) plus every currently-warm
    /// KSK in seed-compressed form. Memory only until [`Self::commit`].
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if regenerating a KSK's `b`-parts fails
    /// a transform check.
    pub fn save_engine(
        &mut self,
        tenant: u64,
        engine: &FheEngine,
        engine_seed: u64,
    ) -> Result<(), NeoError> {
        let chest = engine.chest();
        self.store.put(
            Self::sk_id(tenant),
            engine_seed,
            self.fingerprint,
            codec::encode_secret_key(chest.secret_key().coeffs()),
        );
        let kind = ksk_kind(engine.method());
        for (level, target) in chest.cached_keys(engine.method()) {
            let b_parts = chest.export_b_parts(level, target)?;
            self.store.put(
                RecordId {
                    kind,
                    tenant,
                    level: level as u64,
                    aux: target.code(),
                },
                chest.key_seed(),
                self.fingerprint,
                codec::encode_polys(&b_parts),
            );
        }
        Ok(())
    }

    /// Rebuilds `tenant`'s session from the store: decodes the secret
    /// key, replays the engine from its recorded seed (bit-identical
    /// public key and chest streams), hydrates every valid KSK record
    /// from its `b`-parts, and regenerates damaged-but-recoverable ones
    /// from the live secret key — rewriting them so the next commit
    /// heals the file.
    ///
    /// Returns `Ok(None)` when no secret-key record exists for `tenant`
    /// under this fingerprint (cold start is the caller's fallback).
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if the secret-key record is
    /// quarantined, any record fails its read-back checksum, a payload
    /// decodes to something the context refuses, or a key generation
    /// fails a transform check.
    pub fn warm_start(&mut self, tenant: u64) -> Result<Option<FheEngine>, NeoError> {
        let sk_id = Self::sk_id(tenant);
        let Some(payload) = self.store.get(sk_id)? else {
            return Ok(None);
        };
        if self.store.fingerprint_of(sk_id) != Some(self.fingerprint) {
            return Ok(None);
        }
        let seed = self.store.seed_of(sk_id).unwrap_or(0);
        let sk = SecretKey::from_coeffs(codec::decode_secret_key(&payload)?)?;
        let engine = FheEngine::with_secret_key(self.ctx.clone(), sk, seed)?;
        let method = engine.method();
        let kind = ksk_kind(method);
        let chest = engine.chest();

        for id in self.store.ids() {
            if id.kind != kind
                || id.tenant != tenant
                || self.store.fingerprint_of(id) != Some(self.fingerprint)
            {
                continue;
            }
            let Some(target) = KeyTarget::from_code(id.aux) else {
                return Err(NeoError::fault_detected(
                    "store_record",
                    format!("{} record names key target code {}", kind.name(), id.aux),
                ));
            };
            let Some(bytes) = self.store.get(id)? else {
                continue;
            };
            let b_parts = codec::decode_polys(&bytes)?;
            match method {
                KsMethod::Hybrid => {
                    chest.rebuild_hybrid(id.level as usize, target, b_parts)?;
                }
                KsMethod::Klss => {
                    chest.rebuild_klss(id.level as usize, target, b_parts)?;
                }
            }
        }

        // Self-heal: damaged KSK records whose headers survived are
        // regenerated from the live secret key and rewritten.
        for id in self.store.recoverable_ids() {
            if id.kind != kind
                || id.tenant != tenant
                || self.store.fingerprint_of(id) != Some(self.fingerprint)
                || self.store.seed_of(id) != Some(chest.key_seed())
            {
                continue;
            }
            let Some(target) = KeyTarget::from_code(id.aux) else {
                continue;
            };
            chest.warm(id.level as usize, target, method)?;
            let b_parts = chest.export_b_parts(id.level as usize, target)?;
            self.store.put(
                id,
                chest.key_seed(),
                self.fingerprint,
                codec::encode_polys(&b_parts),
            );
            neo_fault::note_recovery(neo_fault::FaultSite::StoreRead);
            metrics::note_recovered();
        }

        Ok(Some(engine))
    }

    /// Persists a ciphertext under a caller-chosen handle. Memory only
    /// until [`Self::commit`].
    pub fn save_ciphertext(&mut self, tenant: u64, handle: u64, ct: &Ciphertext) {
        self.store.put(
            Self::ct_id(tenant, handle),
            0,
            self.fingerprint,
            codec::encode_ciphertext(ct),
        );
    }

    /// Loads a ciphertext saved under `handle`, or `None` if absent (or
    /// written under a different fingerprint).
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if the record is quarantined, fails
    /// its read-back checksum, or decodes to an implausible shape.
    pub fn load_ciphertext(
        &self,
        tenant: u64,
        handle: u64,
    ) -> Result<Option<Ciphertext>, NeoError> {
        let id = Self::ct_id(tenant, handle);
        if self.store.fingerprint_of(id) != Some(self.fingerprint)
            && self.store.status(id) == RecordStatus::Valid
        {
            return Ok(None);
        }
        match self.store.get(id)? {
            Some(bytes) => Ok(Some(codec::decode_ciphertext(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Atomically publishes all pending records to disk (see
    /// [`Store::commit`]).
    ///
    /// # Errors
    ///
    /// [`NeoError::StoreIo`] on any filesystem failure; the previous
    /// image survives intact.
    pub fn commit(&self) -> Result<(), NeoError> {
        self.store.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::checksum64;
    use crate::format::{Header, FILE_MAGIC, HEADER_LEN};
    use neo_ckks::ParamSet;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "neo-store-session-{}-{name}.neostore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn ctx() -> Arc<CkksContext> {
        Arc::new(CkksContext::new(CkksParams::test_tiny()).expect("ctx"))
    }

    #[test]
    fn warm_start_replays_a_bit_identical_session() {
        let path = tmp("warm");
        let ctx = ctx();
        let cold = FheEngine::with_context(ctx.clone(), 7).unwrap();
        cold.chest()
            .warm(ctx.params().max_level, KeyTarget::Relin, cold.method())
            .expect("warm relin");
        let ct = cold
            .encrypt_f64(&[1.5, -2.25], ctx.params().max_level)
            .expect("enc");

        let mut ss = SessionStore::open(&path, ctx.clone()).expect("open");
        ss.save_engine(42, &cold, 7).unwrap();
        ss.save_ciphertext(42, 1, &ct);
        ss.commit().expect("commit");

        let mut ss2 = SessionStore::open(&path, ctx.clone()).expect("reopen");
        assert!(ss2.has_session(42));
        let warm = ss2
            .warm_start(42)
            .expect("warm start")
            .expect("session exists");
        assert_eq!(
            warm.chest().secret_key().coeffs(),
            cold.chest().secret_key().coeffs()
        );
        // The hydrated engine decrypts the persisted ciphertext.
        let back = ss2
            .load_ciphertext(42, 1)
            .expect("load ct")
            .expect("present");
        let vals = warm.decrypt_f64(&back).expect("decrypt");
        assert!((vals[0] - 1.5).abs() < 1e-3 && (vals[1] + 2.25).abs() < 1e-3);
        // And its rebuilt relin key matches a cold regeneration bit for bit.
        assert_eq!(
            warm.chest()
                .export_b_parts(ctx.params().max_level, KeyTarget::Relin)
                .unwrap(),
            cold.chest()
                .export_b_parts(ctx.params().max_level, KeyTarget::Relin)
                .unwrap()
        );
        assert!(ss2.warm_start(9999).expect("missing tenant").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damaged_ksk_record_self_heals() {
        let path = tmp("heal");
        let ctx = ctx();
        let lvl = ctx.params().max_level;
        let cold = FheEngine::with_context(ctx.clone(), 11).unwrap();
        cold.chest()
            .warm(lvl, KeyTarget::Relin, cold.method())
            .expect("warm");
        let mut ss = SessionStore::open(&path, ctx.clone()).expect("open");
        ss.save_engine(1, &cold, 11).unwrap();
        ss.commit().expect("commit");

        // Corrupt the KSK payload on disk (flip the file's last byte:
        // the KSK record sorts after the secret key and is payload-last).
        let mut bytes = std::fs::read(&path).expect("read");
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");

        let mut ss2 = SessionStore::open(&path, ctx.clone()).expect("reopen");
        assert_eq!(ss2.store().report().recoverable, 1);
        let warm = ss2.warm_start(1).expect("warm").expect("present");
        // Healed in memory from seed — bit-identical to the cold key...
        assert_eq!(
            warm.chest().export_b_parts(lvl, KeyTarget::Relin).unwrap(),
            cold.chest().export_b_parts(lvl, KeyTarget::Relin).unwrap()
        );
        // ...and rewritten so the next commit+open sees a clean file.
        ss2.commit().expect("heal commit");
        let ss3 = SessionStore::open(&path, ctx).expect("healed open");
        assert_eq!(ss3.store().report().recoverable, 0);
        assert_eq!(ss3.store().report().quarantined, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Hands the raw header of every record to `patch` with its kind,
    /// then recomputes the header checksum: the file another build
    /// wrote, framing intact.
    fn patch_headers(path: &Path, patch: impl Fn(RecordKind, &mut [u8])) {
        let mut bytes = std::fs::read(path).expect("read");
        let mut offset = FILE_MAGIC.len();
        while offset < bytes.len() {
            let header = Header::decode(&bytes[offset..]).expect("current header");
            let raw = &mut bytes[offset..offset + HEADER_LEN];
            patch(header.id.kind, raw);
            let hc = checksum64(&raw[..HEADER_LEN - 8]);
            raw[HEADER_LEN - 8..].copy_from_slice(&hc.to_le_bytes());
            offset += HEADER_LEN + header.payload_len as usize;
        }
        std::fs::write(path, bytes).expect("write");
    }

    /// Makes every record `pick` selects claim `version`.
    fn rewrite_versions(path: &Path, version: u16, pick: impl Fn(RecordKind) -> bool) {
        patch_headers(path, |kind, raw| {
            if pick(kind) {
                raw[4..6].copy_from_slice(&version.to_le_bytes());
            }
        });
    }

    /// Records of an older version are quarantined unread: version-2 KSK
    /// records hold `b`-parts in natural evaluation order, which the
    /// current transforms do not use. A whole old-version session
    /// cold-starts.
    #[test]
    fn version_2_and_3_records_are_quarantined_and_never_hydrated() {
        let path = tmp("old-versions");
        let ctx = ctx();
        let lvl = ctx.params().max_level;
        let cold = FheEngine::with_context(ctx.clone(), 5).unwrap();
        cold.chest()
            .warm(lvl, KeyTarget::Relin, cold.method())
            .expect("warm");
        let kind = ksk_kind(cold.method());
        let save = || {
            let _ = std::fs::remove_file(&path);
            let mut ss = SessionStore::open(&path, ctx.clone()).expect("open");
            ss.save_engine(2, &cold, 5).unwrap();
            ss.commit().expect("commit");
        };
        let ksk = RecordId {
            kind,
            tenant: 2,
            level: lvl as u64,
            aux: KeyTarget::Relin.code(),
        };

        for version in [2, 3] {
            // Only the KSK is old: the session warm-starts from its
            // secret key, and the stale key is never decoded into the
            // chest.
            save();
            rewrite_versions(&path, version, |k| k == kind);
            let mut ss2 = SessionStore::open(&path, ctx.clone()).expect("reopen");
            assert_eq!(ss2.store().report().quarantined, 1, "v{version}");
            assert_eq!(ss2.store().status(ksk), RecordStatus::Missing);
            let warm = ss2.warm_start(2).expect("warm").expect("present");
            assert!(warm.chest().cached_keys(warm.method()).is_empty());
            // The key regenerates from seed, bit-identical to the cold one.
            assert_eq!(
                warm.chest().export_b_parts(lvl, KeyTarget::Relin).unwrap(),
                cold.chest().export_b_parts(lvl, KeyTarget::Relin).unwrap()
            );

            // A whole old-version store: nothing is valid, so it
            // cold-starts.
            save();
            rewrite_versions(&path, version, |_| true);
            let mut ss3 = SessionStore::open(&path, ctx.clone()).expect("reopen old");
            assert_eq!(ss3.store().report().quarantined, 2, "v{version}");
            assert!(ss3.store().ids().is_empty());
            assert!(!ss3.has_session(2));
            assert!(ss3.warm_start(2).expect("cold").is_none());
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A record of a retired kind (4, the plan records older builds
    /// wrote) is quarantined and skipped by its length; every record
    /// around it stays valid and the session warm-starts.
    #[test]
    fn a_retired_kind_is_skipped_and_the_session_warm_starts() {
        let path = tmp("retired-kind");
        let ctx = ctx();
        let lvl = ctx.params().max_level;
        let cold = FheEngine::with_context(ctx.clone(), 3).unwrap();
        cold.chest()
            .warm(lvl, KeyTarget::Relin, cold.method())
            .expect("warm");
        let ct = cold.encrypt_f64(&[0.75], lvl).expect("enc");
        let mut ss = SessionStore::open(&path, ctx.clone()).expect("open");
        ss.save_engine(8, &cold, 3).unwrap();
        ss.save_ciphertext(8, 1, &ct);
        ss.commit().expect("commit");
        patch_headers(&path, |kind, raw| {
            if kind == RecordKind::Ciphertext {
                raw[6..8].copy_from_slice(&4u16.to_le_bytes());
            }
        });

        let mut ss2 = SessionStore::open(&path, ctx).expect("reopen");
        let report = ss2.store().report().clone();
        assert_eq!((report.valid, report.quarantined), (2, 1));
        assert_eq!((report.recoverable, report.lost_tail), (0, false));
        assert!(ss2.has_session(8));
        let warm = ss2.warm_start(8).expect("warm").expect("present");
        assert_eq!(
            warm.chest().export_b_parts(lvl, KeyTarget::Relin).unwrap(),
            cold.chest().export_b_parts(lvl, KeyTarget::Relin).unwrap()
        );
        assert!(ss2.load_ciphertext(8, 1).expect("absent").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let p = CkksParams::test_small();
        let base = param_fingerprint(&p);
        assert_eq!(base, param_fingerprint(&p.clone()), "deterministic");

        let mut q = p.clone();
        q.max_level += 1;
        assert_ne!(base, param_fingerprint(&q), "level change re-keys");
    }

    /// Every record on disk carries one of these, so they must never
    /// move.
    #[test]
    fn fingerprints_are_pinned() {
        for (p, want) in [
            (CkksParams::test_tiny(), 0x5c66_1d03_b536_c259_u64),
            (CkksParams::test_small(), 0x4571_8292_277f_0cfa),
            (ParamSet::C.params(), 0x4b9d_2112_d5be_6e00),
        ] {
            assert_eq!(param_fingerprint(&p), want, "{p:?}");
        }
    }
}
