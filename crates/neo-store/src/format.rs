//! On-disk record framing: kinds, ids, and the fixed-size integrity
//! header.
//!
//! A store file is the 8-byte file magic followed by records back to
//! back. Every record is a 72-byte header plus `payload_len` payload
//! bytes. The header carries **its own** checksum (over its first 64
//! bytes) separately from the payload checksum, so the recovery scan can
//! distinguish "payload damaged but I know what this record was" — which
//! is recoverable from seed for key material — from "framing lost" —
//! which quarantines the unscannable tail.

use crate::checksum::checksum64;

/// File magic — first 8 bytes of every store file. The trailing `1` is
/// the container version.
pub const FILE_MAGIC: [u8; 8] = *b"NEOSTOR1";

/// Record magic — first 4 bytes of every record header.
pub const RECORD_MAGIC: [u8; 4] = *b"NREC";

/// Current record format version. Bumped on any layout change; old
/// versions are quarantined, not guessed at. Version 2 dropped the
/// compute-backend byte from plan payloads. Version 3 stores NTT-domain
/// limbs (KSK `b`-parts) in the radix-2 transforms' bit-reversed
/// evaluation order. Version 4 changed only the plan layout, and plan
/// records are retired (kind 4), so every payload a version-4 store
/// still holds has the version-3 layout.
pub const RECORD_VERSION: u16 = 4;

/// Size of the fixed record header in bytes.
pub const HEADER_LEN: usize = 72;

/// What a record holds. The discriminants are the on-disk encoding —
/// never reorder or reuse them. Discriminant 4 is retired: it held
/// execution plans, which the store no longer keeps. A kind-4 record in
/// an older file decodes as an unknown kind, so the recovery scan
/// quarantines it and skips it by its length; 4 must never name a new
/// kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum RecordKind {
    /// Ternary secret-key coefficients; `seed` holds the engine seed the
    /// session was built with.
    SecretKey = 1,
    /// Seed-compressed Hybrid key-switching key: the raw digit
    /// `b`-parts; `seed` holds the chest's key seed, `level`/`aux` the
    /// `(level, KeyTarget::code())` pair.
    HybridKsk = 2,
    /// Seed-compressed KLSS key-switching key (same payload shape as
    /// [`RecordKind::HybridKsk`] — raw `b`-parts before decomposition).
    KlssKsk = 3,
    /// A ciphertext; `aux` is a caller-chosen handle.
    Ciphertext = 5,
}

impl RecordKind {
    /// Decodes the on-disk discriminant.
    pub fn from_u16(v: u16) -> Option<Self> {
        match v {
            1 => Some(RecordKind::SecretKey),
            2 => Some(RecordKind::HybridKsk),
            3 => Some(RecordKind::KlssKsk),
            5 => Some(RecordKind::Ciphertext),
            _ => None,
        }
    }

    /// Whether a damaged record of this kind can be regenerated from the
    /// seed in its header (plus the live secret key) instead of being
    /// quarantined.
    pub fn seed_recoverable(self) -> bool {
        matches!(self, RecordKind::HybridKsk | RecordKind::KlssKsk)
    }

    /// Stable snake_case name for reports and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::SecretKey => "secret_key",
            RecordKind::HybridKsk => "hybrid_ksk",
            RecordKind::KlssKsk => "klss_ksk",
            RecordKind::Ciphertext => "ciphertext",
        }
    }
}

/// Identity of one record: the map key inside a store. Two `put`s with
/// the same id replace each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// What the record holds.
    pub kind: RecordKind,
    /// Owning tenant.
    pub tenant: u64,
    /// Key level for KSK records; 0 otherwise.
    pub level: u64,
    /// Kind-specific discriminator: `KeyTarget::code()` for KSKs, a
    /// caller handle for ciphertexts.
    pub aux: u64,
}

/// A decoded record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The record's identity.
    pub id: RecordId,
    /// Format version the payload was written with.
    pub version: u16,
    /// PRNG seed for seed-recoverable kinds (chest key seed for KSKs,
    /// engine seed for the secret key); 0 when unused.
    pub seed: u64,
    /// Parameter fingerprint of the context the record belongs to
    /// ([`crate::param_fingerprint`]).
    pub fingerprint: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Checksum of the payload bytes.
    pub payload_checksum: u64,
}

/// Why a header failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Fewer than [`HEADER_LEN`] bytes remained — a torn tail.
    Short,
    /// The magic or the header checksum does not match — framing is
    /// lost; nothing after this offset can be trusted.
    Corrupt,
    /// Magic and checksum hold but the kind or version is unknown —
    /// framing is intact (the payload can be skipped) but the record
    /// itself is quarantined.
    UnknownKindOrVersion,
}

impl Header {
    /// Appends the encoded header (with both checksums) to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&RECORD_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.id.kind as u16).to_le_bytes());
        out.extend_from_slice(&self.id.tenant.to_le_bytes());
        out.extend_from_slice(&self.id.level.to_le_bytes());
        out.extend_from_slice(&self.id.aux.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.payload_checksum.to_le_bytes());
        let hc = checksum64(&out[start..start + HEADER_LEN - 8]);
        out.extend_from_slice(&hc.to_le_bytes());
    }

    /// Reads the raw `payload_len` field without full decoding. Only
    /// meaningful after [`Header::decode`] returned
    /// [`HeaderError::UnknownKindOrVersion`] — the header checksum has
    /// already vouched for the field, so the scanner can skip the
    /// payload of a record it refuses to interpret.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than [`HEADER_LEN`].
    pub fn raw_payload_len(bytes: &[u8]) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[48..56]);
        u64::from_le_bytes(b)
    }

    /// Decodes and verifies a header from the front of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Self, HeaderError> {
        if bytes.len() < HEADER_LEN {
            return Err(HeaderError::Short);
        }
        let u16_at = |o: usize| u16::from_le_bytes([bytes[o], bytes[o + 1]]);
        let u64_at = |o: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[o..o + 8]);
            u64::from_le_bytes(b)
        };
        if bytes[..4] != RECORD_MAGIC
            || u64_at(HEADER_LEN - 8) != checksum64(&bytes[..HEADER_LEN - 8])
        {
            return Err(HeaderError::Corrupt);
        }
        let version = u16_at(4);
        let kind = RecordKind::from_u16(u16_at(6)).filter(|_| version == RECORD_VERSION);
        let Some(kind) = kind else {
            return Err(HeaderError::UnknownKindOrVersion);
        };
        Ok(Self {
            id: RecordId {
                kind,
                tenant: u64_at(8),
                level: u64_at(16),
                aux: u64_at(24),
            },
            version,
            seed: u64_at(32),
            fingerprint: u64_at(40),
            payload_len: u64_at(48),
            payload_checksum: u64_at(56),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Header {
        Header {
            id: RecordId {
                kind: RecordKind::HybridKsk,
                tenant: 42,
                level: 3,
                aux: 11,
            },
            version: RECORD_VERSION,
            seed: 0xDEAD_BEEF,
            fingerprint: 0xCAFE,
            payload_len: 128,
            payload_checksum: 0x1234_5678,
        }
    }

    #[test]
    fn roundtrips() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode_to(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(Header::decode(&buf), Ok(h));
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode_to(&mut buf);
        for byte in 0..HEADER_LEN {
            for bit in 0..8 {
                let mut mutated = buf.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(
                    Header::decode(&mutated),
                    Ok(h),
                    "flip at byte {byte} bit {bit} must not decode to the original"
                );
            }
        }
    }

    #[test]
    fn short_and_unknown_classify_separately() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode_to(&mut buf);
        assert_eq!(
            Header::decode(&buf[..HEADER_LEN - 1]),
            Err(HeaderError::Short)
        );

        // An unknown kind with a *valid* checksum is UnknownKindOrVersion.
        let mut alien = sample();
        alien.version = RECORD_VERSION + 1;
        let mut buf2 = Vec::new();
        alien.encode_to(&mut buf2);
        assert_eq!(
            Header::decode(&buf2),
            Err(HeaderError::UnknownKindOrVersion)
        );
    }

    #[test]
    fn kind_discriminants_are_pinned() {
        for (kind, disc, name) in [
            (RecordKind::SecretKey, 1u16, "secret_key"),
            (RecordKind::HybridKsk, 2, "hybrid_ksk"),
            (RecordKind::KlssKsk, 3, "klss_ksk"),
            (RecordKind::Ciphertext, 5, "ciphertext"),
        ] {
            assert_eq!(kind as u16, disc);
            assert_eq!(RecordKind::from_u16(disc), Some(kind));
            assert_eq!(kind.name(), name);
        }
        assert_eq!(RecordKind::from_u16(0), None);
        assert_eq!(RecordKind::from_u16(4), None, "retired: plan records");
        assert_eq!(RecordKind::from_u16(6), None);
    }
}
