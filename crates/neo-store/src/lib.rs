//! # neo-store — crash-safe persistent key & ciphertext store
//!
//! Durable storage for the expensive-to-regenerate state of a Neo FHE
//! deployment: secret keys, key-switching keys and ciphertexts, each
//! record tagged with the [`param_fingerprint`] of the parameters it was
//! written under. Three properties drive the design:
//!
//! * **Crash safety.** [`Store::commit`] publishes the whole record set
//!   via write-temp → fsync → rename, so the on-disk image is always
//!   either the previous commit or the new one. The one artifact a
//!   crash *can* produce — a truncated tail — is classified, never
//!   parsed.
//! * **Integrity quarantine.** Every record carries a 72-byte header
//!   with independent header and payload checksums
//!   ([`format::Header`]). The recovery scan at [`Store::open`]
//!   classifies each record *valid*, *recoverable-from-seed* (damaged
//!   key material whose identity survived), or *quarantined* — and
//!   `get` re-verifies the payload checksum on every read. A corrupt
//!   byte is never served: it surfaces as a typed
//!   [`neo_error::NeoError`] or a regenerated record, nothing else.
//! * **Seed compression.** KSK records persist only their digit
//!   `b`-parts; the public `a`-parts are regenerated from the key
//!   chest's deterministic per-`(level, target)` PRNG streams on load
//!   ([`SessionStore::warm_start`]), roughly halving bytes-per-tenant
//!   and making damaged KSK records self-healing.
//!
//! Fault injection hooks ([`neo_fault::FaultSite::StoreWrite`],
//! [`neo_fault::FaultSite::StoreRead`],
//! [`neo_fault::FaultSite::StoreTorn`]) let the fault matrix drive
//! thousands of seeded bit-flip and torn-write trials through the real
//! commit/open/get paths.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checksum;
pub mod codec;
pub mod format;
mod metrics;
pub mod session;
pub mod store;

pub use checksum::checksum64;
pub use format::{Header, HeaderError, RecordId, RecordKind, FILE_MAGIC, HEADER_LEN};
pub use session::{param_fingerprint, SessionStore};
pub use store::{RecordStatus, RecoveryReport, Store};
