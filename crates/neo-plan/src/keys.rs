//! Plan-cache key derivation.
//!
//! A cached plan is only valid for the exact pricing context it was
//! tuned in, so the key has two halves:
//!
//! * [`param_fingerprint`] — a hash of **every** [`CkksParams`] field.
//!   Changing any parameter changes the fingerprint, which *is* the
//!   cache invalidation story: stale entries are never evicted, they
//!   simply stop being addressed. The compute backend is not a
//!   parameter, so a plan or store record answers under either one.
//! * a workload **shape** hash — the op sequence with its operand
//!   wiring and input level ([`program_shape`]), or the step sequence
//!   of a trace ([`trace_shape`]). Two requests with the same shape
//!   share a plan even though their ciphertext payloads differ.
//!
//! Hashes use [`std::collections::hash_map::DefaultHasher`] with its
//! default (fixed) keys, so keys are deterministic across processes —
//! a requirement for reproducible cache-hit tests and for comparing
//! stores across runs.

use neo_ckks::bootstrap::TraceStep;
use neo_ckks::{BatchProgram, CkksParams};
use std::hash::{Hash, Hasher};

/// The cache key of one (parameter set, workload shape) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Hash of every [`CkksParams`] field.
    pub fingerprint: u64,
    /// Hash of the workload's structure (ops, wiring, levels).
    pub shape: u64,
}

impl PlanKey {
    /// Key for a batch program at `input_level` under `p`.
    pub fn for_program(p: &CkksParams, prog: &BatchProgram, input_level: usize) -> Self {
        Self {
            fingerprint: param_fingerprint(p),
            shape: program_shape(prog, input_level),
        }
    }

    /// Key for a workload trace (e.g. a bootstrap) under `p`.
    pub fn for_trace(p: &CkksParams, steps: &[TraceStep]) -> Self {
        Self {
            fingerprint: param_fingerprint(p),
            shape: trace_shape(steps),
        }
    }
}

fn hasher() -> std::collections::hash_map::DefaultHasher {
    std::collections::hash_map::DefaultHasher::new()
}

/// Deterministic hash of every field of `p` — the parameter half of a
/// [`PlanKey`].
pub fn param_fingerprint(p: &CkksParams) -> u64 {
    let mut h = hasher();
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

/// Deterministic hash of a program's structure: the full op sequence
/// (kinds, operand slots, rotation steps) plus the common input level.
/// Ciphertext payloads are deliberately excluded — requests with equal
/// shape share a plan.
pub fn program_shape(prog: &BatchProgram, input_level: usize) -> u64 {
    let mut h = hasher();
    input_level.hash(&mut h);
    prog.ops.hash(&mut h);
    h.finish()
}

/// Deterministic hash of a trace's structure: each step's operation,
/// level and repeat count, in order.
pub fn trace_shape(steps: &[TraceStep]) -> u64 {
    let mut h = hasher();
    steps.len().hash(&mut h);
    for s in steps {
        s.op.hash(&mut h);
        s.level.hash(&mut h);
        s.count.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_ckks::{BatchOp, Slot};

    fn square() -> BatchProgram {
        let mut p = BatchProgram::new();
        let m = p
            .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
            .unwrap();
        p.try_push(BatchOp::Rescale(m)).unwrap();
        p
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

    #[test]
    fn shape_ignores_payload_but_not_structure() {
        let a = square();
        let b = square();
        assert_eq!(program_shape(&a, 3), program_shape(&b, 3));
        assert_ne!(program_shape(&a, 3), program_shape(&a, 2), "level");
        let mut c = square();
        c.try_push(BatchOp::HRotate(Slot::Input(0), 1)).unwrap();
        assert_ne!(program_shape(&a, 3), program_shape(&c, 3), "extra op");
    }
}
