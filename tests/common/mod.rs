//! The batch executor's reference for the integration tests: a
//! program's ops run one by one in issue order through the public
//! `ops::try_*` calls, with a failed operand poisoning the op that reads
//! it. `BatchProgram::execute` must return exactly this.

use neo::ckks::batch::{BatchOp, BatchProgram, Slot};
use neo::ckks::{ops, Ciphertext, KeyChest, KsMethod, NeoError};

/// Every op's result, in issue order, computed sequentially.
pub fn run_sequential(
    prog: &BatchProgram,
    chest: &KeyChest,
    inputs: &[Ciphertext],
    method: KsMethod,
) -> Vec<Result<Ciphertext, NeoError>> {
    let ctx = chest.context();
    let mut out: Vec<Result<Ciphertext, NeoError>> = Vec::with_capacity(prog.ops.len());
    for (idx, op) in prog.ops.iter().enumerate() {
        let get = |s: Slot| match s {
            Slot::Input(i) => Ok(&inputs[i]),
            Slot::Op(j) => out[j].as_ref().map_err(|_| NeoError::poisoned(idx, j)),
        };
        let result = match *op {
            BatchOp::HMult(a, b) => {
                get(a).and_then(|a| get(b).and_then(|b| ops::try_hmult(chest, a, b, method)))
            }
            BatchOp::HAdd(a, b) => {
                get(a).and_then(|a| get(b).and_then(|b| ops::try_hadd(ctx, a, b)))
            }
            BatchOp::HRotate(a, steps) => {
                get(a).and_then(|a| ops::try_hrotate(chest, a, steps, method))
            }
            BatchOp::Rescale(a) => get(a).and_then(|a| ops::try_rescale(ctx, a)),
        };
        out.push(result);
    }
    out
}
