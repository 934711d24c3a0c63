//! Batch workloads over real ciphertexts: one dependency structure that
//! both *executes* on the host (topological wavefronts on the rayon
//! pool) and *prices* on the device model (as a kernel DAG via
//! [`crate::sched`]).
//!
//! A [`BatchProgram`] is a list of ciphertext operations whose operands
//! are either batch inputs or earlier results ([`Slot`]).
//! [`BatchProgram::execute`] groups the operations by operand depth and
//! runs each group concurrently, its ops pulled one at a time by the
//! pool's workers, and the output is bit-identical to
//! running the operations one by one in issue order: every CKKS
//! primitive here is a deterministic pure function of its operands, and
//! the required key-switching keys are generated *before* the first
//! wave (key generation draws from the chest's RNG, so its order must
//! not depend on the thread schedule).
//!
//! Execution isolates per-operation failures: an op that fails (say a
//! rescale at level 0) yields its structured [`NeoError`], ops that
//! depend on it report [`NeoError::PoisonedInput`] naming the failed
//! producer, and every op on an untainted path still returns its result —
//! bit-identical to a run without the failing ops.

use crate::ciphertext::Ciphertext;
use crate::cost::{CostConfig, Operation};
use crate::keys::{KeyChest, KeyTarget};
use crate::ops;
use crate::params::{CkksParams, KsMethod};
use crate::sched::append_op;
use neo_error::NeoError;
use neo_ntt::cache as ntt_cache;
use neo_sched::OpGraph;
use rand::Rng;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bounded retry budget [`BatchProgram::execute`] grants each op for
/// transient [`NeoError::FaultDetected`] failures.
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// Outcome of [`BatchProgram::execute_with_report`]: per-op results plus
/// the recovery accounting the fault-matrix harness and the fault report
/// artifact consume.
#[derive(Debug)]
pub struct BatchReport {
    /// One slot per op: the ciphertext, or the op's own structured error
    /// ([`NeoError::PoisonedInput`] downstream of a failed producer).
    pub results: Vec<Result<Ciphertext, NeoError>>,
    /// Retries attempted per op (0 for a clean first attempt).
    pub retries_attempted: Vec<u32>,
    /// Detected faults that retry absorbed, per op — the op's final
    /// result is bit-identical to a fault-free run.
    pub faults_recovered: Vec<u32>,
    /// Poisoned NTT plan cache entries evicted and rebuilt during
    /// recovery (across all ops of this execution).
    pub plans_quarantined: u64,
}

impl BatchReport {
    /// Total retries across all ops.
    pub fn total_retries(&self) -> u32 {
        self.retries_attempted.iter().sum()
    }

    /// Total recovered faults across all ops.
    pub fn total_recovered(&self) -> u32 {
        self.faults_recovered.iter().sum()
    }
}

/// One op's result and recovery accounting, as [`BatchReport`] records
/// them.
struct OpOutcome {
    result: Result<Ciphertext, NeoError>,
    retries: u32,
    recovered: u32,
    quarantined: u64,
}

/// Maps a detection site back to the `neo_fault` injection site whose
/// recovery tally it should credit.
fn injection_site(site: &str) -> Option<neo_fault::FaultSite> {
    match site {
        "tcu_gemm" => Some(neo_fault::FaultSite::TcuFragment),
        "ntt_forward" | "ntt_inverse" => Some(neo_fault::FaultSite::NttStage),
        "ntt_plan" => Some(neo_fault::FaultSite::NttPlan),
        "ckks_op" => Some(neo_fault::FaultSite::CkksOp),
        _ => None,
    }
}

/// Whether a detected fault at `site` justifies sweeping the process-wide
/// NTT plan cache before the retry. Only NTT-side detections can implicate
/// a cached plan; sweeping on unrelated sites (TCU checksums, injected op
/// errors) takes the cache's write lock and — under fault injection —
/// can evict and rebuild plans other tenants are concurrently using.
fn sweeps_plan_cache(site: Option<&'static str>) -> bool {
    matches!(site, Some("ntt_plan" | "ntt_forward" | "ntt_inverse"))
}

/// Deterministic backoff between retry attempts: a bounded spin whose
/// length depends only on the attempt number, so a retried run's
/// schedule does not depend on wall-clock timing.
fn backoff(attempt: u32) {
    for _ in 0..(64u64 << attempt.min(6)) {
        std::hint::spin_loop();
    }
}

/// An operand of a batch operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The `i`-th input ciphertext of the batch.
    Input(usize),
    /// The output of the `i`-th operation of the program.
    Op(usize),
}

/// One ciphertext operation of a batch program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchOp {
    /// Ciphertext × ciphertext with relinearization.
    HMult(Slot, Slot),
    /// Ciphertext + ciphertext.
    HAdd(Slot, Slot),
    /// Left slot rotation by a step count.
    HRotate(Slot, usize),
    /// Rescale (drops one level).
    Rescale(Slot),
}

impl BatchOp {
    /// The operands this operation reads.
    pub fn operands(&self) -> Vec<Slot> {
        match *self {
            BatchOp::HMult(a, b) | BatchOp::HAdd(a, b) => vec![a, b],
            BatchOp::HRotate(a, _) | BatchOp::Rescale(a) => vec![a],
        }
    }

    /// The cost-model operation this maps to.
    pub fn operation(&self) -> Operation {
        match self {
            BatchOp::HMult(..) => Operation::HMult,
            BatchOp::HAdd(..) => Operation::HAdd,
            BatchOp::HRotate(..) => Operation::HRotate,
            BatchOp::Rescale(..) => Operation::Rescale,
        }
    }
}

/// A batch of ciphertext operations with explicit data dependencies.
#[derive(Debug, Clone, Default)]
pub struct BatchProgram {
    /// The operations, in issue order (operand slots must refer to
    /// inputs or to earlier operations).
    pub ops: Vec<BatchOp>,
}

impl BatchProgram {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation; returns its [`Slot::Op`] index.
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if an operand refers to an operation
    /// at or after this one.
    pub fn try_push(&mut self, op: BatchOp) -> Result<Slot, NeoError> {
        for s in op.operands() {
            if let Slot::Op(j) = s {
                if j >= self.ops.len() {
                    return Err(NeoError::invalid_params(format!(
                        "operand Op({j}) not yet defined"
                    )));
                }
            }
        }
        self.ops.push(op);
        Ok(Slot::Op(self.ops.len() - 1))
    }

    /// The level each operation *runs at* (its input level; a rescale's
    /// output is one lower), given the batch inputs' common level. A
    /// rescale at level 0 is illegal at execution time; here its output
    /// level saturates at 0 so planning over an invalid program still
    /// terminates.
    pub fn op_levels(&self, input_level: usize) -> Vec<usize> {
        let mut out_level: Vec<usize> = Vec::with_capacity(self.ops.len());
        let mut run_level = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let lv = |s: Slot| match s {
                Slot::Input(_) => input_level,
                Slot::Op(j) => out_level[j],
            };
            let at = op.operands().into_iter().map(lv).min().expect("operands");
            run_level.push(at);
            out_level.push(match op {
                BatchOp::Rescale(_) => at.saturating_sub(1),
                _ => at,
            });
        }
        run_level
    }

    /// Generates every key-switching key the program will need, in
    /// deterministic issue order. Called by [`Self::execute`] before the
    /// first wave so the chest's RNG draws in a schedule-independent
    /// order (lazily generating keys from worker threads would make the
    /// keys themselves depend on thread timing).
    ///
    /// # Errors
    ///
    /// [`NeoError::KeySwitchKeyMissing`] if a key cannot be generated
    /// (e.g. KLSS requested without a KLSS parameter configuration).
    pub fn warm_keys(
        &self,
        chest: &KeyChest,
        input_level: usize,
        method: KsMethod,
    ) -> Result<(), NeoError> {
        let n = chest.context().degree();
        let levels = self.op_levels(input_level);
        for (op, &level) in self.ops.iter().zip(&levels) {
            let target = match op {
                BatchOp::HMult(..) => KeyTarget::Relin,
                BatchOp::HRotate(_, steps) => KeyTarget::Galois(ops::galois_element(n, *steps)),
                _ => continue,
            };
            chest.warm(level, target, method)?;
        }
        Ok(())
    }

    /// Checks that every operand slot names an existing batch input.
    fn check_input_slots(&self, n_inputs: usize) -> Result<(), NeoError> {
        for (idx, op) in self.ops.iter().enumerate() {
            for s in op.operands() {
                if let Slot::Input(i) = s {
                    if i >= n_inputs {
                        return Err(NeoError::parameter_mismatch(
                            "batch_execute",
                            format!("op {idx} reads Input({i}) but only {n_inputs} inputs given"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The ops grouped by operand depth: wave `k` holds every op whose
    /// longest chain of producers has length `k`, in issue order. The ops
    /// of one wave are mutually independent.
    fn wavefronts(&self) -> Vec<Vec<usize>> {
        let mut depth = Vec::with_capacity(self.ops.len());
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for (idx, op) in self.ops.iter().enumerate() {
            let d = op
                .operands()
                .into_iter()
                .filter_map(|s| match s {
                    Slot::Op(j) => Some(depth[j] + 1),
                    Slot::Input(_) => None,
                })
                .max()
                .unwrap_or(0);
            depth.push(d);
            if waves.len() <= d {
                waves.resize_with(d + 1, Vec::new);
            }
            waves[d].push(idx);
        }
        waves
    }

    /// Runs the program over `inputs` and returns every operation's
    /// output. Independent operations execute concurrently, one
    /// topological wave at a time on the rayon pool; the result is
    /// bit-identical to running the ops one by one in issue order.
    ///
    /// Failures are isolated per operation: an op that fails (after
    /// [`DEFAULT_MAX_RETRIES`] recovery attempts for transient
    /// [`NeoError::FaultDetected`] errors) yields its structured error,
    /// ops that depend on it report [`NeoError::PoisonedInput`] naming
    /// the failed producer, and every op on an untainted path still
    /// returns its result — bit-identical to a run without the failing
    /// ops.
    ///
    /// # Errors
    ///
    /// [`NeoError::LevelMismatch`] if the inputs do not share one level;
    /// [`NeoError::ParameterMismatch`] if an operand names a missing
    /// input; [`NeoError::KeySwitchKeyMissing`] if key warm-up fails.
    pub fn execute(
        &self,
        chest: &KeyChest,
        inputs: &[Ciphertext],
        method: KsMethod,
    ) -> Result<Vec<Result<Ciphertext, NeoError>>, NeoError> {
        self.execute_with_report(chest, inputs, method, DEFAULT_MAX_RETRIES)
            .map(|r| r.results)
    }

    /// [`Self::execute`] with explicit recovery control and accounting.
    ///
    /// Each op gets up to `max_retries` additional attempts when it fails
    /// with a (retryable) [`NeoError::FaultDetected`]: between attempts
    /// the process-wide NTT plan cache is swept for poisoned entries
    /// ([`neo_ntt::cache::quarantine_corrupt`] — evict and rebuild once)
    /// and a deterministic backoff runs. Because every op is a pure
    /// function of its operands, a successful retry is bit-identical to a
    /// fault-free execution. Key warm-up still happens once, in issue
    /// order, *before* the first wave — retries reuse the cached keys and
    /// never touch the chest's RNG.
    ///
    /// # Errors
    ///
    /// As [`Self::execute`].
    pub fn execute_with_report(
        &self,
        chest: &KeyChest,
        inputs: &[Ciphertext],
        method: KsMethod,
        max_retries: u32,
    ) -> Result<BatchReport, NeoError> {
        if let Some(first) = inputs.first() {
            for ct in &inputs[1..] {
                if ct.level() != first.level() {
                    return Err(NeoError::level_mismatch(
                        "batch_execute",
                        first.level(),
                        ct.level(),
                    ));
                }
            }
        }
        self.check_input_slots(inputs.len())?;
        if let Some(first) = inputs.first() {
            self.warm_keys(chest, first.level(), method)?;
        }
        let n_ops = self.ops.len();
        let mut done: Vec<Option<Result<Ciphertext, NeoError>>> = Vec::new();
        done.resize_with(n_ops, || None);
        let mut report = BatchReport {
            results: Vec::with_capacity(n_ops),
            retries_attempted: vec![0; n_ops],
            faults_recovered: vec![0; n_ops],
            plans_quarantined: 0,
        };
        for wave in self.wavefronts() {
            // Each pool worker pulls the wave's next op off a shared
            // counter: ops differ in cost, so an even split of the wave by
            // count could leave one worker two heavy ops while the other
            // idles. The counter only hands out indices (`Relaxed`); the
            // outcomes come back through the pool's join.
            let next = AtomicUsize::new(0);
            let lanes = rayon::current_num_threads().min(wave.len());
            let outcomes: Vec<Vec<(usize, OpOutcome)>> = (0..lanes)
                .into_par_iter()
                .map(|_| {
                    let mut pulled = Vec::new();
                    while let Some(&idx) = wave.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let outcome = self.run_op(idx, chest, inputs, &done, method, max_retries);
                        pulled.push((idx, outcome));
                    }
                    pulled
                })
                .collect();
            for (idx, outcome) in outcomes.into_iter().flatten() {
                done[idx] = Some(outcome.result);
                report.retries_attempted[idx] = outcome.retries;
                report.faults_recovered[idx] = outcome.recovered;
                report.plans_quarantined += outcome.quarantined;
            }
        }
        report.results = done.into_iter().flatten().collect();
        crate::metrics::record_batch_report(&report);
        Ok(report)
    }

    /// Runs op `idx` against its producers' results in `done`, with up to
    /// `max_retries` retries of a detected fault.
    fn run_op(
        &self,
        idx: usize,
        chest: &KeyChest,
        inputs: &[Ciphertext],
        done: &[Option<Result<Ciphertext, NeoError>>],
        method: KsMethod,
        max_retries: u32,
    ) -> OpOutcome {
        // A failed producer poisons this op; the first failed operand in
        // operand order names the upstream culprit.
        let operand = |s: Slot| match s {
            Slot::Input(i) => Ok(&inputs[i]),
            Slot::Op(j) => match &done[j] {
                Some(Ok(ct)) => Ok(ct),
                _ => Err(NeoError::poisoned(idx, j)),
            },
        };
        let ctx = chest.context();
        let run = || match self.ops[idx] {
            BatchOp::HMult(a, b) => ops::try_hmult(chest, operand(a)?, operand(b)?, method),
            BatchOp::HAdd(a, b) => ops::try_hadd(ctx, operand(a)?, operand(b)?),
            BatchOp::HRotate(a, steps) => ops::try_hrotate(chest, operand(a)?, steps, method),
            BatchOp::Rescale(a) => ops::try_rescale(ctx, operand(a)?),
        };
        let mut outcome = OpOutcome {
            result: run(),
            retries: 0,
            recovered: 0,
            quarantined: 0,
        };
        let mut last_site: Option<&'static str> = None;
        while let Err(NeoError::FaultDetected { site, .. }) = &outcome.result {
            if outcome.retries >= max_retries {
                break;
            }
            last_site = Some(*site);
            outcome.retries += 1;
            // An NTT-site fault may stem from a rotted plan rather than a
            // transient flip: sweep and rebuild poisoned cache entries so
            // the retry reruns against clean tables. The sweep is gated on
            // the detection site: a TCU or spurious-op fault says nothing
            // about the plan cache, and the sweep's write lock on the
            // process-wide cache would stall every other tenant's NTTs for
            // no reason (see the interleaved-tenant regression test).
            if sweeps_plan_cache(last_site) {
                outcome.quarantined += ntt_cache::quarantine_corrupt() as u64;
            }
            backoff(outcome.retries);
            outcome.result = run();
        }
        if outcome.retries > 0 && outcome.result.is_ok() {
            outcome.recovered = outcome.retries;
            if let Some(site) = last_site.and_then(injection_site) {
                neo_fault::note_recovery(site);
            }
        }
        outcome
    }

    /// The program's kernel DAG on the device model: each operation's
    /// kernels are appended via [`crate::sched::append_op`], with the
    /// operation's first kernel depending on its producers' exit kernels.
    pub fn kernel_graph(&self, p: &CkksParams, input_level: usize, cfg: &CostConfig) -> OpGraph {
        let mut g = OpGraph::new();
        self.append_kernel_graph(&mut g, p, input_level, cfg, 0);
        g
    }

    /// Appends this program's kernel DAG to an existing graph, tagging its
    /// operations `tag_base..tag_base + ops.len()`. Programs appended to
    /// the same graph share no edges — they are independent work the
    /// multi-stream simulator may overlap — which is exactly how a serving
    /// layer prices a coalesced batch of several tenants' programs as one
    /// admission unit.
    pub fn append_kernel_graph(
        &self,
        g: &mut OpGraph,
        p: &CkksParams,
        input_level: usize,
        cfg: &CostConfig,
        tag_base: usize,
    ) {
        let levels = self.op_levels(input_level);
        let mut exits = Vec::with_capacity(self.ops.len());
        for (tag, (op, &level)) in self.ops.iter().zip(&levels).enumerate() {
            let after: Vec<_> = op
                .operands()
                .into_iter()
                .filter_map(|s| match s {
                    Slot::Op(j) => Some(exits[j]),
                    Slot::Input(_) => None,
                })
                .collect();
            exits.push(append_op(
                g,
                p,
                level,
                op.operation(),
                cfg,
                &after,
                tag_base + tag,
            ));
        }
    }

    /// A random but *legal* program over `n_inputs` inputs at
    /// `input_level`: operand levels always match, HMult squares only
    /// base-scale operands (Δ·Δ = Δ²), HAdd only adds like scales, and
    /// Rescale drops exactly the Δ² results back to Δ. Used by the
    /// bit-identity property tests and the scheduler bench.
    pub fn random<R: Rng + ?Sized>(
        rng: &mut R,
        n_inputs: usize,
        n_ops: usize,
        input_level: usize,
        slots_n: usize,
    ) -> Self {
        assert!(n_inputs > 0 && input_level >= 1);
        // (slot, level, squared_scale) of every operand candidate.
        let mut meta: Vec<(Slot, usize, bool)> = (0..n_inputs)
            .map(|i| (Slot::Input(i), input_level, false))
            .collect();
        let mut prog = BatchProgram::new();
        for _ in 0..n_ops {
            // Try op kinds in a random rotation; HRotate always succeeds.
            let kinds = ["hmult", "hadd", "rescale", "hrotate"];
            let start = rng.gen_range(0usize..kinds.len());
            let mut placed = None;
            for k in 0..kinds.len() {
                match kinds[(start + k) % kinds.len()] {
                    "hmult" => {
                        // Two base-scale operands at a common level ≥ 1
                        // (so the Δ² result can still rescale).
                        let base: Vec<usize> = (0..meta.len())
                            .filter(|&i| !meta[i].2 && meta[i].1 >= 1)
                            .collect();
                        let Some(&a) = base.first() else { continue };
                        let level = meta[a].1;
                        let same: Vec<usize> = base
                            .iter()
                            .copied()
                            .filter(|&i| meta[i].1 == level)
                            .collect();
                        let x = same[rng.gen_range(0..same.len())];
                        let y = same[rng.gen_range(0..same.len())];
                        placed = Some((BatchOp::HMult(meta[x].0, meta[y].0), level, true));
                    }
                    "hadd" => {
                        // Two operands with equal level *and* scale kind.
                        let i = rng.gen_range(0..meta.len());
                        let (_, level, sq) = meta[i];
                        let same: Vec<usize> = (0..meta.len())
                            .filter(|&j| meta[j].1 == level && meta[j].2 == sq)
                            .collect();
                        let j = same[rng.gen_range(0..same.len())];
                        placed = Some((BatchOp::HAdd(meta[i].0, meta[j].0), level, sq));
                    }
                    "rescale" => {
                        // A squared-scale result with a level to drop.
                        let cands: Vec<usize> = (0..meta.len())
                            .filter(|&i| meta[i].2 && meta[i].1 >= 1)
                            .collect();
                        if cands.is_empty() {
                            continue;
                        }
                        let i = cands[rng.gen_range(0..cands.len())];
                        placed = Some((BatchOp::Rescale(meta[i].0), meta[i].1 - 1, false));
                    }
                    _ => {
                        let i = rng.gen_range(0..meta.len());
                        let steps = rng.gen_range(1usize..(slots_n / 2).max(2));
                        placed = Some((BatchOp::HRotate(meta[i].0, steps), meta[i].1, meta[i].2));
                    }
                }
                if placed.is_some() {
                    break;
                }
            }
            let (op, level, squared) = placed.expect("hrotate always legal");
            let slot = prog.try_push(op).expect("random programs are legal");
            meta.push((slot, level, squared));
        }
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use neo_error::ErrorKind;

    fn push(prog: &mut BatchProgram, op: BatchOp) -> Slot {
        prog.try_push(op).unwrap()
    }

    #[test]
    fn levels_propagate_through_rescale() {
        let mut prog = BatchProgram::new();
        let m = push(&mut prog, BatchOp::HMult(Slot::Input(0), Slot::Input(0)));
        let r = push(&mut prog, BatchOp::Rescale(m));
        push(&mut prog, BatchOp::HRotate(r, 3));
        assert_eq!(prog.op_levels(5), vec![5, 5, 4]);
    }

    #[test]
    fn wavefronts_group_ops_by_operand_depth() {
        // A diamond over one input plus an independent op: 0 -> {1, 2} -> 3.
        let mut prog = BatchProgram::new();
        let m = push(&mut prog, BatchOp::HMult(Slot::Input(0), Slot::Input(0)));
        let l = push(&mut prog, BatchOp::HRotate(m, 1));
        let r = push(&mut prog, BatchOp::HRotate(m, 2));
        push(&mut prog, BatchOp::HAdd(l, r));
        push(&mut prog, BatchOp::HAdd(Slot::Input(0), Slot::Input(1)));
        assert_eq!(prog.wavefronts(), vec![vec![0, 4], vec![1, 2], vec![3]]);
        assert!(BatchProgram::new().wavefronts().is_empty());
    }

    #[test]
    fn forward_operand_rejected() {
        let mut prog = BatchProgram::new();
        let err = prog.try_push(BatchOp::Rescale(Slot::Op(2))).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidParams);
        assert!(prog.ops.is_empty());
    }

    #[test]
    fn random_programs_are_legal() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for seed in 0..10usize {
            let prog = BatchProgram::random(&mut rng, 3, 12 + seed, 4, 1 << 8);
            let levels = prog.op_levels(4);
            assert_eq!(levels.len(), prog.ops.len());
            // Rescales never run at level 0.
            for (op, &lv) in prog.ops.iter().zip(&levels) {
                if matches!(op, BatchOp::Rescale(_)) {
                    assert!(lv >= 1);
                }
            }
        }
    }

    #[test]
    fn appended_programs_are_independent() {
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let mut prog = BatchProgram::new();
        let m = push(&mut prog, BatchOp::HMult(Slot::Input(0), Slot::Input(1)));
        push(&mut prog, BatchOp::Rescale(m));
        let single = prog.kernel_graph(&p, 10, &cfg);
        let mut g = OpGraph::new();
        prog.append_kernel_graph(&mut g, &p, 10, &cfg, 0);
        prog.append_kernel_graph(&mut g, &p, 10, &cfg, prog.ops.len());
        // Disjoint union: no edge crosses the two appended programs.
        assert_eq!(g.len(), 2 * single.len());
        assert_eq!(g.edge_count(), 2 * single.edge_count());
    }

    #[test]
    fn plan_sweep_is_site_gated() {
        for site in ["ntt_plan", "ntt_forward", "ntt_inverse"] {
            assert!(sweeps_plan_cache(Some(site)), "{site}");
        }
        assert!(!sweeps_plan_cache(Some("tcu_gemm")));
        assert!(!sweeps_plan_cache(Some("ckks_op")));
        assert!(!sweeps_plan_cache(None));
    }

    #[test]
    fn kernel_graph_links_producers() {
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let mut prog = BatchProgram::new();
        let m = push(&mut prog, BatchOp::HMult(Slot::Input(0), Slot::Input(1)));
        push(&mut prog, BatchOp::Rescale(m));
        let g = prog.kernel_graph(&p, 10, &cfg);
        let single_m = crate::sched::op_graph(&p, 10, Operation::HMult, &cfg);
        let single_r = crate::sched::op_graph(&p, 10, Operation::Rescale, &cfg);
        assert_eq!(g.len(), single_m.len() + single_r.len());
        // One extra edge ties the rescale's first kernel to the hmult's
        // exit kernel.
        assert_eq!(
            g.edge_count(),
            single_m.edge_count() + single_r.edge_count() + 1
        );
    }
}
