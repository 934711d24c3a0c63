//! Discrete-event multi-stream timeline simulator.
//!
//! Maps an [`OpGraph`] onto N simulated CUDA streams and advances an
//! event timeline under the A100 resource model:
//!
//! - **Launch prologue.** The whole DAG is dispatched up front
//!   (CUDA-graph style): the host pays one serial
//!   [`kernel_launch_s`](neo_gpu_sim::DeviceSpec) per counted launch
//!   before the device starts at `t_start`.
//! - **Exclusive compute engines.** The CUDA-core array and the tensor
//!   cores are each one exclusive engine: a kernel runs its CUDA phase,
//!   then its TCU phase, and each engine serves one kernel phase at a
//!   time (FIFO, deterministic stream-index tie-breaks). Different
//!   streams therefore overlap on *different* engines — one stream's TCU
//!   phase hides another's CUDA phase (Section 4.6's multi-stream
//!   execution).
//! - **Shared HBM.** Each stream's memory traffic is a FIFO of per-kernel
//!   jobs, all eligible from `t_start` (prefetch/write-behind semantics)
//!   and drained continuously; the HBM bandwidth is split equally among
//!   the streams with outstanding bytes.
//! - **Dependencies.** Within a stream, kernels issue in FIFO order as
//!   soon as the predecessor kernel's *compute* finishes (in-order
//!   streams; writes are still in flight). A cross-stream dependency
//!   waits for the producer's *full* completion — compute done and bytes
//!   served — modelling the event-wait a real stream sync inserts.
//! - **Completion faults.** When a `neo_fault` plan arms
//!   [`neo_fault::FaultSite::SchedCompletion`], engine-completion signals
//!   can be *dropped* (the watchdog observes the idle engine and
//!   resynthesizes the signal at the same timestamp) or *duplicated*
//!   (the stale second delivery is detected and discarded). Both
//!   recoveries are tallied on [`Schedule::faults`] and leave the
//!   timeline bit-identical to a clean run; [`try_simulate`] additionally
//!   turns a stalled timeline into a typed error.
//!
//! With one stream this collapses to
//! `Σlaunches·launch_s + max(Σcuda+Σtcu, Σmem)` —
//! [`DeviceModel::serial_time_s`] — on any DAG (property-tested in
//! `tests/properties.rs` and on the CKKS graphs in the workspace
//! `tests/scheduler.rs`).

use crate::graph::OpGraph;
use neo_error::NeoError;
use neo_fault::{CompletionFault, FaultSite};
use neo_gpu_sim::DeviceModel;
use neo_trace::SimSpan;
use std::time::Duration;

/// Simulator knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of simulated CUDA streams (≥ 1).
    pub streams: usize,
}

impl SimConfig {
    /// Config with `streams` streams.
    pub fn streams(streams: usize) -> Self {
        assert!(streams >= 1, "need at least one stream");
        Self { streams }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { streams: 4 }
    }
}

/// Simulated timeline of one graph node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTimeline {
    /// Stream the node was assigned to.
    pub stream: usize,
    /// Time the kernel issued (first compute phase requested), seconds.
    pub start_s: f64,
    /// Time both compute phases finished, seconds.
    pub compute_end_s: f64,
    /// Time the kernel's HBM traffic was fully served, seconds.
    pub mem_end_s: f64,
}

impl NodeTimeline {
    /// Full completion: compute done *and* bytes served.
    pub fn end_s(&self) -> f64 {
        self.compute_end_s.max(self.mem_end_s)
    }
}

/// Tallies of injected completion-signal faults a run survived.
///
/// Both recoveries are *timeline-neutral*: a dropped signal is
/// resynthesized at the very timestamp the watchdog observes the idle
/// engine, and a stale duplicate is discarded before it mutates state, so
/// a faulted run's [`Schedule::timeline`] is bit-identical to the clean
/// run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompletionFaults {
    /// Dropped completion interrupts the watchdog resynthesized.
    pub resynthesized: u64,
    /// Duplicate completion deliveries detected as stale and ignored.
    pub deduplicated: u64,
}

impl CompletionFaults {
    /// Total completion faults injected into (and recovered by) the run.
    pub fn total(&self) -> u64 {
        self.resynthesized + self.deduplicated
    }
}

/// Busy-time accounting of one simulated run, accumulated event by event
/// inside the replay loop (not derived from the timeline afterwards) — so
/// it can be cross-checked against the analytic per-kernel component
/// times, and exported as `sched_*_busy_fraction` gauges via
/// [`crate::metrics::publish_utilization`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineBusy {
    /// Seconds the exclusive CUDA-core engine spent serving a phase.
    pub cuda_s: f64,
    /// Seconds the exclusive tensor-core engine spent serving a phase.
    pub tcu_s: f64,
    /// Seconds HBM spent serving bytes (the bandwidth split is
    /// work-conserving, so this is wall-clock time with ≥ 1 active
    /// memory queue).
    pub hbm_s: f64,
    /// Per-stream compute engine service time (CUDA + TCU phases of the
    /// stream's kernels).
    pub stream_compute_s: Vec<f64>,
    /// Per-stream HBM service time at the stream's bandwidth share.
    pub stream_mem_s: Vec<f64>,
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Stream count the graph was scheduled onto.
    pub streams: usize,
    /// Launch prologue (host dispatch of the whole DAG), seconds.
    pub prologue_s: f64,
    /// End-to-end makespan including the prologue, seconds.
    pub makespan_s: f64,
    /// Per-node timelines, indexed like the graph's nodes.
    pub timeline: Vec<NodeTimeline>,
    /// Completion-signal faults injected and recovered during the run
    /// (all-zero unless a `neo_fault` plan arms `SchedCompletion`).
    pub faults: CompletionFaults,
    /// Per-engine and per-stream busy time accumulated by the event loop.
    pub busy: EngineBusy,
}

impl Schedule {
    /// The device-active window: makespan minus the launch prologue.
    pub fn device_window_s(&self) -> f64 {
        (self.makespan_s - self.prologue_s).max(0.0)
    }
}

/// Simulates `g` on `cfg.streams` streams of `dev`.
///
/// Assignment is a deterministic greedy list schedule (earliest estimated
/// finish, ties to the lowest stream index); the timeline then replays
/// that assignment under the event semantics described at module level.
pub fn simulate(g: &OpGraph, dev: &DeviceModel, cfg: SimConfig) -> Schedule {
    try_simulate(g, dev, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`simulate`]: a timeline that stalls — every
/// remaining node waiting on a completion signal that never arrives —
/// surfaces as [`NeoError::FaultDetected`] at site `sched_completion`
/// instead of a panic. The infallible entry points keep panicking, which
/// on a clean (un-injected) run remains unreachable.
pub fn try_simulate(g: &OpGraph, dev: &DeviceModel, cfg: SimConfig) -> Result<Schedule, NeoError> {
    let prologue = g.launch_prologue_s(dev);
    if g.is_empty() {
        return Ok(Schedule {
            streams: cfg.streams,
            prologue_s: prologue,
            makespan_s: prologue,
            timeline: Vec::new(),
            faults: CompletionFaults::default(),
            busy: EngineBusy {
                stream_compute_s: vec![0.0; cfg.streams],
                stream_mem_s: vec![0.0; cfg.streams],
                ..EngineBusy::default()
            },
        });
    }
    let assignment = assign_streams(g, dev, cfg.streams);
    run_events(g, dev, cfg.streams, prologue, &assignment)
}

/// Simulates `g` at every stream count `1..=max_streams` and returns the
/// schedule with the smallest makespan (ties to fewer streams).
///
/// Greedy list scheduling is subject to Graham anomalies — adding a
/// stream can occasionally *lengthen* a particular schedule — so this is
/// the variant whose makespan is guaranteed monotone non-increasing in
/// `max_streams`.
pub fn simulate_best(g: &OpGraph, dev: &DeviceModel, max_streams: usize) -> Schedule {
    assert!(max_streams >= 1);
    (1..=max_streams)
        .map(|s| simulate(g, dev, SimConfig::streams(s)))
        .min_by(|a, b| a.makespan_s.total_cmp(&b.makespan_s))
        .expect("at least one stream count")
}

/// The simulated makespan of `g` on `streams` streams, as a [`Duration`]
/// — the cost-oracle entry point for callers (serve admission, a future
/// planner) that need *a price*, not a full [`Schedule`].
///
/// Identical to `simulate(g, dev, SimConfig::streams(streams)).makespan_s`
/// (tested below); exists so every admission policy doesn't re-derive the
/// `SimConfig` / `Schedule` boilerplate.
pub fn estimate_makespan(g: &OpGraph, dev: &DeviceModel, streams: usize) -> Duration {
    Duration::from_secs_f64(simulate(g, dev, SimConfig::streams(streams)).makespan_s)
}

/// Sweeps `1..=max_streams` like [`simulate_best`] and returns the
/// winning `(stream_count, makespan)` pair — what an admission policy
/// needs to both price a candidate batch and pick the stream count its
/// execution should request.
pub fn estimate_makespan_best(
    g: &OpGraph,
    dev: &DeviceModel,
    max_streams: usize,
) -> (usize, Duration) {
    let best = simulate_best(g, dev, max_streams);
    (best.streams, Duration::from_secs_f64(best.makespan_s))
}

/// Phase A: static greedy list scheduling. Nodes are visited in
/// topological (= insertion) order; each goes to the stream minimizing
/// its estimated finish `max(stream_free, ready(s)) + max(c+t, m)`.
///
/// The ready time is stream-dependent: a predecessor on a *different*
/// stream is charged its memory time on top of its finish estimate,
/// because a cross-stream consumer waits for the producer's bytes to be
/// served (the event-wait in the replay). This gives chains affinity to
/// their producer's stream — migration only happens when the other
/// stream's earlier availability beats the sync cost — which is what
/// spreads independent batch instances across streams instead of
/// shredding one pipeline's fan-out over all of them.
fn assign_streams(g: &OpGraph, dev: &DeviceModel, streams: usize) -> Vec<usize> {
    let n = g.len();
    let mut assignment = vec![0usize; n];
    let mut stream_free = vec![0.0f64; streams];
    let mut finish_est = vec![0.0f64; n];
    let mut mem_est = vec![0.0f64; n];
    for (i, node) in g.nodes().iter().enumerate() {
        let (c, t, m, _) = dev.component_times(&node.profile);
        let dur = (c + t).max(m);
        let (mut best_s, mut best_finish) = (0usize, f64::INFINITY);
        for (s, &free) in stream_free.iter().enumerate() {
            let ready = g
                .preds(i)
                .iter()
                .map(|&p| {
                    if assignment[p] == s {
                        finish_est[p]
                    } else {
                        finish_est[p] + mem_est[p]
                    }
                })
                .fold(0.0f64, f64::max);
            let finish = free.max(ready) + dur;
            if finish < best_finish {
                best_finish = finish;
                best_s = s;
            }
        }
        assignment[i] = best_s;
        stream_free[best_s] = best_finish;
        finish_est[i] = best_finish;
        mem_est[i] = m;
    }
    assignment
}

/// Per-node progress through the compute pipeline.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Waiting,
    InCuda,
    InTcu,
    ComputeDone,
}

/// One exclusive compute engine (the CUDA-core array or the tensor
/// cores): at most one kernel phase in service, the rest queued FIFO.
#[derive(Default)]
struct Engine {
    /// `(node, remaining seconds)` currently in service.
    busy: Option<(usize, f64)>,
    /// Nodes waiting for the engine, FIFO.
    queue: Vec<usize>,
}

impl Engine {
    /// Grants the engine to the queue head if idle; returns whether state
    /// changed.
    fn start_next(&mut self, durations: &[f64]) -> bool {
        if self.busy.is_some() || self.queue.is_empty() {
            return false;
        }
        let node = self.queue.remove(0);
        self.busy = Some((node, durations[node]));
        true
    }
}

const EPS: f64 = 1e-18;

/// Draws a completion fault for a finishing engine phase and returns how
/// many deliveries of the completion signal the executor observes.
///
/// A **dropped** signal still yields one delivery: the engine has gone
/// idle with its kernel unreported, the watchdog notices at that same
/// timestamp and resynthesizes the completion, so the recovery is tallied
/// here and the timeline stays bit-identical. A **duplicated** signal
/// yields two deliveries; the second must be detected as stale at the
/// delivery site (the node already left the phase) and discarded.
fn completion_deliveries(faults: &mut CompletionFaults) -> u32 {
    if !neo_fault::armed() {
        return 1;
    }
    match neo_fault::completion_fault() {
        None => 1,
        Some(CompletionFault::Dropped) => {
            faults.resynthesized += 1;
            neo_fault::note_recovery(FaultSite::SchedCompletion);
            1
        }
        Some(CompletionFault::Duplicated) => 2,
    }
}

/// Phase B: event-driven replay of a fixed stream assignment.
fn run_events(
    g: &OpGraph,
    dev: &DeviceModel,
    streams: usize,
    prologue: f64,
    assignment: &[usize],
) -> Result<Schedule, NeoError> {
    let n = g.len();
    let (mut cuda_s, mut tcu_s, mut mem_s) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for (i, node) in g.nodes().iter().enumerate() {
        let (c, t, m, _) = dev.component_times(&node.profile);
        cuda_s[i] = c;
        tcu_s[i] = t;
        mem_s[i] = m;
    }

    // Per-stream FIFOs of nodes, in topological order, with a pointer to
    // the next node allowed to issue.
    let mut fifo: Vec<Vec<usize>> = vec![Vec::new(); streams];
    for (i, &s) in assignment.iter().enumerate() {
        fifo[s].push(i);
    }
    let mut head = vec![0usize; streams];
    // Per-stream memory queues: `(node, remaining seconds at full BW)`,
    // all eligible from t_start (prefetch/write-behind).
    let mut mem_queue: Vec<Vec<(usize, f64)>> = vec![Vec::new(); streams];
    for (s, nodes) in fifo.iter().enumerate() {
        for &i in nodes {
            if mem_s[i] > 0.0 {
                mem_queue[s].push((i, mem_s[i]));
            }
        }
    }

    let mut phase = vec![Phase::Waiting; n];
    let mut mem_done: Vec<bool> = (0..n).map(|i| mem_s[i] == 0.0).collect();
    let mut timeline: Vec<NodeTimeline> = assignment
        .iter()
        .map(|&s| NodeTimeline {
            stream: s,
            start_s: prologue,
            compute_end_s: prologue,
            mem_end_s: prologue,
        })
        .collect();

    let mut cuda_engine = Engine::default();
    let mut tcu_engine = Engine::default();
    let mut now = prologue;
    let mut compute_left = n;
    let mut faults = CompletionFaults::default();
    let mut busy = EngineBusy {
        stream_compute_s: vec![0.0; streams],
        stream_mem_s: vec![0.0; streams],
        ..EngineBusy::default()
    };

    loop {
        // Settle: issue ready nodes and grant idle engines until stable.
        // Streams are visited in index order, so simultaneous arrivals
        // enqueue deterministically.
        loop {
            let mut changed = false;
            for s in 0..streams {
                let h = head[s];
                if h >= fifo[s].len() {
                    continue;
                }
                let i = fifo[s][h];
                if phase[i] != Phase::Waiting {
                    continue;
                }
                let ready = g.preds(i).iter().all(|&p| {
                    phase[p] == Phase::ComputeDone
                        && (assignment[p] == assignment[i] || mem_done[p])
                });
                if !ready {
                    continue;
                }
                timeline[i].start_s = now;
                changed = true;
                if cuda_s[i] > 0.0 {
                    phase[i] = Phase::InCuda;
                    cuda_engine.queue.push(i);
                } else if tcu_s[i] > 0.0 {
                    phase[i] = Phase::InTcu;
                    tcu_engine.queue.push(i);
                } else {
                    // No compute at all (pure-memory or empty kernel).
                    phase[i] = Phase::ComputeDone;
                    timeline[i].compute_end_s = now;
                    head[s] += 1;
                    compute_left -= 1;
                }
            }
            changed |= cuda_engine.start_next(&cuda_s);
            changed |= tcu_engine.start_next(&tcu_s);
            if !changed {
                break;
            }
        }

        let mem_active = mem_queue.iter().filter(|q| !q.is_empty()).count();
        if compute_left == 0 && mem_active == 0 {
            break;
        }

        // Next event: an engine phase finishing, or a memory-queue head
        // draining (each active stream gets a 1/mem_active bandwidth
        // share, so the head needs `remaining * mem_active` wall time).
        let mut dt = f64::INFINITY;
        if let Some((_, rem)) = cuda_engine.busy {
            dt = dt.min(rem);
        }
        if let Some((_, rem)) = tcu_engine.busy {
            dt = dt.min(rem);
        }
        for q in &mem_queue {
            if let Some(&(_, rem)) = q.first() {
                dt = dt.min(rem * mem_active as f64);
            }
        }
        if !(dt.is_finite() && dt >= 0.0) {
            return Err(NeoError::fault_detected(
                "sched_completion",
                format!(
                    "timeline stalled at t={now}s with {compute_left} compute phases \
                     unfinished: a completion signal was lost and never resynthesized"
                ),
            ));
        }
        now += dt;

        // Busy accounting: the engines served continuously through the
        // whole interval (dt is the minimum over remaining service
        // times), and each active memory queue consumed its equal
        // bandwidth share.
        if let Some((i, _)) = cuda_engine.busy {
            busy.cuda_s += dt;
            busy.stream_compute_s[assignment[i]] += dt;
        }
        if let Some((i, _)) = tcu_engine.busy {
            busy.tcu_s += dt;
            busy.stream_compute_s[assignment[i]] += dt;
        }
        if mem_active > 0 {
            busy.hbm_s += dt;
            let share = dt / mem_active as f64;
            for (s, q) in mem_queue.iter().enumerate() {
                if !q.is_empty() {
                    busy.stream_mem_s[s] += share;
                }
            }
        }

        // Advance the CUDA engine; a kernel finishing its CUDA phase
        // hands off to the TCU queue (or completes its compute).
        if let Some((i, rem)) = cuda_engine.busy {
            let left = rem - dt;
            if left <= EPS {
                cuda_engine.busy = None;
                for _ in 0..completion_deliveries(&mut faults) {
                    if phase[i] != Phase::InCuda {
                        // Stale duplicate: the node already left its CUDA
                        // phase, so the signal is detected and discarded.
                        faults.deduplicated += 1;
                        neo_fault::note_recovery(FaultSite::SchedCompletion);
                        continue;
                    }
                    if tcu_s[i] > 0.0 {
                        phase[i] = Phase::InTcu;
                        tcu_engine.queue.push(i);
                    } else {
                        phase[i] = Phase::ComputeDone;
                        timeline[i].compute_end_s = now;
                        head[assignment[i]] += 1;
                        compute_left -= 1;
                    }
                }
            } else {
                cuda_engine.busy = Some((i, left));
            }
        }
        // Advance the TCU engine.
        if let Some((i, rem)) = tcu_engine.busy {
            let left = rem - dt;
            if left <= EPS {
                tcu_engine.busy = None;
                for _ in 0..completion_deliveries(&mut faults) {
                    if phase[i] != Phase::InTcu {
                        faults.deduplicated += 1;
                        neo_fault::note_recovery(FaultSite::SchedCompletion);
                        continue;
                    }
                    phase[i] = Phase::ComputeDone;
                    timeline[i].compute_end_s = now;
                    head[assignment[i]] += 1;
                    compute_left -= 1;
                }
            } else {
                tcu_engine.busy = Some((i, left));
            }
        }

        // Advance the memory queues at an equal bandwidth share.
        if mem_active > 0 {
            let share = dt / mem_active as f64;
            for q in &mut mem_queue {
                if let Some(job) = q.first_mut() {
                    job.1 -= share;
                    if job.1 <= EPS {
                        let (i, _) = q.remove(0);
                        timeline[i].mem_end_s = now;
                        mem_done[i] = true;
                    }
                }
            }
        }
    }

    let makespan = timeline
        .iter()
        .map(NodeTimeline::end_s)
        .fold(prologue, f64::max);
    Ok(Schedule {
        streams,
        prologue_s: prologue,
        makespan_s: makespan,
        timeline,
        faults,
        busy,
    })
}

/// Chrome-trace export of a simulated schedule: one compute track and one
/// HBM track per stream, plus the launch prologue on its own track.
pub fn chrome_trace(g: &OpGraph, schedule: &Schedule) -> String {
    let mut spans = Vec::new();
    let mut tracks = vec!["host launch prologue".to_string()];
    spans.push(SimSpan {
        name: format!("dispatch DAG ({} kernels)", g.len()),
        track: 0,
        start_us: 0.0,
        dur_us: schedule.prologue_s * 1e6,
        args: vec![("streams".into(), schedule.streams.to_string())],
    });
    for s in 0..schedule.streams {
        tracks.push(format!("stream {s} compute"));
        tracks.push(format!("stream {s} HBM"));
    }
    // The per-stream memory queue drains FIFO, so a node's bytes occupy
    // [previous node's mem_end, its own mem_end] on the HBM track.
    let mut mem_cursor = vec![schedule.prologue_s; schedule.streams];
    for (i, t) in schedule.timeline.iter().enumerate() {
        let name = &g.nodes()[i].profile.name;
        let compute_track = 1 + 2 * t.stream;
        spans.push(SimSpan {
            name: name.clone(),
            track: compute_track,
            start_us: t.start_s * 1e6,
            dur_us: (t.compute_end_s - t.start_s) * 1e6,
            args: vec![
                ("node".into(), i.to_string()),
                ("tag".into(), g.nodes()[i].tag.to_string()),
            ],
        });
        if t.mem_end_s > mem_cursor[t.stream] {
            spans.push(SimSpan {
                name: format!("{name} bytes"),
                track: compute_track + 1,
                start_us: mem_cursor[t.stream] * 1e6,
                dur_us: (t.mem_end_s - mem_cursor[t.stream]) * 1e6,
                args: vec![("node".into(), i.to_string())],
            });
            mem_cursor[t.stream] = t.mem_end_s;
        }
    }
    neo_trace::chrome_trace_from(&spans, &tracks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_gpu_sim::{DeviceSpec, Efficiency, KernelProfile};

    /// Device with 1 op/s on every engine and free launches, so profiles
    /// read directly as seconds.
    fn unit_device() -> DeviceModel {
        let mut spec = DeviceSpec::a100();
        spec.kernel_launch_s = 0.0;
        spec.int32_cuda_iops = spec.int_ops_per_modmac; // modmac rate = 1/s
        spec.fp64_tcu_flops = 2.0; // MAC rate = 1/s
        spec.int8_tcu_ops = 2.0;
        spec.hbm_bytes_per_s = 1.0;
        spec.efficiency = Efficiency {
            cuda: 1.0,
            tcu_fp64: 1.0,
            tcu_int8: 1.0,
            memory: 1.0,
        };
        DeviceModel::new(spec)
    }

    fn kern(name: &str, cuda: f64, tcu: f64, mem: f64) -> KernelProfile {
        KernelProfile {
            name: name.to_string(),
            launches: 1.0,
            cuda_modmacs: cuda,
            tcu_fp64_macs: tcu,
            tcu_int8_macs: 0.0,
            bytes_read: mem,
            bytes_written: 0.0,
        }
    }

    /// Two independent cuda→tcu kernels on two streams: the second
    /// kernel's CUDA phase hides under the first kernel's TCU phase.
    #[test]
    fn independent_kernels_overlap_engines() {
        let dev = unit_device();
        let mut g = OpGraph::new();
        g.add(kern("a", 1.0, 1.0, 0.0), false, 0);
        g.add(kern("b", 1.0, 1.0, 0.0), false, 1);
        let serial = simulate(&g, &dev, SimConfig::streams(1));
        assert!((serial.makespan_s - 4.0).abs() < 1e-12);
        let dual = simulate(&g, &dev, SimConfig::streams(2));
        assert!(
            (dual.makespan_s - 3.0).abs() < 1e-12,
            "expected pipelined makespan 3, got {}",
            dual.makespan_s
        );
    }

    /// A chain must not get faster with more streams, and HBM contention
    /// splits bandwidth: two memory-only kernels on two streams take the
    /// same wall time as back-to-back.
    #[test]
    fn memory_bandwidth_is_shared() {
        let dev = unit_device();
        let mut g = OpGraph::new();
        g.add(kern("a", 0.0, 0.0, 2.0), false, 0);
        g.add(kern("b", 0.0, 0.0, 2.0), false, 1);
        for streams in [1, 2] {
            let s = simulate(&g, &dev, SimConfig::streams(streams));
            assert!(
                (s.makespan_s - 4.0).abs() < 1e-12,
                "streams {streams}: {}",
                s.makespan_s
            );
        }
    }

    /// Cross-stream dependencies wait for the producer's bytes; same-stream
    /// successors only wait for compute.
    #[test]
    fn cross_stream_dep_waits_for_bytes() {
        let dev = unit_device();
        let mut g = OpGraph::new();
        let a = g.add(kern("a", 1.0, 0.0, 3.0), false, 0);
        let b = g.add(kern("b", 1.0, 0.0, 0.0), false, 0);
        g.depend(a, b);
        // One stream: b issues when a's compute ends (t=1), bytes lag.
        let s1 = simulate(&g, &dev, SimConfig::streams(1));
        assert!((s1.timeline[1].start_s - 1.0).abs() < 1e-12);
        assert!((s1.makespan_s - 3.0).abs() < 1e-12);
    }

    /// The empty graph costs exactly the (empty) prologue.
    #[test]
    fn empty_graph_is_free() {
        let dev = unit_device();
        let g = OpGraph::new();
        let s = simulate(&g, &dev, SimConfig::streams(3));
        assert_eq!(s.makespan_s, 0.0);
        assert!(s.timeline.is_empty());
    }

    /// Dropped and duplicated completion signals are recovered without
    /// perturbing the timeline: an always-firing `SchedCompletion` plan
    /// yields a schedule bit-identical to the clean run, with every
    /// injection tallied as either a resynthesis or a dedup, and every
    /// injection matched by a recovery on the plan.
    #[test]
    fn completion_faults_recover_bit_identically() {
        use neo_fault::{FaultPlan, FaultScope, FaultSpec};
        use std::sync::Arc;

        let dev = unit_device();
        let mut g = OpGraph::new();
        let a = g.add(kern("a", 1.0, 1.0, 1.0), false, 0);
        let b = g.add(kern("b", 1.0, 0.0, 2.0), false, 1);
        let c = g.add(kern("c", 2.0, 1.0, 1.0), false, 0);
        g.depend(a, c);
        g.depend(b, c);
        let clean = simulate(&g, &dev, SimConfig::streams(2));
        assert_eq!(clean.faults, CompletionFaults::default());

        let plan =
            Arc::new(FaultPlan::new(97).with_site(FaultSite::SchedCompletion, FaultSpec::always()));
        let scope = FaultScope::install(plan.clone());
        let faulty = try_simulate(&g, &dev, SimConfig::streams(2)).unwrap();
        drop(scope);

        assert!(faulty.faults.total() > 0, "always-firing plan must inject");
        assert_eq!(
            faulty.timeline, clean.timeline,
            "completion-fault recovery must be timeline-neutral"
        );
        assert_eq!(faulty.makespan_s, clean.makespan_s);
        // Every injection was recovered — by this run or a concurrent one;
        // nothing is ever lost silently.
        assert_eq!(
            plan.recovered(FaultSite::SchedCompletion),
            plan.injected(FaultSite::SchedCompletion)
        );
    }

    /// The makespan-oracle helpers agree exactly with the schedules they
    /// wrap: `estimate_makespan` with `simulate`, `estimate_makespan_best`
    /// with `simulate_best` (same winning stream count, same makespan).
    #[test]
    fn estimate_helpers_match_schedules() {
        let dev = unit_device();
        let mut g = OpGraph::new();
        let a = g.add(kern("a", 1.0, 1.0, 1.0), false, 0);
        g.add(kern("b", 2.0, 0.0, 1.0), false, 1);
        let c = g.add(kern("c", 1.0, 2.0, 0.5), false, 2);
        g.depend(a, c);
        for streams in 1..=4 {
            let sched = simulate(&g, &dev, SimConfig::streams(streams));
            let est = estimate_makespan(&g, &dev, streams);
            assert!((est.as_secs_f64() - sched.makespan_s).abs() < 1e-12);
        }
        let best = simulate_best(&g, &dev, 4);
        let (streams, est) = estimate_makespan_best(&g, &dev, 4);
        assert_eq!(streams, best.streams);
        assert!((est.as_secs_f64() - best.makespan_s).abs() < 1e-12);
        // More streams can only help (simulate_best is monotone).
        let (_, est1) = estimate_makespan_best(&g, &dev, 1);
        assert!(est <= est1);
    }

    /// Chrome trace export mentions every kernel and every stream track.
    #[test]
    fn chrome_trace_lists_streams() {
        let dev = unit_device();
        let mut g = OpGraph::new();
        g.add(kern("alpha", 1.0, 1.0, 1.0), false, 0);
        g.add(kern("beta", 1.0, 1.0, 1.0), false, 1);
        let s = simulate(&g, &dev, SimConfig::streams(2));
        let json = chrome_trace(&g, &s);
        assert!(json.contains("alpha") && json.contains("beta"));
        assert!(json.contains("stream 0 compute") && json.contains("stream 1 HBM"));
    }
}
