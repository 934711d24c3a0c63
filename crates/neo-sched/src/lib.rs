//! # neo-sched — kernel-DAG scheduling for the Neo reproduction
//!
//! The device model's scheduler: two layers over one graph
//! representation. Nothing here runs on the host; the batch executor
//! that runs real ciphertexts is `neo_ckks::BatchProgram::execute`.
//!
//! * [`graph`] — [`OpGraph`], a kernel-level task DAG whose nodes carry
//!   [`neo_gpu_sim::KernelProfile`] work counts (CUDA-FP64 seconds, TCU
//!   seconds, HBM bytes, launch overhead via the device model) and whose
//!   edges are data dependencies, plus the element-wise **fusion
//!   rewrite** ([`OpGraph::fuse_elementwise`]). Builders that capture
//!   the CKKS pipelines (hmult / KLSS key switch / rescale / rotate /
//!   bootstrap segments) as graphs live in `neo_ckks::sched`.
//! * [`sim`] — a **discrete-event multi-stream simulator**: a list
//!   scheduler maps the DAG onto N streams; CUDA and TCU phases of
//!   different streams overlap on exclusive engines while concurrently
//!   resident traffic shares the HBM bandwidth. It is the workspace's
//!   one timing model: the paper artifacts (`neo_ckks::cost`), the
//!   planner, and `neo_serve::price_request`/`price_batch` (which only
//!   `serve_bench` and `bench_guard` call, outside the serving path)
//!   price on it. On one stream it
//!   collapses to [`neo_gpu_sim::DeviceModel::serial_time_s`]
//!   (property-tested). Simulated timelines export as Chrome traces via
//!   [`sim::chrome_trace`].

pub mod graph;
pub mod metrics;
pub mod sim;

pub use graph::{FusionStats, NodeId, OpGraph, OpNode};
pub use metrics::publish_utilization;
pub use sim::{
    chrome_trace, estimate_makespan, estimate_makespan_best, simulate, simulate_best, try_simulate,
    CompletionFaults, EngineBusy, NodeTimeline, Schedule, SimConfig,
};
