//! `neo-trace` registry integration: publishes a simulated [`Schedule`]'s
//! busy-time accounting as utilization gauges.
//!
//! The event loop in [`crate::sim`] accumulates per-engine and per-stream
//! service time into [`Schedule::busy`]; [`publish_utilization`] converts
//! that into busy *fractions* of the device-active window
//! ([`Schedule::device_window_s`]) under the same `(name, labels)` schema
//! a measured wall-clock run would use:
//!
//! * `sched_engine_busy_fraction{engine="cuda"|"tcu"|"hbm"}`
//! * `sched_stream_busy_fraction{stream,engine="compute"|"hbm"}`
//! * `sched_makespan_s`, `sched_prologue_s`, `sched_streams`
//!
//! The root `tests/metrics.rs` cross-checks these gauges against the
//! analytic per-kernel component times on the 4-stream KLSS HMult
//! scenario (tolerance ≤ 1%).

use crate::sim::Schedule;

/// Publishes `sched`'s utilization gauges into the default metrics
/// registry. A no-op while the telemetry gate is off.
pub fn publish_utilization(sched: &Schedule) {
    if !neo_trace::enabled() {
        return;
    }
    // Guard the empty schedule: report zero utilization, not NaN.
    let window = sched.device_window_s();
    let frac = |busy_s: f64| if window > 0.0 { busy_s / window } else { 0.0 };

    neo_trace::gauge("sched_engine_busy_fraction", &[("engine", "cuda")])
        .set(frac(sched.busy.cuda_s));
    neo_trace::gauge("sched_engine_busy_fraction", &[("engine", "tcu")])
        .set(frac(sched.busy.tcu_s));
    neo_trace::gauge("sched_engine_busy_fraction", &[("engine", "hbm")])
        .set(frac(sched.busy.hbm_s));

    for (s, (&compute, &mem)) in sched
        .busy
        .stream_compute_s
        .iter()
        .zip(&sched.busy.stream_mem_s)
        .enumerate()
    {
        let stream = s.to_string();
        neo_trace::gauge(
            "sched_stream_busy_fraction",
            &[("stream", &stream), ("engine", "compute")],
        )
        .set(frac(compute));
        neo_trace::gauge(
            "sched_stream_busy_fraction",
            &[("stream", &stream), ("engine", "hbm")],
        )
        .set(frac(mem));
    }

    neo_trace::gauge("sched_makespan_s", &[]).set(sched.makespan_s);
    neo_trace::gauge("sched_prologue_s", &[]).set(sched.prologue_s);
    neo_trace::gauge("sched_streams", &[]).set(sched.streams as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpGraph;
    use crate::sim::{simulate, SimConfig};
    use neo_gpu_sim::{DeviceModel, DeviceSpec, Efficiency, KernelProfile};

    fn unit_device() -> DeviceModel {
        let mut spec = DeviceSpec::a100();
        spec.kernel_launch_s = 0.0;
        spec.int32_cuda_iops = spec.int_ops_per_modmac;
        spec.fp64_tcu_flops = 2.0;
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

    #[test]
    fn busy_accounting_matches_component_sums() {
        let dev = unit_device();
        let mut g = OpGraph::new();
        let a = g.add(kern("a", 1.0, 1.0, 1.0), false, 0);
        g.add(kern("b", 2.0, 1.0, 3.0), false, 1);
        let c = g.add(kern("c", 1.0, 2.0, 0.5), false, 0);
        g.depend(a, c);
        let s = simulate(&g, &dev, SimConfig::streams(2));
        // The exclusive engines are work-conserving: total service time
        // equals the sum of the per-kernel phase durations.
        assert!((s.busy.cuda_s - 4.0).abs() < 1e-9, "cuda {}", s.busy.cuda_s);
        assert!((s.busy.tcu_s - 4.0).abs() < 1e-9, "tcu {}", s.busy.tcu_s);
        assert!((s.busy.hbm_s - 4.5).abs() < 1e-9, "hbm {}", s.busy.hbm_s);
        let per_stream: f64 = s.busy.stream_compute_s.iter().sum();
        assert!((per_stream - 8.0).abs() < 1e-9);
        let mem_total: f64 = s.busy.stream_mem_s.iter().sum();
        assert!((mem_total - s.busy.hbm_s).abs() < 1e-9);
    }

    #[test]
    fn publish_sets_gauges_within_the_window() {
        let dev = unit_device();
        let mut g = OpGraph::new();
        g.add(kern("a", 1.0, 1.0, 1.0), false, 0);
        g.add(kern("b", 1.0, 1.0, 1.0), false, 1);
        let s = simulate(&g, &dev, SimConfig::streams(2));
        let (snap, _) = neo_trace::record(|| {
            publish_utilization(&s);
            neo_trace::registry().snapshot()
        });
        let cuda = snap
            .gauge("sched_engine_busy_fraction", &[("engine", "cuda")])
            .expect("gauge");
        assert!(cuda > 0.0 && cuda <= 1.0 + 1e-9, "cuda fraction {cuda}");
        let s0 = snap
            .gauge(
                "sched_stream_busy_fraction",
                &[("stream", "0"), ("engine", "compute")],
            )
            .expect("gauge");
        assert!(s0 > 0.0 && s0 <= 1.0 + 1e-9);
        assert!(snap.gauge("sched_makespan_s", &[]).expect("gauge") > 0.0);
    }
}
