//! Property-based tests for the DAG simulator and fusion pass: lower and
//! upper bounds on the makespan, monotonicity of the best-of-N schedule,
//! exactness of the one-stream collapse, and fusion invariants — all over
//! randomized forward-edge DAGs with randomized kernel work counts.

use neo_gpu_sim::{DeviceModel, KernelProfile};
use neo_sched::{simulate, simulate_best, NodeId, OpGraph, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random forward-edge DAG with randomized kernel work counts (sizes
/// chosen so times land in the microsecond-to-millisecond range on the
/// A100 model; magnitudes are irrelevant to the invariants). Roughly a
/// quarter of the nodes are pure-memory or pure-compute edge cases.
fn random_graph(seed: u64) -> OpGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1usize..24);
    let mut g = OpGraph::new();
    for i in 0..n {
        let (mut c, mut t, mut m) = (
            rng.gen_range(0.0..1e12f64),
            rng.gen_range(0.0..1e12f64),
            rng.gen_range(0.0..1e10f64),
        );
        match rng.gen_range(0u8..8) {
            0 => (c, t) = (0.0, 0.0), // pure memory
            1 => m = 0.0,             // pure compute
            _ => {}
        }
        let p = KernelProfile::new(format!("k{i}"))
            .cuda_modmacs(c)
            .tcu_fp64_macs(t)
            .bytes(m, 0.5 * m)
            .launches(1.0);
        g.add(p, rng.gen::<bool>(), i);
    }
    for _ in 0..rng.gen_range(0usize..48) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a < b {
            g.depend(NodeId(a), NodeId(b));
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any simulated schedule respects the critical-path and HBM lower
    /// bounds; the best-of-N schedule never loses to serial.
    #[test]
    fn makespan_respects_bounds(seed in any::<u64>(), streams in 1usize..6) {
        let g = random_graph(seed);
        let dev = DeviceModel::a100();
        let sim = simulate(&g, &dev, SimConfig::streams(streams));
        let slack = 1e-9 * sim.makespan_s.max(1.0);
        prop_assert!(sim.makespan_s >= g.critical_path_s(&dev) - slack);
        prop_assert!(sim.makespan_s >= g.memory_floor_s(&dev) - slack);
        let serial = simulate(&g, &dev, SimConfig::streams(1)).makespan_s;
        let best = simulate_best(&g, &dev, streams).makespan_s;
        prop_assert!(best <= serial + slack);
    }

    /// `simulate_best` is monotone non-increasing in the stream budget.
    #[test]
    fn best_makespan_is_monotone_in_streams(seed in any::<u64>()) {
        let g = random_graph(seed);
        let dev = DeviceModel::a100();
        let mut prev = f64::INFINITY;
        for max_streams in 1..=6 {
            let best = simulate_best(&g, &dev, max_streams).makespan_s;
            prop_assert!(best <= prev + 1e-9 * best.max(1.0),
                "streams {max_streams}: {best} > {prev}");
            prev = best;
        }
    }

    /// One stream collapses to the serial model `serial_time_s`,
    /// `Σlaunches·launch_s + max(Σcuda+Σtcu, Σmem)`, for *any* DAG — the
    /// dependency structure is irrelevant when everything serializes.
    #[test]
    fn one_stream_is_exact_on_any_dag(seed in any::<u64>()) {
        let g = random_graph(seed);
        let dev = DeviceModel::a100();
        let serial = dev.serial_time_s(&g.profiles());
        let sim = simulate(&g, &dev, SimConfig::streams(1)).makespan_s;
        prop_assert!((sim - serial).abs() <= 1e-9 * serial.max(1e-30),
            "simulated {sim} vs serial {serial}");
    }

    /// Fusion preserves compute work and never adds nodes, launches, or
    /// bytes; the fused graph still satisfies the one-stream collapse.
    #[test]
    fn fusion_invariants(seed in any::<u64>()) {
        let g = random_graph(seed);
        let dev = DeviceModel::a100();
        let (fused, stats) = g.fuse_elementwise();
        prop_assert!(stats.nodes_after <= stats.nodes_before);
        prop_assert!(stats.launches_after <= stats.launches_before + 1e-9);
        prop_assert!(stats.bytes_after <= stats.bytes_before + 1e-9);
        let before = g.total_profile();
        let after = fused.total_profile();
        let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        prop_assert!(rel(before.cuda_modmacs, after.cuda_modmacs));
        prop_assert!(rel(before.tcu_fp64_macs, after.tcu_fp64_macs));
        prop_assert!(rel(before.tcu_int8_macs, after.tcu_int8_macs));
        let serial = dev.serial_time_s(&fused.profiles());
        let sim = simulate(&fused, &dev, SimConfig::streams(1)).makespan_s;
        prop_assert!((sim - serial).abs() <= 1e-9 * serial.max(1e-30));
    }
}
