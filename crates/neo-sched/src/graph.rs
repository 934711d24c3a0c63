//! The kernel-level operation DAG ([`OpGraph`]) and the fusion rewrite.
//!
//! Nodes carry one [`KernelProfile`] each — the exact work counts the
//! device model prices — plus a fusability flag (element-wise kernels can
//! merge with adjacent element-wise kernels) and an opaque `tag` that
//! groups the kernels of one logical ciphertext operation for reporting.
//! Edges are data dependencies. Edges must point forward in insertion
//! order, which keeps the graph acyclic by construction and makes
//! insertion order a valid topological order.

use neo_gpu_sim::{DeviceModel, KernelProfile};

/// Handle to one node of an [`OpGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// One kernel instance in the DAG.
#[derive(Debug, Clone)]
pub struct OpNode {
    /// Exact work counts of this kernel invocation.
    pub profile: KernelProfile,
    /// Whether the fusion pass may merge this node with adjacent fusable
    /// nodes (true for the element-wise family: ModMUL/ModADD/AUTO).
    pub fusable: bool,
    /// Logical-operation index (e.g. which ciphertext op of a batch this
    /// kernel belongs to). Reporting only.
    pub tag: usize,
}

/// Statistics of one [`OpGraph::fuse_elementwise`] rewrite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionStats {
    /// Node count before the rewrite.
    pub nodes_before: usize,
    /// Node count after the rewrite.
    pub nodes_after: usize,
    /// Total kernel launches before.
    pub launches_before: f64,
    /// Total kernel launches after.
    pub launches_after: f64,
    /// Total global-memory traffic before, in bytes.
    pub bytes_before: f64,
    /// Total global-memory traffic after (intermediate tensors of fused
    /// chains stay in registers), in bytes.
    pub bytes_after: f64,
}

/// A kernel-level task DAG.
#[derive(Debug, Clone, Default)]
pub struct OpGraph {
    nodes: Vec<OpNode>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl OpGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Appends a kernel node.
    pub fn add(&mut self, profile: KernelProfile, fusable: bool, tag: usize) -> NodeId {
        self.nodes.push(OpNode {
            profile,
            fusable,
            tag,
        });
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        NodeId(self.nodes.len() - 1)
    }

    /// Adds the data dependency `from → to` (duplicate edges are ignored).
    ///
    /// # Panics
    ///
    /// Panics unless `from` was inserted before `to` — the forward-edge
    /// invariant that keeps the graph acyclic.
    pub fn depend(&mut self, from: NodeId, to: NodeId) {
        assert!(
            from.0 < to.0,
            "edges must point forward in insertion order ({} -> {})",
            from.0,
            to.0
        );
        assert!(to.0 < self.nodes.len(), "unknown node {}", to.0);
        if !self.succs[from.0].contains(&to.0) {
            self.succs[from.0].push(to.0);
            self.preds[to.0].push(from.0);
        }
    }

    /// The nodes, in insertion (= topological) order.
    pub fn nodes(&self) -> &[OpNode] {
        &self.nodes
    }

    /// Predecessor indices of node `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Successor indices of node `i`.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// The kernel profiles in topological order (the sequence
    /// [`DeviceModel::serial_time_s`] prices on one stream).
    pub fn profiles(&self) -> Vec<KernelProfile> {
        self.nodes.iter().map(|n| n.profile.clone()).collect()
    }

    /// Sum of all node profiles (total work of the graph).
    pub fn total_profile(&self) -> KernelProfile {
        let mut sum = KernelProfile::new("graph-total");
        for n in &self.nodes {
            sum += n.profile.clone();
        }
        sum.named("graph-total")
    }

    /// Critical-path lower bound on any schedule of this graph, in
    /// seconds: the launch prologue (every kernel dispatched once,
    /// CUDA-graph style) plus the longest dependency path weighted by
    /// per-node compute time (CUDA + TCU phases; memory overlaps compute
    /// and is bounded separately by [`Self::memory_floor_s`]).
    pub fn critical_path_s(&self, dev: &DeviceModel) -> f64 {
        let mut dist = vec![0.0f64; self.nodes.len()];
        let mut longest = 0.0f64;
        for (i, n) in self.nodes.iter().enumerate() {
            let (c, t, _, _) = dev.component_times(&n.profile);
            let from_preds = self.preds[i]
                .iter()
                .map(|&p| dist[p])
                .fold(0.0f64, f64::max);
            dist[i] = from_preds + c + t;
            longest = longest.max(dist[i]);
        }
        self.launch_prologue_s(dev) + longest
    }

    /// HBM lower bound on any schedule, in seconds: the launch prologue
    /// plus the total memory traffic at full bandwidth (the shared-HBM
    /// resource bound).
    pub fn memory_floor_s(&self, dev: &DeviceModel) -> f64 {
        let total = self.total_profile();
        self.launch_prologue_s(dev) + total.total_bytes() / dev.spec().mem_rate()
    }

    /// Launch prologue, in seconds: the whole DAG is dispatched up front
    /// (CUDA-graph style), at one serial host launch per counted launch.
    pub fn launch_prologue_s(&self, dev: &DeviceModel) -> f64 {
        self.total_profile().launches * dev.spec().kernel_launch_s
    }

    /// The fusion rewrite: contracts every chain `u → v` where both ends
    /// are fusable, `u`'s only successor is `v`, and `v`'s only
    /// predecessor is `u` — the element-wise chains (e.g. ModMUL →
    /// ModADD) that a fused kernel executes in one launch. The merged
    /// profile keeps all compute, drops the intermediate tensor's
    /// write+read traffic (it stays in registers), and collapses the
    /// launch count.
    pub fn fuse_elementwise(&self) -> (OpGraph, FusionStats) {
        let n = self.nodes.len();
        // prev_in_chain[v] = u marks the contraction edge u -> v.
        let mut prev_in_chain: Vec<Option<usize>> = vec![None; n];
        for u in 0..n {
            if !self.nodes[u].fusable || self.succs[u].len() != 1 {
                continue;
            }
            let v = self.succs[u][0];
            if self.nodes[v].fusable && self.preds[v].len() == 1 {
                prev_in_chain[v] = Some(u);
            }
        }
        // Heads open chains; walk each chain accumulating the fused
        // profile. Chain heads appear before their members (forward-edge
        // invariant), so emitting groups in head order preserves it.
        let mut group_of: Vec<usize> = vec![usize::MAX; n];
        let mut fused = OpGraph::new();
        for i in 0..n {
            if prev_in_chain[i].is_some() {
                continue; // interior of a chain, folded into its head
            }
            let mut profile = self.nodes[i].profile.clone();
            group_of[i] = fused.len();
            let mut cur = i;
            while let Some(&next) = self.succs[cur]
                .first()
                .filter(|&&next| prev_in_chain[next] == Some(cur))
            {
                profile = fuse_profiles(&profile, &self.nodes[next].profile);
                group_of[next] = fused.len();
                cur = next;
            }
            fused.add(profile, self.nodes[i].fusable, self.nodes[i].tag);
        }
        for u in 0..n {
            for &v in &self.succs[u] {
                let (gu, gv) = (group_of[u], group_of[v]);
                if gu != gv {
                    fused.depend(NodeId(gu), NodeId(gv));
                }
            }
        }
        let (before, after) = (self.total_profile(), fused.total_profile());
        let stats = FusionStats {
            nodes_before: n,
            nodes_after: fused.len(),
            launches_before: before.launches,
            launches_after: after.launches,
            bytes_before: before.total_bytes(),
            bytes_after: after.total_bytes(),
        };
        (fused, stats)
    }
}

/// Merges two adjacent kernels into one: compute adds up, the
/// intermediate tensor (`a`'s output consumed by `b`) stays on chip, and
/// the pair costs a single launch wave.
fn fuse_profiles(a: &KernelProfile, b: &KernelProfile) -> KernelProfile {
    let intermediate = a.bytes_written.min(b.bytes_read);
    KernelProfile::new(format!("{}+{}", a.name, b.name))
        .cuda_modmacs(a.cuda_modmacs + b.cuda_modmacs)
        .tcu_fp64_macs(a.tcu_fp64_macs + b.tcu_fp64_macs)
        .tcu_int8_macs(a.tcu_int8_macs + b.tcu_int8_macs)
        .bytes(
            a.bytes_read + b.bytes_read - intermediate,
            a.bytes_written + b.bytes_written - intermediate,
        )
        .launches(a.launches.max(b.launches))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(name: &str, macs: f64, bytes: f64) -> KernelProfile {
        KernelProfile::new(name)
            .cuda_modmacs(macs)
            .bytes(bytes, bytes)
            .launches(1.0)
    }

    #[test]
    fn forward_edges_and_profiles() {
        let mut g = OpGraph::new();
        let a = g.add(elem("a", 10.0, 8.0), true, 0);
        let b = g.add(elem("b", 20.0, 8.0), true, 0);
        g.depend(a, b);
        assert_eq!(g.len(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.profiles()[1].cuda_modmacs, 20.0);
        assert_eq!(g.total_profile().cuda_modmacs, 30.0);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn backward_edge_rejected() {
        let mut g = OpGraph::new();
        let a = g.add(elem("a", 1.0, 1.0), true, 0);
        let b = g.add(elem("b", 1.0, 1.0), true, 0);
        g.depend(b, a);
    }

    #[test]
    fn fusion_contracts_linear_chain() {
        // a -> b -> c all fusable: one node, intermediate traffic gone.
        let mut g = OpGraph::new();
        let a = g.add(elem("a", 10.0, 64.0), true, 0);
        let b = g.add(elem("b", 20.0, 64.0), true, 0);
        let c = g.add(elem("c", 30.0, 64.0), true, 0);
        g.depend(a, b);
        g.depend(b, c);
        let (f, stats) = g.fuse_elementwise();
        assert_eq!(f.len(), 1);
        assert_eq!(stats.nodes_after, 1);
        assert_eq!(f.nodes()[0].profile.cuda_modmacs, 60.0);
        assert_eq!(stats.launches_after, 1.0);
        // Two intermediates (a->b, b->c) of 64 bytes each eliminated from
        // both the write and the read side.
        assert_eq!(stats.bytes_before - stats.bytes_after, 4.0 * 64.0);
    }

    #[test]
    fn fusion_stops_at_non_fusable_and_fanout() {
        // a(elem) -> ntt -> b(elem) -> {c, d}: nothing merges except
        // nothing — ntt is not fusable and b has two successors.
        let mut g = OpGraph::new();
        let a = g.add(elem("a", 1.0, 8.0), true, 0);
        let ntt = g.add(elem("ntt", 5.0, 8.0), false, 0);
        let b = g.add(elem("b", 1.0, 8.0), true, 0);
        let c = g.add(elem("c", 1.0, 8.0), true, 0);
        let d = g.add(elem("d", 1.0, 8.0), true, 0);
        g.depend(a, ntt);
        g.depend(ntt, b);
        g.depend(b, c);
        g.depend(b, d);
        let (f, stats) = g.fuse_elementwise();
        assert_eq!(f.len(), 5);
        assert_eq!(stats.launches_before, stats.launches_after);
    }

    #[test]
    fn fusion_preserves_compute_work() {
        let mut g = OpGraph::new();
        let mut prev: Option<NodeId> = None;
        for i in 0..6 {
            let id = g.add(elem(&format!("k{i}"), 7.0, 16.0), i % 2 == 0, 0);
            if let Some(p) = prev {
                g.depend(p, id);
            }
            prev = Some(id);
        }
        let (f, _) = g.fuse_elementwise();
        assert_eq!(
            f.total_profile().cuda_modmacs,
            g.total_profile().cuda_modmacs
        );
        assert!(f.total_profile().total_bytes() <= g.total_profile().total_bytes());
    }

    #[test]
    fn critical_path_bounds() {
        let dev = DeviceModel::a100();
        let mut g = OpGraph::new();
        let a = g.add(elem("a", 1e9, 0.0), false, 0);
        let b = g.add(elem("b", 1e9, 0.0), false, 0);
        let c = g.add(elem("c", 1e9, 0.0), false, 0);
        g.depend(a, c);
        g.depend(b, c);
        // Longest path is 2 nodes deep, not 3.
        let (ct, _, _, _) = dev.component_times(&elem("a", 1e9, 0.0));
        let cp = g.critical_path_s(&dev);
        assert!((cp - (g.launch_prologue_s(&dev) + 2.0 * ct)).abs() < 1e-12);
    }
}
