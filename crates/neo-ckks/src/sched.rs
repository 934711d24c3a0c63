//! Kernel-DAG builders: the CKKS pipelines as [`OpGraph`]s.
//!
//! Each builder appends the kernels of one CKKS operation (HMult,
//! HRotate, Rescale, KeySwitch, bootstrap segments) to an [`OpGraph`]
//! *with their real data dependencies* — e.g. the β Mod Up BConvs of one
//! key switch are mutually independent, and the element-wise prologue of
//! an HMult is a fusable chain. These graphs are the only description of
//! an operation's work: [`crate::cost`] prices them on the `neo-sched`
//! simulator for the paper artifacts, and the planner and serve
//! admission simulate the same graphs.

use crate::bootstrap::TraceStep;
use crate::cost::{CostConfig, Operation};
use crate::params::{CkksParams, KsMethod};
use neo_kernels::{
    bconv, elementwise, ip, ntt, BconvGeom, ElemGeom, IpGeom, KernelClass, MatmulTarget, NttGeom,
};
use neo_sched::{NodeId, OpGraph};

/// Appends `profile` classified as `class`, depending on `deps`.
fn push(
    g: &mut OpGraph,
    profile: neo_gpu_sim::KernelProfile,
    class: KernelClass,
    tag: usize,
    deps: &[NodeId],
) -> NodeId {
    let id = g.add(profile, class.fusable(), tag);
    for &d in deps {
        g.depend(d, id);
    }
    id
}

/// The IP kernel profile under a config (matrix vs element-wise, with
/// Neo's adaptive target rule, else CUDA cores).
pub(crate) fn ip_profile(geom: &IpGeom, cfg: &CostConfig) -> neo_gpu_sim::KernelProfile {
    if !cfg.ip_matrix {
        return ip::profile_original(geom);
    }
    let target = if cfg.ip_adaptive {
        ip::neo_target(geom)
    } else {
        MatmulTarget::Cuda
    };
    ip::profile_matrix(geom, target)
}

/// Appends one KeySwitch at `level` to `g`; the first kernel (the input
/// INTT) depends on `after`, and the returned node is the exit (the Mod
/// Down ModADD).
pub fn append_keyswitch(
    g: &mut OpGraph,
    p: &CkksParams,
    level: usize,
    cfg: &CostConfig,
    after: &[NodeId],
    tag: usize,
) -> NodeId {
    let n = p.n();
    let bs = p.batch_size;
    let w = p.word_size;
    let k = p.special;
    let alpha = p.alpha();
    let beta = p.beta(level);
    let limbs_qp = level + 1 + k;
    let bconv_profile = |geom: &BconvGeom| {
        if cfg.bconv_matrix {
            bconv::profile_matrix(geom, cfg.bconv_target)
        } else {
            bconv::profile_original(geom)
        }
    };
    // INTT of the keyswitch input (NTT-resident convention).
    let intt_in = push(
        g,
        ntt::profile(
            &NttGeom {
                n,
                count: bs * (level + 1),
                w,
            },
            cfg.ntt_alg,
            cfg.ntt_target,
        ),
        KernelClass::Ntt,
        tag,
        after,
    );
    // Method-specific pipeline; `tails` are the nodes Mod Down reads.
    let tails: Vec<NodeId> = match cfg.method {
        KsMethod::Hybrid => {
            let geom = BconvGeom {
                n,
                batch: bs,
                alpha,
                alpha_out: limbs_qp - alpha,
                w_src: w,
                w_dst: w,
            };
            // Mod Up: β independent BConvs, one per digit.
            let modup: Vec<NodeId> = (0..beta)
                .map(|_| push(g, bconv_profile(&geom), KernelClass::Bconv, tag, &[intt_in]))
                .collect();
            let ntt_up = push(
                g,
                ntt::profile(
                    &NttGeom {
                        n,
                        count: bs * beta * limbs_qp,
                        w,
                    },
                    cfg.ntt_alg,
                    cfg.ntt_target,
                ),
                KernelClass::Ntt,
                tag,
                &modup,
            );
            let ipg = IpGeom {
                n,
                batch: bs,
                alpha_p: limbs_qp,
                beta,
                beta_t: 1,
                components: 2,
                w,
            };
            let ip_n = push(g, ip_profile(&ipg, cfg), KernelClass::Ip, tag, &[ntt_up]);
            let intt_groups = if cfg.hybrid_intt_per_digit { beta } else { 1 };
            let intt_out = push(
                g,
                ntt::profile(
                    &NttGeom {
                        n,
                        count: bs * 2 * intt_groups * limbs_qp,
                        w,
                    },
                    cfg.ntt_alg,
                    cfg.ntt_target,
                ),
                KernelClass::Ntt,
                tag,
                &[ip_n],
            );
            vec![intt_out]
        }
        KsMethod::Klss => {
            let kc = p.klss.expect("KLSS cost requires a KLSS configuration");
            let wt = kc.word_size_t;
            let alpha_p = p.alpha_prime();
            let beta_t = p.beta_tilde(level);
            let geom = BconvGeom {
                n,
                batch: bs,
                alpha,
                alpha_out: alpha_p,
                w_src: w,
                w_dst: wt,
            };
            // Mod Up into R_T: β independent BConvs.
            let modup: Vec<NodeId> = (0..beta)
                .map(|_| push(g, bconv_profile(&geom), KernelClass::Bconv, tag, &[intt_in]))
                .collect();
            let ntt_t = push(
                g,
                ntt::profile(
                    &NttGeom {
                        n,
                        count: bs * beta * alpha_p,
                        w: wt,
                    },
                    cfg.ntt_alg,
                    cfg.ntt_target,
                ),
                KernelClass::Ntt,
                tag,
                &modup,
            );
            let ipg = IpGeom {
                n,
                batch: bs,
                alpha_p,
                beta,
                beta_t,
                components: 2,
                w: wt,
            };
            let ip_n = push(g, ip_profile(&ipg, cfg), KernelClass::Ip, tag, &[ntt_t]);
            let intt_t = push(
                g,
                ntt::profile(
                    &NttGeom {
                        n,
                        count: bs * 2 * beta_t * alpha_p,
                        w: wt,
                    },
                    cfg.ntt_alg,
                    cfg.ntt_target,
                ),
                KernelClass::Ntt,
                tag,
                &[ip_n],
            );
            // Recover Limbs: 2β̃ independent BConvs back into R_Q.
            let alpha_tilde = kc.alpha_tilde.min(limbs_qp);
            let rg = BconvGeom {
                n,
                batch: bs,
                alpha: alpha_p,
                alpha_out: alpha_tilde,
                w_src: wt,
                w_dst: w,
            };
            (0..2 * beta_t)
                .map(|_| push(g, bconv_profile(&rg), KernelClass::Bconv, tag, &[intt_t]))
                .collect()
        }
    };
    // Mod Down: two independent BConvs of the special limbs, then the
    // correction arithmetic (a fusable ModMUL → ModADD chain).
    let mdg = BconvGeom {
        n,
        batch: bs,
        alpha: k,
        alpha_out: level + 1,
        w_src: w,
        w_dst: w,
    };
    let md0 = push(g, bconv_profile(&mdg), KernelClass::Bconv, tag, &tails);
    let md1 = push(g, bconv_profile(&mdg), KernelClass::Bconv, tag, &tails);
    let mm = push(
        g,
        elementwise::profile_modmul(&ElemGeom::poly(n, 2 * (level + 1), bs)),
        KernelClass::Elementwise,
        tag,
        &[md0, md1],
    );
    push(
        g,
        elementwise::profile_modadd(&ElemGeom::poly(n, 2 * (level + 1), bs)),
        KernelClass::Elementwise,
        tag,
        &[mm],
    )
}

/// Appends one Rescale running at `level` (sequential INTT → NTT →
/// ModMUL → ModADD chain); returns the exit node.
fn append_rescale(
    g: &mut OpGraph,
    p: &CkksParams,
    level: usize,
    cfg: &CostConfig,
    after: &[NodeId],
    tag: usize,
) -> NodeId {
    let n = p.n();
    let bs = p.batch_size;
    let intt = push(
        g,
        ntt::profile(
            &NttGeom {
                n,
                count: bs * 2,
                w: p.word_size,
            },
            cfg.ntt_alg,
            cfg.ntt_target,
        ),
        KernelClass::Ntt,
        tag,
        after,
    );
    let bcast = push(
        g,
        ntt::profile(
            &NttGeom {
                n,
                count: bs * 2 * level.max(1),
                w: p.word_size,
            },
            cfg.ntt_alg,
            cfg.ntt_target,
        ),
        KernelClass::Ntt,
        tag,
        &[intt],
    );
    let mm = push(
        g,
        elementwise::profile_modmul(&ElemGeom::poly(n, 2 * level.max(1), bs)),
        KernelClass::Elementwise,
        tag,
        &[bcast],
    );
    push(
        g,
        elementwise::profile_modadd(&ElemGeom::poly(n, 2 * level.max(1), bs)),
        KernelClass::Elementwise,
        tag,
        &[mm],
    )
}

/// Appends one batched CKKS operation at `level` to `g`; its first
/// kernel depends on `after`, and the returned node is the operation's
/// exit.
pub fn append_op(
    g: &mut OpGraph,
    p: &CkksParams,
    level: usize,
    op: Operation,
    cfg: &CostConfig,
    after: &[NodeId],
    tag: usize,
) -> NodeId {
    let n = p.n();
    let bs = p.batch_size;
    let limbs = level + 1;
    match op {
        Operation::HMult => {
            // Tensor product: a fusable ModMUL → ModADD chain.
            let mm = push(
                g,
                elementwise::profile_modmul(&ElemGeom::poly(n, 4 * limbs, bs)),
                KernelClass::Elementwise,
                tag,
                after,
            );
            let ma = push(
                g,
                elementwise::profile_modadd(&ElemGeom::poly(n, 3 * limbs, bs)),
                KernelClass::Elementwise,
                tag,
                &[mm],
            );
            let ks = append_keyswitch(g, p, level, cfg, &[ma], tag);
            push(
                g,
                elementwise::profile_modadd(&ElemGeom::poly(n, 2 * limbs, bs)),
                KernelClass::Elementwise,
                tag,
                &[ks],
            )
        }
        Operation::HRotate => {
            let auto = push(
                g,
                elementwise::profile_auto(&ElemGeom::poly(n, 2 * limbs, bs)),
                KernelClass::Elementwise,
                tag,
                after,
            );
            let ks = append_keyswitch(g, p, level, cfg, &[auto], tag);
            push(
                g,
                elementwise::profile_modadd(&ElemGeom::poly(n, limbs, bs)),
                KernelClass::Elementwise,
                tag,
                &[ks],
            )
        }
        Operation::PMult => push(
            g,
            elementwise::profile_modmul(&ElemGeom::poly(n, 2 * limbs, bs)),
            KernelClass::Elementwise,
            tag,
            after,
        ),
        Operation::HAdd => push(
            g,
            elementwise::profile_modadd(&ElemGeom::poly(n, 2 * limbs, bs)),
            KernelClass::Elementwise,
            tag,
            after,
        ),
        Operation::PAdd => push(
            g,
            elementwise::profile_modadd(&ElemGeom::poly(n, limbs, bs)),
            KernelClass::Elementwise,
            tag,
            after,
        ),
        Operation::Rescale => append_rescale(g, p, level, cfg, after, tag),
        Operation::DoubleRescale => {
            let first = append_rescale(g, p, level, cfg, after, tag);
            append_rescale(g, p, level.saturating_sub(1), cfg, &[first], tag)
        }
    }
}

/// The kernel DAG of one batched CKKS operation at `level`.
pub fn op_graph(p: &CkksParams, level: usize, op: Operation, cfg: &CostConfig) -> OpGraph {
    let mut g = OpGraph::new();
    append_op(&mut g, p, level, op, cfg, &[], 0);
    g
}

/// The kernel DAG of one KeySwitch at `level`.
pub fn keyswitch_graph(p: &CkksParams, level: usize, cfg: &CostConfig) -> OpGraph {
    let mut g = OpGraph::new();
    append_keyswitch(&mut g, p, level, cfg, &[], 0);
    g
}

/// `copies` independent instances of one operation — the kernel DAG of a
/// batch of unrelated ciphertext ops, which is what multi-stream
/// execution overlaps. Instance `i` carries tag `i`.
pub fn batch_op_graph(
    p: &CkksParams,
    level: usize,
    op: Operation,
    cfg: &CostConfig,
    copies: usize,
) -> OpGraph {
    let mut g = OpGraph::new();
    for tag in 0..copies {
        append_op(&mut g, p, level, op, cfg, &[], tag);
    }
    g
}

/// The kernel DAG of a workload trace segment (e.g. a
/// [`crate::bootstrap::BootstrapPlan`] stage): each step contributes
/// `count` parallel operation instances, and every instance of a step
/// depends on all instances of the previous step (the BSGS accumulation
/// barrier).
pub fn trace_graph(p: &CkksParams, steps: &[TraceStep], cfg: &CostConfig) -> OpGraph {
    let mut g = OpGraph::new();
    let mut prev_exits: Vec<NodeId> = Vec::new();
    let mut tag = 0usize;
    for step in steps {
        let exits: Vec<NodeId> = (0..step.count.max(1))
            .map(|_| {
                let exit = append_op(&mut g, p, step.level, step.op, cfg, &prev_exits, tag);
                tag += 1;
                exit
            })
            .collect();
        prev_exits = exits;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapPlan;
    use crate::params::ParamSet;

    #[test]
    fn keyswitch_graph_has_modup_parallelism() {
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let g = keyswitch_graph(&p, 35, &cfg);
        // The β Mod Up BConvs all depend on the input INTT only: node 0
        // must have β successors.
        assert_eq!(g.succs(0).len(), p.beta(35));
        // And the graph is sparser than a chain would suggest: some node
        // has more than one predecessor (the Mod Up join).
        assert!((0..g.len()).any(|i| g.preds(i).len() > 1));
    }

    #[test]
    fn hmult_fusion_merges_tensor_product_chain() {
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let g = op_graph(&p, 35, Operation::HMult, &cfg);
        let (fused, stats) = g.fuse_elementwise();
        // The ModMUL → ModADD prologue and the Mod Down ModMUL → ModADD
        // chain each contract; total work is preserved.
        assert!(stats.nodes_after < stats.nodes_before);
        assert!(stats.launches_after < stats.launches_before);
        assert!(stats.bytes_after < stats.bytes_before);
        let (a, b) = (fused.total_profile(), g.total_profile());
        assert_eq!(a.cuda_modmacs, b.cuda_modmacs);
        assert_eq!(a.tcu_fp64_macs, b.tcu_fp64_macs);
    }

    #[test]
    fn batch_graph_instances_are_independent() {
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let single = op_graph(&p, 20, Operation::HMult, &cfg);
        let batch = batch_op_graph(&p, 20, Operation::HMult, &cfg, 4);
        assert_eq!(batch.len(), 4 * single.len());
        // No edge crosses instances: edge count is exactly 4× the
        // single-instance edge count.
        assert_eq!(batch.edge_count(), 4 * single.edge_count());
    }

    #[test]
    fn bootstrap_segment_graph_builds() {
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let plan = BootstrapPlan::try_standard(&p).unwrap();
        let steps = plan.trace();
        // First CTS stage: HRotate×r, PMult×radix, HAdd×radix, Rescale.
        let g = trace_graph(&p, &steps[..4], &cfg);
        assert!(g.len() > steps[0].count);
        assert!(g.edge_count() > g.len() - 1, "barriers add cross edges");
    }
}
