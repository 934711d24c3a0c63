//! Fig. 3 — time to compute a 36-bit / 48-bit modular matrix
//! multiplication of shape `2^19 × 16 × 16` with INT8 vs FP64 tensor-core
//! components, broken into split / matmul / merge steps.

use neo_bench::emit;
use neo_gpu_sim::{DeviceModel, KernelProfile};
use neo_tcu::{Fp64SplitScheme, GemmDims, Int8SplitScheme, FP64_FRAGMENT, INT8_FRAGMENTS};
use neo_trace::json;

const M: usize = 1 << 19;
const NK: usize = 16;
const SPLIT_COST: f64 = 0.25;
const MERGE_COST: f64 = 0.5;

struct Breakdown {
    split_us: f64,
    matmul_us: f64,
    merge_us: f64,
}

impl Breakdown {
    fn total(&self) -> f64 {
        self.split_us + self.matmul_us + self.merge_us
    }
}

fn fp64_breakdown(dev: &DeviceModel, ws: u32) -> Breakdown {
    let scheme = Fp64SplitScheme::for_word_size(ws);
    let dims = GemmDims::new(M, NK, NK);
    let split = KernelProfile::new("split").cuda_modmacs(
        SPLIT_COST * (scheme.a_planes() + scheme.b_planes()) as f64 * (M * NK) as f64,
    );
    let mm = KernelProfile::new("mm")
        .tcu_fp64_macs((scheme.partial_products() as u64 * dims.padded_macs(FP64_FRAGMENT)) as f64);
    let merge = KernelProfile::new("merge")
        .cuda_modmacs(MERGE_COST * scheme.partial_products() as f64 * (M * NK) as f64);
    Breakdown {
        split_us: dev.kernel_time_us(&split),
        matmul_us: dev.kernel_time_us(&mm),
        merge_us: dev.kernel_time_us(&merge),
    }
}

fn int8_breakdown(dev: &DeviceModel, ws: u32) -> Breakdown {
    let scheme = Int8SplitScheme::for_word_size(ws);
    let dims = GemmDims::new(M, NK, NK);
    let split = KernelProfile::new("split").cuda_modmacs(
        SPLIT_COST * (scheme.planes_a() + scheme.planes_b()) as f64 * (M * NK) as f64,
    );
    let mm = KernelProfile::new("mm").tcu_int8_macs(
        (scheme.partial_products() as u64 * dims.padded_macs(INT8_FRAGMENTS[0])) as f64,
    );
    let merge = KernelProfile::new("merge")
        .cuda_modmacs(MERGE_COST * scheme.partial_products() as f64 * (M * NK) as f64);
    Breakdown {
        split_us: dev.kernel_time_us(&split),
        matmul_us: dev.kernel_time_us(&mm),
        merge_us: dev.kernel_time_us(&merge),
    }
}

fn main() {
    let dev = DeviceModel::a100();
    let mut human = String::from(
        "Fig. 3: INT8 vs FP64 TCU time for a (2^19 x 16 x 16) modular matmul\n\
         WS | type |  split     mm     merge |  total  | partials\n\
         ---+------+-------------------------+---------+---------\n",
    );
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for ws in [36u32, 48] {
        let i8b = int8_breakdown(&dev, ws);
        let f64b = fp64_breakdown(&dev, ws);
        for (ty, b, partials) in [
            (
                "INT8",
                &i8b,
                Int8SplitScheme::for_word_size(ws).partial_products(),
            ),
            (
                "FP64",
                &f64b,
                Fp64SplitScheme::for_word_size(ws).partial_products(),
            ),
        ] {
            human.push_str(&format!(
                " {ws} | {ty} | {:6.1} {:7.1} {:6.1} | {:7.1} | {partials}\n",
                b.split_us,
                b.matmul_us,
                b.merge_us,
                b.total()
            ));
            rows.push(json!({
                "word_size": ws, "type": ty,
                "split_us": b.split_us, "matmul_us": b.matmul_us, "merge_us": b.merge_us,
                "total_us": b.total(), "partial_products": partials,
            }));
        }
        let speedup = i8b.total() / f64b.total();
        speedups.push(json!({ "word_size": ws, "fp64_over_int8": speedup }));
        human.push_str(&format!(
            "    -> FP64 is {speedup:.2}x faster than INT8 at WS={ws} (paper: {})\n",
            if ws == 36 { "1.65x" } else { "1.74x" }
        ));
    }
    emit(
        "results/fig03.json",
        &human,
        json!({ "rows": rows, "speedups": speedups }),
    );
}
