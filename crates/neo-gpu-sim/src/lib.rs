//! Analytic GPGPU performance model for the Neo reproduction.
//!
//! The paper's evaluation runs CUDA kernels on an NVIDIA A100. This crate
//! is the hardware substitution: every functional kernel in `neo-kernels`
//! reports an exact [`KernelProfile`] (operation counts per compute
//! component plus global-memory bytes), and [`DeviceModel`] turns profiles
//! into time with a roofline model:
//!
//! ```text
//! t_kernel = launches · t_launch + max(t_mem, t_cuda + t_tcu)
//! ```
//!
//! where each component time is `work / (peak · efficiency)`. A kernel
//! sequence on one stream costs [`DeviceModel::serial_time_s`], the
//! summed roofline. Kernel fusion and multi-stream overlap (CUDA-core
//! phases of one stream hiding TCU phases of another — Section 4.6) are
//! not modelled here: the `neo-sched` crate rewrites and simulates kernel
//! DAGs over these per-kernel component times, and it is the one timing
//! model every paper artifact, the planner and serve admission use.
//!
//! The four efficiency factors were fit once against the paper's Table 7
//! and are frozen (see `EXPERIMENTS.md`); everything else the model
//! outputs is a consequence of counted work.
//!
//! # Example
//!
//! ```rust
//! use neo_gpu_sim::{DeviceModel, KernelProfile};
//!
//! let dev = DeviceModel::a100();
//! let p = KernelProfile::new("ntt")
//!     .tcu_fp64_macs(1.0e9)
//!     .bytes(64.0e6, 64.0e6)
//!     .launches(1.0);
//! let t = dev.kernel_time_us(&p);
//! assert!(t > 0.0);
//! ```

pub mod costs;
mod model;
mod profile;
mod spec;

pub use model::{ComponentSums, DeviceModel};
pub use profile::KernelProfile;
pub use spec::{DeviceSpec, Efficiency};
