//! The FIXAR CPU-FPGA platform: host CPU emulating the environment, FPGA
//! accelerator running the agent's DNN operations (paper Figs. 2 and 3).
//!
//! Two layers:
//!
//! * **Timing models** — [`FixarPlatformModel`] and [`CpuGpuPlatformModel`]
//!   decompose one timestep into host-CPU environment time, runtime/PCIe
//!   import time, and accelerator compute time (Fig. 9), and integrate
//!   them into the end-to-end IPS numbers of Fig. 8. Constants are
//!   calibrated in `HostModel`'s docs.
//! * **Co-simulation** — [`FixarCosim`] runs *real* DDPG+QAT training
//!   (via `fixar-rl`, arithmetic bit-equivalent to the accelerator
//!   datapath) while advancing a simulated clock by
//!   [`FixarPlatformModel::breakdown`] — the one timestep model Figs.
//!   8–10 read — at full precision until the QAT schedule freezes and at
//!   half precision after, so a training run reports both a reward curve
//!   and the platform throughput it would have achieved on the U50.
//!
//! # Example
//!
//! ```
//! use fixar_platform::{CpuGpuPlatformModel, FixarPlatformModel};
//! use fixar_accel::Precision;
//!
//! let fixar = FixarPlatformModel::for_benchmark(17, 6)?;
//! let gpu = CpuGpuPlatformModel::for_benchmark();
//! let f = fixar.ips(512, Precision::Half16)?;
//! let g = gpu.ips(512);
//! assert!(f > 1.8 * g, "FIXAR should beat CPU-GPU: {f} vs {g}");
//! # Ok::<(), fixar_accel::AccelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cosim;
mod models;

pub use cosim::{CosimReport, FixarCosim};
pub use models::{CpuGpuPlatformModel, FixarPlatformModel, HostModel, TimestepBreakdown};
