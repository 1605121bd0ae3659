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
//! * **Run time** — [`FixarPlatformModel::run_time`] bills a finished
//!   training run (a `fixar-rl` [`TrainingReport`](fixar_rl::TrainingReport),
//!   arithmetic bit-equivalent to the accelerator datapath) on the same
//!   model: host work and the one-row action pass for each warm-up
//!   step, the [`FixarPlatformModel::breakdown`] timestep Figs. 8–10
//!   read at full precision for each training step before the QAT
//!   switch and at half precision from it on. A training run thus
//!   reports both a reward curve and the platform time it would have
//!   taken on the U50.
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

mod models;

pub use models::{CpuGpuPlatformModel, FixarPlatformModel, TimestepBreakdown};
