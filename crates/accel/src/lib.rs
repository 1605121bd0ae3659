//! Cycle-level model of the FIXAR FPGA accelerator.
//!
//! The paper implements its accelerator on a Xilinx Alveo U50: `N = 2`
//! adaptive array processing (AAP) cores of 16×16 configurable processing
//! elements at 164 MHz, fed by on-chip weight/gradient/activation
//! memories, with an on-chip Adam unit and a PRNG for exploration noise.
//! This crate models that machine at two levels:
//!
//! * **Bit level** — [`ConfigurablePe`] reproduces the configurable
//!   datapath exactly: two 32×16 multipliers that either shift-combine
//!   into one full-precision 32-bit MAC or act as two independent
//!   half-precision MACs (the post-QAT 2× throughput mode).
//!   [`AapCore`] executes real matrix-vector products through that
//!   datapath in the paper's column-wise decomposition order, bit-exact
//!   against the `fixar-nn` reference kernels. The model runs on the
//!   calling thread — cores in core order, batch rows in row order — so
//!   the cores' concurrency lives in the cycle count, not on the host.
//! * **Cycle level** — one schedule per timing question, each mapping
//!   work to the two dataflows by the paper's adaptive-parallelism rule:
//!   [`InferenceSchedule`] runs one row with intra-layer parallelism and
//!   a batch of rows with intra-batch parallelism;
//!   [`TrainingSchedule`] runs a training timestep with intra-batch
//!   parallelism plus the Adam unit and the live inference. Both count
//!   tile-quantization losses and pipeline overheads;
//!   [`FixarAccelerator`] reports them per call
//!   (`actor_inference` / `critic_inference` on a matrix of rows,
//!   `train_timestep_cycles`) and they give the IPS numbers of Fig. 10.
//!
//! Companion models reproduce the paper's evaluation artifacts:
//! [`ResourceModel`] (Table I), [`PowerModel`] (Fig. 10b), [`GpuModel`]
//! (the Titan RTX baseline of Figs. 8/10), and [`comparison`] (Table II).
//!
//! # Hardware substitution
//!
//! No U50 card is available, so the accelerator is modelled, not run.
//! The datapath is bit-exact and the schedules are structural (derived
//! from the tiling the paper
//! describes), so throughput *shape* — flat accelerator IPS across batch
//! sizes, the half-precision speedup, the GPU crossover — is preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod adam_unit;
pub mod comparison;
mod core_array;
mod dataflow;
mod error;
mod gpu;
mod memory;
mod pe;
mod power;
mod prng;
mod resource;

pub use accelerator::{AccelConfig, FixarAccelerator, TimestepCycles};
pub use adam_unit::AdamUnit;
pub use core_array::AapCore;
pub use dataflow::{InferenceSchedule, Precision, TrainingSchedule};
pub use error::AccelError;
pub use gpu::GpuModel;
pub use memory::{ActivationMemory, GradientMemory, LayerImage, NetworkImage, WeightMemory};
pub use pe::{ConfigurablePe, PeMode};
pub use power::PowerModel;
pub use prng::{IrwinHallGaussian, Lfsr32};
pub use resource::{LayerFormat, PrecisionPlanCost, ResourceModel, ResourceUsage, U50_BUDGET};
