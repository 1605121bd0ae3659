//! DDPG with fixed-point quantization-aware training — FIXAR's algorithm
//! layer.
//!
//! Implements the paper's training pipeline end to end:
//!
//! * [`ReplayBuffer`] — the transition store the host CPU samples batches
//!   from: a structure-of-arrays ring buffer whose `gather_into` is a
//!   column gather straight into the batch matrices, with
//!   [`ReplayStrategy`] selecting uniform (bit-exact legacy) or
//!   proportional prioritized sampling ([`PrioritizedReplay`]),
//! * [`GaussianNoise`] — action exploration (the hardware injects this
//!   with its PRNG module; here it is the software twin),
//! * [`Ddpg`] — actor/critic networks with target networks, Adam, and
//!   the Fig. 3 update sequence (critic BP/WU → actor BP/WU led by the
//!   critic → actor FP). The hot path is [`Ddpg::train_minibatch_weighted`],
//!   which moves the whole sampled batch ([`TransitionBatch`]) through
//!   the stack as one matrix per layer, bit-identical to the per-sample
//!   reference [`Ddpg::train_batch`]. TD3 is the same agent and the
//!   same update with [`DdpgConfig::td3`] set ([`Td3Config`]: twin
//!   critics, target smoothing, delayed policy), so everything below —
//!   the QAT schedule, the trainer, snapshots — drives it unchanged,
//! * [`QatSchedule`] — Algorithm 1: calibrate activation ranges for
//!   `delay` steps at 32-bit fixed-point, then re-train with 16-bit
//!   quantized activations,
//! * [`Trainer`] — the Fig. 3 timestep loop over a fleet of `N ≥ 1`
//!   environments (`fixar_env::EnvPool`) stepped in lockstep, with all
//!   action selection batched through [`Ddpg::select_actions_batch`] and
//!   the paper's evaluation protocol (evaluate every 5000 steps,
//!   averaging cumulative reward over 10 episodes "until the agent falls
//!   down"); a fleet of one is bit-identical to the scalar loop written
//!   from [`Ddpg::act`],
//! * [`PrecisionMode`] — the four arms of the Fig. 7 precision study,
//! * [`PolicySnapshot`] — an immutable actor replica (weights + frozen
//!   QAT runtime + id): on `Fx32` it exports the integer artifact the
//!   serving front door (`fixar-serve`) publishes, and its
//!   `select_action` is the per-sample oracle served actions replay
//!   against.
//!
//! Everything is generic over the numeric backend, so the *same* code
//! runs the float baseline and the fixed-point FIXAR runs.
//!
//! # Example
//!
//! ```
//! use fixar_env::{EnvKind, EnvPool};
//! use fixar_rl::{DdpgConfig, Trainer};
//!
//! let cfg = DdpgConfig::small_test(); // tiny nets for fast tests
//! let mut trainer = Trainer::<f32>::new(
//!     EnvPool::from_kind(EnvKind::Pendulum, 1, 1),
//!     EnvKind::Pendulum.make(2),
//!     cfg,
//! )?;
//! let report = trainer.run(200, 100, 2)?;
//! assert_eq!(report.curve.len(), 2);
//! # Ok::<(), fixar_rl::RlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ddpg;
mod error;
mod noise;
mod precision;
mod replay;
mod snapshot;
mod trainer;

pub use ddpg::{Ddpg, DdpgConfig, QatSchedule, Td3Config, TrainMetrics};
pub use error::RlError;
pub use noise::GaussianNoise;
pub use precision::PrecisionMode;
pub use replay::{
    PrioritizedConfig, PrioritizedReplay, ReplayBuffer, ReplaySampler, ReplayStrategy,
    SampledBatch, Transition, TransitionBatch,
};
pub use snapshot::PolicySnapshot;
pub use trainer::{
    action_stream_seed, priority_stream_seed, replay_stream_seed, EvalPoint, Trainer,
    TrainingReport,
};
