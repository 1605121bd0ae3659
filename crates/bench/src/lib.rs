//! Shared helpers for the FIXAR benchmark harnesses.
//!
//! Each paper artifact (Figs. 7–10, Tables I–II) has a standalone
//! binary (`src/bin/`) that prints the regenerated rows and takes
//! `--name value` arguments for longer runs; the criterion benches
//! (`benches/`) time kernels, ablations and the batched training step.
//! This library holds the pieces they share: an ASCII table renderer,
//! the paper's reference numbers, and the scaled-down precision-study
//! configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fixar::prelude::*;
use fixar::FixarRunReport;

/// The paper's reported numbers, used to annotate regenerated artifacts.
pub mod paper {
    /// Fig. 10a: accelerator throughput, flat across batch sizes.
    pub const ACCEL_IPS: f64 = 53_826.8;
    /// Table II: peak (full-precision) accelerator throughput.
    pub const PEAK_IPS_FULL: f64 = 38_779.8;
    /// Abstract/Fig. 8: end-to-end platform throughput at batch 512.
    pub const PLATFORM_IPS: f64 = 25_293.3;
    /// Fig. 10b: accelerator energy efficiency.
    pub const IPS_PER_WATT: f64 = 2_638.0;
    /// §VI-C: measured average FPGA board power.
    pub const FPGA_POWER_W: f64 = 20.4;
    /// §VI-C: measured average GPU board power.
    pub const GPU_POWER_W: f64 = 56.7;
    /// §VI-C: accelerator-level FIXAR/GPU throughput ratio.
    pub const ACCEL_SPEEDUP: f64 = 5.5;
    /// Abstract: platform-level FIXAR/CPU-GPU throughput ratio.
    pub const PLATFORM_SPEEDUP: f64 = 2.7;
    /// §VI-C: reported PE-array utilization.
    pub const UTILIZATION: f64 = 0.924;
    /// Batch sizes swept by Figs. 8–10.
    pub const BATCH_SIZES: [usize; 4] = [64, 128, 256, 512];
}

/// The pre-SoA replay buffer, kept verbatim as the behavioural
/// reference for the structure-of-arrays rewrite — the legacy model
/// `tests/replay_props.rs` checks the ring against.
pub mod legacy_replay {
    use fixar_rl::{Transition, TransitionBatch};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Array-of-structs ring buffer: the pre-SoA `ReplayBuffer`,
    /// verbatim (struct-per-transition storage, per-row borrow
    /// sampling, row-copy batch packing through `from_transitions`).
    pub struct LegacyReplayBuffer {
        /// Stored transitions in ring order (slot order).
        pub storage: Vec<Transition>,
        capacity: usize,
        write_head: usize,
    }

    impl LegacyReplayBuffer {
        /// Creates a buffer holding at most `capacity` transitions.
        pub fn new(capacity: usize) -> Self {
            Self {
                storage: Vec::with_capacity(capacity),
                capacity,
                write_head: 0,
            }
        }

        /// Inserts a transition, overwriting the oldest once full.
        pub fn push(&mut self, t: Transition) {
            if self.storage.len() < self.capacity {
                self.storage.push(t);
            } else {
                self.storage[self.write_head] = t;
            }
            self.write_head = (self.write_head + 1) % self.capacity;
        }

        /// Uniform borrow sampling with replacement — the legacy draw
        /// sequence (`batch` ascending `gen_range(0..len)` calls), or
        /// no draws at all on underflow.
        pub fn sample<'a>(&'a self, batch: usize, rng: &mut StdRng) -> Vec<&'a Transition> {
            if self.storage.len() < batch {
                return Vec::new();
            }
            (0..batch)
                .map(|_| &self.storage[rng.gen_range(0..self.storage.len())])
                .collect()
        }

        /// Legacy row-copy batch sampling: `sample` + `from_transitions`.
        pub fn sample_batch(&self, batch: usize, rng: &mut StdRng) -> Option<TransitionBatch> {
            if batch == 0 {
                return None;
            }
            let picks = self.sample(batch, rng);
            if picks.is_empty() {
                return None;
            }
            Some(TransitionBatch::from_transitions(&picks).expect("homogeneous"))
        }
    }

    /// Deterministic synthetic transition `i` with the given dimensions
    /// (`reward == i`, so eviction checks can read the push index back).
    pub fn synthetic_transition(i: usize, state_dim: usize, action_dim: usize) -> Transition {
        Transition {
            state: (0..state_dim)
                .map(|d| (i * 7 + d) as f64 * 0.13 - 1.0)
                .collect(),
            action: (0..action_dim)
                .map(|d| ((i + d * 3) % 5) as f64 * 0.4 - 1.0)
                .collect(),
            reward: i as f64,
            next_state: (0..state_dim)
                .map(|d| (i * 7 + d) as f64 * 0.13 - 0.5)
                .collect(),
            terminal: i.is_multiple_of(9),
        }
    }
}

/// Renders a fixed-width ASCII table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:w$} |", w = w));
    }
    out.push('\n');
    sep(&mut out);
    for row in rows {
        out.push('|');
        for (c, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {c:>w$} |", w = w));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// Scaled-down Fig. 7 configuration: Pendulum with small networks so a
/// four-arm study completes in minutes. The *relative* behaviour
/// of the arms (who learns, who fails, the QAT dip) is what transfers to
/// the full-scale runs.
pub fn quick_study_config() -> DdpgConfig {
    let mut cfg = DdpgConfig::small_test();
    cfg.hidden = (64, 48);
    cfg.batch_size = 64;
    cfg.warmup_steps = 500;
    cfg.actor_lr = 1e-3;
    cfg.critic_lr = 1e-3;
    cfg.exploration_sigma = 0.15;
    // Two workers mirror the two AAP cores and roughly halve the
    // wall-clock of the software fixed-point arms.
    cfg.parallel_workers = 2;
    cfg
}

/// Formats a reward curve as aligned `step:reward` pairs.
pub fn format_curve(report: &FixarRunReport) -> String {
    report
        .training
        .curve
        .iter()
        .map(|p| format!("{:>6}:{:>8.1}", p.step, p.avg_reward))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Summary verdict line comparing a measured value against the paper.
pub fn verdict(label: &str, measured: f64, paper_value: f64) -> String {
    let ratio = measured / paper_value;
    format!("{label}: measured {measured:.1} vs paper {paper_value:.1} (x{ratio:.3})")
}

/// Reads `--name value` from the process arguments, falling back to a
/// default. Used by the full-scale harness binaries.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a benchmark name into an [`EnvKind`] (defaults to Pendulum so
/// harnesses are fast unless asked otherwise).
pub fn env_kind_arg() -> EnvKind {
    match arg::<String>("env", "pendulum".into())
        .to_lowercase()
        .as_str()
    {
        "halfcheetah" | "cheetah" => EnvKind::HalfCheetah,
        "hopper" => EnvKind::Hopper,
        "swimmer" => EnvKind::Swimmer,
        _ => EnvKind::Pendulum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renderer_aligns_columns() {
        let s = render_table(
            &["name", "ips"],
            &[
                vec!["fixar".into(), "53826.8".into()],
                vec!["gpu".into(), "9787.0".into()],
            ],
        );
        assert!(s.contains("| name "));
        assert!(s.contains("53826.8"));
        // Every line has the same width.
        let lens: std::collections::HashSet<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert_eq!(lens.len(), 1, "{s}");
    }

    #[test]
    fn verdict_reports_ratio() {
        let v = verdict("ips", 50_000.0, 53_826.8);
        assert!(v.contains("x0.929"));
    }
}
