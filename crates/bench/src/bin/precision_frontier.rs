//! Accuracy-vs-bits frontier: per-layer precision policies over the
//! Fig. 7 precision arms.
//!
//! Each arm trains a Pendulum agent with an identical seed and schedule
//! but a different [`PrecisionPolicy`] assignment, freezes per its
//! policy, exports its [`PolicySnapshot`] as an integer-only artifact,
//! and is then measured on three axes:
//!
//! 1. **Fidelity** — mean absolute action deviation from the
//!    full-precision reference arm over a fixed probe set (the software
//!    proxy for the Fig. 7 reward gap);
//! 2. **Silicon** — the plan priced through
//!    [`ResourceModel::price_layer_formats`] (MAC width, LUT, BRAM,
//!    weight bytes);
//! 3. **Serving throughput** — artifact actions/sec, one `infer_batch`
//!    walk over the probe set per call (the served path).
//!
//! Before any timing, a **bit-equality gate** proves the redesigned
//! policy API is conservative: the `uniform16_policy` arm must reproduce
//! the legacy `with_qat(delay, 16)` arm bit-for-bit (weights and served
//! actions), and every arm's artifact must serve the probe exactly as its
//! snapshot's per-sample `select_action` answers it. A TD3
//! mixed-precision arm rides along, exercising the twin-critic QAT wiring
//! end to end.
//!
//! Environment:
//!
//! * `FIXAR_PRECISION_BENCH_STEPS` — training updates per arm (default
//!   200; CI's bench-smoke job uses a short count);
//! * `FIXAR_BENCH_JSON` — when set to a path, also writes the results
//!   as a JSON document (the `BENCH_precision_frontier.json` artifact).

use fixar_accel::{AccelConfig, LayerFormat, ResourceModel};
use fixar_deploy::{InferScratch, PolicyArtifact};
use fixar_fixed::{Fx32, QFormat};
use fixar_nn::PrecisionPolicy;
use fixar_rl::{Ddpg, DdpgConfig, PolicySnapshot, Td3Config, Transition, TransitionBatch};
use fixar_tensor::Matrix;
use std::fmt::Write as _;
use std::time::Instant;

const STATE_DIM: usize = 3;
const ACTION_DIM: usize = 1;
const PROBE_ROWS: usize = 64;

fn base_config() -> DdpgConfig {
    let mut cfg = DdpgConfig::small_test();
    cfg.hidden = (64, 48);
    cfg.batch_size = 32;
    cfg
}

/// Deterministic synthetic replay batch (Pendulum-shaped).
fn training_batch() -> TransitionBatch {
    let transitions: Vec<Transition> = (0..64)
        .map(|i| Transition {
            state: (0..STATE_DIM)
                .map(|d| ((i * 3 + d) as f64 * 0.37).sin())
                .collect(),
            action: (0..ACTION_DIM)
                .map(|d| ((i + d * 5) as f64 * 0.21).cos() * 0.8)
                .collect(),
            reward: -((i % 11) as f64) * 0.1,
            next_state: (0..STATE_DIM)
                .map(|d| ((i * 3 + d + 1) as f64 * 0.37).sin())
                .collect(),
            terminal: i % 17 == 0,
        })
        .collect();
    let refs: Vec<&Transition> = transitions.iter().collect();
    TransitionBatch::from_transitions(&refs).unwrap()
}

fn probe_observations() -> Matrix<f64> {
    Matrix::from_fn(PROBE_ROWS, STATE_DIM, |r, c| {
        ((r * STATE_DIM + c) as f64 * 0.61).sin() * 0.9
    })
}

/// Trains one arm (DDPG, or TD3 when the config says so) to a frozen
/// snapshot.
fn train_ddpg_arm(cfg: DdpgConfig, steps: u64) -> (Ddpg<Fx32>, PolicySnapshot<Fx32>) {
    let mut agent = Ddpg::<Fx32>::new(STATE_DIM, ACTION_DIM, cfg).unwrap();
    let batch = training_batch();
    let probe = probe_observations();
    for t in 0..steps {
        // Feed the actor's monitors (rollout path) and train.
        agent.select_actions_batch(&probe).unwrap();
        agent.train_minibatch_weighted(&batch, None).unwrap();
        agent.on_timestep(t).unwrap();
    }
    let snap = agent.policy_snapshot(steps);
    (agent, snap)
}

/// Mean |a - b| over all probe actions.
fn mean_abs_dev(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

/// The probe set's actions as served: the exported artifact, one
/// `infer_batch` walk over all probe rows.
fn serve_probe(art: &PolicyArtifact) -> Vec<f64> {
    let mut actions = Vec::new();
    art.infer_batch(
        probe_observations().as_slice(),
        &mut InferScratch::default(),
        &mut actions,
    )
    .expect("artifact inference");
    actions
}

/// Maps a snapshot's per-point formats onto priced layers: layer `l`'s
/// storage runs at the format of its output activation point `l + 1`.
/// Excluded (full-precision) points — the regression output head — ride
/// the plan's widest quantized format, since the time-shared datapath
/// already carries that width; an entirely unquantized plan prices at
/// full 32-bit.
fn priced_plan(snap: &PolicySnapshot<Fx32>, hidden: (usize, usize)) -> Vec<LayerFormat> {
    let dims = [
        (STATE_DIM, hidden.0),
        (hidden.0, hidden.1),
        (hidden.1, ACTION_DIM),
    ];
    let formats = snap.point_formats();
    let widest = formats
        .iter()
        .flatten()
        .copied()
        .max_by_key(|f| f.total_bits());
    dims.iter()
        .enumerate()
        .map(|(l, &(i, o))| match formats[l + 1].or(widest) {
            Some(f) => LayerFormat::quantized(i, o, f),
            None => LayerFormat::full_precision(i, o),
        })
        .collect()
}

/// Served actions/sec of an artifact over the probe set.
fn time_serving(art: &PolicyArtifact, iters: usize) -> f64 {
    let probe = probe_observations();
    let (mut scratch, mut actions) = (InferScratch::default(), Vec::new());
    art.infer_batch(probe.as_slice(), &mut scratch, &mut actions)
        .unwrap();
    let t = Instant::now();
    for _ in 0..iters {
        art.infer_batch(probe.as_slice(), &mut scratch, &mut actions)
            .unwrap();
        std::hint::black_box(&actions);
    }
    (iters * PROBE_ROWS) as f64 / t.elapsed().as_secs_f64()
}

struct ArmResult {
    name: &'static str,
    algo: &'static str,
    mac_width_bits: u32,
    weight_mem_bytes: u64,
    pe_lut: f64,
    mem_bram: f64,
    action_dev: f64,
    actions_per_sec: f64,
    formats: String,
}

fn record(
    name: &'static str,
    algo: &'static str,
    snap: &PolicySnapshot<Fx32>,
    reference_actions: &[f64],
    hidden: (usize, usize),
    model: &ResourceModel,
    iters: usize,
) -> ArmResult {
    let probe = probe_observations();
    let art = snap.export_artifact().expect("export artifact");
    let served = serve_probe(&art);
    // Replay gate: the served actions must equal the snapshot's
    // per-sample frozen forward, bit-for-bit, before we bother timing.
    for (r, action) in served.chunks(ACTION_DIM).enumerate() {
        let replayed = snap.select_action(probe.row(r)).unwrap();
        assert_eq!(
            action,
            replayed.as_slice(),
            "{name}: served row {r} failed bit-exact replay"
        );
    }
    let cost = model.price_layer_formats(&priced_plan(snap, hidden));
    let formats = snap
        .point_formats()
        .iter()
        .map(|f| f.map_or("fp".to_string(), |q| q.to_string()))
        .collect::<Vec<_>>()
        .join(",");
    ArmResult {
        name,
        algo,
        mac_width_bits: cost.mac_width_bits,
        weight_mem_bytes: cost.weight_mem_bytes,
        pe_lut: cost.pe.lut,
        mem_bram: cost.memory.bram,
        action_dev: mean_abs_dev(&served, reference_actions),
        actions_per_sec: time_serving(&art, iters),
        formats,
    }
}

fn main() {
    let steps: u64 = std::env::var("FIXAR_PRECISION_BENCH_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(200);
    let delay = (steps / 2).max(1);
    let hidden = base_config().hidden;
    let iters = 50;
    println!(
        "precision_frontier: Pendulum-shaped agents, 64x48 nets, Fx32, {steps} updates/arm, QAT delay {delay}"
    );

    let model = ResourceModel::new(AccelConfig::default());
    let export = |snap: &PolicySnapshot<Fx32>| snap.export_artifact().expect("export artifact");

    // Full-precision reference arm (no QAT): the fidelity anchor.
    let (_, fp_snap) = train_ddpg_arm(base_config(), steps);
    let fp_actions = serve_probe(&export(&fp_snap));

    // Bit-equality gate: uniform policy == legacy global-bits runtime.
    let (legacy_agent, legacy_snap) = train_ddpg_arm(base_config().with_qat(delay, 16), steps);
    let (policy_agent, policy_snap) = train_ddpg_arm(
        base_config().with_qat_policies(
            delay,
            PrecisionPolicy::Uniform { bits: 16 },
            PrecisionPolicy::Uniform { bits: 16 },
        ),
        steps,
    );
    assert_eq!(
        legacy_agent.actor(),
        policy_agent.actor(),
        "GATE FAILED: uniform policy diverged from legacy actor weights"
    );
    assert_eq!(
        serve_probe(&export(&legacy_snap)),
        serve_probe(&export(&policy_snap)),
        "GATE FAILED: uniform policy served different actions than legacy"
    );
    println!("bit-equality gate: uniform16 policy == legacy runtime OK");

    // The frontier arms.
    let (_, u8_snap) = train_ddpg_arm(base_config().with_mixed_precision_qat(delay, 8, 8), steps);
    let (_, mixed_snap) =
        train_ddpg_arm(base_config().with_mixed_precision_qat(delay, 8, 16), steps);
    let tapered = PrecisionPolicy::PerPoint {
        formats: vec![
            Some(QFormat::q(2, 14).unwrap()),
            Some(QFormat::q(2, 10).unwrap()),
            Some(QFormat::q(2, 6).unwrap()),
            None,
        ],
        base_bits: 16,
    };
    let (_, tapered_snap) = train_ddpg_arm(
        base_config().with_qat_policies(delay, tapered, PrecisionPolicy::Uniform { bits: 16 }),
        steps,
    );
    let adaptive = PrecisionPolicy::Adaptive {
        min_bits: 6,
        max_bits: 16,
        target_delta: 1e-3,
    };
    let (_, adaptive_snap) = train_ddpg_arm(
        base_config().with_qat_policies(delay, adaptive, PrecisionPolicy::Uniform { bits: 16 }),
        steps,
    );
    let (_, td3_snap) = train_ddpg_arm(
        base_config()
            .with_td3(Td3Config::default())
            .with_mixed_precision_qat(delay, 8, 16),
        steps,
    );

    let results = [
        record(
            "float_ref",
            "ddpg",
            &fp_snap,
            &fp_actions,
            hidden,
            &model,
            iters,
        ),
        record(
            "uniform16_legacy",
            "ddpg",
            &legacy_snap,
            &fp_actions,
            hidden,
            &model,
            iters,
        ),
        record(
            "uniform16_policy",
            "ddpg",
            &policy_snap,
            &fp_actions,
            hidden,
            &model,
            iters,
        ),
        record(
            "uniform8",
            "ddpg",
            &u8_snap,
            &fp_actions,
            hidden,
            &model,
            iters,
        ),
        record(
            "mixed_8_16",
            "ddpg",
            &mixed_snap,
            &fp_actions,
            hidden,
            &model,
            iters,
        ),
        record(
            "tapered_perpoint",
            "ddpg",
            &tapered_snap,
            &fp_actions,
            hidden,
            &model,
            iters,
        ),
        record(
            "adaptive",
            "ddpg",
            &adaptive_snap,
            &fp_actions,
            hidden,
            &model,
            iters,
        ),
        record(
            "td3_mixed_8_16",
            "td3",
            &td3_snap,
            &fp_actions,
            hidden,
            &model,
            iters,
        ),
    ];

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.algo.to_string(),
                format!("{}", r.mac_width_bits),
                format!("{}", r.weight_mem_bytes),
                format!("{:.0}", r.pe_lut),
                format!("{:.1}", r.mem_bram),
                format!("{:.5}", r.action_dev),
                format!("{:.0}", r.actions_per_sec),
            ]
        })
        .collect();
    println!(
        "{}",
        fixar_bench::render_table(
            &["arm", "algo", "mac_bits", "weight_B", "pe_lut", "mem_bram", "act_dev", "act/s"],
            &rows
        )
    );

    if let Ok(path) = std::env::var("FIXAR_BENCH_JSON") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"precision_frontier\",");
        let _ = writeln!(json, "  \"env\": \"Pendulum-shaped\",");
        let _ = writeln!(json, "  \"hidden\": [{}, {}],", hidden.0, hidden.1);
        let _ = writeln!(json, "  \"backend\": \"Fx32\",");
        let _ = writeln!(json, "  \"train_updates\": {steps},");
        let _ = writeln!(json, "  \"qat_delay\": {delay},");
        let _ = writeln!(json, "  \"bit_equality_gate\": \"passed\",");
        json.push_str("  \"arms\": [\n");
        for (i, r) in results.iter().enumerate() {
            let comma = if i + 1 == results.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"arm\": \"{}\", \"algo\": \"{}\", \"mac_width_bits\": {}, \"weight_mem_bytes\": {}, \"pe_lut\": {:.0}, \"mem_bram\": {:.2}, \"mean_action_dev\": {:.6}, \"actions_per_sec\": {:.0}, \"formats\": \"{}\"}}{comma}",
                r.name,
                r.algo,
                r.mac_width_bits,
                r.weight_mem_bytes,
                r.pe_lut,
                r.mem_bram,
                r.action_dev,
                r.actions_per_sec,
                r.formats
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
