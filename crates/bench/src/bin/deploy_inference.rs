//! Deployment-artifact inference: the integer-only interpreter against
//! the per-sample oracle it freezes.
//!
//! A DDPG actor is trained through its QAT freeze (so the artifact
//! carries real activation quantizers, not pass-throughs), exported
//! with `PolicySnapshot::export_artifact`, and timed on three paths:
//!
//! * `snapshot (oracle)` — `PolicySnapshot::select_action`, the
//!   per-sample frozen forward every differential test replays against
//!   (not a serving path: only artifacts are served). The artifact must
//!   match it bit-for-bit; its JSON keys keep the `snapshot` name;
//! * `artifact` — `PolicyArtifact::infer`, the interpreter with f64
//!   conversion at the observation/action edges;
//! * `artifact_raw` — `PolicyArtifact::infer_raw`, the pure integer
//!   path a deployment target would run (observations pre-quantized to
//!   raw Q12.20 words);
//! * `artifact batch32` — `PolicyArtifact::infer_batch` on 32
//!   observations at a time, the served path's one interpreter walk per
//!   micro-batch (ns per action);
//! * `codegen` — the `emit_rust()` output compiled by the host `rustc`
//!   and timed in-process by a generated runner: the firmware path,
//!   where every quantizer is an inlined mask and clamp with literal
//!   operands.
//!
//! Blob size (weights plus ≈ 100 bytes) and generated source size are
//! reported alongside.
//!
//! **Bit-equality gate:** before any timing, every path (including an
//! encode → decode round-trip of the blob and a short `ArtifactServer`
//! run stamped with the content hash) must agree with the snapshot
//! reference exactly — the bench panics rather than report timings for
//! an artifact that broke the freeze contract.
//!
//! Environment:
//!
//! * `FIXAR_DEPLOY_BENCH_REPS` — inference repetitions per path
//!   (default 20 000; CI's bench-smoke job sets a short cap);
//! * `FIXAR_BENCH_JSON` — when set to a path, also writes the results
//!   as a JSON document (the `BENCH_deploy_inference.json` CI artifact).

use fixar_deploy::PolicyArtifact;
use fixar_fixed::Fx32;
use fixar_rl::{Ddpg, DdpgConfig, PolicySnapshot, Transition, TransitionBatch};
use fixar_serve::{ArtifactReplica, ArtifactServer, ServeConfig};
use fixar_tensor::Matrix;
use std::fmt::Write as _;
use std::time::Instant;

const OBS_POOL: usize = 256;
/// Rows per `infer_batch` call: the `serve_sat_model` micro-batch.
const BATCH: usize = 32;

fn frozen_snapshot() -> PolicySnapshot<Fx32> {
    let mut cfg = DdpgConfig::small_test().with_qat(4, 16);
    cfg.hidden = (64, 48);
    let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
    let transitions: Vec<Transition> = (0..agent.config().batch_size)
        .map(|i| Transition {
            state: (0..3).map(|c| ((i + c) as f64).cos()).collect(),
            action: vec![((i * 3) as f64).sin()],
            reward: (i as f64).sin(),
            next_state: (0..3).map(|c| ((i + c + 1) as f64).cos()).collect(),
            terminal: i % 7 == 0,
        })
        .collect();
    let refs: Vec<&Transition> = transitions.iter().collect();
    let batch = TransitionBatch::from_transitions(&refs).unwrap();
    for t in 0..8u64 {
        let s: Vec<f64> = (0..3)
            .map(|c| ((t as usize * 3 + c) as f64).sin())
            .collect();
        agent.act(&s).unwrap();
        agent.train_minibatch_weighted(&batch, None).unwrap();
        agent.on_timestep(t).unwrap();
    }
    assert!(agent.qat_frozen(), "QAT schedule must have fired");
    agent.policy_snapshot(0)
}

fn obs_pool() -> Matrix<f64> {
    Matrix::from_fn(OBS_POOL, 3, |r, c| ((r * 3 + c) as f64 * 0.37).sin() * 0.9)
}

/// The freeze contract, end to end: interpreter ≡ snapshot, across an
/// encode → decode round-trip and through the serving front door.
fn bit_equality_gate(snap: &PolicySnapshot<Fx32>, art: &PolicyArtifact, obs: &Matrix<f64>) {
    let blob = art.encode();
    let decoded = PolicyArtifact::decode(&blob).expect("decode own blob");
    assert_eq!(&decoded, art, "decode(encode(art)) != art");
    let hash = art.content_hash();
    assert_eq!(decoded.content_hash(), hash);

    for r in 0..obs.rows() {
        let want = snap.select_action(obs.row(r)).expect("snapshot reference");
        assert_eq!(
            art.infer(obs.row(r)).unwrap(),
            want,
            "BIT-EQUALITY GATE FAILED: artifact diverges from snapshot at row {r}"
        );
        assert_eq!(
            decoded.infer(obs.row(r)).unwrap(),
            want,
            "BIT-EQUALITY GATE FAILED: decoded artifact diverges at row {r}"
        );
    }
    for (b, rows) in obs.as_slice().chunks(BATCH * obs.cols()).enumerate() {
        let actions = art.infer_batch(rows).unwrap();
        for (k, action) in actions.chunks(art.output_dim()).enumerate() {
            let r = b * BATCH + k;
            assert_eq!(
                action,
                snap.select_action(obs.row(r)).unwrap(),
                "BIT-EQUALITY GATE FAILED: batched artifact diverges at row {r}"
            );
        }
    }

    let server = ArtifactServer::start(ArtifactReplica::new(decoded, 0), ServeConfig::default())
        .expect("gate server");
    let client = server.client();
    for r in 0..obs.rows().min(64) {
        let resp = client.request(obs.row(r)).expect("served inference");
        assert_eq!(resp.content_hash, hash, "served hash stamp mismatch");
        assert_eq!(
            resp.action,
            snap.select_action(obs.row(r)).unwrap(),
            "BIT-EQUALITY GATE FAILED: served action diverges at row {r}"
        );
    }
    drop(server);
    println!(
        "bit-equality gate: {} offline (one at a time and {BATCH} per batch) + 64 served \
         inferences match the snapshot exactly (content hash {hash:016x})",
        obs.rows()
    );
}

fn time_ns<F: FnMut(usize)>(reps: usize, mut f: F) -> f64 {
    let t0 = Instant::now();
    for i in 0..reps {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// Compiles the artifact's `emit_rust()` output with the host `rustc`
/// and times it through a generated self-timing runner. The runner
/// first replays the whole observation pool (those action words are
/// checked against `infer_raw` — the codegen bit-equality gate), then
/// measures `reps` inferences in-process. Returns
/// `(ns_per_action, generated_source_bytes)`.
fn codegen_arm(art: &PolicyArtifact, raw_obs: &[Vec<i32>], reps: usize) -> (f64, usize) {
    let src = art.emit_rust();
    fixar_deploy::verify_generated_source(&src).expect("generated source must pass the gate");
    let dir = std::env::temp_dir().join(format!("fixar_codegen_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("codegen temp dir");
    let src_path = dir.join("policy.rs");
    std::fs::write(&src_path, &src).expect("write generated source");

    let rlib = dir.join("libpolicy.rlib");
    let out = std::process::Command::new("rustc")
        .args(["--edition=2021", "--crate-type=rlib", "--crate-name=policy"])
        // Match the workspace build flags (.cargo/config.toml): the
        // interpreter it races was compiled for the host's vector
        // units, so the emitted source must be too.
        .args(["-C", "opt-level=3", "-C", "target-cpu=native"])
        .arg("-o")
        .arg(&rlib)
        .arg(&src_path)
        .output()
        .expect("host rustc must be invocable");
    assert!(
        out.status.success(),
        "generated source failed to compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let in_dim = art.input_dim();
    let out_dim = art.output_dim();
    let pool = raw_obs.len();
    let mut runner = String::new();
    let _ = writeln!(runner, "static OBS: [[i32; {in_dim}]; {pool}] = [");
    for row in raw_obs {
        let _ = writeln!(runner, "    {row:?},");
    }
    runner.push_str("];\n\nfn main() {\n");
    let _ = writeln!(
        runner,
        "    for r in 0..{pool} {{\n        \
         let mut a = [0i32; {out_dim}];\n        \
         policy::infer(&OBS[r], &mut a);\n        \
         let words: Vec<String> = a.iter().map(|w| w.to_string()).collect();\n        \
         println!(\"act {{r}} {{}}\", words.join(\" \"));\n    }}\n    \
         let reps: usize = std::env::args().nth(1).unwrap().parse().unwrap();\n    \
         let mut sink = 0i64;\n    \
         let t0 = std::time::Instant::now();\n    \
         for i in 0..reps {{\n        \
         let mut a = [0i32; {out_dim}];\n        \
         policy::infer(&OBS[i % {pool}], &mut a);\n        \
         sink = sink.wrapping_add(a[0] as i64);\n    }}\n    \
         let ns = t0.elapsed().as_secs_f64() * 1e9 / reps as f64;\n    \
         println!(\"sink {{sink}}\");\n    \
         println!(\"ns {{ns:.1}}\");\n}}"
    );
    let runner_path = dir.join("runner.rs");
    std::fs::write(&runner_path, &runner).expect("write runner source");
    let runner_bin = dir.join("runner");
    let out = std::process::Command::new("rustc")
        .args([
            "--edition=2021",
            "-C",
            "opt-level=3",
            "-C",
            "target-cpu=native",
        ])
        .arg("-o")
        .arg(&runner_bin)
        .arg("--extern")
        .arg(format!("policy={}", rlib.display()))
        .arg(&runner_path)
        .output()
        .expect("host rustc must be invocable");
    assert!(
        out.status.success(),
        "codegen runner failed to compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let run = std::process::Command::new(&runner_bin)
        .arg(reps.to_string())
        .output()
        .expect("run codegen runner");
    assert!(run.status.success(), "codegen runner crashed");
    let stdout = String::from_utf8(run.stdout).expect("runner output");
    let mut ns = None;
    for line in stdout.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[0] {
            "act" => {
                let r: usize = parts[1].parse().unwrap();
                let got: Vec<i32> = parts[2..].iter().map(|w| w.parse().unwrap()).collect();
                let want = art.infer_raw(&raw_obs[r]).unwrap();
                assert_eq!(
                    got, want,
                    "BIT-EQUALITY GATE FAILED: compiled codegen diverges at row {r}"
                );
            }
            "sink" => {}
            "ns" => ns = Some(parts[1].parse::<f64>().unwrap()),
            other => panic!("unexpected runner line {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "codegen gate: {pool} compiled inferences match the interpreter exactly \
         ({} bytes of generated source)",
        src.len()
    );
    (ns.expect("runner must report a timing"), src.len())
}

fn main() {
    let reps: usize = std::env::var("FIXAR_DEPLOY_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(20_000);
    println!("deploy_inference: Pendulum-shaped 64x48 QAT-frozen actor, {reps} reps per path");

    let snap = frozen_snapshot();
    let art = snap.export_artifact().expect("export artifact");
    let obs = obs_pool();
    bit_equality_gate(&snap, &art, &obs);

    let blob_bytes = art.blob_stats().bytes;
    let raw_obs: Vec<Vec<i32>> = (0..obs.rows())
        .map(|r| {
            Fx32::raw_words(
                &obs.row(r)
                    .iter()
                    .map(|&v| Fx32::from_f64(v))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    let snapshot_ns = time_ns(reps, |i| {
        let row = obs.row(i % OBS_POOL);
        std::hint::black_box(snap.select_action(row).unwrap());
    });
    let artifact_ns = time_ns(reps, |i| {
        let row = obs.row(i % OBS_POOL);
        std::hint::black_box(art.infer(row).unwrap());
    });
    let raw_ns = time_ns(reps, |i| {
        let row = &raw_obs[i % OBS_POOL];
        std::hint::black_box(art.infer_raw(row).unwrap());
    });
    let batches: Vec<&[f64]> = obs.as_slice().chunks(BATCH * obs.cols()).collect();
    let batch_ns = time_ns(reps.div_ceil(BATCH), |i| {
        std::hint::black_box(art.infer_batch(batches[i % batches.len()]).unwrap());
    }) / BATCH as f64;
    let (codegen_ns, gen_source_bytes) = codegen_arm(&art, &raw_obs, reps);

    println!("blob size        {blob_bytes:>10} bytes");
    println!("generated source {gen_source_bytes:>10} bytes");
    println!("snapshot (oracle) {snapshot_ns:>9.0} ns/action");
    println!("artifact (f64)   {artifact_ns:>10.0} ns/action");
    println!("artifact (raw)   {raw_ns:>10.0} ns/action");
    println!("artifact (batch32) {batch_ns:>8.0} ns/action");
    println!("codegen          {codegen_ns:>10.0} ns/action");
    println!("raw interpreter vs oracle: {:.2}x", snapshot_ns / raw_ns);
    println!(
        "compiled codegen vs interpreter: {:.2}x",
        raw_ns / codegen_ns
    );

    if let Ok(path) = std::env::var("FIXAR_BENCH_JSON") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"deploy_inference\",");
        let _ = writeln!(json, "  \"env\": \"Pendulum\",");
        let _ = writeln!(json, "  \"hidden\": [64, 48],");
        let _ = writeln!(json, "  \"backend\": \"Fx32\",");
        let _ = writeln!(json, "  \"qat_bits\": 16,");
        let _ = writeln!(json, "  \"reps\": {reps},");
        let _ = writeln!(json, "  \"bit_equality_gate\": \"passed\",");
        let _ = writeln!(json, "  \"content_hash\": \"{:016x}\",", art.content_hash());
        let _ = writeln!(json, "  \"blob_bytes\": {blob_bytes},");
        let _ = writeln!(json, "  \"codegen_source_bytes\": {gen_source_bytes},");
        let _ = writeln!(json, "  \"snapshot_ns_per_action\": {snapshot_ns:.1},");
        let _ = writeln!(json, "  \"artifact_ns_per_action\": {artifact_ns:.1},");
        let _ = writeln!(json, "  \"artifact_raw_ns_per_action\": {raw_ns:.1},");
        let _ = writeln!(json, "  \"artifact_batch32_ns_per_action\": {batch_ns:.1},");
        let _ = writeln!(json, "  \"codegen_ns_per_action\": {codegen_ns:.1},");
        let _ = writeln!(
            json,
            "  \"raw_speedup_vs_snapshot\": {:.3},",
            snapshot_ns / raw_ns
        );
        let _ = writeln!(
            json,
            "  \"codegen_speedup_vs_interpreter\": {:.3}",
            raw_ns / codegen_ns
        );
        json.push_str("}\n");
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
