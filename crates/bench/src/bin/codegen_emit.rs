//! Emits deployment codegen artifacts for the `codegen-embedded` CI job.
//!
//! Trains a tiny DDPG actor through its QAT freeze (8-bit, so the
//! emitted source carries real calibrated shift/clamp quantizers),
//! exports the `PolicyArtifact`, and writes to the output directory
//! (first CLI argument, default `target/codegen`):
//!
//! * `policy.rs` — the `emit_rust()` output: self-contained `#![no_std]`
//!   integer-only inference source, pre-checked against the static
//!   no-std/no-float gate. The CI job cross-compiles this file for
//!   `thumbv7em-none-eabi` and fails the build on any `std` or float
//!   reference.
//! * `policy_blob.bin` — the serialized artifact the source was
//!   generated from, for auditing the baked-in `CONTENT_HASH`.
//!
//! Before writing, the interpreter is checked against the snapshot on a
//! small observation sweep; after writing, the emitted source is
//! compiled by the host `rustc` (`-C opt-level=3 -C target-cpu=native`,
//! the workspace's flags) with a generated runner that replays a
//! 256-observation pool — every action word must equal
//! `PolicyArtifact::infer_raw`'s (`codegen gate:` line) — and then times
//! the compiled `infer` against the interpreter's `infer_raw`, in ns per
//! action. So a CI failure in the cross-compile step can only mean a
//! portability problem, not a broken policy.

use std::fmt::Write as _;
use std::time::Instant;

use fixar_deploy::{verify_generated_source, PolicyArtifact};
use fixar_fixed::Fx32;
use fixar_rl::{Ddpg, DdpgConfig, Transition, TransitionBatch};

/// Observations the compiled gate replays.
const OBS_POOL: usize = 256;
/// Inferences each timed arm runs.
const REPS: usize = 20_000;

/// Compiles `art`'s emitted source as an rlib, links a generated runner
/// against it, replays `raw_obs` (each action checked against
/// `infer_raw`), then times `reps` compiled inferences in-process.
/// Returns ns per action.
fn compiled_codegen_ns(art: &PolicyArtifact, src: &str, raw_obs: &[Vec<i32>], reps: usize) -> f64 {
    let dir = std::env::temp_dir().join(format!("fixar_codegen_emit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("codegen temp dir");
    let src_path = dir.join("policy.rs");
    std::fs::write(&src_path, src).expect("write generated source");
    let rustc = |args: &[&str], out: &std::path::Path, input: &std::path::Path| {
        let run = std::process::Command::new("rustc")
            .args([
                "--edition=2021",
                "-C",
                "opt-level=3",
                "-C",
                "target-cpu=native",
            ])
            .args(args)
            .arg("-o")
            .arg(out)
            .arg(input)
            .output()
            .expect("host rustc must be invocable");
        assert!(
            run.status.success(),
            "{} failed to compile:\n{}",
            input.display(),
            String::from_utf8_lossy(&run.stderr)
        );
    };
    let rlib = dir.join("libpolicy.rlib");
    rustc(
        &["--crate-type=rlib", "--crate-name=policy"],
        &rlib,
        &src_path,
    );

    let (in_dim, out_dim, pool) = (art.input_dim(), art.output_dim(), raw_obs.len());
    let mut runner = String::new();
    let _ = writeln!(runner, "static OBS: [[i32; {in_dim}]; {pool}] = [");
    for row in raw_obs {
        let _ = writeln!(runner, "    {row:?},");
    }
    let _ = writeln!(
        runner,
        "];\n\nfn main() {{\n    \
         for r in 0..{pool} {{\n        \
         let mut a = [0i32; {out_dim}];\n        \
         policy::infer(&OBS[r], &mut a);\n        \
         let words: Vec<String> = a.iter().map(|w| w.to_string()).collect();\n        \
         println!(\"act {{r}} {{}}\", words.join(\" \"));\n    }}\n    \
         let mut sink = 0i64;\n    \
         let t0 = std::time::Instant::now();\n    \
         for i in 0..{reps} {{\n        \
         let mut a = [0i32; {out_dim}];\n        \
         policy::infer(&OBS[i % {pool}], &mut a);\n        \
         sink = sink.wrapping_add(a[0] as i64);\n    }}\n    \
         let ns = t0.elapsed().as_secs_f64() * 1e9 / {reps} as f64;\n    \
         println!(\"sink {{sink}}\");\n    \
         println!(\"ns {{ns:.1}}\");\n}}"
    );
    let runner_path = dir.join("runner.rs");
    std::fs::write(&runner_path, &runner).expect("write runner source");
    let runner_bin = dir.join("runner");
    let extern_arg = format!("policy={}", rlib.display());
    rustc(&["--extern", &extern_arg], &runner_bin, &runner_path);

    let run = std::process::Command::new(&runner_bin)
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
                assert_eq!(
                    got,
                    art.infer_raw(&raw_obs[r]).unwrap(),
                    "BIT-EQUALITY GATE FAILED: compiled codegen diverges at row {r}"
                );
            }
            "sink" => {}
            "ns" => ns = Some(parts[1].parse::<f64>().unwrap()),
            other => panic!("unexpected runner line {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("codegen gate: {pool} compiled inferences match the interpreter exactly");
    ns.expect("runner must report a timing")
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/codegen".into());
    std::fs::create_dir_all(&dir).expect("create output dir");

    let cfg = DdpgConfig {
        seed: 11,
        ..DdpgConfig::small_test()
    }
    .with_qat(4, 8);
    let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).expect("agent");
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
    let batch = TransitionBatch::from_transitions(&refs).expect("batch");
    for t in 0..8u64 {
        let s: Vec<f64> = (0..3)
            .map(|c| ((t as usize * 3 + c) as f64 * 0.31).sin())
            .collect();
        agent.act(&s).expect("act");
        agent.train_minibatch_weighted(&batch, None).expect("train");
        agent.on_timestep(t).expect("timestep");
    }
    assert!(agent.qat_frozen(), "QAT schedule must have fired");
    let snap = agent.policy_snapshot(0);
    let art = snap.export_artifact().expect("export artifact");

    // Sanity sweep: the interpreter must agree with the snapshot before
    // we vouch for the emitted source.
    for i in 0..16 {
        let o: Vec<f64> = (0..3).map(|c| ((i * 3 + c) as f64 * 0.41).sin()).collect();
        assert_eq!(
            art.infer(&o).expect("infer"),
            snap.select_action(&o).expect("select_action"),
            "artifact diverges from snapshot at obs {i}"
        );
    }

    let src = art.emit_rust();
    verify_generated_source(&src).expect("generated source must pass the static gate");
    let stats = art.blob_stats();
    std::fs::write(format!("{dir}/policy.rs"), &src).expect("write policy.rs");
    std::fs::write(format!("{dir}/policy_blob.bin"), art.encode()).expect("write blob");

    println!("content_hash {:016x}", art.content_hash());
    println!("source_bytes {}", src.len());
    println!(
        "blob_bytes {} (tables_affine {})",
        stats.bytes, stats.tables_affine
    );
    println!("wrote {dir}/policy.rs and {dir}/policy_blob.bin");

    let raw_obs: Vec<Vec<i32>> = (0..OBS_POOL)
        .map(|r| {
            (0..3)
                .map(|c| Fx32::from_f64(((r * 3 + c) as f64 * 0.37).sin() * 0.9).raw())
                .collect()
        })
        .collect();
    let codegen_ns = compiled_codegen_ns(&art, &src, &raw_obs, REPS);
    let t0 = Instant::now();
    for i in 0..REPS {
        std::hint::black_box(art.infer_raw(&raw_obs[i % OBS_POOL]).unwrap());
    }
    let interp_ns = t0.elapsed().as_secs_f64() * 1e9 / REPS as f64;
    println!("interpreter (infer_raw) {interp_ns:>8.0} ns/action");
    println!("compiled codegen        {codegen_ns:>8.0} ns/action");
    println!(
        "compiled codegen vs interpreter: {:.2}x",
        interp_ns / codegen_ns
    );
}
