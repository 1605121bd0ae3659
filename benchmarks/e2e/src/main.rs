//! End-to-end benchmark of the FIXAR workspace: four train/serve
//! workloads, four end-to-end metrics, per-layer attribution from spans
//! taken around the calls into each crate. See `README.md`.
//!
//! One process runs one workload once:
//!
//! ```text
//! fixar-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::Histogram;
use trace::Tracer;
use train::Seeds;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "train_paper_b64",
    "train_fleet64_host",
    "serve_sat_model",
    "serve_sat_door",
];

/// `(name, unit)` of what `--trace 0` reports.
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("action_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of what `--trace 1` reports. A metric of a layer the
/// workload does not run stays 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("env.step_us", "us"),
    ("env.steps", "count"),
    ("env.share", "frac"),
    ("replay.push_us", "us"),
    ("replay.sample_us", "us"),
    ("replay.prio_update_us", "us"),
    ("replay.pushes", "count"),
    ("replay.samples", "count"),
    ("replay.share", "frac"),
    ("agent.train_us", "us"),
    ("agent.train_share", "frac"),
    ("agent.updates", "count"),
    ("agent.act_us", "us"),
    ("agent.select_batch_us", "us"),
    ("agent.on_timestep_us", "us"),
    ("tensor.macs_per_update", "count"),
    ("tensor.train_gmacs_per_s", "GMAC/s"),
    ("deploy.export_us", "us"),
    ("deploy.encode_us", "us"),
    ("deploy.decode_us", "us"),
    ("deploy.blob_bytes", "bytes"),
    ("deploy.tables_affine", "count"),
    ("deploy.infer_us_per_row", "us"),
    ("deploy.infer_share", "frac"),
    ("serve.submit_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.door_us_per_req", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch_rows", "rows"),
    ("serve.full_flushes", "count"),
    ("serve.deadline_flushes", "count"),
    ("serve.dropped_replies", "count"),
    ("pool.queue_push_pop_ns", "ns"),
    ("pool.oneshot_ns", "ns"),
    ("loop.glue_us", "us"),
    ("loop.sum_of_parts_frac", "frac"),
    ("rl.weights_checksum", "hash"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.ops_per_s", "1/s"),
    ("e2e.ops_per_s", "1/s"),
    ("e2e.action_samples", "count"),
    ("e2e.action_p50_us", "us"),
    ("e2e.action_p99_us", "us"),
    ("e2e.action_tail_us", "us"),
    ("e2e.action_tail_pct", "%"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Spans a traced run keeps (≈19 MB); the traced phase ends early when
/// they are used up, which only the serve workloads reach.
const SPAN_CAP: usize = 400_000;

/// Share of a traced run's time that runs untraced first, as the base
/// of `trace.overhead_frac`.
const UNTRACED_SHARE: f64 = 0.25;

/// Named values, all 0 until set; the names are fixed by the table the
/// set was made from.
pub struct Metrics(Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    fn of(table: &[(&'static str, &'static str)]) -> Self {
        Self(table.iter().map(|&(n, u)| (n, u, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        slot.2 = value;
    }
}

/// Slices a phase is cut into; `ops_per_s` is the median slice rate.
const SLICES: f64 = 40.0;

/// A stretch of the timed region.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub ops: u64,
    pub secs: f64,
    /// Median of the per-slice rates, or `ops / secs` for a phase too
    /// short to have a whole slice.
    rate: f64,
}

impl Phase {
    /// Ops per second as the median over equal time slices: the box
    /// shares its two cores, and a neighbour's burst slows a second or
    /// two of a run by a third, which a mean over the run would carry.
    pub fn ops_per_s(&self) -> f64 {
        self.rate
    }
}

/// What [`drive`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub untraced: Phase,
    /// The phase with spans on (`--trace 1` only).
    pub traced: Option<Phase>,
    /// Loop iterations over both phases.
    pub iters: u64,
    /// `rl.weights_checksum`, taken with the clock stopped.
    pub checksum: Option<u32>,
}

/// A set-up workload: the loop body, its counters, and its layer report.
pub trait Workload {
    /// Called once when the timed region starts.
    fn begin(&mut self, _tr: &mut Tracer) {}
    /// One loop iteration.
    fn iter(&mut self, tr: &mut Tracer);
    /// Called once before the timed region ends.
    fn end(&mut self, _tr: &mut Tracer) {}
    /// Ops finished since set-up, failed ones included.
    fn completed(&self) -> u64;
    fn failed(&self) -> u64;
    /// The fixed iteration count after which the checksum is taken; the
    /// timed region lasts at least this long.
    fn checkpoint_iters(&self) -> Option<u64> {
        None
    }
    fn checksum(&self) -> u32 {
        0
    }
    /// Wait for an action, one sample per `act` / `select_actions_batch`
    /// / request.
    fn action_latency(&self) -> &Histogram;
    /// Fills in this workload's per-layer metrics.
    fn layers(&mut self, m: &mut Metrics, tr: &Tracer, timed: &Timed);
}

/// Runs the timed region for `seconds`: untraced throughout, or with
/// `trace` untraced for the first [`UNTRACED_SHARE`] and traced after.
pub fn drive(w: &mut dyn Workload, tr: &mut Tracer, seconds: f64, trace: bool) -> Timed {
    let checkpoint = w.checkpoint_iters();
    let mut iters = 0u64;
    let mut checksum = None;
    let mut phase = |w: &mut dyn Workload, tr: &mut Tracer, secs: f64, last: bool| {
        let ops_before = w.completed();
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        let mut slice_from = (0.0, ops_before);
        let mut rates = Vec::with_capacity(SLICES as usize + 1);
        loop {
            let clock = (start.elapsed() - paused).as_secs_f64();
            if clock - slice_from.0 >= secs / SLICES && w.completed() > slice_from.1 {
                rates.push((w.completed() - slice_from.1) as f64 / (clock - slice_from.0));
                slice_from = (clock, w.completed());
            }
            let owes_checkpoint = last && checkpoint.is_some_and(|c| iters < c);
            if (clock >= secs && !owes_checkpoint) || tr.is_exhausted() {
                break;
            }
            w.iter(tr);
            iters += 1;
            if checkpoint == Some(iters) {
                let stop = Instant::now();
                checksum = Some(w.checksum());
                paused += stop.elapsed();
            }
        }
        if last {
            w.end(tr);
        }
        let ops = w.completed() - ops_before;
        let elapsed = (start.elapsed() - paused).as_secs_f64();
        let rate = if rates.is_empty() {
            ops as f64 / elapsed
        } else {
            stats::median(&rates)
        };
        let slices: Vec<String> = rates.iter().map(|r| format!("{r:.6}")).collect();
        println!("# slice ops/s: {}", slices.join(" "));
        Phase {
            ops,
            secs: elapsed,
            rate,
        }
    };

    tr.set_on(false);
    w.begin(tr);
    let (untraced, traced) = if trace {
        let untraced = phase(w, tr, seconds * UNTRACED_SHARE, false);
        tr.set_on(true);
        let traced = phase(w, tr, seconds * (1.0 - UNTRACED_SHARE), true);
        tr.set_on(false);
        (untraced, Some(traced))
    } else {
        (phase(w, tr, seconds, true), None)
    };
    Timed {
        untraced,
        traced,
        iters,
        checksum,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 12,
        seconds: 20.0,
        trace: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Everything one run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Sets the workload up [`SETUP_REPEATS`] times, runs the last set-up,
/// and collects the metrics of the mode `args` selects.
fn run<W: Workload>(args: &Args, setup: impl Fn() -> Result<W, String>) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up goes first, so its memory is reused and
        // its server threads are gone.
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(setup()?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUP_REPEATS > 0");
    let setup_s = stats::median(&setups);
    println!("# setup_s per repeat: {setups:?}");

    let mut tr = Tracer::new(if args.trace { SPAN_CAP } else { 0 });
    let timed = drive(&mut w, &mut tr, args.seconds, args.trace);
    let peak_rss_mb = stats::peak_rss_mb()?;

    let latency = w.action_latency();
    let us = |q: f64| latency.quantile(q).map_or(0.0, |ns| ns / 1e3);
    let p50 = us(0.5);
    let tail_pct = stats::highest_supported_percentile(latency.len());
    println!(
        "# action latency: {} samples, p50 {:.3} us, p99 {:.3} us, tail {}",
        latency.len(),
        p50,
        us(0.99),
        tail_pct.map_or("unsupported (<100 samples)".to_string(), |p| format!(
            "p{} {:.3} us",
            p * 100.0,
            us(p)
        )),
    );
    if let Some(sum) = timed.checksum {
        println!("# rl.weights_checksum {sum}");
    }

    let metrics = if args.trace {
        let mut m = Metrics::of(&PER_LAYER);
        let traced = timed.traced.expect("trace mode has a traced phase");
        m.set("e2e.ops_per_s", timed.untraced.ops_per_s());
        m.set("e2e.action_samples", latency.len() as f64);
        m.set("e2e.action_p50_us", p50);
        m.set("e2e.action_p99_us", us(0.99));
        if let Some(p) = tail_pct {
            m.set("e2e.action_tail_us", us(p));
            m.set("e2e.action_tail_pct", p * 100.0);
        }
        m.set(
            "rl.weights_checksum",
            f64::from(timed.checksum.unwrap_or(0)),
        );
        m.set("trace.ops_per_s", traced.ops_per_s());
        m.set(
            "trace.overhead_frac",
            1.0 - traced.ops_per_s() / timed.untraced.ops_per_s(),
        );
        m.set("trace.spans", tr.spans().len() as f64);
        w.layers(&mut m, &tr, &timed);
        if let Some(dir) = &args.out {
            let path = dir.join(format!("trace_{}.json", args.workload));
            tr.write_json(&path, &args.workload, args.seed)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("# {} spans written to {}", tr.spans().len(), path.display());
        }
        m
    } else {
        let mut m = Metrics::of(&END_TO_END);
        m.set("ops_per_s", timed.untraced.ops_per_s());
        m.set("action_p50_us", p50);
        m.set("peak_rss_mb", peak_rss_mb);
        m.set("setup_s", setup_s);
        m
    };
    Ok(Report {
        attempted: w.completed(),
        failed: w.failed(),
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fixar-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    // `FIXAR_WORKERS` overrides every worker count in the workspace;
    // this benchmark is defined at one worker.
    if std::env::var_os("FIXAR_WORKERS").is_some() {
        eprintln!("fixar-e2e: FIXAR_WORKERS is set; unset it (the benchmark runs one worker)");
        return ExitCode::from(2);
    }
    println!(
        "# fixar-e2e workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# rustflags=[{}] available_parallelism={} generator_threads=1 arithmetic=Fx32 workers=1 shards=1",
        env!("E2E_RUSTFLAGS"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let seeds = Seeds::derive(args.seed);
    let report = match args.workload.as_str() {
        "train_paper_b64" => run(&args, || {
            train::Train::setup(&train::TRAIN_PAPER_B64, seeds)
        }),
        "train_fleet64_host" => run(&args, || {
            train::Train::setup(&train::TRAIN_FLEET64_HOST, seeds)
        }),
        "serve_sat_model" => run(&args, || {
            serve::Serve::setup(&serve::SERVE_SAT_MODEL, seeds)
        }),
        "serve_sat_door" => run(&args, || serve::Serve::setup(&serve::SERVE_SAT_DOOR, seeds)),
        other => unreachable!("parse_args let {other} through"),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fixar-e2e: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.trace {
        println!("# tensor.* MACs are computed from the layer dimensions, not counted");
    }
    let mut json = Vec::new();
    for &(name, unit, value) in &report.metrics.0 {
        if !value.is_finite() {
            eprintln!("fixar-e2e: metric {name} is not finite");
            return ExitCode::FAILURE;
        }
        println!("{name:<28} {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!("ops_attempted {}", report.attempted);
    println!("ops_failed {}", report.failed);
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_match_benchmark_json() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(name), "{name} is declared twice");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{name}\", \"why\": ")));
        }
        let declared = json.matches("{\"name\": ").count();
        assert_eq!(declared, seen.len() + WORKLOADS.len());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve_sat_door --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_sat_door", 7, 3.0, true)
        );
        let d = parse("--workload train_paper_b64").unwrap();
        assert_eq!((d.seed, d.trace), (12, false));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload train_paper_b64 --trace 2").is_err());
        assert!(parse("--workload train_paper_b64 --seconds -1").is_err());
        assert!(parse("--workload train_paper_b64 --seed").is_err());
        assert!(parse("--threads 4").is_err());
    }
}
