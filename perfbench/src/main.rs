//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --cli <vrdag-cli> [--out <dir>]
//! ```
//!
//! Sets up the workload from the seed, drives it, checks every output
//! against an in-process reference, and prints a human-readable report
//! followed by one JSON line: with `--trace 0` the end-to-end metrics,
//! with `--trace 1` the per-layer metrics of a separate traced run.
//! `perfbench/run.py` builds the binaries and calls this. See README.md.

mod calib;
mod fleet;
mod layers;
mod load;
mod model;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Metric, Report, Stamp};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Ctx, Workload, T};

/// End-to-end metrics (`--trace 0`), in report order.
const END_TO_END: [&str; 5] =
    ["setup_s", "seq_cpu_calib", "slo_met_ratio", "ok_ratio", "peak_rss_mb"];

/// Figures of the timed phase that move with the host's speed. Every
/// run reports them, in the text report and the results file, but they
/// are not in the result line: on a shared host they move with other
/// tenants' load between runs by more than any bound the benchmark may
/// set (README.md).
const HOST_BOUND: [&str; 9] = [
    "setup_wall_s",
    "cpu_ms_per_seq",
    "snapshots_per_s",
    "seq_ms_p50",
    "seq_ms_tail",
    "first_snapshot_ms_p50",
    "first_snapshot_ms_tail",
    "snapshot_gap_ms_p50",
    "snapshot_gap_ms_tail",
];

/// Per-layer metrics (`--trace 1`), in report order.
const PER_LAYER: [&str; 31] = [
    "core.prior.ms",
    "core.decoder.ms",
    "core.decoder.pairs_per_s",
    "core.attr.ms",
    "core.recur.ms",
    "core.step.ms",
    "core.unattributed.ms",
    "core.edges_per_snapshot",
    "core.persist.load_ms",
    "core.decoder.ms.n95",
    "core.decoder.ms.n378",
    "core.decoder.ms.n1513",
    "core.decoder.size_slope",
    "serve.registry.instantiate_ms",
    "serve.queue.wait_ms_p50",
    "serve.queue.wait_ms_tail",
    "serve.worker.gen_ms_p50",
    "serve.cache.hit_ratio",
    "serve.cache.insertions",
    "serve.cache.evictions",
    "serve.cache.hit_ms_p50",
    "serve.frontend.hit_reply_ms_p50",
    "serve.router.hop_ms_p50",
    "serve.router.retries",
    "graph.encode_bin.ms",
    "graph.encode_tsv.ms",
    "graph.encode.bytes",
    "loadgen.late_ms_tail",
    "loadgen.sent",
    "loadgen.max_in_flight",
    "trace.overhead_ratio",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        let at = argv.iter().position(|a| a == key)?;
        argv.get(at + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload:?}; expected one of {}", names.join(", "))
    })?;
    let number = |key: &str, v: Option<String>| -> Result<f64, String> {
        v.ok_or(format!("{key} is required"))?.parse::<f64>().map_err(|e| format!("{key}: {e}"))
    };
    let seed = number("--seed", get("--seed"))?;
    let seconds = number("--seconds", get("--seconds"))?;
    if !(seconds > 0.0 && seconds <= 600.0) || seed < 0.0 || seed.fract() != 0.0 {
        return Err("--seconds must be in (0, 600] and --seed a whole number >= 0".into());
    }
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let cli =
        PathBuf::from(get("--cli").ok_or("--cli <path to the release vrdag-cli> is required")?);
    if !cli.is_file() {
        return Err(format!("no vrdag-cli binary at {}", cli.display()));
    }
    let out = PathBuf::from(get("--out").unwrap_or_else(|| "perfbench/out".into()));
    Ok(Args { workload, seed: seed as u64, seconds, trace, cli, out })
}

/// Pick `names` out of `produced`, in order; every name must be there once.
fn select(produced: &[Metric], names: &[&str]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|&name| match produced.iter().filter(|m| m.name == name).count() {
            1 => Ok(produced.iter().find(|m| m.name == name).expect("counted").clone()),
            k => Err(format!("metric {name} produced {k} times")),
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tag = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let dir = args.out.join(&tag);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        cli: args.cli.clone(),
        dir: dir.clone(),
        nproc,
        kernel: calib::Kernel::new(),
    };
    let mut tracer = Tracer::new(args.trace);
    let data = workloads::run(&ctx, &mut tracer)?;

    let mut stamp = Stamp::host(nproc);
    stamp.add("workload", args.workload.name());
    stamp.add("seed", args.seed);
    stamp.add("seconds", args.seconds);
    stamp.add("loop", &data.loop_desc);
    stamp.add("N", data.n_nodes);
    stamp.add("t", T);
    for f in &data.flags {
        stamp.add("server", f);
    }
    let (metrics, which) = if args.trace {
        (select(&data.per_layer, &PER_LAYER)?, "per-layer (traced run)")
    } else {
        (select(&data.end_to_end, &END_TO_END)?, "end-to-end")
    };
    stamp.add("metrics", which);
    let mut notes = data.notes.clone();
    if !args.trace {
        for m in select(&data.end_to_end, &HOST_BOUND)? {
            notes.push(format!("host-bound: {} = {:.4} {} ({})", m.name, m.value, m.unit, m.note));
        }
    }
    if args.trace {
        let spans = dir.join("spans.jsonl");
        tracer.write_jsonl(&spans, started).map_err(|e| e.to_string())?;
        notes.push(format!("{} spans written to {}", tracer.spans().len(), spans.display()));
        // This run's untraced timed phase, for reference only.
        for m in &data.end_to_end {
            notes.push(format!(
                "untraced phase: {} = {:.4} {} ({})",
                m.name, m.value, m.unit, m.note
            ));
        }
    }
    let report = Report {
        title: format!("perfbench {tag}"),
        stamp: &stamp,
        phases: &data.phases,
        notes: &notes,
        metrics: &metrics,
        correct: data.digests_ok && data.failed == 0,
        attempted: data.attempted,
        failed: data.failed,
    };
    report.write_file(&args.out.join(format!("{tag}.json"))).map_err(|e| e.to_string())?;
    print!("{}", report.text());
    println!("{}", report.json_line());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly these
    /// metrics, and only workloads this binary runs.
    #[test]
    fn benchmark_json_lists_every_metric_and_known_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let quoted = |s: &str| format!("\"name\": \"{s}\"");
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(text.contains(&quoted(name)), "{name} missing from BENCHMARK.json");
        }
        let workloads = Workload::ALL.iter().filter(|w| text.contains(&quoted(w.name()))).count();
        assert!(workloads >= 2);
        let listed = text.matches("\"name\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
