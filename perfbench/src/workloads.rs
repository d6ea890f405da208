//! The three workloads: set-up, load phases, output checks, and the
//! traced run's layer probes. README.md says why each exists.

use crate::calib::{self, Kernel};
use crate::fleet::{self, Fleet};
use crate::layers;
use crate::load::{self, timetable, Kind, Planned};
use crate::model::{self, derive, stream, Key, MODELS};
use crate::report::{Metric, PhaseCounts};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vrdag_serve::protocol::ReplyHeader;
use vrdag_serve::{ModelHandle, ModelRegistry};

/// Snapshots per sequence in every workload.
pub const T: usize = 8;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_ROUNDS: usize = 3;
/// Calibration-kernel passes per vCPU right before and right after each
/// set-up round.
const SETUP_PASSES: usize = 5;
/// How long an open loop waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(15);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GenColdN378,
    WireColdN95,
    WireWarmRouted,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::GenColdN378, Workload::WireColdN95, Workload::WireWarmRouted];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GenColdN378 => "gen-cold-n378",
            Workload::WireColdN95 => "wire-cold-n95",
            Workload::WireWarmRouted => "wire-warm-routed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Email scale factor: ×0.2 is N=378, ×0.05 is N=95.
    fn scale(self) -> f64 {
        match self {
            Workload::GenColdN378 => 0.2,
            Workload::WireColdN95 | Workload::WireWarmRouted => 0.05,
        }
    }

    /// Latency limit on a whole sequence, for `slo_met_ratio`. The
    /// closed loop has no arrival rate to keep up with; its limit only
    /// catches a gross stall, at about 2.6 times the slowest median
    /// sequence seen (1922 ms with 13% CPU steal, when a 2000 ms limit
    /// missed 3 of 11 sequences).
    fn slo_ms(self) -> f64 {
        match self {
            Workload::GenColdN378 => 5000.0,
            Workload::WireColdN95 => 400.0,
            Workload::WireWarmRouted => 5.0,
        }
    }

    /// Offered rate of the open loops.
    fn rate(self) -> Option<f64> {
        match self {
            Workload::GenColdN378 => None,
            Workload::WireColdN95 => Some(7.0),
            Workload::WireWarmRouted => Some(500.0),
        }
    }
}

/// The open-loop writer runs a calibration-kernel pass at most this often,
/// and only with this much time to spare before the next send.
const CALIB_EVERY: Duration = Duration::from_millis(50);
const CALIB_ROOM: Duration = Duration::from_millis(10);
/// Calibration-kernel passes right before and right after a wire phase.
const CALIB_AROUND: usize = 3;
/// Distinct keys the warm workload cycles through.
const WARM_KEYS: usize = 64;
/// Cache entries of the cold node: fewer than one run inserts.
const COLD_CACHE_ENTRIES: usize = 32;
/// Workers per serve process.
const WORKERS: usize = 2;
/// Intra-job threads of the library workload. With two threads on a
/// 2-vCPU host, every parallel section waits for the slower vCPU: a run
/// during 21% CPU steal generated 1.9x slower than one without, while
/// single-threaded runs stayed within about 10% of each other.
const LIBRARY_THREADS: usize = 1;

/// What one run is asked to do.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// The release `vrdag-cli` binary.
    pub cli: PathBuf,
    /// Output directory of this run (model files, server logs).
    pub dir: PathBuf,
    pub nproc: usize,
    /// The host-speed calibration kernel.
    pub kernel: Kernel,
}

impl Ctx {
    /// Set-up rounds: a traced run reports no `setup_s`, so it sets up once.
    fn setup_rounds(&self) -> usize {
        if self.traced {
            1
        } else {
            SETUP_ROUNDS
        }
    }

    /// Length of each load phase. A traced run splits its time between
    /// the untraced and the traced phase, so it lasts about as long as a
    /// timed run plus the layer probes.
    fn phase_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Phases of a run, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Cache pre-warm (part of set-up).
    Prewarm,
    Warmup,
    /// The measured phase, tracing off.
    Timed,
    /// The same load again with tracing on (traced runs only).
    Traced,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Prewarm => "prewarm",
            Phase::Warmup => "warmup",
            Phase::Timed => "timed",
            Phase::Traced => "traced",
        }
    }
}

/// One request (or library sequence), as the benchmark saw it.
#[derive(Clone, Debug)]
struct Record {
    phase: Phase,
    kind: Kind,
    model: usize,
    seed: u64,
    error: Option<String>,
    seq_ms: Option<f64>,
    /// CPU time of the whole sequence (library only; a node's CPU time
    /// is only known per phase).
    cpu_ms: Option<f64>,
    /// CPU time of the whole sequence in calibration-kernel passes
    /// (library only).
    cpu_calib: Option<f64>,
    first_ms: Option<f64>,
    gaps_ms: Vec<f64>,
    digest: Option<u64>,
    late_ms: Option<f64>,
    qms: Option<u64>,
    genms: Option<u64>,
}

impl Record {
    fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Everything a run measured.
pub struct RunData {
    pub loop_desc: String,
    pub n_nodes: usize,
    pub flags: Vec<String>,
    pub phases: Vec<PhaseCounts>,
    /// End-to-end metrics of the timed phase.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    /// Whether every reply matched its reference digest.
    pub digests_ok: bool,
}

/// What a run measured, before it is turned into metrics.
struct Measured {
    /// Wall seconds of each set-up round, with the wall ms of a
    /// calibration-kernel pass on every vCPU around it.
    setup: Vec<(f64, f64)>,
    /// Peak resident set of the serving processes, MiB.
    rss_mb: f64,
    records: Vec<Record>,
    /// Wall seconds of each load phase, first due time to last reply.
    secs: Vec<(Phase, f64)>,
    /// CPU ms the serving processes used in each wire load phase.
    server_cpu_ms: Vec<(Phase, f64)>,
    /// Mean CPU ms of the calibration-kernel passes of each load phase.
    calib_ms: Vec<(Phase, f64)>,
    max_in_flight: Vec<(Phase, usize)>,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            setup: Vec::new(),
            rss_mb: 0.0,
            records: Vec::new(),
            secs: Vec::new(),
            server_cpu_ms: Vec::new(),
            calib_ms: Vec::new(),
            max_in_flight: Vec::new(),
        }
    }

    fn of(&self, phase: Phase) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.phase == phase)
    }

    fn secs(&self, phase: Phase) -> f64 {
        self.secs.iter().find(|(p, _)| *p == phase).map_or(0.0, |(_, s)| *s)
    }

    fn snapshots_per_s(&self, phase: Phase) -> f64 {
        let delivered = self.of(phase).filter(|r| r.ok()).count() * T;
        delivered as f64 / self.secs(phase).max(1e-9)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Time one set-up round, with calibration-kernel passes on every vCPU
/// right before and right after it.
fn timed_setup<R>(
    ctx: &Ctx,
    m: &mut Measured,
    round: impl FnOnce() -> Result<R, String>,
) -> Result<R, String> {
    let before = ctx.kernel.wall_pass_ms(ctx.nproc, SETUP_PASSES);
    let started = Instant::now();
    let out = round()?;
    let wall = started.elapsed().as_secs_f64();
    let after = ctx.kernel.wall_pass_ms(ctx.nproc, SETUP_PASSES);
    m.setup.push((wall, (before + after) / 2.0));
    Ok(out)
}

/// `setup_s`: the median set-up round, in seconds at the reference
/// host speed (each round's wall time times the reference pass over the
/// passes timed around it, see `calib.rs`); and `setup_wall_s`, the
/// median round in wall seconds.
fn median_setup(setup: &[(f64, f64)]) -> [Metric; 2] {
    let scaled: Vec<f64> =
        setup.iter().map(|&(wall, pass)| wall * calib::REFERENCE_PASS_MS / pass).collect();
    let wall: Vec<f64> = setup.iter().map(|&(wall, _)| wall).collect();
    let list = |v: &[f64]| v.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(", ");
    let passes: Vec<f64> = setup.iter().map(|&(_, pass)| pass).collect();
    [
        Metric::new(
            "setup_s",
            median(&scaled).expect("at least one set-up round"),
            "s",
            format!(
                "median of {} rounds [{}] at {} ms per kernel pass; passes read [{}] ms",
                setup.len(),
                list(&scaled),
                calib::REFERENCE_PASS_MS,
                list(&passes)
            ),
        ),
        Metric::new(
            "setup_wall_s",
            median(&wall).expect("at least one set-up round"),
            "s",
            format!("median of {} rounds [{}]", setup.len(), list(&wall)),
        ),
    ]
}

/// The cost of a delivered sequence in the timed phase, in CPU time
/// (`cpu_ms_per_seq`) and in calibration-kernel passes
/// (`seq_cpu_calib`, see `calib.rs`). CPU time leaves out time stolen by
/// the hypervisor; the kernel ratio also cancels the vCPU's own speed.
/// In-process, each step's CPU time is divided by the kernel passes timed
/// on either side of it, and the figure is the median over each model's
/// sequences, averaged over the models, so neither a slow stretch nor an
/// uneven share of sequences per model moves it. Over the wire it is the
/// serving processes' CPU time over the phase divided by the sequences
/// they delivered and by the mean of the passes the load generator timed
/// while it waited between sends.
fn sequence_cost(m: &Measured, ok: &[&Record]) -> [Metric; 2] {
    let of =
        |v: &[(Phase, f64)]| v.iter().find(|(p, _)| *p == Phase::Timed).map_or(0.0, |(_, c)| *c);
    let calib = of(&m.calib_ms);
    let per_model = |f: &dyn Fn(&Record) -> Option<f64>| -> Vec<f64> {
        (0..MODELS)
            .filter_map(|model| {
                let v: Vec<f64> =
                    ok.iter().filter(|r| r.model == model).filter_map(|r| f(r)).collect();
                median(&v)
            })
            .collect()
    };
    let cpu = per_model(&|r| r.cpu_ms);
    if !cpu.is_empty() {
        let ratio = per_model(&|r| r.cpu_calib);
        let note = |what: &str| {
            format!(
                "mean of {} per-model medians of {what}, n={}; mean kernel pass {calib:.3} ms",
                cpu.len(),
                ok.len()
            )
        };
        return [
            Metric::new(
                "cpu_ms_per_seq",
                mean(&cpu),
                "ms",
                note("this process's CPU per sequence"),
            ),
            Metric::new(
                "seq_cpu_calib",
                mean(&ratio),
                "ratio",
                note("CPU per sequence in kernel passes"),
            ),
        ];
    }
    let per_seq = of(&m.server_cpu_ms) / ok.len().max(1) as f64;
    let note = format!(
        "{:.0} ms of serving-process CPU / {} sequences; mean kernel pass {calib:.3} ms",
        of(&m.server_cpu_ms),
        ok.len()
    );
    [
        Metric::new("cpu_ms_per_seq", per_seq, "ms", note.clone()),
        Metric::new("seq_cpu_calib", per_seq / calib, "ratio", note),
    ]
}

/// Run `ctx.workload`.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<RunData, String> {
    match ctx.workload {
        Workload::GenColdN378 => run_library(ctx, tracer),
        Workload::WireColdN95 | Workload::WireWarmRouted => run_wire(ctx, tracer),
    }
}

/// Seed of request `i` of `phase`: fresh for every request of a run.
fn request_seed(ctx: &Ctx, phase: Phase, i: usize) -> u64 {
    derive(ctx.seed, stream::REQUEST, ((phase as u64) << 32) | i as u64)
}

// ---------------------------------------------------------------- library

fn run_library(ctx: &Ctx, tracer: &mut Tracer) -> Result<RunData, String> {
    let mut m = Measured::new();
    let mut handles = Vec::new();
    for _ in 0..ctx.setup_rounds() {
        handles = timed_setup(ctx, &mut m, || {
            register(model::fit_all(ctx.workload.scale(), ctx.seed, ctx.nproc))
        })?;
    }
    vrdag_tensor::par::with_threads(LIBRARY_THREADS, || -> Result<(), String> {
        library_phase(ctx, &handles, Phase::Warmup, 0.0, &mut Tracer::new(false), &mut m)?;
        library_phase(
            ctx,
            &handles,
            Phase::Timed,
            ctx.phase_seconds(),
            &mut Tracer::new(false),
            &mut m,
        )?;
        if ctx.traced {
            library_phase(ctx, &handles, Phase::Traced, ctx.phase_seconds(), tracer, &mut m)?;
        }
        Ok(())
    })?;
    m.rss_mb = fleet::vm_hwm_kib("/proc/self/status") / 1024.0;

    let mut per_layer = Vec::new();
    if ctx.traced {
        per_layer = model_layers(ctx, &handles[0], LIBRARY_THREADS, true, tracer)?;
        per_layer.extend(probe_fleet_hop(ctx, &handles[0], tracer)?);
        per_layer.push(Metric::new("serve.cache.hit_ratio", 0.0, "ratio", "no cache on this path"));
        per_layer.push(Metric::new(
            "serve.cache.insertions",
            0.0,
            "count",
            "no cache on this path",
        ));
        per_layer.push(Metric::new("serve.cache.evictions", 0.0, "count", "no cache on this path"));
        per_layer.extend(loadgen_metrics(&m, Phase::Traced));
    }
    let loop_desc = format!(
        "closed loop, 1 client, 1 sequence in flight, {LIBRARY_THREADS} intra-job thread, no cache, {MODELS} models in turn"
    );
    let server = vec![format!("in-process ModelHandle::stream(t={T}, seed)")];
    Ok(finish(ctx, &handles, loop_desc, server, m, per_layer))
}

/// The model and in-process serving probes every traced run makes, on
/// the workload's first model with `threads` intra-job threads. With
/// `stages`, also the queue wait and generation time of cold jobs.
fn model_layers(
    ctx: &Ctx,
    handle: &ModelHandle,
    threads: usize,
    stages: bool,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let model = handle.instantiate().map_err(|e| e.to_string())?;
    let (mut out, sequence) = layers::core(&model, handle.bytes(), T, threads, ctx.seed, tracer);
    out.extend(layers::decode_sweep(threads, ctx.seed, tracer));
    out.extend(layers::serve_inprocess(handle, T, threads, ctx.seed, stages, tracer)?);
    out.extend(layers::encode(&sequence, tracer));
    Ok(out)
}

/// Closed loop of whole sequences for `seconds` (at least one sequence).
/// A calibration-kernel pass runs before each sequence and after each
/// step; the step timings leave the passes out.
fn library_phase(
    ctx: &Ctx,
    handles: &[ModelHandle],
    phase: Phase,
    seconds: f64,
    tracer: &mut Tracer,
    m: &mut Measured,
) -> Result<(), String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut end = start;
    let mut all_passes = Vec::new();
    for i in 0.. {
        let (model, seed) = (i % MODELS, request_seed(ctx, phase, i));
        let mut passes = vec![ctx.kernel.pass_ms()];
        let t0 = Instant::now();
        let mut step_start = (t0, calib::process_cpu_ms());
        let mut snapshots = Vec::with_capacity(T);
        // Wall (start, end) and CPU ms of each step.
        let mut steps: Vec<(Instant, Instant, f64)> = Vec::with_capacity(T);
        let stream = handles[model].stream(T, seed).map_err(|e| e.to_string())?;
        let opened = Instant::now();
        for snapshot in stream {
            let done = Instant::now();
            steps.push((step_start.0, done, calib::process_cpu_ms() - step_start.1));
            snapshots.push(snapshot);
            passes.push(ctx.kernel.pass_ms());
            step_start = (Instant::now(), calib::process_cpu_ms());
        }
        end = steps.last().expect("t >= 1").1;
        let request = m.records.len() as u64;
        let root = tracer.record("library.sequence", request, None, t0, end);
        tracer.record("serve.registry.stream_open", request, Some(root), t0, opened);
        for (k, &(from, to, _)) in steps.iter().enumerate() {
            tracer.record("core.step", request, Some(root), if k == 0 { opened } else { from }, to);
        }
        let durations: Vec<f64> = steps.iter().map(|&(from, to, _)| ms(to - from)).collect();
        // Each step's CPU time in passes of the kernel timed on either side.
        let calibrated: f64 =
            steps.iter().zip(passes.windows(2)).map(|(s, p)| s.2 / ((p[0] + p[1]) / 2.0)).sum();
        m.records.push(Record {
            phase,
            kind: Kind::Gen,
            model,
            seed,
            error: (snapshots.len() != T).then(|| "short-sequence".to_string()),
            seq_ms: Some(durations.iter().sum()),
            cpu_ms: Some(steps.iter().map(|s| s.2).sum()),
            cpu_calib: Some(calibrated),
            first_ms: Some(durations[0]),
            gaps_ms: durations[1..].to_vec(),
            digest: Some(vrdag::artifact_fingerprint(&model::encode_bin(&snapshots))),
            late_ms: None,
            qms: None,
            genms: None,
        });
        all_passes.extend(passes);
        if Instant::now() >= deadline {
            break;
        }
    }
    m.secs.push((phase, (end - start).as_secs_f64()));
    m.calib_ms.push((phase, mean(&all_passes)));
    m.max_in_flight.push((phase, 1));
    Ok(())
}

// ------------------------------------------------------------------- wire

/// One set-up round of a wire workload: fit, write the model, start
/// the processes, wait until they answer, pre-warm the cache.
fn wire_setup(ctx: &Ctx, m: &mut Measured) -> Result<(Fleet, Vec<ModelHandle>, Vec<Key>), String> {
    let io = |e: std::io::Error| e.to_string();
    let artifacts = model::fit_all(ctx.workload.scale(), ctx.seed, ctx.nproc);
    let mut paths = Vec::new();
    for (i, bytes) in artifacts.iter().enumerate() {
        let path = ctx.dir.join(format!("{}.vrdg", model::name(i)));
        std::fs::write(&path, bytes).map_err(io)?;
        paths.push(path);
    }
    let handles = register(artifacts)?;
    let fleet = match ctx.workload {
        Workload::WireColdN95 => {
            Fleet::node(&ctx.cli, &paths, WORKERS, COLD_CACHE_ENTRIES, &ctx.dir)
        }
        _ => Fleet::routed(&ctx.cli, &paths, 2, WORKERS, 2 * WARM_KEYS, &ctx.dir),
    }
    .map_err(io)?;
    let mut keys = Vec::new();
    if ctx.workload == Workload::WireWarmRouted {
        keys = (0..WARM_KEYS)
            .map(|j| (j % MODELS, derive(ctx.seed, stream::KEY_PICK, j as u64)))
            .collect();
        let replies = fleet::gen_pipelined(fleet.entry, T, &keys).map_err(io)?;
        for (&(model, seed), reply) in keys.iter().zip(replies) {
            let error = match reply.header {
                ReplyHeader::Gen { snapshots: T, .. } => None,
                other => Some(format!("{other:?}")),
            };
            m.records.push(Record {
                phase: Phase::Prewarm,
                kind: Kind::Gen,
                model,
                seed,
                error,
                seq_ms: None,
                cpu_ms: None,
                cpu_calib: None,
                first_ms: None,
                gaps_ms: Vec::new(),
                digest: Some(vrdag::artifact_fingerprint(&reply.payload)),
                late_ms: None,
                qms: None,
                genms: None,
            });
        }
    }
    Ok((fleet, handles, keys))
}

/// Register serialized models as `m0`, `m1`, … and return their handles.
fn register(artifacts: Vec<Vec<u8>>) -> Result<Vec<ModelHandle>, String> {
    let registry = ModelRegistry::new();
    artifacts
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| {
            registry.register_bytes(&model::name(i), bytes).map_err(|e| e.to_string())
        })
        .collect()
}

/// The open-loop timetable of `phase`: `seconds` at the workload's rate,
/// every fourth request a `SUB`. Requests draw from `keys` when given,
/// else each gets a fresh seed, with the models taken in turn.
fn plan(ctx: &Ctx, phase: Phase, seconds: f64, keys: &[Key]) -> Vec<Planned> {
    let rate = ctx.workload.rate().expect("open-loop workload");
    let count = (rate * seconds).round().max(1.0) as usize;
    timetable(rate, count)
        .into_iter()
        .enumerate()
        .map(|(i, due)| {
            let (model, seed) = if keys.is_empty() {
                (i % MODELS, request_seed(ctx, phase, i))
            } else {
                let pick = derive(
                    ctx.seed,
                    stream::KEY_PICK,
                    ((phase as u64) << 32) | (1 << 31) | i as u64,
                );
                keys[(pick % keys.len() as u64) as usize]
            };
            Planned { due, kind: if i % 4 == 3 { Kind::Sub } else { Kind::Gen }, model, seed }
        })
        .collect()
}

fn wire_phase(
    ctx: &Ctx,
    fleet: &Fleet,
    phase: Phase,
    seconds: f64,
    keys: &[Key],
    tracer: &mut Tracer,
    m: &mut Measured,
) -> Result<(), String> {
    let plan = plan(ctx, phase, seconds, keys);
    let work = || ctx.kernel.pass_ms();
    let idle = load::Idle { work: &work, every: CALIB_EVERY, room: CALIB_ROOM };
    let mut passes: Vec<f64> = (0..CALIB_AROUND).map(|_| ctx.kernel.pass_ms()).collect();
    let cpu0 = fleet.cpu_ms();
    let run = load::run_open_loop(fleet.entry, &plan, T, DRAIN, Some(&idle), tracer)
        .map_err(|e| e.to_string())?;
    m.server_cpu_ms.push((phase, fleet.cpu_ms() - cpu0));
    passes.extend(&run.idle);
    passes.extend((0..CALIB_AROUND).map(|_| ctx.kernel.pass_ms()));
    m.calib_ms.push((phase, mean(&passes)));
    let end = run.outcomes.iter().filter_map(|o| o.done).max().unwrap_or(run.start);
    m.secs.push((phase, end.saturating_duration_since(run.start).as_secs_f64()));
    m.max_in_flight.push((phase, load::max_in_flight(&run.outcomes, end)));
    for (p, o) in plan.iter().zip(run.outcomes) {
        let due = run.start + p.due;
        let since_due = |t: Instant| ms(t.saturating_duration_since(due));
        let complete = p.kind == Kind::Gen || o.evts.len() == T;
        let error = o.error.clone().or_else(|| {
            (o.snapshots != T || !complete)
                .then(|| format!("short-sequence ({} snapshots)", o.snapshots))
        });
        m.records.push(Record {
            phase,
            kind: p.kind,
            model: p.model,
            seed: p.seed,
            seq_ms: o.done.filter(|_| error.is_none()).map(since_due),
            cpu_ms: None,
            cpu_calib: None,
            first_ms: o.evts.first().map(|&t| since_due(t)),
            gaps_ms: o.evts.windows(2).map(|w| ms(w[1] - w[0])).collect(),
            error,
            digest: o.digest,
            late_ms: o.sent.map(since_due),
            qms: o.qms,
            genms: o.genms,
        });
    }
    Ok(())
}

/// Cache counters (hits, misses, insertions, evictions) at `addr`.
fn cache_counters(addr: std::net::SocketAddr) -> Result<[f64; 4], String> {
    let text = fleet::scrape(addr).map_err(|e| e.to_string())?;
    Ok([
        "vrdag_cache_hits_total",
        "vrdag_cache_misses_total",
        "vrdag_cache_insertions_total",
        "vrdag_cache_evictions_total",
    ]
    .map(|name| fleet::counter(&text, name)))
}

fn run_wire(ctx: &Ctx, tracer: &mut Tracer) -> Result<RunData, String> {
    let mut rounds = Measured::new();
    let mut env = None;
    for _ in 0..ctx.setup_rounds() {
        // Stop the previous round's processes before timing the next.
        drop(env.take());
        let mut prewarm = Measured::new();
        let round = timed_setup(ctx, &mut rounds, || wire_setup(ctx, &mut prewarm))?;
        env = Some((round, prewarm));
    }
    let ((mut fleet, handles, keys), mut m) = env.expect("at least one set-up round");
    m.setup = rounds.setup;
    let warmup_s = if ctx.workload == Workload::WireWarmRouted { 0.5 } else { 1.0 };
    wire_phase(ctx, &fleet, Phase::Warmup, warmup_s, &keys, &mut Tracer::new(false), &mut m)?;
    wire_phase(
        ctx,
        &fleet,
        Phase::Timed,
        ctx.phase_seconds(),
        &keys,
        &mut Tracer::new(false),
        &mut m,
    )?;
    let mut cache = [0.0; 4];
    if ctx.traced {
        let before = cache_counters(fleet.entry)?;
        wire_phase(ctx, &fleet, Phase::Traced, ctx.phase_seconds(), &keys, tracer, &mut m)?;
        let after = cache_counters(fleet.entry)?;
        for k in 0..4 {
            cache[k] = after[k] - before[k];
        }
    }
    if !fleet.alive() {
        return Err("a serving process exited during the run".into());
    }
    m.rss_mb = fleet.peak_rss_mb();
    let flags = fleet.flags.clone();

    let mut per_layer = Vec::new();
    if ctx.traced {
        // A node clamps intra-job threads so that workers × threads fit the host.
        per_layer = model_layers(ctx, &handles[0], (ctx.nproc / WORKERS).max(1), false, tracer)?;
        let subs: Vec<&Record> =
            m.of(Phase::Traced).filter(|r| r.kind == Kind::Sub && r.ok()).collect();
        let qms: Vec<f64> = subs.iter().filter_map(|r| r.qms).map(|v| v as f64).collect();
        let genms: Vec<f64> = subs.iter().filter_map(|r| r.genms).map(|v| v as f64).collect();
        let q = summarize(&qms).ok_or("no END qms= in the traced phase")?;
        let g = summarize(&genms).ok_or("no END genms= in the traced phase")?;
        per_layer.push(Metric::new(
            "serve.queue.wait_ms_p50",
            q.p50,
            "ms",
            format!("END qms=, n={}", q.n),
        ));
        per_layer.push(Metric::new("serve.queue.wait_ms_tail", q.tail, "ms", q.tail_note()));
        per_layer.push(Metric::new(
            "serve.worker.gen_ms_p50",
            g.p50,
            "ms",
            format!("END genms=, n={}", g.n),
        ));
        let [hits, misses, insertions, evictions] = cache;
        let lookups = hits + misses;
        per_layer.push(Metric::new(
            "serve.cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
            format!("{hits} hits / {lookups} lookups in the traced phase"),
        ));
        per_layer.push(Metric::new("serve.cache.insertions", insertions, "count", "traced phase"));
        per_layer.push(Metric::new("serve.cache.evictions", evictions, "count", "traced phase"));
        per_layer.extend(loadgen_metrics(&m, Phase::Traced));
        if ctx.workload == Workload::WireWarmRouted {
            per_layer.extend(layers::hop(&fleet, T, keys[0], tracer)?);
        } else {
            drop(fleet);
            per_layer.extend(probe_fleet_hop(ctx, &handles[0], tracer)?);
        }
    } else {
        drop(fleet);
    }
    let rate = ctx.workload.rate().expect("open-loop workload");
    let route = if ctx.workload == Workload::WireWarmRouted {
        format!(", through the router, {WARM_KEYS} pre-warmed keys")
    } else {
        ", direct to one node, fresh seed per request".to_string()
    };
    let loop_desc = format!(
        "open loop, {rate} req/s on 1 pipelined connection, 1 in 4 SUB, {MODELS} models in turn{route}"
    );
    Ok(finish(ctx, &handles, loop_desc, flags, m, per_layer))
}

/// The frontend/router probe for workloads without a router: start two
/// internal nodes and a router on the workload's first model, probe, stop.
fn probe_fleet_hop(
    ctx: &Ctx,
    handle: &ModelHandle,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let path = ctx.dir.join("probe-m0.vrdg");
    std::fs::write(&path, handle.bytes().as_slice()).map_err(|e| e.to_string())?;
    let fleet =
        Fleet::routed(&ctx.cli, &[path], 2, WORKERS, 8, &ctx.dir).map_err(|e| e.to_string())?;
    layers::hop(&fleet, T, (0, derive(ctx.seed, stream::PROBE, 200)), tracer)
}

/// The load generator's own figures for `phase`.
fn loadgen_metrics(m: &Measured, phase: Phase) -> Vec<Metric> {
    let sent = m.of(phase).count();
    let late: Vec<f64> = m.of(phase).filter_map(|r| r.late_ms).collect();
    let (late_tail, late_note) = match summarize(&late) {
        Some(s) => (s.tail, s.tail_note()),
        None => (0.0, "closed loop: no timetable".to_string()),
    };
    let peak = m.max_in_flight.iter().find(|(p, _)| *p == phase).map_or(0, |(_, n)| *n);
    let overhead = m.snapshots_per_s(Phase::Traced) / m.snapshots_per_s(Phase::Timed).max(1e-9);
    vec![
        Metric::new("loadgen.late_ms_tail", late_tail, "ms", late_note),
        Metric::new("loadgen.sent", sent as f64, "count", "traced phase"),
        Metric::new("loadgen.max_in_flight", peak as f64, "count", "traced phase"),
        Metric::new(
            "trace.overhead_ratio",
            overhead,
            "ratio",
            format!(
                "traced {:.3} / untraced {:.3} snapshots/s",
                m.snapshots_per_s(Phase::Traced),
                m.snapshots_per_s(Phase::Timed)
            ),
        ),
    ]
}

// ----------------------------------------------------------------- checks

/// The output gate: every reply's digest must equal the in-process
/// reference of its key, so a `SUB`'s concatenated `EVT` payloads and a
/// `GEN` payload of the same key must also equal each other. A mismatch
/// marks the request failed. Returns whether every digest matched.
fn verify(handles: &[ModelHandle], records: &mut [Record]) -> bool {
    let keys: BTreeSet<Key> =
        records.iter().filter(|r| r.digest.is_some()).map(|r| (r.model, r.seed)).collect();
    let keys: Vec<Key> = keys.into_iter().collect();
    let reference = model::reference_digests(handles, T, &keys);
    let mut all = true;
    for r in records.iter_mut().filter(|r| r.ok()) {
        if r.digest != reference.get(&(r.model, r.seed)).copied() {
            r.error = Some("digest-mismatch".into());
            r.seq_ms = None;
            all = false;
        }
    }
    all
}

/// Check the outputs and turn what the run measured into metrics.
fn finish(
    ctx: &Ctx,
    handles: &[ModelHandle],
    loop_desc: String,
    flags: Vec<String>,
    mut m: Measured,
    per_layer: Vec<Metric>,
) -> RunData {
    let digests_ok = verify(handles, &mut m.records);
    let phases: Vec<PhaseCounts> = [Phase::Prewarm, Phase::Warmup, Phase::Timed, Phase::Traced]
        .into_iter()
        .filter(|&p| m.of(p).next().is_some())
        .map(|p| PhaseCounts {
            name: p.name(),
            sent: m.of(p).count(),
            ok: m.of(p).filter(|r| r.ok()).count(),
            failed: m.of(p).filter(|r| !r.ok()).count(),
        })
        .collect();
    let attempted = m.records.len();
    let failed = m.records.iter().filter(|r| !r.ok()).count();
    let mut errors: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &m.records {
        if let Some(e) = &r.error {
            *errors.entry(e.as_str()).or_default() += 1;
        }
    }

    let timed: Vec<&Record> = m.of(Phase::Timed).collect();
    let ok: Vec<&Record> = timed.iter().copied().filter(|r| r.ok()).collect();
    let seq: Vec<f64> = ok.iter().filter_map(|r| r.seq_ms).collect();
    let first: Vec<f64> = ok.iter().filter_map(|r| r.first_ms).collect();
    let gaps: Vec<f64> = ok.iter().flat_map(|r| r.gaps_ms.iter().copied()).collect();
    let slo = ctx.workload.slo_ms();
    let slo_met = timed.iter().filter(|r| r.seq_ms.is_some_and(|v| v <= slo)).count();

    let mut e2e = median_setup(&m.setup).to_vec();
    e2e.push(Metric::new(
        "snapshots_per_s",
        m.snapshots_per_s(Phase::Timed),
        "1/s",
        format!("{} ok sequences x {T} in {:.3} s", ok.len(), m.secs(Phase::Timed)),
    ));
    e2e.extend(sequence_cost(&m, &ok));
    for (name, values) in
        [("seq_ms", &seq), ("first_snapshot_ms", &first), ("snapshot_gap_ms", &gaps)]
    {
        let (p50, tail) = match summarize(values) {
            Some(s) => (
                Metric::new(&format!("{name}_p50"), s.p50, "ms", format!("n={}", s.n)),
                Metric::new(&format!("{name}_tail"), s.tail, "ms", s.tail_note()),
            ),
            None => (
                Metric::new(&format!("{name}_p50"), f64::NAN, "ms", "no samples"),
                Metric::new(&format!("{name}_tail"), f64::NAN, "ms", "no samples"),
            ),
        };
        e2e.extend([p50, tail]);
    }
    e2e.push(Metric::new(
        "slo_met_ratio",
        slo_met as f64 / timed.len().max(1) as f64,
        "ratio",
        format!("{slo_met} of {} within {slo} ms", timed.len()),
    ));
    e2e.push(Metric::new(
        "ok_ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("1 - failed_ratio; failed_ratio = {failed} / {attempted}"),
    ));
    let rss_of =
        if ctx.workload.rate().is_some() { "the serving processes" } else { "this process" };
    e2e.push(Metric::new("peak_rss_mb", m.rss_mb, "MiB", format!("VmHWM of {rss_of}")));

    let mut notes = Vec::new();
    if !errors.is_empty() {
        notes.push(format!("errors: {errors:?}"));
    }
    notes.push(format!(
        "digest gate: {} ({} distinct keys checked against ModelHandle::stream -> spill_binary)",
        if digests_ok { "pass" } else { "FAIL" },
        m.records.iter().map(|r| (r.model, r.seed)).collect::<BTreeSet<_>>().len()
    ));
    // The generator's own lateness decides whether this is a server result.
    if let Some(rate) = ctx.workload.rate() {
        let late: Vec<f64> = timed.iter().filter_map(|r| r.late_ms).collect();
        if let Some(s) = summarize(&late) {
            let limit = 2e3 / rate;
            let verdict =
                if s.tail > limit { "BEHIND: not a server result" } else { "kept its timetable" };
            notes.push(format!(
                "load generator {verdict}: send lateness tail {:.3} ms ({}; limit {limit:.1} ms, two inter-arrival gaps), max in flight {}",
                s.tail,
                s.tail_note(),
                m.max_in_flight.iter().find(|(p, _)| *p == Phase::Timed).map_or(0, |(_, n)| *n)
            ));
        }
    }
    RunData {
        loop_desc,
        n_nodes: handles[0].n_nodes(),
        flags,
        phases,
        end_to_end: e2e,
        per_layer,
        notes,
        attempted,
        failed,
        digests_ok,
    }
}
