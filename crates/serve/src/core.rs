//! The long-lived, non-blocking service core: a [`ServeHandle`] is a
//! cheaply clonable, `Send + Sync` front door to a fixed pool of
//! `std::thread` workers draining a shared [`JobQueue`](crate::JobQueue).
//!
//! `submit` never blocks on generation — it resolves the model, applies
//! admission control, enqueues, and returns a [`Ticket`] the caller can
//! [`wait`](Ticket::wait) on or poll; each job's [`JobResult`] is
//! delivered over the ticket's private channel by the worker that ran it
//! ("workers push completions"). There is no end-of-batch report baked
//! into the lifecycle: [`ServeHandle::stats`] takes an on-demand
//! [`ServeStats`] snapshot (running cache / latency counters)
//! at any point while the service keeps accepting traffic. The batch
//! convenience wrapper [`Scheduler`](crate::Scheduler) and the TCP
//! [`Frontend`](crate::Frontend) are both thin layers over this core.
//!
//! Shutdown is explicit and layered: [`close`](ServeHandle::close) stops
//! admission and lets workers drain, [`abort`](ServeHandle::abort)
//! additionally discards queued jobs (counted in
//! [`ServeStats::dropped_jobs`]; their tickets observe the dropped reply
//! channel as [`ServeError::JobDropped`]), and dropping the last handle
//! aborts and joins the workers so a core can never leak parked threads.

use crate::cache::{CacheKey, SnapshotCache};
use crate::queue::{Job, JobQueue};
use crate::registry::{ModelHandle, ModelRegistry};
use crate::stream::StreamStats;
use crate::tenant::{Tenant, TenantId, TenantRegistry};
use crate::{CacheBudget, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vrdag::Vrdag;
use vrdag_graph::io::{BinaryStreamWriter, TsvStreamWriter};
use vrdag_graph::{DynamicGraph, Snapshot};
use vrdag_obs::metrics::{Counter, Histogram, Registry as MetricsRegistry};
use vrdag_obs::{JobTrace, Logger, StageDurations};

/// Per-snapshot streaming consumer (see [`GenSink::Callback`]).
pub type SnapshotCallback = Box<dyn FnMut(usize, &Snapshot) + Send>;

/// Cooperative cancellation for one job: a cheap, clonable flag shared
/// between the submitter and the worker. Once [`cancel`](Self::cancel)
/// is called the generation loop stops at the next snapshot boundary —
/// whether it is stepping the model cold or replaying a cache hit — the
/// job's partial file output (if any) is removed, nothing is inserted
/// into the snapshot cache, and the [`JobResult`] reports
/// [`cancelled`](JobResult::cancelled) with the snapshots actually
/// delivered. A job cancelled while still queued never instantiates a
/// model at all.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at the next
    /// snapshot boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Where a job's snapshots go, one at a time.
pub enum GenSink {
    /// Stream to a TSV file (`vrdag_graph::io` temporal format),
    /// flushed per snapshot.
    TsvFile(PathBuf),
    /// Stream to a compact binary file, flushed per snapshot.
    BinaryFile(PathBuf),
    /// Hand each `(timestep, snapshot)` to a consumer as it is produced.
    Callback(SnapshotCallback),
    /// Collect the full sequence into [`JobResult::graph`] (unbounded
    /// memory — intended for small sequences, tests, and cached serving).
    InMemory,
    /// Generate and drop (throughput measurement / cache warming).
    Discard,
}

impl std::fmt::Debug for GenSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenSink::TsvFile(p) => f.debug_tuple("TsvFile").field(p).finish(),
            GenSink::BinaryFile(p) => f.debug_tuple("BinaryFile").field(p).finish(),
            GenSink::Callback(_) => f.write_str("Callback(..)"),
            GenSink::InMemory => f.write_str("InMemory"),
            GenSink::Discard => f.write_str("Discard"),
        }
    }
}

/// Exactly-once completion hook attached to a [`GenRequest`].
///
/// The frontend's reactor uses this to learn that a job's [`Ticket`] has
/// become ready without parking a waiter thread per job: the hook fires
/// *after* the [`JobResult`] is delivered on the ticket channel when a
/// worker finishes the job, and fires on drop when the job is discarded
/// (an [`abort`](ServeHandle::abort) — the ticket reports
/// [`ServeError::JobDropped`] by then, because the job's reply sender
/// drops before this field does). Either way, by the time the hook runs,
/// [`Ticket::try_wait`] is guaranteed to resolve.
#[derive(Default)]
pub struct CompletionNotify(Option<Box<dyn FnOnce() + Send>>);

impl CompletionNotify {
    /// Arm the hook. `f` must be cheap and non-blocking: the worker that
    /// finished the job calls it inline.
    pub fn new(f: impl FnOnce() + Send + 'static) -> Self {
        CompletionNotify(Some(Box::new(f)))
    }

    /// Run the hook now if still armed (idempotent).
    pub(crate) fn fire(&mut self) {
        if let Some(f) = self.0.take() {
            f();
        }
    }
}

impl Drop for CompletionNotify {
    fn drop(&mut self) {
        self.fire();
    }
}

impl std::fmt::Debug for CompletionNotify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "CompletionNotify(armed)"
        } else {
            "CompletionNotify(none)"
        })
    }
}

/// A seed-addressed generation request.
#[derive(Debug)]
pub struct GenRequest {
    /// Registered model name (resolved against the registry at submit
    /// time, so unknown names fail fast).
    pub model: String,
    /// Number of snapshots to generate (must be `>= 1`).
    pub t_len: usize,
    /// Determinism address: the same `(model, t_len, seed)` always yields
    /// the same sequence, regardless of which worker runs it and whether
    /// the snapshot cache serves it.
    pub seed: u64,
    /// Scheduling priority. Higher drains first; the scheduler treats it
    /// per model group (a group's priority is the max over its queued
    /// jobs), and jobs within a group stay FIFO.
    pub priority: i32,
    /// Where the snapshots go.
    pub sink: GenSink,
    /// Cooperative cancellation flag (optional). See [`CancelToken`].
    pub cancel: Option<CancelToken>,
    /// Tenant this job runs on behalf of; `None` maps to the built-in
    /// anonymous tenant (no quotas, weight 1). Resolved against the
    /// service's [`TenantRegistry`] at submit time.
    pub tenant: Option<TenantId>,
    /// Stage trace carried through the job's whole lifecycle
    /// (submitted → dequeued → snapshots → delivered); `None` lets
    /// `submit` create a fresh one. Pass a pre-made trace to anchor the
    /// clock earlier (e.g. when the request was parsed off the wire).
    pub trace: Option<JobTrace>,
    /// Exactly-once completion hook (see [`CompletionNotify`]); unarmed
    /// by default. Note: a request *rejected by `submit`* fires the hook
    /// too (the request is consumed either way), so listeners must
    /// tolerate a notification for work they never recorded as pending.
    pub notify: CompletionNotify,
}

impl GenRequest {
    /// A request with default (zero) priority, no cancellation token,
    /// and the anonymous tenant.
    pub fn new(model: impl Into<String>, t_len: usize, seed: u64, sink: GenSink) -> Self {
        GenRequest {
            model: model.into(),
            t_len,
            seed,
            priority: 0,
            sink,
            cancel: None,
            tenant: None,
            trace: None,
            notify: CompletionNotify::default(),
        }
    }

    /// Set the scheduling priority (higher drains first).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Attach a cancellation token the caller can trip later.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Run the job on behalf of `tenant` (must be registered with the
    /// service's [`TenantRegistry`], or the submit fails).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Attach a pre-created [`JobTrace`] (e.g. anchored when the request
    /// came off the wire) instead of letting `submit` start one.
    pub fn with_trace(mut self, trace: JobTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Arm an exactly-once completion hook: it runs after the job's
    /// result is deliverable on its [`Ticket`] (worker finished, or job
    /// discarded by an abort). See [`CompletionNotify`].
    pub fn with_notify(mut self, f: impl FnOnce() + Send + 'static) -> Self {
        self.notify = CompletionNotify::new(f);
        self
    }
}

/// Opaque job identifier (submission order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Outcome and throughput of one executed job, delivered on its
/// [`Ticket`]'s channel by the worker that ran it.
#[derive(Debug)]
pub struct JobResult {
    pub id: JobId,
    pub model: String,
    /// Tenant the job ran on behalf of (`anonymous` unless the request
    /// carried one).
    pub tenant: TenantId,
    pub t_len: usize,
    pub seed: u64,
    /// Snapshots produced (`t_len` on success; 0 on failure — a failed
    /// file-sink job also has its partial output file removed).
    pub snapshots: usize,
    /// Total temporal edges produced.
    pub edges: usize,
    /// Approximate bytes of snapshot data streamed to the sink
    /// (`Snapshot::approx_bytes` summed over delivered snapshots) —
    /// the unit the per-tenant `bytes_streamed` accounting uses.
    pub bytes: usize,
    /// Wall-clock job duration in seconds (excluding queue wait).
    pub seconds: f64,
    /// Generation rate of this job.
    pub snapshots_per_sec: f64,
    /// True when the snapshot cache served this job without regenerating.
    pub cache_hit: bool,
    /// True when the job was stopped early by its [`CancelToken`]:
    /// `snapshots` holds how many were delivered before the stop,
    /// `error` stays `None` (cancellation is not a failure), and no
    /// partial output survives (file sinks are removed, nothing enters
    /// the cache).
    pub cancelled: bool,
    /// Service-wide completion sequence number (1-based): results sorted
    /// by `seq` are in completion order, even though each travels on its
    /// own ticket channel.
    pub seq: u64,
    /// The generated sequence, for [`GenSink::InMemory`] jobs. Shared
    /// with the snapshot cache when caching is enabled.
    pub graph: Option<Arc<DynamicGraph>>,
    /// Error message if the job failed.
    pub error: Option<String>,
    /// Per-stage durations derived from the job's [`JobTrace`]
    /// (queue wait, time to first snapshot, generation, delivery).
    pub stages: StageDurations,
}

impl JobResult {
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Coalescing identity of a job — exactly the snapshot-cache key, so
/// "identical request" means "would be served by the same cache entry".
pub(crate) fn job_cache_key(handle: &ModelHandle, t_len: usize, seed: u64) -> CacheKey {
    CacheKey {
        model_fingerprint: handle.fingerprint(),
        model_size: handle.size_bytes(),
        t_len,
        seed,
    }
}

/// Construction-time knobs of a [`ServeHandle`] (and, through it, of the
/// batch [`Scheduler`](crate::Scheduler) facade).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (must be `>= 1`).
    pub workers: usize,
    /// Admission control: `submit` fails with [`ServeError::QueueFull`]
    /// once this many jobs are queued (in-flight jobs do not count).
    /// `None` disables the cap.
    pub max_queue_depth: Option<usize>,
    /// Snapshot-cache budget; [`CacheBudget::disabled`] turns caching off.
    pub cache: CacheBudget,
    /// Tenant identities, tokens, quotas, and fair-share weights. The
    /// default ([`TenantRegistry::anonymous_only`]) disables auth and
    /// maps every request to the quota-free anonymous tenant —
    /// behavior-identical to the pre-tenant service.
    pub tenants: TenantRegistry,
    /// Structured logger the service (and its frontends) emit events
    /// through. The default is [`Logger::disabled`] — zero overhead and
    /// behavior-identical to the pre-observability service.
    pub logger: Logger,
    /// Threads each worker may use *inside* one job (parallel per-row
    /// decode; see `vrdag_tensor::par`). `None` derives the request from
    /// `VRDAG_THREADS` / available parallelism. Whatever is requested is
    /// clamped so `workers × intra-job threads` never oversubscribes the
    /// host ([`ServeHandle::intra_threads`] reports the effective value).
    /// The thread count never changes output bytes — see
    /// `tests/parallel_determinism.rs`.
    pub intra_threads: Option<usize>,
}

/// The pre-refactor name of [`ServeConfig`], kept as an alias for the
/// batch-era API surface.
pub type SchedulerConfig = ServeConfig;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_queue_depth: None,
            cache: CacheBudget::disabled(),
            tenants: TenantRegistry::anonymous_only(),
            logger: Logger::disabled(),
            intra_threads: None,
        }
    }
}

/// Wall-clock latency distribution over the most recent completed jobs
/// (a bounded sliding window, so a long-lived service pays O(window), not
/// O(lifetime)).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Total jobs ever measured (window or not).
    pub samples: u64,
    /// Jobs inside the current window the percentiles are computed over.
    pub window: usize,
    pub mean_seconds: f64,
    /// Median wall time.
    pub p50_seconds: f64,
    /// 95th-percentile wall time.
    pub p95_seconds: f64,
    /// 99th-percentile wall time.
    pub p99_seconds: f64,
    pub max_seconds: f64,
}

/// Per-stage latency percentiles derived from each job's [`JobTrace`]
/// marks, over the same bounded windows as [`LatencyStats`]. Stages a
/// job never reached (e.g. `first_snapshot` for a queued-cancelled job)
/// are simply not sampled.
#[derive(Clone, Debug, Default)]
pub struct StageLatencyStats {
    /// Submit accepted → worker pickup.
    pub queue_wait: LatencyStats,
    /// Worker pickup → first snapshot written to the sink.
    pub first_snapshot: LatencyStats,
    /// Worker pickup → last snapshot written to the sink.
    pub generation: LatencyStats,
    /// Last snapshot → result handoff to the ticket.
    pub delivery: LatencyStats,
    /// Cumulative decode-thread stall waiting on the pipelined encode
    /// helper — the per-job parallel-efficiency signal (near zero means
    /// the pipeline fully hid the sink cost). Only jobs that pipelined
    /// *and* stalled at least once are sampled.
    pub encode_wait: LatencyStats,
}

/// Point-in-time per-tenant counters inside a [`ServeStats`] snapshot.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Tenant id (`anonymous` for unauthenticated traffic).
    pub id: String,
    /// Fair-share weight the scheduler applies to this tenant.
    pub weight: u32,
    /// Jobs accepted by `submit` on behalf of this tenant.
    pub submitted: u64,
    /// Jobs that finished executing (success, failure, or cancelled).
    pub completed: u64,
    /// Completed jobs that failed.
    pub failed: u64,
    /// Completed jobs stopped early by their [`CancelToken`].
    pub cancelled: u64,
    /// Submissions refused by admission control (tenant quotas, the
    /// rate limit, or the global queue cap).
    pub rejected: u64,
    /// Approximate bytes of snapshot data streamed to this tenant's
    /// sinks ([`JobResult::bytes`] summed).
    pub bytes_streamed: u64,
    /// Median job wall time over this tenant's recent jobs.
    pub p50_seconds: f64,
    /// 95th-percentile job wall time over this tenant's recent jobs.
    pub p95_seconds: f64,
}

impl LatencyStats {
    /// `p50/p95/p99` rendered in milliseconds.
    pub fn render(&self) -> String {
        format!(
            "p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms  (mean {:.2}ms, max {:.2}ms over {} of {} jobs)",
            self.p50_seconds * 1e3,
            self.p95_seconds * 1e3,
            self.p99_seconds * 1e3,
            self.mean_seconds * 1e3,
            self.max_seconds * 1e3,
            self.window,
            self.samples,
        )
    }
}

/// On-demand point-in-time snapshot of a running service — the
/// replacement for the retired end-of-batch report: callers pull it
/// whenever they want instead of waiting for a drain.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Worker threads the pool was built with.
    pub workers: usize,
    /// Seconds since the core was created.
    pub uptime_seconds: f64,
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Jobs that finished executing (success or failure).
    pub completed: u64,
    /// Completed jobs that failed.
    pub failed: u64,
    /// Completed jobs stopped early by their [`CancelToken`] (not
    /// counted as failures).
    pub cancelled: u64,
    /// Queued jobs discarded by `abort`/drop without ever running.
    pub dropped_jobs: u64,
    /// Jobs queued and not yet picked up by a worker.
    pub queue_depth: usize,
    /// Jobs currently executing.
    pub in_flight: usize,
    /// Highest observed number of simultaneously executing jobs.
    pub max_in_flight: usize,
    /// Snapshots produced by completed jobs.
    pub snapshots: u64,
    /// Temporal edges produced by completed jobs.
    pub edges: u64,
    /// Snapshot-cache counters (all zero when disabled).
    pub cache: crate::CacheStats,
    /// Per-job wall-time percentiles.
    pub latency: LatencyStats,
    /// Per-stage percentiles from the jobs' [`JobTrace`] marks.
    pub stages: StageLatencyStats,
    /// Per-tenant counters, sorted by tenant id. Only tenants that have
    /// submitted (or been rejected) at least once appear.
    pub tenants: Vec<TenantStats>,
}

impl ServeStats {
    /// Completed jobs per uptime second (coarse; prefer your own clock
    /// for micro-benchmarks).
    pub fn jobs_per_sec(&self) -> f64 {
        self.completed as f64 / self.uptime_seconds.max(1e-9)
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve: {} submitted / {} completed ({} failed, {} cancelled, {} dropped) on {} workers in {:.3}s  (peak {} in flight, {} queued now)",
            self.submitted,
            self.completed,
            self.failed,
            self.cancelled,
            self.dropped_jobs,
            self.workers,
            self.uptime_seconds,
            self.max_in_flight,
            self.queue_depth,
        );
        let _ = writeln!(
            out,
            "  throughput: {} snapshots / {} edges total",
            self.snapshots, self.edges,
        );
        let _ = writeln!(
            out,
            "  gauges: uptime_secs={:.0} jobs_inflight={}",
            self.uptime_seconds, self.in_flight
        );
        let _ = writeln!(out, "  latency: {}", self.latency.render());
        let _ = writeln!(
            out,
            "  stages: queue p50 {:.2}ms p95 {:.2}ms | first-snapshot p50 {:.2}ms p95 {:.2}ms | generation p50 {:.2}ms p95 {:.2}ms | delivery p50 {:.2}ms p95 {:.2}ms | encode-wait p50 {:.2}ms p95 {:.2}ms",
            self.stages.queue_wait.p50_seconds * 1e3,
            self.stages.queue_wait.p95_seconds * 1e3,
            self.stages.first_snapshot.p50_seconds * 1e3,
            self.stages.first_snapshot.p95_seconds * 1e3,
            self.stages.generation.p50_seconds * 1e3,
            self.stages.generation.p95_seconds * 1e3,
            self.stages.delivery.p50_seconds * 1e3,
            self.stages.delivery.p95_seconds * 1e3,
            self.stages.encode_wait.p50_seconds * 1e3,
            self.stages.encode_wait.p95_seconds * 1e3,
        );
        let _ = writeln!(
            out,
            "  cache: {} hits / {} misses ({:.0}% hit rate), {} evictions, {} entries / {} KiB resident",
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate(),
            self.cache.evictions,
            self.cache.entries,
            self.cache.bytes / 1024,
        );
        // Anonymous-only traffic keeps the legacy single-tenant summary;
        // the per-tenant section appears once named tenants show up.
        if self.tenants.iter().any(|t| t.id != crate::tenant::ANONYMOUS_TENANT) {
            let _ = writeln!(out, "  tenants:");
            for t in &self.tenants {
                let _ = writeln!(
                    out,
                    "    {:<16} w={}  {} submitted / {} completed ({} failed, {} cancelled, {} rejected)  {} KiB streamed  p50 {:.2}ms p95 {:.2}ms",
                    t.id,
                    t.weight,
                    t.submitted,
                    t.completed,
                    t.failed,
                    t.cancelled,
                    t.rejected,
                    t.bytes_streamed / 1024,
                    t.p50_seconds * 1e3,
                    t.p95_seconds * 1e3,
                );
            }
        }
        out
    }
}

/// Claim on one submitted job: the receive side of its private result
/// channel. The result is delivered exactly once — after a successful
/// [`try_wait`](Ticket::try_wait)/[`wait_timeout`](Ticket::wait_timeout),
/// further waits report [`ServeError::JobDropped`].
#[derive(Debug)]
pub struct Ticket {
    id: JobId,
    model: String,
    t_len: usize,
    seed: u64,
    rx: Receiver<JobResult>,
}

impl Ticket {
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The request's registered model name.
    pub fn model(&self) -> &str {
        &self.model
    }

    pub fn t_len(&self) -> usize {
        self.t_len
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Block until the job completes. Returns
    /// [`ServeError::JobDropped`] when the job was discarded by an
    /// abort/drop before a worker ran it (or its result was already
    /// consumed by a poll).
    pub fn wait(self) -> Result<JobResult, ServeError> {
        self.rx.recv().map_err(|_| ServeError::JobDropped)
    }

    /// Non-blocking poll: `Ok(None)` while the job is still queued or
    /// running.
    pub fn try_wait(&mut self) -> Result<Option<JobResult>, ServeError> {
        match self.rx.try_recv() {
            Ok(result) => Ok(Some(result)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ServeError::JobDropped),
        }
    }

    /// Bounded wait: `Ok(None)` on timeout.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Option<JobResult>, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Ok(Some(result)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::JobDropped),
        }
    }
}

/// Latency samples kept for percentile estimation (per core).
const LATENCY_WINDOW: usize = 4096;

/// Latency samples kept per tenant (smaller: one window per tenant).
const TENANT_LATENCY_WINDOW: usize = 512;

/// Bounded ring of recent per-job wall times with nearest-rank
/// percentile queries — the one implementation behind both the
/// service-wide [`LatencyStats`] and the per-tenant percentiles.
struct LatencyRing {
    samples: Vec<f64>,
    next: usize,
    cap: usize,
}

impl LatencyRing {
    fn new(cap: usize) -> LatencyRing {
        LatencyRing { samples: Vec::with_capacity(cap.min(1024)), next: 0, cap }
    }

    fn record(&mut self, seconds: f64) {
        if self.samples.len() < self.cap {
            self.samples.push(seconds);
        } else {
            self.samples[self.next] = seconds;
            self.next = (self.next + 1) % self.cap;
        }
    }

    fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The window's samples, sorted ascending (for [`rank`](Self::rank)).
    fn sorted(&self) -> Vec<f64> {
        let mut window = self.samples.clone();
        window.sort_unstable_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        window
    }

    /// Nearest-rank percentile over a sorted, non-empty window.
    fn rank(window: &[f64], q: f64) -> f64 {
        let idx = ((q * window.len() as f64).ceil() as usize).clamp(1, window.len()) - 1;
        window[idx]
    }
}

/// Running per-tenant counters (see [`TenantStats`] for the snapshot).
struct TenantRunning {
    submitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    rejected: u64,
    bytes_streamed: u64,
    latency: LatencyRing,
}

impl Default for TenantRunning {
    fn default() -> Self {
        TenantRunning {
            submitted: 0,
            completed: 0,
            failed: 0,
            cancelled: 0,
            rejected: 0,
            bytes_streamed: 0,
            latency: LatencyRing::new(TENANT_LATENCY_WINDOW),
        }
    }
}

impl TenantRunning {
    fn record_result(&mut self, result: &JobResult) {
        self.completed += 1;
        if result.error.is_some() {
            self.failed += 1;
        }
        if result.cancelled {
            self.cancelled += 1;
        }
        self.bytes_streamed += result.bytes as u64;
        self.latency.record(result.seconds);
    }

    /// `(p50, p95)` over the tenant's latency window.
    fn percentiles(&self) -> (f64, f64) {
        if self.latency.is_empty() {
            return (0.0, 0.0);
        }
        let window = self.latency.sorted();
        (LatencyRing::rank(&window, 0.50), LatencyRing::rank(&window, 0.95))
    }
}

/// Mutable running statistics updated by workers as they complete jobs.
struct RunningStats {
    latency: LatencyRing,
    latency_total: u64,
    /// Per-stage rings (queue wait, first snapshot, generation,
    /// delivery) fed from each job's [`JobTrace`]; indices match
    /// [`STAGE_NAMES`].
    stage_rings: [LatencyRing; STAGE_COUNT],
    stage_totals: [u64; STAGE_COUNT],
    /// Per-tenant counters, created lazily on first traffic.
    tenants: std::collections::HashMap<TenantId, TenantRunning>,
}

/// Stage labels, in [`RunningStats::stage_rings`] index order.
const STAGE_NAMES: [&str; STAGE_COUNT] =
    ["queue_wait", "first_snapshot", "generation", "delivery", "encode_wait"];
const STAGE_COUNT: usize = 5;

impl RunningStats {
    fn new() -> Self {
        RunningStats {
            latency: LatencyRing::new(LATENCY_WINDOW),
            latency_total: 0,
            stage_rings: std::array::from_fn(|_| LatencyRing::new(LATENCY_WINDOW)),
            stage_totals: [0; STAGE_COUNT],
            tenants: std::collections::HashMap::new(),
        }
    }

    fn tenant_mut(&mut self, id: &TenantId) -> &mut TenantRunning {
        self.tenants.entry(id.clone()).or_default()
    }

    fn record_latency(&mut self, seconds: f64) {
        self.latency.record(seconds);
        self.latency_total += 1;
    }

    fn record_stages(&mut self, stages: &StageDurations) {
        let values = [
            stages.queue_wait,
            stages.first_snapshot,
            stages.generation,
            stages.delivery,
            stages.encode_wait,
        ];
        for (i, v) in values.iter().enumerate() {
            if let Some(d) = v {
                self.stage_rings[i].record(d.as_secs_f64());
                self.stage_totals[i] += 1;
            }
        }
    }

    fn stage_stats(&self) -> StageLatencyStats {
        let one = |i: usize| ring_stats(&self.stage_rings[i], self.stage_totals[i]);
        StageLatencyStats {
            queue_wait: one(0),
            first_snapshot: one(1),
            generation: one(2),
            delivery: one(3),
            encode_wait: one(4),
        }
    }

    fn latency_stats(&self) -> LatencyStats {
        ring_stats(&self.latency, self.latency_total)
    }
}

/// [`LatencyStats`] over one ring's current window (`total` = lifetime
/// sample count, window or not).
fn ring_stats(ring: &LatencyRing, total: u64) -> LatencyStats {
    if ring.is_empty() {
        return LatencyStats::default();
    }
    let window = ring.sorted();
    LatencyStats {
        samples: total,
        window: window.len(),
        mean_seconds: window.iter().sum::<f64>() / window.len() as f64,
        p50_seconds: LatencyRing::rank(&window, 0.50),
        p95_seconds: LatencyRing::rank(&window, 0.95),
        p99_seconds: LatencyRing::rank(&window, 0.99),
        max_seconds: *window.last().expect("non-empty"),
    }
}

/// State shared between handles and workers (workers hold only this, so
/// dropping the last handle — which owns the join handles — can never
/// deadlock on a worker keeping the core alive).
/// Wall time past which a completed job earns a warn-level log event.
const SLOW_JOB_WARN_SECONDS: f64 = 10.0;

/// Natively instrumented metric handles — values only the hot path can
/// see (busy time, stage durations). Families that mirror counters the
/// core already tracks elsewhere (jobs, cache, queue) are refreshed from
/// those sources at render time instead, so `METRICS` and `STATS` can
/// never drift apart (see `ServeHandle::metrics_text`).
struct CoreMetrics {
    registry: MetricsRegistry,
    /// Milliseconds workers spent executing jobs (all workers summed).
    worker_busy_ms: Counter,
    /// `vrdag_job_stage_seconds{stage=...}`, indexed like [`STAGE_NAMES`].
    stage_seconds: [Histogram; STAGE_COUNT],
}

impl CoreMetrics {
    fn new() -> CoreMetrics {
        let registry = MetricsRegistry::new();
        crate::publish_build_info(&registry);
        let stage_seconds = std::array::from_fn(|i| {
            registry.histogram("vrdag_job_stage_seconds", &[("stage", STAGE_NAMES[i])])
        });
        CoreMetrics {
            worker_busy_ms: registry.counter("vrdag_worker_busy_ms_total", &[]),
            stage_seconds,
            registry,
        }
    }

    fn observe_stages(&self, stages: &StageDurations) {
        let values = [
            stages.queue_wait,
            stages.first_snapshot,
            stages.generation,
            stages.delivery,
            stages.encode_wait,
        ];
        for (i, v) in values.iter().enumerate() {
            if let Some(d) = v {
                self.stage_seconds[i].observe(d.as_secs_f64());
            }
        }
    }
}

struct Shared {
    queue: JobQueue,
    cache: SnapshotCache,
    logger: Logger,
    metrics: CoreMetrics,
    /// Effective intra-job thread count each worker runs its jobs under
    /// (the requested/default value, clamped against oversubscription).
    intra_threads: usize,
    stats: Mutex<RunningStats>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    dropped: AtomicU64,
    snapshots: AtomicU64,
    edges: AtomicU64,
    /// Completion sequence; see [`JobResult::seq`].
    seq: AtomicU64,
    closed: AtomicBool,
}

struct Core {
    shared: Arc<Shared>,
    registry: ModelRegistry,
    tenants: TenantRegistry,
    next_id: AtomicU64,
    max_queue_depth: Option<usize>,
    worker_count: usize,
    started: Instant,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for Core {
    fn drop(&mut self) {
        // The last handle is gone: abort (a drop is not a drain — error
        // paths must exit promptly instead of silently finishing minutes
        // of submitted work) and join so no worker is leaked parked on
        // the condvar. Discarded jobs stay observable as `dropped_jobs`
        // right until the counters themselves go away with the core.
        self.shared.closed.store(true, Ordering::SeqCst);
        let dropped = self.shared.queue.close_discard();
        self.shared.dropped.fetch_add(dropped as u64, Ordering::SeqCst);
        for handle in self.workers.get_mut().expect("workers lock poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Cheap, clonable, `Send + Sync` front door to a running service core.
///
/// All clones share one worker pool, queue, cache, and statistics; the
/// core shuts down (abort + join) when the last clone drops. See the
/// crate docs for the lifecycle.
#[derive(Clone)]
pub struct ServeHandle {
    core: Arc<Core>,
}

impl ServeHandle {
    /// Spawn `workers` threads draining a fresh queue, with caching and
    /// admission control disabled. Fails with [`ServeError::NoWorkers`]
    /// when `workers == 0`.
    pub fn new(registry: ModelRegistry, workers: usize) -> Result<ServeHandle, ServeError> {
        ServeHandle::with_config(registry, ServeConfig { workers, ..Default::default() })
    }

    /// Spawn a pool with explicit [`ServeConfig`]. Fails with
    /// [`ServeError::NoWorkers`] when `config.workers == 0` — a pool
    /// without workers would accept jobs that can never run.
    pub fn with_config(
        registry: ModelRegistry,
        config: ServeConfig,
    ) -> Result<ServeHandle, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::NoWorkers);
        }
        let cache = SnapshotCache::new(config.cache);
        // Coalescing only pays off when finished twins can be served
        // from the cache.
        let queue = JobQueue::with_cache(cache.is_enabled().then(|| cache.clone()));
        let intra_threads = effective_intra_threads(config.workers, config.intra_threads);
        let shared = Arc::new(Shared {
            queue,
            cache,
            logger: config.logger.clone(),
            metrics: CoreMetrics::new(),
            intra_threads,
            stats: Mutex::new(RunningStats::new()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            edges: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vrdag-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(ServeHandle {
            core: Arc::new(Core {
                shared,
                registry,
                tenants: config.tenants,
                next_id: AtomicU64::new(0),
                max_queue_depth: config.max_queue_depth,
                worker_count: config.workers,
                started: Instant::now(),
                workers: Mutex::new(workers),
            }),
        })
    }

    /// The tenant registry this service authenticates and schedules
    /// against. An [`auth_enabled`](TenantRegistry::auth_enabled)
    /// registry makes the TCP frontend demand an `AUTH` greeting.
    pub fn tenants(&self) -> &TenantRegistry {
        &self.core.tenants
    }

    /// The registry this service resolves model names against. Models
    /// registered or removed here are picked up by subsequent submits —
    /// the registry is shared, not snapshotted.
    pub fn registry(&self) -> &ModelRegistry {
        &self.core.registry
    }

    /// The snapshot cache shared by this service's workers.
    pub fn cache(&self) -> &SnapshotCache {
        &self.core.shared.cache
    }

    /// Jobs queued and not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.core.shared.queue.depth()
    }

    /// Worker threads the pool was built with.
    pub fn workers(&self) -> usize {
        self.core.worker_count
    }

    /// Effective intra-job thread count each worker runs its jobs under:
    /// [`ServeConfig::intra_threads`] (or the `VRDAG_THREADS`/host
    /// default), clamped so `workers × intra_threads` never exceeds the
    /// host's available parallelism. Determinism is unaffected — thread
    /// count never changes output bytes.
    pub fn intra_threads(&self) -> usize {
        self.core.shared.intra_threads
    }

    /// Enqueue a request without blocking on generation and return the
    /// [`Ticket`] its result will be delivered on. Fails fast with a
    /// typed error instead of accepting work it cannot run:
    ///
    /// * [`ServeError::SchedulerClosed`] after [`close`](Self::close) /
    ///   [`abort`](Self::abort),
    /// * [`ServeError::UnknownModel`] for unregistered names,
    /// * [`ServeError::InvalidRequest`] for `t_len == 0`,
    /// * [`ServeError::QueueFull`] when the admission cap is reached —
    ///   the caller's backpressure signal,
    /// * [`ServeError::QuotaExceeded`] when the request's *tenant* is
    ///   over one of its own quotas (rate limit, `max_inflight`,
    ///   `max_queue_share`) — per-tenant backpressure that leaves every
    ///   other tenant's admission untouched.
    pub fn submit(&self, req: GenRequest) -> Result<Ticket, ServeError> {
        if self.core.shared.closed.load(Ordering::SeqCst) {
            return Err(ServeError::SchedulerClosed);
        }
        if req.t_len == 0 {
            return Err(ServeError::InvalidRequest(
                "t_len must be >= 1 (a dynamic graph needs at least one snapshot)".into(),
            ));
        }
        let tenant: Arc<Tenant> = match &req.tenant {
            None => self.core.tenants.anonymous(),
            Some(id) => self.core.tenants.get(id).ok_or_else(|| {
                ServeError::InvalidRequest(format!("unknown tenant {:?}", id.as_str()))
            })?,
        };
        let handle = self.core.registry.resolve(&req.model)?;
        if !self.core.tenants.try_acquire_rate(&tenant) {
            self.note_rejected(tenant.id());
            return Err(ServeError::QuotaExceeded {
                tenant: tenant.id().to_string(),
                quota: "rate",
                cap: tenant.rate_limit.map_or(0, |r| r.per_sec.ceil() as u64),
            });
        }
        let (tx, rx) = mpsc::channel();
        let id = JobId(self.core.next_id.fetch_add(1, Ordering::SeqCst));
        let ticket = Ticket { id, model: req.model, t_len: req.t_len, seed: req.seed, rx };
        let tenant_id = tenant.id().clone();
        let trace = req.trace.unwrap_or_default();
        trace.mark_submitted();
        let job = Job {
            id,
            handle,
            tenant: Arc::clone(&tenant),
            t_len: req.t_len,
            seed: req.seed,
            priority: req.priority,
            sink: req.sink,
            cancel: req.cancel,
            trace,
            reply: tx,
            notify: req.notify,
        };
        match self.core.shared.queue.push_checked(job, self.core.max_queue_depth) {
            Ok(()) => {
                self.core.shared.submitted.fetch_add(1, Ordering::SeqCst);
                let mut stats = self.core.shared.stats.lock().expect("stats lock poisoned");
                stats.tenant_mut(&tenant_id).submitted += 1;
                drop(stats);
                Ok(ticket)
            }
            // A close/abort from another handle clone can win the race
            // against the pre-flight `closed` check above; that is the
            // same typed error, not a panic. A rejected job must not
            // burn the rate budget its retry will need.
            Err(crate::queue::PushRejected::Closed) => {
                self.core.tenants.refund_rate(&tenant);
                Err(ServeError::SchedulerClosed)
            }
            Err(crate::queue::PushRejected::Full { depth }) => {
                self.core.tenants.refund_rate(&tenant);
                self.note_rejected(&tenant_id);
                Err(ServeError::QueueFull {
                    depth,
                    cap: self.core.max_queue_depth.expect("cap enforced implies cap set"),
                })
            }
            Err(crate::queue::PushRejected::Quota { tenant: t, quota, cap }) => {
                self.core.tenants.refund_rate(&tenant);
                self.note_rejected(&t);
                Err(ServeError::QuotaExceeded { tenant: t.to_string(), quota, cap: cap as u64 })
            }
        }
    }

    /// Count one refused submission into the tenant's `rejected` stat.
    fn note_rejected(&self, tenant: &TenantId) {
        let mut stats = self.core.shared.stats.lock().expect("stats lock poisoned");
        stats.tenant_mut(tenant).rejected += 1;
    }

    /// Stop accepting submissions; workers finish everything already
    /// queued and then exit. Idempotent.
    pub fn close(&self) {
        self.core.shared.closed.store(true, Ordering::SeqCst);
        self.core.shared.queue.close();
    }

    /// Stop accepting submissions *and* discard queued jobs (in-flight
    /// jobs finish). Each discarded job counts into
    /// [`ServeStats::dropped_jobs`] and its ticket reports
    /// [`ServeError::JobDropped`]. Idempotent.
    pub fn abort(&self) {
        self.core.shared.closed.store(true, Ordering::SeqCst);
        let dropped = self.core.shared.queue.close_discard();
        self.core.shared.dropped.fetch_add(dropped as u64, Ordering::SeqCst);
    }

    /// Block until every worker thread has exited. Only meaningful after
    /// [`close`](Self::close) or [`abort`](Self::abort) — otherwise the
    /// workers never exit and this blocks forever. Safe to call from
    /// multiple handles; later callers return once the first join is
    /// done.
    pub fn join_workers(&self) {
        let handles: Vec<_> =
            self.core.workers.lock().expect("workers lock poisoned").drain(..).collect();
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
    }

    /// Graceful shutdown: close, drain, join, and return the final
    /// statistics snapshot.
    pub fn shutdown(&self) -> ServeStats {
        self.close();
        self.join_workers();
        self.stats()
    }

    /// On-demand statistics snapshot; callable at any time, including
    /// while jobs are queued and executing.
    pub fn stats(&self) -> ServeStats {
        let shared = &self.core.shared;
        let (latency, stages, mut tenants) = {
            let stats = shared.stats.lock().expect("stats lock poisoned");
            let tenants: Vec<TenantStats> = stats
                .tenants
                .iter()
                .map(|(id, t)| {
                    let (p50, p95) = t.percentiles();
                    TenantStats {
                        id: id.to_string(),
                        weight: self.core.tenants.get(id).map_or(1, |cfg| cfg.weight),
                        submitted: t.submitted,
                        completed: t.completed,
                        failed: t.failed,
                        cancelled: t.cancelled,
                        rejected: t.rejected,
                        bytes_streamed: t.bytes_streamed,
                        p50_seconds: p50,
                        p95_seconds: p95,
                    }
                })
                .collect();
            (stats.latency_stats(), stats.stage_stats(), tenants)
        };
        tenants.sort_by(|a, b| a.id.cmp(&b.id));
        ServeStats {
            workers: self.core.worker_count,
            uptime_seconds: self.core.started.elapsed().as_secs_f64().max(1e-9),
            submitted: shared.submitted.load(Ordering::SeqCst),
            completed: shared.completed.load(Ordering::SeqCst),
            failed: shared.failed.load(Ordering::SeqCst),
            cancelled: shared.cancelled.load(Ordering::SeqCst),
            dropped_jobs: shared.dropped.load(Ordering::SeqCst),
            queue_depth: shared.queue.depth(),
            in_flight: shared.queue.in_flight(),
            max_in_flight: shared.queue.max_in_flight(),
            snapshots: shared.snapshots.load(Ordering::SeqCst),
            edges: shared.edges.load(Ordering::SeqCst),
            cache: shared.cache.stats(),
            latency,
            stages,
            tenants,
        }
    }

    /// The structured logger this service (and any frontend built on
    /// it) emits events through; configured via [`ServeConfig::logger`].
    pub fn logger(&self) -> &Logger {
        &self.core.shared.logger
    }

    /// Whether the scheduler is still accepting submissions — `false`
    /// once [`close`](Self::close)/[`shutdown`](Self::shutdown)/
    /// [`abort`](Self::abort) ran and every [`submit`](Self::submit)
    /// would return [`ServeError::SchedulerClosed`]. This is the serve
    /// tier's `/readyz` predicate.
    pub fn is_accepting(&self) -> bool {
        !self.core.shared.closed.load(Ordering::SeqCst)
    }

    /// The metrics registry backing [`metrics_text`](Self::metrics_text).
    /// Frontends register their own families here so one `METRICS`
    /// payload covers the whole stack.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.shared.metrics.registry
    }

    /// Prometheus text exposition of every registered family. Mirror
    /// families (jobs, cache, queue, uptime) are refreshed from the same
    /// authoritative sources [`stats`](Self::stats) reads immediately
    /// before rendering, so `METRICS` and `STATS` agree exactly.
    pub fn metrics_text(&self) -> String {
        self.refresh_metrics();
        self.core.shared.metrics.registry.render()
    }

    /// JSON rendering of the same registry state as
    /// [`metrics_text`](Self::metrics_text) (for `--metrics-json` dumps).
    pub fn metrics_json(&self) -> String {
        self.refresh_metrics();
        self.core.shared.metrics.registry.render_json()
    }

    /// Re-derive the mirror metric families from the counters `stats()`
    /// reads. Registering is idempotent (name + labels key), so repeated
    /// renders reuse the same handles.
    fn refresh_metrics(&self) {
        let shared = &self.core.shared;
        let reg = &shared.metrics.registry;
        let set = |name: &str, v: u64| reg.counter(name, &[]).set(v);
        set("vrdag_jobs_submitted_total", shared.submitted.load(Ordering::SeqCst));
        set("vrdag_jobs_completed_total", shared.completed.load(Ordering::SeqCst));
        set("vrdag_jobs_failed_total", shared.failed.load(Ordering::SeqCst));
        set("vrdag_jobs_cancelled_total", shared.cancelled.load(Ordering::SeqCst));
        set("vrdag_jobs_dropped_total", shared.dropped.load(Ordering::SeqCst));
        set("vrdag_snapshots_total", shared.snapshots.load(Ordering::SeqCst));
        set("vrdag_edges_total", shared.edges.load(Ordering::SeqCst));
        let cache = shared.cache.stats();
        set("vrdag_cache_hits_total", cache.hits);
        set("vrdag_cache_misses_total", cache.misses);
        set("vrdag_cache_insertions_total", cache.insertions);
        set("vrdag_cache_evictions_total", cache.evictions);
        set("vrdag_cache_evicted_bytes_total", cache.evicted_bytes);
        reg.gauge("vrdag_cache_entries", &[]).set(cache.entries as u64);
        reg.gauge("vrdag_cache_bytes", &[]).set(cache.bytes as u64);
        reg.gauge("vrdag_intra_threads", &[]).set(shared.intra_threads as u64);
        reg.gauge("vrdag_queue_depth", &[]).set(shared.queue.depth() as u64);
        reg.gauge("vrdag_jobs_inflight", &[]).set(shared.queue.in_flight() as u64);
        reg.gauge("vrdag_jobs_inflight_peak", &[]).set(shared.queue.max_in_flight() as u64);
        reg.gauge("vrdag_uptime_seconds", &[]).set(self.core.started.elapsed().as_secs());
        for lane in shared.queue.lane_stats() {
            let labels = [("tenant", lane.tenant.as_str())];
            reg.gauge("vrdag_tenant_queue_depth", &labels).set(lane.queued as u64);
            reg.gauge("vrdag_tenant_lane_deficit", &labels).set(lane.deficit);
        }
    }
}

/// Resolve the intra-job thread count a worker pool runs under: the
/// requested value (or the `VRDAG_THREADS`/host default) clamped so
/// `workers × intra_threads` never oversubscribes the host. At least 1.
fn effective_intra_threads(workers: usize, requested: Option<usize>) -> usize {
    let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let per_worker_cap = (host / workers.max(1)).max(1);
    requested.unwrap_or_else(vrdag_tensor::par::num_threads).clamp(1, per_worker_cap)
}

fn worker_loop(shared: &Shared) {
    while let Some(mut job) = shared.queue.pop() {
        job.trace.mark_dequeued();
        // Take the completion hook out of the job before run_job consumes
        // it: the hook must fire *after* the result send below, never
        // from a drop inside the job's own execution.
        let mut notify = std::mem::take(&mut job.notify);
        let key = job_cache_key(&job.handle, job.t_len, job.seed);
        let reply = job.reply.clone();
        // User code runs inside run_job (Callback sinks): contain a
        // panic to this *job* instead of killing the worker — a dead
        // worker would strand every queued job's reply channel inside
        // the queue, deadlocking the tickets waiting on them.
        let id = job.id;
        let model_name = job.handle.name().to_string();
        let tenant = Arc::clone(&job.tenant);
        let trace = job.trace.clone();
        let (t_len, seed) = (job.t_len, job.seed);
        let sink_path = match &job.sink {
            GenSink::TsvFile(p) | GenSink::BinaryFile(p) => Some(p.clone()),
            _ => None,
        };
        let started = Instant::now();
        // The whole job runs under the pool's oversubscription clamp:
        // parallel sections inside the decode see `intra_threads` on this
        // worker thread only (the override is scoped and thread-local).
        let outcome = vrdag_tensor::par::with_threads(shared.intra_threads, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(job, &shared.cache)))
        });
        let mut result = match outcome {
            Ok(result) => result,
            Err(payload) => {
                // The panic may have unwound mid-generation: discard any
                // truncated output file.
                if let Some(path) = &sink_path {
                    let _ = std::fs::remove_file(path);
                }
                JobResult {
                    id,
                    model: model_name,
                    tenant: tenant.id().clone(),
                    t_len,
                    seed,
                    snapshots: 0,
                    edges: 0,
                    bytes: 0,
                    seconds: started.elapsed().as_secs_f64().max(1e-9),
                    snapshots_per_sec: 0.0,
                    cache_hit: false,
                    cancelled: false,
                    seq: 0,
                    graph: None,
                    error: Some(format!("job panicked: {}", panic_message(payload.as_ref()))),
                    stages: StageDurations::default(),
                }
            }
        };
        shared.completed.fetch_add(1, Ordering::SeqCst);
        if result.error.is_some() {
            shared.failed.fetch_add(1, Ordering::SeqCst);
        }
        if result.cancelled {
            shared.cancelled.fetch_add(1, Ordering::SeqCst);
        }
        shared.snapshots.fetch_add(result.snapshots as u64, Ordering::SeqCst);
        shared.edges.fetch_add(result.edges as u64, Ordering::SeqCst);
        result.seq = shared.seq.fetch_add(1, Ordering::SeqCst) + 1;
        // "Delivered" is marked at handoff (just before the ticket send
        // below) so the derived durations can ride on the result itself.
        trace.mark_delivered();
        result.stages = trace.durations();
        shared.metrics.worker_busy_ms.add((result.seconds * 1e3) as u64);
        shared.metrics.observe_stages(&result.stages);
        if result.seconds >= SLOW_JOB_WARN_SECONDS {
            shared.logger.warn(
                "serve.worker",
                "slow job",
                &[
                    ("id", id.0.to_string()),
                    ("model", result.model.clone()),
                    ("tenant", tenant.id().to_string()),
                    ("t_len", t_len.to_string()),
                    ("seed", seed.to_string()),
                    ("seconds", format!("{:.3}", result.seconds)),
                ],
            );
        }
        {
            let mut stats = shared.stats.lock().expect("stats lock poisoned");
            stats.record_latency(result.seconds);
            stats.record_stages(&result.stages);
            stats.tenant_mut(tenant.id()).record_result(&result);
        }
        // Release the queue's accounting (busy key, per-tenant
        // executing count) *before* delivering the result: a client
        // that resubmits the moment its wait() returns must never see a
        // spurious max_inflight rejection for a job it just observed
        // finishing — the same release-before-completion ordering the
        // frontend applies to its tag slots.
        shared.queue.finish_one(&key, tenant.id());
        // The caller may have dropped its ticket; completion is still
        // fully accounted above, so ignore a closed channel.
        let _ = reply.send(result);
        // Only after the result is on the channel: the reactor's
        // completion pump relies on `try_wait` resolving by the time the
        // hook runs.
        notify.fire();
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_job(job: Job, cache: &SnapshotCache) -> JobResult {
    let Job {
        id,
        handle,
        tenant,
        t_len,
        seed,
        priority: _,
        mut sink,
        cancel,
        trace,
        reply: _,
        notify: _,
    } = job;
    let model_name = handle.name().to_string();
    let key = job_cache_key(&handle, t_len, seed);
    let started = Instant::now();
    let mut cache_hit = false;
    let cancel = cancel.as_ref();
    // Whether this job actually opened its sink: a job cancelled while
    // still queued never did, and must not delete whatever a *previous*
    // job left at the same output path.
    let mut touched_sink = false;
    let touched = &mut touched_sink;
    let outcome = (|| -> Result<(StreamStats, Option<Arc<DynamicGraph>>, bool), ServeError> {
        // A job whose token tripped while it sat queued never touches a
        // model instance (or the cache) at all.
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Ok((StreamStats::default(), None, true));
        }
        *touched = true;
        if cache.is_enabled() {
            if let Some(graph) = cache.get(&key) {
                // Hit: replay the cached sequence into the sink (no
                // model instance needed). The determinism contract
                // makes this bit-identical to regenerating
                // (tests/cache_determinism.rs). Cancellation stops the
                // replay at a snapshot boundary exactly like cold
                // generation, so subscribers observe the same frames
                // either way.
                cache_hit = true;
                let (stats, cancelled) = replay_into_sink(&graph, &mut sink, cancel, &trace)?;
                let out = (matches!(sink, GenSink::InMemory) && !cancelled).then_some(graph);
                return Ok((stats, out, cancelled));
            }
        }
        // Miss: deserialize a private instance for this job; it is
        // dropped when the job ends.
        let model = handle.instantiate()?;
        // One generation pass: the sink streams per snapshot exactly as
        // with caching off, and the sequence is additionally retained
        // for the cache only while it fits the byte budget.
        let budget = cache.is_enabled().then(|| cache.budget().max_bytes);
        let (stats, graph, cancelled) =
            generate_into_sink(&model, t_len, seed, &mut sink, budget, cancel, &trace)?;
        let graph = graph.map(Arc::new);
        if cache.is_enabled() && !cancelled {
            if let Some(g) = &graph {
                // Charge the insertion against the tenant's byte share:
                // once a tenant exceeds it, its *own* LRU entries are
                // evicted first, so it can never push another tenant's
                // working set out of the cache.
                let owner_cap = tenant
                    .cache_byte_share
                    .map(|share| (share * cache.budget().max_bytes as f64) as usize);
                cache.insert_charged(key, Arc::clone(g), tenant.id().clone(), owner_cap);
            }
        }
        let out = if matches!(sink, GenSink::InMemory) && !cancelled { graph } else { None };
        Ok((stats, out, cancelled))
    })();
    let cancelled = matches!(outcome, Ok((_, _, true)));
    if (outcome.is_err() || cancelled) && touched_sink {
        // Never leave a truncated file (header promises t_len snapshots)
        // next to complete ones in the output directory.
        if let GenSink::TsvFile(path) | GenSink::BinaryFile(path) = &sink {
            let _ = std::fs::remove_file(path);
        }
    }
    let seconds = started.elapsed().as_secs_f64().max(1e-9);
    match outcome {
        Ok((stats, graph, cancelled)) => JobResult {
            id,
            model: model_name,
            tenant: tenant.id().clone(),
            t_len,
            seed,
            snapshots: stats.snapshots,
            edges: stats.edges,
            bytes: stats.bytes,
            seconds,
            snapshots_per_sec: stats.snapshots as f64 / seconds,
            cache_hit,
            cancelled,
            seq: 0,
            graph,
            error: None,
            stages: StageDurations::default(),
        },
        Err(e) => JobResult {
            id,
            model: model_name,
            tenant: tenant.id().clone(),
            t_len,
            seed,
            snapshots: 0,
            edges: 0,
            bytes: 0,
            seconds,
            snapshots_per_sec: 0.0,
            cache_hit: false,
            cancelled: false,
            seq: 0,
            graph: None,
            error: Some(e.to_string()),
            stages: StageDurations::default(),
        },
    }
}

/// The emitting half of a [`GenSink`], shared by cold generation and
/// cache-hit replay so the two paths can never desynchronize (same
/// writer construction, same per-snapshot flushing, same finish). The
/// in-memory collection of [`GenSink::InMemory`] is handled by the
/// callers — for this writer it is a no-op like [`GenSink::Discard`].
enum SinkWriter<'a> {
    Tsv(TsvStreamWriter<BufWriter<std::fs::File>>),
    Bin(BinaryStreamWriter<BufWriter<std::fs::File>>),
    Callback(&'a mut (dyn FnMut(usize, &Snapshot) + Send)),
    Null,
}

impl<'a> SinkWriter<'a> {
    fn open(
        sink: &'a mut GenSink,
        n: usize,
        f: usize,
        t_len: usize,
    ) -> Result<SinkWriter<'a>, ServeError> {
        Ok(match sink {
            GenSink::TsvFile(path) => {
                let w = BufWriter::new(std::fs::File::create(path)?);
                SinkWriter::Tsv(TsvStreamWriter::new(w, n, f, t_len)?)
            }
            GenSink::BinaryFile(path) => {
                let w = BufWriter::new(std::fs::File::create(path)?);
                SinkWriter::Bin(BinaryStreamWriter::new(w, n, f, t_len)?)
            }
            GenSink::Callback(cb) => SinkWriter::Callback(cb.as_mut()),
            GenSink::InMemory | GenSink::Discard => SinkWriter::Null,
        })
    }

    fn write(&mut self, t: usize, snapshot: &Snapshot) -> Result<(), ServeError> {
        match self {
            SinkWriter::Tsv(w) => w.write_snapshot(snapshot)?,
            SinkWriter::Bin(w) => w.write_snapshot(snapshot)?,
            SinkWriter::Callback(cb) => cb(t, snapshot),
            SinkWriter::Null => {}
        }
        Ok(())
    }

    fn finish(self) -> Result<(), ServeError> {
        match self {
            SinkWriter::Tsv(w) => {
                w.finish()?;
            }
            SinkWriter::Bin(w) => {
                w.finish()?;
            }
            SinkWriter::Callback(_) | SinkWriter::Null => {}
        }
        Ok(())
    }
}

/// Feed a cached sequence through a sink, exactly as generation would
/// have (same writers, same per-snapshot flushing). Returns the
/// delivered stats and whether the replay was cancelled mid-stream —
/// the same snapshot-boundary cancellation points as cold generation.
fn replay_into_sink(
    graph: &DynamicGraph,
    sink: &mut GenSink,
    cancel: Option<&CancelToken>,
    trace: &JobTrace,
) -> Result<(StreamStats, bool), ServeError> {
    let mut stats = StreamStats::default();
    let mut writer = SinkWriter::open(sink, graph.n_nodes(), graph.n_attrs(), graph.t_len())?;
    let mut cancelled = false;
    for (t, s) in graph.iter() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            cancelled = true;
            break;
        }
        writer.write(t, s)?;
        trace.mark_snapshot();
        stats.snapshots += 1;
        stats.edges += s.n_edges();
        stats.bytes += s.approx_bytes();
    }
    if !cancelled {
        writer.finish()?;
    }
    Ok((stats, cancelled))
}

/// How many decoded snapshots may sit between the decode thread and the
/// pipelined encode helper. Depth 2 lets decode run one full step ahead
/// while the helper drains the previous snapshot, without letting an
/// encode-bound job buffer an unbounded number of snapshots.
const PIPELINE_DEPTH: usize = 2;

/// Opportunistic cache/result collection shared by the serial and
/// pipelined generation paths: push snapshots (in `t` order) until the
/// reserved-byte budget is exceeded, unless the caller wants the full
/// result regardless.
struct Collector {
    collected: Option<Vec<Snapshot>>,
    bytes: usize,
    budget: Option<usize>,
    want_result: bool,
}

impl Collector {
    fn new(t_len: usize, budget: Option<usize>, want_result: bool) -> Collector {
        Collector {
            collected: (want_result || budget.is_some()).then(|| Vec::with_capacity(t_len)),
            bytes: 0,
            budget,
            want_result,
        }
    }

    fn push(&mut self, snapshot: Snapshot) {
        if self.collected.is_some() {
            // Reserved accounting to match the cache's admission charge.
            self.bytes += snapshot.approx_bytes_reserved();
            let over = self.budget.is_some_and(|max| self.bytes > max);
            if over && !self.want_result {
                self.collected = None;
            } else if let Some(v) = &mut self.collected {
                v.push(snapshot);
            }
        }
    }
}

/// The encode half of the intra-job pipeline: drain `(t, snapshot)`
/// pairs, write each through the sink writer, mark the trace, account
/// the stream stats, and hand the snapshot back for cache collection.
/// Cancellation is honored at snapshot boundaries on this side too, so
/// a snapshot decoded ahead of a trip is never written.
fn encode_loop(
    mut writer: SinkWriter<'_>,
    rx: Receiver<(usize, Snapshot)>,
    ret: mpsc::Sender<Snapshot>,
    cancel: Option<&CancelToken>,
    trace: &JobTrace,
) -> Result<(StreamStats, bool), ServeError> {
    let mut stats = StreamStats::default();
    let mut cancelled = false;
    while let Ok((t, snapshot)) = rx.recv() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            cancelled = true;
            break;
        }
        writer.write(t, &snapshot)?;
        trace.mark_snapshot();
        stats.snapshots += 1;
        stats.edges += snapshot.n_edges();
        stats.bytes += snapshot.approx_bytes();
        // The decode thread may have dropped its end already (e.g. it
        // finished and is draining); the snapshot is simply discarded.
        let _ = ret.send(snapshot);
    }
    if !cancelled {
        writer.finish()?;
    }
    Ok((stats, cancelled))
}

/// Drive Algorithm 1 one snapshot at a time straight into the sink.
///
/// Real sinks (file writers, streaming callbacks) run **pipelined**:
/// snapshot `t−1` is encoded/streamed (EVT framing, TSV/binary encode,
/// `approx_bytes` accounting) on a scoped helper thread while the model
/// decodes snapshot `t`. Output bytes are unaffected — the helper writes
/// in submission order — and the decode thread's cumulative stall waiting
/// on the helper is recorded as the job's `encode_wait` stage. Null
/// sinks ([`GenSink::InMemory`]/[`GenSink::Discard`]) have no encode
/// cost and keep the serial loop.
///
/// The full sequence is materialized only when the caller needs it: for
/// [`GenSink::InMemory`] (the job asked for it), or opportunistically
/// for the snapshot cache when `collect_budget` is set — in which case
/// collection is abandoned the moment the accumulated reserved bytes
/// exceed the budget, so an uncacheable (oversized) sequence never
/// breaks the streaming sinks' memory bound.
fn generate_into_sink(
    model: &Vrdag,
    t_len: usize,
    seed: u64,
    sink: &mut GenSink,
    collect_budget: Option<usize>,
    cancel: Option<&CancelToken>,
    trace: &JobTrace,
) -> Result<(StreamStats, Option<DynamicGraph>, bool), ServeError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = model.begin_generation(&mut rng)?;
    let n = model.n_nodes().expect("begin_generation succeeded");
    let f = model.n_attrs().expect("begin_generation succeeded");
    let want_result = matches!(sink, GenSink::InMemory);
    let mut collector = Collector::new(t_len, collect_budget, want_result);
    let mut writer = SinkWriter::open(sink, n, f, t_len)?;

    if matches!(writer, SinkWriter::Null) {
        // Serial path: nothing to encode, so a helper thread would be
        // pure overhead.
        let mut stats = StreamStats::default();
        let mut cancelled = false;
        for t in 0..t_len {
            // Cooperative cancellation at snapshot boundaries: the
            // stepper is abandoned, the partial collection is discarded
            // (a cancelled sequence must never populate the cache), and
            // the caller removes any partial file output.
            if cancel.is_some_and(CancelToken::is_cancelled) {
                cancelled = true;
                break;
            }
            let snapshot = state.step(model);
            stats.snapshots += 1;
            stats.edges += snapshot.n_edges();
            stats.bytes += snapshot.approx_bytes();
            writer.write(t, &snapshot)?;
            trace.mark_snapshot();
            collector.push(snapshot);
        }
        if !cancelled {
            writer.finish()?;
        }
        let collected = (!cancelled).then_some(collector.collected).flatten();
        return Ok((stats, collected.map(DynamicGraph::new), cancelled));
    }

    // Pipelined path: the helper owns the writer and the stats; the
    // decode thread steps the model and hands snapshots over a bounded
    // channel, collecting them back (in order) for the cache.
    let (snap_tx, snap_rx) = mpsc::sync_channel::<(usize, Snapshot)>(PIPELINE_DEPTH);
    let (ret_tx, ret_rx) = mpsc::channel::<Snapshot>();
    let (stats, cancelled) =
        std::thread::scope(|scope| -> Result<(StreamStats, bool), ServeError> {
            let encoder = scope.spawn(move || encode_loop(writer, snap_rx, ret_tx, cancel, trace));
            let mut decode_cancelled = false;
            for t in 0..t_len {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    decode_cancelled = true;
                    break;
                }
                let snapshot = state.step(model);
                let handoff = Instant::now();
                if snap_tx.send((t, snapshot)).is_err() {
                    // The helper bailed (I/O error or cancellation
                    // observed on its side): stop decoding, the join
                    // below surfaces why.
                    break;
                }
                trace.add_encode_wait(handoff.elapsed());
                while let Ok(s) = ret_rx.try_recv() {
                    collector.push(s);
                }
            }
            drop(snap_tx);
            // Drain the remaining written snapshots while the helper
            // finishes; recv fails once the helper drops its sender.
            while let Ok(s) = ret_rx.recv() {
                collector.push(s);
            }
            match encoder.join() {
                Ok(outcome) => {
                    let (stats, write_cancelled) = outcome?;
                    Ok((stats, write_cancelled || decode_cancelled))
                }
                // A panicking Callback sink unwinds on the helper:
                // re-raise it on the worker thread so the existing
                // per-job panic containment (and its partial-file
                // cleanup) applies unchanged.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })?;
    let collected = (!cancelled).then_some(collector.collected).flatten();
    Ok((stats, collected.map(DynamicGraph::new), cancelled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicUsize;
    use vrdag::VrdagConfig;

    fn fitted(fit_seed: u64) -> Vrdag {
        let g = vrdag_datasets::generate(&vrdag_datasets::tiny(), fit_seed);
        let mut cfg = VrdagConfig::test_small();
        cfg.epochs = 2;
        let mut m = Vrdag::new(cfg);
        let mut rng = StdRng::seed_from_u64(fit_seed);
        m.fit(&g, &mut rng).unwrap();
        m
    }

    fn registry_with_tiny() -> (ModelRegistry, Vrdag) {
        let m = fitted(3);
        let registry = ModelRegistry::new();
        registry.register("tiny", &m).unwrap();
        (registry, m)
    }

    /// Deterministic blocker: a callback job that signals when it starts
    /// and then parks until released, pinning one worker.
    fn blocking_request(
        model: &str,
        seed: u64,
        started_tx: std::sync::mpsc::Sender<()>,
        release_rx: std::sync::mpsc::Receiver<()>,
    ) -> GenRequest {
        let mut fired = false;
        GenRequest::new(
            model,
            1,
            seed,
            GenSink::Callback(Box::new(move |_, _| {
                if !fired {
                    fired = true;
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }
            })),
        )
    }

    #[test]
    fn submit_is_non_blocking_and_tickets_deliver_results() {
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        // Submitting never waits for generation: collect all tickets
        // first, then wait on them in any order.
        let tickets: Vec<Ticket> = (0..4u64)
            .map(|seed| handle.submit(GenRequest::new("tiny", 3, seed, GenSink::InMemory)).unwrap())
            .collect();
        for ticket in tickets.into_iter().rev() {
            let seed = ticket.seed();
            let result = ticket.wait().unwrap();
            assert!(result.is_ok(), "{:?}", result.error);
            let mut rng = StdRng::seed_from_u64(seed);
            let expected = model.generate(3, &mut rng).unwrap();
            assert_eq!(result.graph.as_deref().unwrap(), &expected, "seed {seed}");
            assert!(result.seq >= 1);
        }
        let stats = handle.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.dropped_jobs, 0);
    }

    #[test]
    fn handle_is_clonable_and_usable_from_threads() {
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        let threads: Vec<_> = (0..3u64)
            .map(|seed| {
                let handle = handle.clone();
                std::thread::spawn(move || {
                    let ticket =
                        handle.submit(GenRequest::new("tiny", 2, seed, GenSink::InMemory)).unwrap();
                    ticket.wait().unwrap()
                })
            })
            .collect();
        for t in threads {
            let result = t.join().unwrap();
            assert!(result.is_ok());
            let mut rng = StdRng::seed_from_u64(result.seed);
            let expected = model.generate(2, &mut rng).unwrap();
            assert_eq!(result.graph.as_deref().unwrap(), &expected);
        }
    }

    #[test]
    fn try_wait_polls_without_blocking() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let mut ticket = handle.submit(GenRequest::new("tiny", 1, 1, GenSink::Discard)).unwrap();
        // Queued behind the pinned worker: polling sees nothing yet.
        assert!(ticket.try_wait().unwrap().is_none());
        assert!(ticket.wait_timeout(Duration::from_millis(10)).unwrap().is_none());
        release_tx.send(()).unwrap();
        let result = loop {
            if let Some(r) = ticket.wait_timeout(Duration::from_secs(30)).unwrap() {
                break r;
            }
        };
        assert!(result.is_ok());
        blocker.wait().unwrap();
    }

    #[test]
    fn stats_report_latency_percentiles() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        let tickets: Vec<Ticket> = (0..6u64)
            .map(|seed| handle.submit(GenRequest::new("tiny", 2, seed, GenSink::Discard)).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = handle.stats();
        assert_eq!(stats.latency.samples, 6);
        assert_eq!(stats.latency.window, 6);
        assert!(stats.latency.p50_seconds > 0.0);
        assert!(stats.latency.p50_seconds <= stats.latency.p95_seconds);
        assert!(stats.latency.p95_seconds <= stats.latency.p99_seconds);
        assert!(stats.latency.p99_seconds <= stats.latency.max_seconds);
        let rendered = stats.render();
        assert!(rendered.contains("latency: p50"), "{rendered}");
    }

    #[test]
    fn abort_counts_dropped_jobs_and_tickets_observe_it() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let queued: Vec<Ticket> = (1..4u64)
            .map(|seed| handle.submit(GenRequest::new("tiny", 1, seed, GenSink::Discard)).unwrap())
            .collect();
        handle.abort();
        release_tx.send(()).unwrap();
        // The in-flight blocker still completes; the queued jobs were
        // discarded, observable both on the tickets and in the stats.
        assert!(blocker.wait().unwrap().is_ok());
        for ticket in queued {
            assert!(matches!(ticket.wait(), Err(ServeError::JobDropped)));
        }
        handle.join_workers();
        let stats = handle.stats();
        assert_eq!(stats.dropped_jobs, 3);
        assert_eq!(stats.completed, 1);
        assert!(matches!(
            handle.submit(GenRequest::new("tiny", 1, 9, GenSink::Discard)),
            Err(ServeError::SchedulerClosed)
        ));
    }

    #[test]
    fn service_stays_live_across_waves_and_stats_accumulate() {
        // The core outlives any single "batch": submit, drain, submit
        // again — no re-construction, stats keep accumulating.
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 2, cache: CacheBudget::entries(8), ..Default::default() },
        )
        .unwrap();
        for wave in 0..3u64 {
            let tickets: Vec<Ticket> = (0..2u64)
                .map(|seed| {
                    handle.submit(GenRequest::new("tiny", 2, seed, GenSink::InMemory)).unwrap()
                })
                .collect();
            for t in tickets {
                assert!(t.wait().unwrap().is_ok());
            }
            let stats = handle.stats();
            assert_eq!(stats.completed, 2 * (wave + 1));
        }
        let stats = handle.shutdown();
        assert_eq!(stats.completed, 6);
        // Waves 2 and 3 were served from the cache.
        assert_eq!(stats.cache.misses, 2);
        assert_eq!(stats.cache.hits, 4);
    }

    #[test]
    fn dropping_the_last_handle_aborts_and_joins() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        let clone = handle.clone();
        drop(handle);
        // The clone keeps the core alive and working.
        let t = clone.submit(GenRequest::new("tiny", 1, 0, GenSink::Discard)).unwrap();
        assert!(t.wait().unwrap().is_ok());
        drop(clone); // joins workers; must not hang
    }

    #[test]
    fn intra_thread_clamp_never_oversubscribes() {
        let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        // As many workers as cores: each job gets exactly one thread no
        // matter how many were requested.
        assert_eq!(effective_intra_threads(host, Some(8)), 1.max(host / host));
        // A single worker may use the request, up to the host.
        let one = effective_intra_threads(1, Some(4));
        assert!(one >= 1 && one <= 4.max(host));
        // workers × intra_threads never exceeds the host (workers ≤ host).
        for workers in 1..=host {
            let eff = effective_intra_threads(workers, Some(usize::MAX));
            assert!(
                workers * eff <= host,
                "workers {workers} × intra {eff} oversubscribes host {host}"
            );
        }
        // Defaults are at least 1 and the knob is surfaced on the handle.
        assert!(effective_intra_threads(2, None) >= 1);
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, intra_threads: Some(3), ..Default::default() },
        )
        .unwrap();
        assert_eq!(handle.intra_threads(), effective_intra_threads(1, Some(3)));
        assert!(handle.intra_threads() >= 1);
    }

    #[test]
    fn pipelined_callback_receives_snapshots_in_order_and_bit_identical() {
        // Callback sinks run through the encode helper thread; frames
        // must still arrive strictly in t order with the exact per-step
        // content of a direct generate() call.
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, intra_threads: Some(4), ..Default::default() },
        )
        .unwrap();
        let seen: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen_in_cb = Arc::clone(&seen);
        let ticket = handle
            .submit(GenRequest::new(
                "tiny",
                6,
                42,
                GenSink::Callback(Box::new(move |t, s| {
                    seen_in_cb.lock().unwrap().push((t, s.n_edges()));
                })),
            ))
            .unwrap();
        let result = ticket.wait().unwrap();
        assert!(result.is_ok(), "{:?}", result.error);
        assert!(result.stages.generation.is_some());
        let mut rng = StdRng::seed_from_u64(42);
        let expected = model.generate(6, &mut rng).unwrap();
        let frames = seen.lock().unwrap();
        let want: Vec<(usize, usize)> = expected.iter().map(|(t, s)| (t, s.n_edges())).collect();
        assert_eq!(*frames, want, "pipelined frames out of order or diverged");
    }

    #[test]
    fn panicking_callback_sink_fails_the_job_not_the_worker() {
        // A user callback that panics must be contained to its job: the
        // single worker survives, the panicking job resolves with a
        // typed error, and jobs queued behind it still run (a dead
        // worker would strand their reply channels forever).
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let bomb = handle
            .submit(GenRequest::new(
                "tiny",
                1,
                0,
                GenSink::Callback(Box::new(|_, _| panic!("sink exploded"))),
            ))
            .unwrap();
        let follow = handle.submit(GenRequest::new("tiny", 2, 1, GenSink::InMemory)).unwrap();
        let failed = bomb.wait().unwrap();
        assert!(!failed.is_ok());
        assert!(failed.error.as_deref().unwrap().contains("sink exploded"), "{:?}", failed.error);
        let ok = follow.wait().unwrap();
        assert!(ok.is_ok(), "{:?}", ok.error);
        let stats = handle.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn cancel_while_queued_short_circuits_without_generating() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let token = CancelToken::new();
        let delivered = Arc::new(AtomicUsize::new(0));
        let delivered_in_cb = Arc::clone(&delivered);
        let victim = handle
            .submit(
                GenRequest::new(
                    "tiny",
                    3,
                    1,
                    GenSink::Callback(Box::new(move |_, _| {
                        delivered_in_cb.fetch_add(1, Ordering::SeqCst);
                    })),
                )
                .with_cancel(token.clone()),
            )
            .unwrap();
        token.cancel();
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        let result = victim.wait().unwrap();
        assert!(result.cancelled);
        assert!(result.is_ok(), "cancellation is not a failure: {:?}", result.error);
        assert_eq!(result.snapshots, 0, "queued-cancelled jobs never generate");
        assert_eq!(delivered.load(Ordering::SeqCst), 0);
        let stats = handle.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn cancel_mid_generation_stops_at_a_snapshot_boundary() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, cache: CacheBudget::entries(8), ..Default::default() },
        )
        .unwrap();
        let token = CancelToken::new();
        let t_len = 500usize;
        // Trip the token from inside the sink after two snapshots: the
        // loop must stop at the next boundary, deliver exactly 2, and
        // leave the cache unpopulated (a partial sequence is not a
        // cacheable value).
        let token_in_cb = token.clone();
        let ticket = handle
            .submit(
                GenRequest::new(
                    "tiny",
                    t_len,
                    0,
                    GenSink::Callback(Box::new(move |t, _| {
                        if t == 1 {
                            token_in_cb.cancel();
                        }
                    })),
                )
                .with_cancel(token),
            )
            .unwrap();
        let result = ticket.wait().unwrap();
        assert!(result.cancelled);
        assert_eq!(result.snapshots, 2, "stopped at the boundary after the trip");
        assert!(result.is_ok());
        assert_eq!(handle.cache().stats().entries, 0, "cancelled runs never enter the cache");
        // The same key afterwards generates in full.
        let full = handle
            .submit(GenRequest::new("tiny", 3, 0, GenSink::InMemory))
            .unwrap()
            .wait()
            .unwrap();
        assert!(full.is_ok());
        assert!(!full.cancelled);
        assert_eq!(full.snapshots, 3);
    }

    #[test]
    fn cancelled_file_sink_removes_partial_output_but_spares_untouched_paths() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let dir = std::env::temp_dir().join("vrdag_cancel_test");
        std::fs::create_dir_all(&dir).unwrap();

        // A job cancelled *mid-generation* removes its own partial file:
        // wait until the streaming writer has created the file (the job
        // is provably past the queued-shortcut), then trip the token.
        let partial = dir.join("partial.tsv");
        let token = CancelToken::new();
        let ticket = handle
            .submit(
                GenRequest::new("tiny", 2000, 0, GenSink::TsvFile(partial.clone()))
                    .with_cancel(token.clone()),
            )
            .unwrap();
        for _ in 0..2000 {
            if partial.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(partial.exists(), "the job never started writing");
        token.cancel();
        let result = ticket.wait().unwrap();
        assert!(result.cancelled);
        assert!(!partial.exists(), "no truncated file may survive a cancellation");

        // A job cancelled while still *queued* never opened its sink and
        // must not delete whatever a previous job wrote at that path.
        let existing = dir.join("existing.tsv");
        std::fs::write(&existing, b"previous job's complete output").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let ticket = handle
            .submit(
                GenRequest::new("tiny", 4, 0, GenSink::TsvFile(existing.clone()))
                    .with_cancel(token),
            )
            .unwrap();
        let result = ticket.wait().unwrap();
        assert!(result.cancelled);
        assert_eq!(
            std::fs::read(&existing).unwrap(),
            b"previous job's complete output",
            "a queued-cancelled job must not touch pre-existing files"
        );
    }

    fn two_tier_tenants() -> TenantRegistry {
        TenantRegistry::builder()
            .tenant(
                crate::tenant::Tenant::new(TenantId::new("gold").unwrap()).with_weight(3),
                "tok-gold",
            )
            .unwrap()
            .tenant(crate::tenant::Tenant::new(TenantId::new("bronze").unwrap()), "tok-bronze")
            .unwrap()
            .build()
    }

    #[test]
    fn weighted_fair_scheduling_drains_tenants_in_proportion() {
        // One worker, cache off, weights 3:1, identical job mixes. While
        // both lanes hold work, completions must interleave ~3 gold per
        // bronze — regardless of submission order (bronze submits
        // first).
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants: two_tier_tenants(), ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let per_tenant = 16usize;
        let mut tickets = Vec::new();
        for i in 0..per_tenant as u64 {
            for id in ["bronze", "gold"] {
                tickets.push(
                    handle
                        .submit(
                            GenRequest::new(
                                "tiny",
                                1,
                                100 + 2 * i + (id == "gold") as u64,
                                GenSink::Discard,
                            )
                            .with_tenant(TenantId::new(id).unwrap()),
                        )
                        .unwrap(),
                );
            }
        }
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        let mut results: Vec<JobResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        results.sort_by_key(|r| r.seq);
        // While both lanes are non-empty (the first 2 * min window), the
        // DRR pattern is one bronze per three gold.
        let window = &results[..8];
        let gold = window.iter().filter(|r| r.tenant.as_str() == "gold").count();
        let bronze = window.len() - gold;
        assert!(
            (5..=7).contains(&gold) && bronze >= 1,
            "expected ~6:2 gold:bronze in the first 8 completions, got {gold}:{bronze}"
        );
        let window = &results[..16];
        let gold = window.iter().filter(|r| r.tenant.as_str() == "gold").count();
        assert!(
            (11..=13).contains(&gold),
            "expected ~12:4 gold:bronze in the first 16 completions, got {gold}"
        );
        // Everything eventually completes for both tenants.
        let stats = handle.shutdown();
        assert_eq!(stats.completed as usize, 1 + 2 * per_tenant);
        let row = |id: &str| stats.tenants.iter().find(|t| t.id == id).unwrap().clone();
        assert_eq!(row("gold").completed as usize, per_tenant);
        assert_eq!(row("bronze").completed as usize, per_tenant);
        assert_eq!(row("gold").weight, 3);
        assert!(row("gold").bytes_streamed > 0);
        assert!(row("gold").p50_seconds > 0.0);
        assert!(stats.render().contains("tenants:"), "{}", stats.render());
    }

    #[test]
    fn heavy_jobs_cost_more_than_light_ones_in_the_fair_share() {
        // Equal weights, but tenant `gold` submits t=8 jobs while
        // `bronze` submits t=1 jobs: DRR costs by snapshots, so bronze
        // must complete ~8 jobs per gold job instead of alternating.
        let (registry, _) = registry_with_tiny();
        let tenants = TenantRegistry::builder()
            .tenant(crate::tenant::Tenant::new(TenantId::new("gold").unwrap()), "tok-gold")
            .unwrap()
            .tenant(crate::tenant::Tenant::new(TenantId::new("bronze").unwrap()), "tok-bronze")
            .unwrap()
            .build();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants, ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let mut tickets = Vec::new();
        for i in 0..4u64 {
            tickets.push(
                handle
                    .submit(
                        GenRequest::new("tiny", 8, 200 + i, GenSink::Discard)
                            .with_tenant(TenantId::new("gold").unwrap()),
                    )
                    .unwrap(),
            );
        }
        for i in 0..16u64 {
            tickets.push(
                handle
                    .submit(
                        GenRequest::new("tiny", 1, 300 + i, GenSink::Discard)
                            .with_tenant(TenantId::new("bronze").unwrap()),
                    )
                    .unwrap(),
            );
        }
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        let mut results: Vec<JobResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        results.sort_by_key(|r| r.seq);
        // In the first 9 completions (one gold 8-snapshot job's worth of
        // fair share each) bronze must have landed ~8 jobs.
        let window = &results[..9];
        let bronze = window.iter().filter(|r| r.tenant.as_str() == "bronze").count();
        assert!(
            bronze >= 6,
            "snapshot-cost fairness violated: only {bronze} bronze jobs in the first 9"
        );
    }

    #[test]
    fn tenant_quotas_reject_typed_and_leave_others_unaffected() {
        let (registry, _) = registry_with_tiny();
        let tenants = TenantRegistry::builder()
            .tenant(
                crate::tenant::Tenant::new(TenantId::new("capped").unwrap()).with_max_inflight(2),
                "tok-capped",
            )
            .unwrap()
            .build();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants, ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let capped = TenantId::new("capped").unwrap();
        let a = handle
            .submit(GenRequest::new("tiny", 1, 1, GenSink::Discard).with_tenant(capped.clone()))
            .unwrap();
        let b = handle
            .submit(GenRequest::new("tiny", 1, 2, GenSink::Discard).with_tenant(capped.clone()))
            .unwrap();
        // Third outstanding job breaches max_inflight = 2 (queued +
        // executing count together).
        match handle
            .submit(GenRequest::new("tiny", 1, 3, GenSink::Discard).with_tenant(capped.clone()))
        {
            Err(ServeError::QuotaExceeded { tenant, quota, cap }) => {
                assert_eq!(tenant, "capped");
                assert_eq!(quota, "max_inflight");
                assert_eq!(cap, 2);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // The anonymous tenant is untouched by capped's quota.
        let anon = handle.submit(GenRequest::new("tiny", 1, 4, GenSink::Discard)).unwrap();
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        assert!(a.wait().unwrap().is_ok());
        assert!(b.wait().unwrap().is_ok());
        assert!(anon.wait().unwrap().is_ok());
        // With the backlog drained, the quota frees up again.
        let retry = handle
            .submit(GenRequest::new("tiny", 1, 5, GenSink::Discard).with_tenant(capped.clone()))
            .unwrap();
        assert!(retry.wait().unwrap().is_ok());
        let stats = handle.shutdown();
        let row = stats.tenants.iter().find(|t| t.id == "capped").unwrap();
        assert_eq!(row.submitted, 3);
        assert_eq!(row.completed, 3);
        assert_eq!(row.rejected, 1);
    }

    #[test]
    fn tenant_queue_share_is_a_fraction_of_the_global_cap() {
        let (registry, _) = registry_with_tiny();
        let tenants = TenantRegistry::builder()
            .tenant(
                crate::tenant::Tenant::new(TenantId::new("half").unwrap())
                    .with_max_queue_share(0.5),
                "tok-half",
            )
            .unwrap()
            .build();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, max_queue_depth: Some(4), tenants, ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let half = TenantId::new("half").unwrap();
        let mut held = Vec::new();
        for seed in 0..2u64 {
            held.push(
                handle
                    .submit(
                        GenRequest::new("tiny", 1, seed, GenSink::Discard)
                            .with_tenant(half.clone()),
                    )
                    .unwrap(),
            );
        }
        // Share 0.5 of cap 4 = 2 queued slots: the third is refused even
        // though the global queue still has room.
        match handle
            .submit(GenRequest::new("tiny", 1, 9, GenSink::Discard).with_tenant(half.clone()))
        {
            Err(ServeError::QuotaExceeded { quota: "queue_share", cap: 2, .. }) => {}
            other => panic!("expected queue_share QuotaExceeded, got {other:?}"),
        }
        // Anonymous fills the remaining global room, then QueueFull.
        held.push(handle.submit(GenRequest::new("tiny", 1, 10, GenSink::Discard)).unwrap());
        held.push(handle.submit(GenRequest::new("tiny", 1, 11, GenSink::Discard)).unwrap());
        assert!(matches!(
            handle.submit(GenRequest::new("tiny", 1, 12, GenSink::Discard)),
            Err(ServeError::QueueFull { .. })
        ));
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        for t in held {
            assert!(t.wait().unwrap().is_ok());
        }
    }

    #[test]
    fn tenant_rate_limit_rejects_and_refunds_on_other_failures() {
        let (registry, _) = registry_with_tiny();
        let tenants = TenantRegistry::builder()
            .tenant(
                crate::tenant::Tenant::new(TenantId::new("slow").unwrap())
                    .with_rate_limit(0.0, 2.0),
                "tok-slow",
            )
            .unwrap()
            .build();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants, ..Default::default() },
        )
        .unwrap();
        let slow = TenantId::new("slow").unwrap();
        // A submit rejected for another reason (unknown model) must not
        // burn rate budget — the burst of 2 below is still intact.
        assert!(matches!(
            handle
                .submit(GenRequest::new("ghost", 1, 0, GenSink::Discard).with_tenant(slow.clone())),
            Err(ServeError::UnknownModel(_))
        ));
        let a = handle
            .submit(GenRequest::new("tiny", 1, 1, GenSink::Discard).with_tenant(slow.clone()))
            .unwrap();
        let b = handle
            .submit(GenRequest::new("tiny", 1, 2, GenSink::Discard).with_tenant(slow.clone()))
            .unwrap();
        match handle
            .submit(GenRequest::new("tiny", 1, 3, GenSink::Discard).with_tenant(slow.clone()))
        {
            Err(ServeError::QuotaExceeded { quota: "rate", .. }) => {}
            other => panic!("expected rate QuotaExceeded, got {other:?}"),
        }
        assert!(a.wait().unwrap().is_ok());
        assert!(b.wait().unwrap().is_ok());
    }

    #[test]
    fn unknown_tenant_is_a_typed_submit_error() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        assert!(matches!(
            handle.submit(
                GenRequest::new("tiny", 1, 0, GenSink::Discard)
                    .with_tenant(TenantId::new("ghost").unwrap())
            ),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn dropped_ticket_does_not_stall_the_worker() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran_in_cb = Arc::clone(&ran);
        let ticket = handle
            .submit(GenRequest::new(
                "tiny",
                1,
                0,
                GenSink::Callback(Box::new(move |_, _| {
                    ran_in_cb.fetch_add(1, Ordering::SeqCst);
                })),
            ))
            .unwrap();
        drop(ticket); // fire-and-forget
        let follow = handle.submit(GenRequest::new("tiny", 1, 1, GenSink::Discard)).unwrap();
        assert!(follow.wait().unwrap().is_ok());
        assert_eq!(ran.load(Ordering::SeqCst), 1, "forgotten job still ran");
        assert_eq!(handle.stats().completed, 2);
    }
}
