//! Batch facade over the service core: a [`Scheduler`] owns a private
//! [`ServeHandle`], collects the [`Ticket`]s of everything submitted,
//! and [`join`](Scheduler::join) turns them into one end-of-batch
//! [`BatchReport`] — the submit-everything-then-drain workflow the CLI's
//! `batch-generate` and the offline experiments want, without the
//! frontend's long-lived lifecycle.
//!
//! All scheduling behavior (tenant fairness, priorities, admission
//! control, snapshot cache, coalescing) lives in the core; the
//! facade adds only ticket bookkeeping and report assembly. For
//! always-on serving use [`ServeHandle`] directly, or put the TCP
//! [`Frontend`](crate::Frontend) in front of it.

use crate::core::{GenRequest, JobId, JobResult, ServeConfig, ServeHandle, Ticket};
use crate::registry::ModelRegistry;
use crate::{CacheStats, ServeError, SnapshotCache};
use std::time::Instant;

/// Aggregate statistics of a drained batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results, in completion order.
    pub jobs: Vec<JobResult>,
    /// Wall-clock from scheduler creation to drain.
    pub total_seconds: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Snapshots per wall-clock second across all workers.
    pub snapshots_per_sec: f64,
    /// Highest number of jobs that were executing simultaneously —
    /// `>= 2` demonstrates actual concurrency.
    pub max_in_flight: usize,
    /// Number of workers the pool ran.
    pub workers: usize,
    /// Snapshot-cache counters at drain time (all zero when disabled).
    pub cache: CacheStats,
    /// Per-job wall-time percentiles over the batch.
    pub latency: crate::LatencyStats,
}

impl BatchReport {
    pub fn all_ok(&self) -> bool {
        self.jobs.iter().all(JobResult::is_ok)
    }

    /// Jobs served from the snapshot cache.
    pub fn cache_hits(&self) -> usize {
        self.jobs.iter().filter(|j| j.cache_hit).count()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch: {} jobs on {} workers in {:.3}s  ({:.2} jobs/s, {:.1} snapshots/s, peak {} in flight)",
            self.jobs.len(),
            self.workers,
            self.total_seconds,
            self.jobs_per_sec,
            self.snapshots_per_sec,
            self.max_in_flight,
        );
        let _ = writeln!(out, "  latency: {}", self.latency.render());
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
        for j in &self.jobs {
            match &j.error {
                None => {
                    let _ = writeln!(
                        out,
                        "  job {:>3}  model={} t={} seed={}  {:.3}s  {:.1} snapshots/s  {} edges{}",
                        j.id.0,
                        j.model,
                        j.t_len,
                        j.seed,
                        j.seconds,
                        j.snapshots_per_sec,
                        j.edges,
                        if j.cache_hit { "  (cache hit)" } else { "" },
                    );
                }
                Some(e) => {
                    let _ = writeln!(
                        out,
                        "  job {:>3}  model={} t={} seed={}  FAILED: {e}",
                        j.id.0, j.model, j.t_len, j.seed
                    );
                }
            }
        }
        out
    }
}

/// Batch wrapper over a private service core: submit a batch of
/// [`GenRequest`]s, then [`join`](Self::join) once for a drained
/// [`BatchReport`].
pub struct Scheduler {
    handle: ServeHandle,
    tickets: Vec<Ticket>,
    started: Instant,
    closed: bool,
}

impl Scheduler {
    /// Spawn `workers` threads draining a fresh queue, with caching and
    /// admission control disabled. Fails with [`ServeError::NoWorkers`]
    /// when `workers == 0`.
    pub fn new(registry: ModelRegistry, workers: usize) -> Result<Scheduler, ServeError> {
        Scheduler::with_config(registry, ServeConfig { workers, ..Default::default() })
    }

    /// Spawn a pool with explicit [`ServeConfig`].
    pub fn with_config(
        registry: ModelRegistry,
        config: ServeConfig,
    ) -> Result<Scheduler, ServeError> {
        Ok(Scheduler {
            handle: ServeHandle::with_config(registry, config)?,
            tickets: Vec::new(),
            started: Instant::now(),
            closed: false,
        })
    }

    /// The underlying service handle. Cloning it gives a non-blocking
    /// door to the same core (shared queue, cache, stats) — useful to
    /// watch `stats()` while a batch drains.
    pub fn handle(&self) -> &ServeHandle {
        &self.handle
    }

    /// The registry this scheduler resolves model names against.
    pub fn registry(&self) -> &ModelRegistry {
        self.handle.registry()
    }

    /// The snapshot cache shared by this scheduler's workers.
    pub fn cache(&self) -> &SnapshotCache {
        self.handle.cache()
    }

    /// Jobs queued and not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.handle.queue_depth()
    }

    /// Enqueue a request (non-blocking; the ticket is kept internally
    /// for [`join`](Self::join)). Same typed failure modes as
    /// [`ServeHandle::submit`], plus [`ServeError::SchedulerClosed`]
    /// after `join`.
    pub fn submit(&mut self, req: GenRequest) -> Result<JobId, ServeError> {
        if self.closed {
            return Err(ServeError::SchedulerClosed);
        }
        let ticket = self.handle.submit(req)?;
        let id = ticket.id();
        self.tickets.push(ticket);
        Ok(id)
    }

    /// Close the queue, wait for every submitted job to finish, and
    /// return the batch report. A second call (and any later `submit`)
    /// fails with [`ServeError::SchedulerClosed`].
    pub fn join(&mut self) -> Result<BatchReport, ServeError> {
        if self.closed {
            return Err(ServeError::SchedulerClosed);
        }
        self.closed = true;
        self.handle.close();
        let mut jobs = Vec::with_capacity(self.tickets.len());
        for ticket in self.tickets.drain(..) {
            jobs.push(ticket.wait()?);
        }
        // Workers have nothing left after the tickets resolve; join
        // them so the snapshot below sees the final counters.
        self.handle.join_workers();
        // Each result arrived on its own channel; the completion
        // sequence number restores global completion order.
        jobs.sort_by_key(|j| j.seq);
        let stats = self.handle.stats();
        let total_seconds = self.started.elapsed().as_secs_f64().max(1e-9);
        let snapshots: usize = jobs.iter().map(|j| j.snapshots).sum();
        Ok(BatchReport {
            jobs_per_sec: jobs.len() as f64 / total_seconds,
            snapshots_per_sec: snapshots as f64 / total_seconds,
            max_in_flight: stats.max_in_flight,
            workers: stats.workers,
            cache: stats.cache,
            latency: stats.latency,
            jobs,
            total_seconds,
        })
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // A dropped-without-join scheduler is an abort, not a drain:
        // queued jobs are discarded (counted as dropped in the core
        // stats) so error paths exit promptly instead of silently
        // finishing minutes of submitted work. The core joins its
        // workers when its last handle goes away.
        if !self.closed {
            self.handle.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::GenSink;
    use crate::{CacheBudget, ServeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use vrdag::{Vrdag, VrdagConfig};

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

    #[test]
    fn scheduler_jobs_match_direct_generation() {
        let (registry, model) = registry_with_tiny();
        let mut scheduler = Scheduler::new(registry, 2).unwrap();
        for seed in [5u64, 6, 7, 8] {
            scheduler.submit(GenRequest::new("tiny", 3, seed, GenSink::InMemory)).unwrap();
        }
        let report = scheduler.join().unwrap();
        assert!(report.all_ok(), "{}", report.render());
        assert_eq!(report.jobs.len(), 4);
        for job in &report.jobs {
            let mut rng = StdRng::seed_from_u64(job.seed);
            let expected = model.generate(3, &mut rng).unwrap();
            assert_eq!(job.graph.as_deref().unwrap(), &expected, "seed {}", job.seed);
            assert_eq!(job.snapshots, 3);
            assert!(!job.cache_hit, "caching is off by default");
        }
        assert_eq!(report.cache.hits + report.cache.misses, 0);
    }

    #[test]
    fn unknown_model_fails_at_submit() {
        let (registry, _) = registry_with_tiny();
        let mut scheduler = Scheduler::new(registry, 1).unwrap();
        let err = scheduler.submit(GenRequest::new("missing", 1, 0, GenSink::Discard));
        assert!(matches!(err, Err(ServeError::UnknownModel(_))));
        let report = scheduler.join().unwrap();
        assert!(report.jobs.is_empty());
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let (registry, _) = registry_with_tiny();
        match Scheduler::new(registry, 0) {
            Err(ServeError::NoWorkers) => {}
            Err(other) => panic!("expected NoWorkers, got {other:?}"),
            Ok(_) => panic!("expected NoWorkers, got a scheduler"),
        }
    }

    #[test]
    fn submit_and_join_after_join_are_typed_errors() {
        let (registry, _) = registry_with_tiny();
        let mut scheduler = Scheduler::new(registry, 1).unwrap();
        scheduler.submit(GenRequest::new("tiny", 1, 0, GenSink::Discard)).unwrap();
        let report = scheduler.join().unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert!(matches!(
            scheduler.submit(GenRequest::new("tiny", 1, 1, GenSink::Discard)),
            Err(ServeError::SchedulerClosed)
        ));
        assert!(matches!(scheduler.join(), Err(ServeError::SchedulerClosed)));
    }

    #[test]
    fn zero_t_len_is_rejected_at_submit() {
        let (registry, _) = registry_with_tiny();
        let mut scheduler = Scheduler::new(registry, 1).unwrap();
        assert!(matches!(
            scheduler.submit(GenRequest::new("tiny", 0, 0, GenSink::Discard)),
            Err(ServeError::InvalidRequest(_))
        ));
        let report = scheduler.join().unwrap();
        assert!(report.jobs.is_empty());
    }

    #[test]
    fn dropping_an_unjoined_scheduler_does_not_hang() {
        let (registry, _) = registry_with_tiny();
        let scheduler = Scheduler::new(registry, 2).unwrap();
        drop(scheduler);
    }

    #[test]
    fn drop_discards_queued_jobs_and_counts_them() {
        // Drop is an abort: with the single worker pinned inside a job,
        // everything still queued at drop time must never execute — and
        // must stay observable as `dropped_jobs` on the core stats.
        let (registry, _) = registry_with_tiny();
        let mut scheduler = Scheduler::new(registry, 1).unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        scheduler.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        for seed in 1..4u64 {
            let ran = Arc::clone(&ran);
            scheduler
                .submit(GenRequest::new(
                    "tiny",
                    1,
                    seed,
                    GenSink::Callback(Box::new(move |_, _| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    })),
                ))
                .unwrap();
        }
        assert_eq!(scheduler.queue_depth(), 3);
        // A handle clone keeps the core's stats observable across the
        // facade's death.
        let handle = scheduler.handle().clone();
        // Drop on a helper thread; once the queue is visibly discarded,
        // release the blocker.
        let dropper = std::thread::spawn(move || drop(scheduler));
        while handle.queue_depth() > 0 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
        dropper.join().unwrap();
        handle.join_workers();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "queued jobs ran after drop");
        let stats = handle.stats();
        assert_eq!(stats.dropped_jobs, 3, "discarded jobs are counted");
        assert_eq!(stats.completed, 1, "only the in-flight blocker finished");
    }

    #[test]
    fn two_jobs_run_concurrently() {
        // Deterministic concurrency proof: both jobs block in their
        // callback sink until the *other* job has produced its first
        // snapshot. This only completes if two workers execute
        // simultaneously.
        let (registry, _) = registry_with_tiny();
        let mut scheduler = Scheduler::new(registry, 2).unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        for seed in [1u64, 2] {
            let barrier = Arc::clone(&barrier);
            let mut synced = false;
            scheduler
                .submit(GenRequest::new(
                    "tiny",
                    2,
                    seed,
                    GenSink::Callback(Box::new(move |_, _| {
                        if !synced {
                            barrier.wait();
                            synced = true;
                        }
                    })),
                ))
                .unwrap();
        }
        let report = scheduler.join().unwrap();
        assert!(report.all_ok(), "{}", report.render());
        assert!(
            report.max_in_flight >= 2,
            "expected >=2 jobs in flight, saw {}",
            report.max_in_flight
        );
    }

    #[test]
    fn report_renders_throughput_cache_and_latency() {
        let (registry, _) = registry_with_tiny();
        let mut scheduler = Scheduler::with_config(
            registry,
            ServeConfig { workers: 2, cache: CacheBudget::entries(8), ..Default::default() },
        )
        .unwrap();
        for seed in 0..3u64 {
            scheduler.submit(GenRequest::new("tiny", 2, seed, GenSink::Discard)).unwrap();
        }
        let report = scheduler.join().unwrap();
        assert!(report.all_ok());
        let rendered = report.render();
        assert!(rendered.contains("3 jobs on 2 workers"), "{rendered}");
        assert!(rendered.contains("cache:"), "{rendered}");
        assert!(rendered.contains("latency: p50"), "{rendered}");
        assert!(report.jobs_per_sec > 0.0);
        assert!(report.snapshots_per_sec > 0.0);
        assert!(report.latency.p99_seconds >= report.latency.p50_seconds);
        assert_eq!(report.cache.misses, 3, "distinct seeds all miss");
    }

    #[test]
    fn repeated_requests_hit_the_cache_and_match() {
        let (registry, model) = registry_with_tiny();
        let mut scheduler = Scheduler::with_config(
            registry,
            ServeConfig {
                workers: 1, // deterministic hit accounting
                cache: CacheBudget::entries(8),
                ..Default::default()
            },
        )
        .unwrap();
        for _round in 0..3 {
            for seed in [10u64, 11] {
                scheduler.submit(GenRequest::new("tiny", 3, seed, GenSink::InMemory)).unwrap();
            }
        }
        let report = scheduler.join().unwrap();
        assert!(report.all_ok(), "{}", report.render());
        assert_eq!(report.cache.misses, 2, "first round misses");
        assert_eq!(report.cache.hits, 4, "later rounds hit");
        assert_eq!(report.cache_hits(), 4);
        for job in &report.jobs {
            let mut rng = StdRng::seed_from_u64(job.seed);
            let expected = model.generate(3, &mut rng).unwrap();
            assert_eq!(job.graph.as_deref().unwrap(), &expected, "seed {}", job.seed);
            assert_eq!(job.snapshots, 3);
            assert_eq!(job.edges, expected.temporal_edge_count());
        }
    }

    #[test]
    fn concurrent_identical_requests_coalesce_into_one_generation() {
        // Two workers, two identical requests: without coalescing both
        // could miss and regenerate; with it, exactly one generates and
        // the twin is served from the cache — deterministically.
        let (registry, model) = registry_with_tiny();
        let mut scheduler = Scheduler::with_config(
            registry,
            ServeConfig { workers: 2, cache: CacheBudget::entries(4), ..Default::default() },
        )
        .unwrap();
        scheduler.submit(GenRequest::new("tiny", 3, 33, GenSink::InMemory)).unwrap();
        scheduler.submit(GenRequest::new("tiny", 3, 33, GenSink::InMemory)).unwrap();
        let report = scheduler.join().unwrap();
        assert!(report.all_ok(), "{}", report.render());
        assert_eq!(report.cache.misses, 1, "{}", report.render());
        assert_eq!(report.cache.hits, 1, "{}", report.render());
        let mut rng = StdRng::seed_from_u64(33);
        let expected = model.generate(3, &mut rng).unwrap();
        for job in &report.jobs {
            assert_eq!(job.graph.as_deref().unwrap(), &expected);
        }
    }

    #[test]
    fn blocked_duplicate_does_not_inflate_group_priority() {
        // Regression: a coalescing-blocked high-priority duplicate must
        // not lend its priority to the group — cross-group selection
        // compares *runnable* priorities only.
        let a = fitted(3);
        let b = fitted(4);
        let registry = ModelRegistry::new();
        registry.register("a", &a).unwrap();
        registry.register("b", &b).unwrap();
        let mut scheduler = Scheduler::with_config(
            registry,
            ServeConfig { workers: 2, cache: CacheBudget::entries(8), ..Default::default() },
        )
        .unwrap();
        // Pin both workers: worker 1 on model a (key K = a/1/0), worker
        // 2 on model b (key M = b/1/9).
        let (k_started_tx, k_started_rx) = std::sync::mpsc::channel();
        let (k_release_tx, k_release_rx) = std::sync::mpsc::channel();
        scheduler.submit(blocking_request("a", 0, k_started_tx, k_release_rx)).unwrap();
        let (m_started_tx, m_started_rx) = std::sync::mpsc::channel();
        let (m_release_tx, m_release_rx) = std::sync::mpsc::channel();
        scheduler.submit(blocking_request("b", 9, m_started_tx, m_release_rx)).unwrap();
        k_started_rx.recv().unwrap();
        m_started_rx.recv().unwrap();
        // Queue: a duplicate of K at priority 10 (blocked while K is in
        // flight), a priority-0 model-a job, a priority-5 model-b job.
        let dup = scheduler
            .submit(GenRequest::new("a", 1, 0, GenSink::Discard).with_priority(10))
            .unwrap();
        let low = scheduler.submit(GenRequest::new("a", 1, 1, GenSink::Discard)).unwrap();
        let high = scheduler
            .submit(GenRequest::new("b", 1, 2, GenSink::Discard).with_priority(5))
            .unwrap();
        // Release only worker 2: it must run the runnable priority-5
        // model-b job before the priority-0 model-a job, even though the
        // blocked duplicate makes model a's raw group max 10.
        m_release_tx.send(()).unwrap();
        loop {
            // Wait (bounded by the test harness timeout) until worker 2
            // has drained both runnable jobs; the duplicate stays queued.
            if scheduler.queue_depth() == 1 {
                break;
            }
            std::thread::yield_now();
        }
        k_release_tx.send(()).unwrap();
        let report = scheduler.join().unwrap();
        assert!(report.all_ok(), "{}", report.render());
        let pos = |id: JobId| report.jobs.iter().position(|j| j.id == id).unwrap();
        // Worker 2 drains both runnable jobs sequentially: the runnable
        // priority-5 job must beat the priority-0 one despite the
        // blocked priority-10 duplicate in the latter's group.
        assert!(pos(high) < pos(low), "priority 5 must run before priority 0\n{}", report.render());
        // The duplicate stayed blocked until its twin K completed, then
        // was served from K's cache entry.
        assert!(pos(JobId(0)) < pos(dup), "duplicate ran before its twin\n{}", report.render());
        assert!(report.jobs[pos(dup)].cache_hit, "{}", report.render());
    }

    #[test]
    fn oversized_sequences_are_not_retained_for_the_cache() {
        // A byte budget below one sequence: generation must still
        // succeed and stream, but nothing is admitted and repeated
        // requests keep regenerating.
        let (registry, model) = registry_with_tiny();
        let mut scheduler = Scheduler::with_config(
            registry,
            ServeConfig {
                workers: 1,
                cache: CacheBudget { max_entries: 8, max_bytes: 64 },
                ..Default::default()
            },
        )
        .unwrap();
        scheduler.submit(GenRequest::new("tiny", 3, 13, GenSink::InMemory)).unwrap();
        scheduler.submit(GenRequest::new("tiny", 3, 13, GenSink::Discard)).unwrap();
        let report = scheduler.join().unwrap();
        assert!(report.all_ok(), "{}", report.render());
        assert_eq!(report.cache.misses, 2, "oversized entries never admitted");
        assert_eq!(report.cache.entries, 0);
        // The InMemory job still got its (oversized) sequence — the
        // budget bounds the cache, not an explicit request.
        let mut rng = StdRng::seed_from_u64(13);
        let expected = model.generate(3, &mut rng).unwrap();
        let with_graph = report.jobs.iter().find(|j| j.graph.is_some()).unwrap();
        assert_eq!(with_graph.graph.as_deref().unwrap(), &expected);
    }

    #[test]
    fn cache_hits_replay_into_file_sinks() {
        let dir = std::env::temp_dir().join("vrdag_sched_cache_replay");
        std::fs::create_dir_all(&dir).unwrap();
        let (registry, model) = registry_with_tiny();
        let mut scheduler = Scheduler::with_config(
            registry,
            ServeConfig { workers: 1, cache: CacheBudget::entries(4), ..Default::default() },
        )
        .unwrap();
        // Warm the cache, then serve the same sequence to a file.
        scheduler.submit(GenRequest::new("tiny", 3, 21, GenSink::Discard)).unwrap();
        let path = dir.join("replayed.tsv");
        scheduler.submit(GenRequest::new("tiny", 3, 21, GenSink::TsvFile(path.clone()))).unwrap();
        let report = scheduler.join().unwrap();
        assert!(report.all_ok(), "{}", report.render());
        assert_eq!(report.cache.hits, 1);
        let on_disk = vrdag_graph::io::load_tsv(&path).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        assert_eq!(on_disk, model.generate(3, &mut rng).unwrap());
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
    fn queue_depth_cap_rejects_with_typed_error() {
        let (registry, _) = registry_with_tiny();
        let mut scheduler = Scheduler::with_config(
            registry,
            ServeConfig { workers: 1, max_queue_depth: Some(2), ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        scheduler.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        // Wait until the blocker is in flight, so the queue is empty.
        started_rx.recv().unwrap();
        assert_eq!(scheduler.queue_depth(), 0);
        scheduler.submit(GenRequest::new("tiny", 1, 1, GenSink::Discard)).unwrap();
        scheduler.submit(GenRequest::new("tiny", 1, 2, GenSink::Discard)).unwrap();
        match scheduler.submit(GenRequest::new("tiny", 1, 3, GenSink::Discard)) {
            Err(ServeError::QueueFull { depth: 2, cap: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        release_tx.send(()).unwrap();
        let report = scheduler.join().unwrap();
        // The rejected job never ran; the report stays consistent.
        assert!(report.all_ok(), "{}", report.render());
        assert_eq!(report.jobs.len(), 3);
        let mut seeds: Vec<u64> = report.jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![0, 1, 2]);
    }

    /// A one-worker scheduler over two genuinely different artifacts,
    /// with the worker pinned inside a blocker job on model `a` so every
    /// later submission queues. Release the blocker to drain.
    fn pinned_two_model_scheduler(
        a: &Vrdag,
        b: &Vrdag,
    ) -> (Scheduler, std::sync::mpsc::Sender<()>) {
        let registry = ModelRegistry::new();
        registry.register("a", a).unwrap();
        registry.register("b", b).unwrap();
        let mut scheduler =
            Scheduler::with_config(registry, ServeConfig { workers: 1, ..Default::default() })
                .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        scheduler.submit(blocking_request("a", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        (scheduler, release_tx)
    }

    /// Completion order of everything after the blocker.
    fn drained_order(mut scheduler: Scheduler, release: std::sync::mpsc::Sender<()>) -> Vec<JobId> {
        release.send(()).unwrap();
        let report = scheduler.join().unwrap();
        assert!(report.all_ok(), "{}", report.render());
        report.jobs[1..].iter().map(|j| j.id).collect()
    }

    #[test]
    fn priority_beats_arrival_and_equal_priority_is_fifo_across_models() {
        let a = fitted(3);
        let b = fitted(4);

        // Equal priority: arrival order, whatever the model.
        let (mut scheduler, release) = pinned_two_model_scheduler(&a, &b);
        let a1 = scheduler.submit(GenRequest::new("a", 1, 1, GenSink::Discard)).unwrap();
        let b1 = scheduler.submit(GenRequest::new("b", 1, 2, GenSink::Discard)).unwrap();
        let a2 = scheduler.submit(GenRequest::new("a", 1, 3, GenSink::Discard)).unwrap();
        let b2 = scheduler.submit(GenRequest::new("b", 1, 4, GenSink::Discard)).unwrap();
        assert_eq!(drained_order(scheduler, release), [a1, b1, a2, b2]);

        // A later, higher-priority job on another model runs first.
        let (mut scheduler, release) = pinned_two_model_scheduler(&a, &b);
        let low = scheduler.submit(GenRequest::new("a", 1, 1, GenSink::Discard)).unwrap();
        let high = scheduler
            .submit(GenRequest::new("b", 1, 2, GenSink::Discard).with_priority(5))
            .unwrap();
        assert_eq!(drained_order(scheduler, release), [high, low], "priority beats arrival");
    }

    #[test]
    fn higher_priority_runs_first_within_one_model() {
        // docs/PROTOCOL.md: higher priority runs earlier within the
        // submitting tenant — also when both jobs target the same model.
        let a = fitted(3);
        let b = fitted(4);
        let (mut scheduler, release) = pinned_two_model_scheduler(&a, &b);
        let low = scheduler.submit(GenRequest::new("a", 1, 1, GenSink::Discard)).unwrap();
        let high = scheduler
            .submit(GenRequest::new("a", 1, 2, GenSink::Discard).with_priority(5))
            .unwrap();
        assert_eq!(drained_order(scheduler, release), [high, low]);
    }
}
