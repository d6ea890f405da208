//! The shared work queue drained by the service core's worker pool:
//! weighted-fair selection across tenants, and within each tenant
//! priority-ordered selection and in-flight coalescing of identical
//! requests.
//!
//! **Tenant fairness (deficit round robin)** — queued jobs are first
//! partitioned into per-tenant lanes. Each lane holds a *deficit*
//! counter in snapshot units; when no lane can afford its next job the
//! scheduler advances one or more virtual rounds, granting every
//! runnable lane `weight` snapshots per round, and then serves the
//! first affordable lane in rotation order (deficit -= job cost, cost =
//! `t_len`). Under contention a weight-3 tenant therefore drains ~3
//! snapshots for every 1 a weight-1 tenant drains, and one tenant's
//! burst of heavy `SUB` jobs cannot starve the others. A lane running
//! alone is served immediately with its deficit pinned to zero, so solo
//! traffic neither pays for nor hoards credit against future
//! contention. Priority remains a *within-tenant* concept: it picks
//! which of a tenant's jobs runs next, never whose turn it is.
//!
//! **Priority** — a lane keeps its jobs ordered by
//! [`GenRequest::priority`](crate::GenRequest::priority), highest first,
//! then by arrival. The lane's next job is the first runnable one in
//! that order, whatever model it targets.
//!
//! **Coalescing** — when a [`SnapshotCache`] is attached, a queued
//! duplicate of a `(model, t_len, seed)` key that is already generating
//! on another worker is held back until the key finishes, then pops as a
//! cache hit — across tenant lanes too (the cache is shared); keys
//! observed to finish uncached are exempt.
//!
//! Jobs carry their own completion channel ([`Job::reply`]): workers push
//! results to the submitting caller instead of the queue owning a result
//! vector, which is what lets the service core stay long-lived — nothing
//! accumulates in the queue between `stats()` snapshots.

use crate::cache::{CacheKey, SnapshotCache};
use crate::core::{job_cache_key, CancelToken, CompletionNotify, GenSink, JobId, JobResult};
use crate::registry::ModelHandle;
use crate::tenant::{Tenant, TenantId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// A queued unit of work: one generation request bound to its resolved
/// model handle, the tenant it runs on behalf of, and the channel its
/// [`JobResult`] is delivered on.
pub(crate) struct Job {
    pub(crate) id: JobId,
    pub(crate) handle: ModelHandle,
    pub(crate) tenant: Arc<Tenant>,
    pub(crate) t_len: usize,
    pub(crate) seed: u64,
    pub(crate) priority: i32,
    pub(crate) sink: GenSink,
    /// Cooperative cancellation flag. A token tripped while the job is
    /// still queued short-circuits it to a cancelled result the moment a
    /// worker pops it — no model instantiation, no generation.
    pub(crate) cancel: Option<CancelToken>,
    /// Stage trace (submitted → dequeued → snapshots → delivered); the
    /// worker marks the remaining stages as the job progresses.
    pub(crate) trace: vrdag_obs::JobTrace,
    /// Per-job result channel; the worker that executes (or the core that
    /// discards) this job owns the send side, the caller's `Ticket` the
    /// receive side.
    pub(crate) reply: Sender<JobResult>,
    /// Exactly-once completion hook; fires on drop if a worker never got
    /// to it (a discard), and is declared *after* `reply` so drop order
    /// guarantees the ticket channel already reports disconnection when
    /// the hook observes the job's fate.
    pub(crate) notify: CompletionNotify,
}

/// Lane order: highest priority first, then arrival (job ids are
/// assigned in submission order).
type LaneKey = (Reverse<i32>, JobId);

/// One tenant's queued jobs in run order, plus the lane's
/// deficit-round-robin state. Lanes are removed when drained (their
/// deficit dies with them, as in classic DRR).
struct Lane {
    /// Queued jobs; never empty for a stored lane.
    jobs: BTreeMap<LaneKey, Job>,
    weight: u32,
    /// Unspent serving credit in snapshot units (a job costs `t_len`).
    deficit: u64,
}

/// The lane job [`QueueState::lane_best`] selected and its DRR cost.
struct LanePick {
    key: LaneKey,
    cost: u64,
}

struct QueueState {
    /// Per-tenant lanes. Lanes are removed when drained, so every
    /// stored lane is non-empty.
    lanes: HashMap<TenantId, Lane>,
    /// DRR rotation order over the live lanes (insertion order; a
    /// re-created lane joins at the back).
    rotation: Vec<TenantId>,
    /// Keys currently generating on some worker (coalescing mode only):
    /// queued duplicates are held back until the key finishes, then pop
    /// as cache hits.
    busy: HashSet<CacheKey>,
    /// Keys observed to finish without becoming cached (oversized for
    /// the byte budget, or failed): their duplicates can never be served
    /// by waiting, so they are exempt from coalescing and run in
    /// parallel exactly as with the cache disabled.
    uncacheable: HashSet<CacheKey>,
    /// Jobs currently executing on workers, per tenant (feeds the
    /// `max_inflight` quota, which caps queued + executing together).
    executing: HashMap<TenantId, usize>,
    queued: usize,
    closed: bool,
}

impl QueueState {
    /// Is this job free to run now? With coalescing, a duplicate of an
    /// in-flight key is held back — unless the key is already resident
    /// (it will be served by replay, which needs no exclusivity) or
    /// known uncacheable (waiting would buy nothing).
    fn runnable(&self, cache: Option<&SnapshotCache>, job: &Job) -> bool {
        let Some(cache) = cache else { return true };
        let key = job_cache_key(&job.handle, job.t_len, job.seed);
        !self.busy.contains(&key) || self.uncacheable.contains(&key) || cache.contains(&key)
    }

    /// The lane's first runnable job in priority-then-arrival order.
    /// `None` when everything in the lane is coalescing-blocked.
    fn lane_best(&self, cache: Option<&SnapshotCache>, lane: &Lane) -> Option<LanePick> {
        let (&key, job) = lane.jobs.iter().find(|(_, job)| self.runnable(cache, job))?;
        Some(LanePick { key, cost: job.t_len.max(1) as u64 })
    }

    /// Pick the next runnable job: deficit-round-robin across tenant
    /// lanes, then the lane-local priority pick. Returns `None` when
    /// everything queued is coalescing-blocked (the caller waits for a
    /// finish notification).
    fn take_next(&mut self, cache: Option<&SnapshotCache>) -> Option<Job> {
        // Runnable lanes in rotation order, with their lane-local pick.
        let mut runnable: Vec<(TenantId, LanePick)> = Vec::new();
        for tenant in &self.rotation {
            let lane = &self.lanes[tenant];
            if let Some(pick) = self.lane_best(cache, lane) {
                runnable.push((tenant.clone(), pick));
            }
        }
        if runnable.is_empty() {
            return None;
        }
        let (tenant, pick) = if runnable.len() == 1 {
            // No contention: serve immediately and pin the deficit to
            // zero — solo traffic neither pays for nor hoards credit.
            let (tenant, pick) = runnable.pop().expect("len checked");
            self.lanes.get_mut(&tenant).expect("lane exists").deficit = 0;
            (tenant, pick)
        } else {
            // DRR: the first lane in rotation order whose deficit covers
            // its job's cost serves. When none can afford it, advance
            // the minimal number of virtual rounds (each grants every
            // runnable lane `weight` snapshots) in one step — a single
            // huge SUB job fast-forwards instead of looping per round.
            let affordable =
                |lanes: &HashMap<TenantId, Lane>, t: &TenantId, cost: u64| lanes[t].deficit >= cost;
            if !runnable.iter().any(|(t, p)| affordable(&self.lanes, t, p.cost)) {
                let rounds = runnable
                    .iter()
                    .map(|(t, p)| {
                        let lane = &self.lanes[t];
                        let shortfall = p.cost - lane.deficit;
                        shortfall.div_ceil(lane.weight as u64)
                    })
                    .min()
                    .expect("runnable lanes is non-empty");
                for (t, _) in &runnable {
                    let lane = self.lanes.get_mut(t).expect("lane exists");
                    lane.deficit += rounds * lane.weight as u64;
                }
            }
            let pos = runnable
                .iter()
                .position(|(t, p)| affordable(&self.lanes, t, p.cost))
                .expect("rounds were advanced until a lane can afford its job");
            let (tenant, pick) = runnable.swap_remove(pos);
            let lane = self.lanes.get_mut(&tenant).expect("lane exists");
            lane.deficit -= pick.cost;
            (tenant, pick)
        };
        let lane = self.lanes.get_mut(&tenant).expect("chosen lane exists");
        let job = lane.jobs.remove(&pick.key).expect("chosen job is queued");
        if lane.jobs.is_empty() {
            self.lanes.remove(&tenant);
            self.rotation.retain(|t| t != &tenant);
        }
        self.queued -= 1;
        Some(job)
    }
}

/// Point-in-time counters of one live tenant lane (see
/// [`JobQueue::lane_stats`]): feeds the `vrdag_tenant_queue_depth` and
/// `vrdag_tenant_lane_deficit` metric gauges.
#[derive(Clone, Debug)]
pub struct LaneStats {
    /// Tenant id the lane belongs to.
    pub tenant: String,
    /// Jobs queued in this lane.
    pub queued: usize,
    /// Fair-share weight (snapshots granted per DRR round).
    pub weight: u32,
    /// Unspent DRR serving credit, in snapshot units.
    pub deficit: u64,
}

/// Why [`JobQueue::push_checked`] refused a job.
pub(crate) enum PushRejected {
    /// The queue was closed (concurrently with the submit).
    Closed,
    /// The admission cap is reached; `depth` is the observed queue depth.
    Full { depth: usize },
    /// A per-tenant quota is exhausted (`quota` names which one).
    Quota { tenant: TenantId, quota: &'static str, cap: usize },
}

/// The shared work queue of the service core. Exported for observability
/// (`depth`, `max_in_flight`); submission goes through
/// [`ServeHandle`](crate::ServeHandle).
pub struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    /// When set, identical queued requests are held back while one of
    /// them generates (they then complete as cache hits). `None`
    /// disables coalescing — without a cache, duplicates are
    /// independent work and run in parallel.
    cache: Option<SnapshotCache>,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
}

impl JobQueue {
    /// A queue that coalesces duplicates of in-flight requests against
    /// `cache` (when given).
    pub(crate) fn with_cache(cache: Option<SnapshotCache>) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: HashMap::new(),
                rotation: Vec::new(),
                busy: HashSet::new(),
                uncacheable: HashSet::new(),
                executing: HashMap::new(),
                queued: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            cache,
            in_flight: AtomicUsize::new(0),
            max_in_flight: AtomicUsize::new(0),
        }
    }

    /// Enqueue `job`, enforcing the optional global admission cap and
    /// the job's tenant quotas atomically with the depth check
    /// (concurrent submitters cannot overshoot any cap between check and
    /// push), and refusing — not panicking — when a concurrent
    /// `close`/`abort` from another handle clone won the race against
    /// the submitter's pre-flight closed check.
    pub(crate) fn push_checked(&self, job: Job, cap: Option<usize>) -> Result<(), PushRejected> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(PushRejected::Closed);
        }
        if let Some(cap) = cap {
            if state.queued >= cap {
                return Err(PushRejected::Full { depth: state.queued });
            }
        }
        let tenant = Arc::clone(&job.tenant);
        let tenant_id = tenant.id().clone();
        let tenant_queued = state.lanes.get(&tenant_id).map_or(0, |l| l.jobs.len());
        if let Some(max) = tenant.max_inflight {
            let executing = state.executing.get(&tenant_id).copied().unwrap_or(0);
            if tenant_queued + executing >= max {
                return Err(PushRejected::Quota {
                    tenant: tenant_id,
                    quota: "max_inflight",
                    cap: max,
                });
            }
        }
        if let (Some(share), Some(global_cap)) = (tenant.max_queue_share, cap) {
            let tenant_cap = ((share * global_cap as f64).floor() as usize).max(1);
            if tenant_queued >= tenant_cap {
                return Err(PushRejected::Quota {
                    tenant: tenant_id,
                    quota: "queue_share",
                    cap: tenant_cap,
                });
            }
        }
        {
            let state = &mut *state;
            let lane = match state.lanes.entry(tenant_id.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    state.rotation.push(tenant_id);
                    e.insert(Lane {
                        jobs: BTreeMap::new(),
                        weight: tenant.weight.max(1),
                        deficit: 0,
                    })
                }
            };
            lane.jobs.insert((Reverse(job.priority), job.id), job);
            state.queued += 1;
        }
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a runnable job is available or the queue is closed
    /// and drained.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(job) = state.take_next(self.cache.as_ref()) {
                if self.cache.is_some() {
                    state.busy.insert(job_cache_key(&job.handle, job.t_len, job.seed));
                }
                *state.executing.entry(job.tenant.id().clone()).or_insert(0) += 1;
                let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                self.max_in_flight.fetch_max(now, Ordering::SeqCst);
                return Some(job);
            }
            // Blocked duplicates (queued > 0 with nothing runnable) wait
            // for the in-flight twin's finish notification even after
            // close.
            if state.closed && state.queued == 0 {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock poisoned");
        }
    }

    pub(crate) fn finish_one(&self, key: &CacheKey, tenant: &TenantId) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        let mut state = self.state.lock().expect("queue lock poisoned");
        match state.executing.get_mut(tenant) {
            Some(count) if *count > 1 => *count -= 1,
            _ => {
                state.executing.remove(tenant);
            }
        }
        if let Some(cache) = &self.cache {
            state.busy.remove(key);
            if !cache.contains(key) {
                // Finished without becoming resident: duplicates gain
                // nothing by waiting, stop holding them back. Bounded
                // memory: the set is a heuristic, resetting it only
                // re-serializes one generation per key.
                if state.uncacheable.len() >= 4096 {
                    state.uncacheable.clear();
                }
                state.uncacheable.insert(*key);
            }
            drop(state);
            // Wake any worker parked on a duplicate of this key.
            self.ready.notify_all();
        }
    }

    /// No more submissions; wakes idle workers so they can exit after
    /// draining what is already queued.
    pub(crate) fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Close *and* drop every queued job (abort semantics): in-flight
    /// jobs finish, queued ones never start. Returns how many jobs were
    /// discarded — the callers surface this as
    /// [`ServeStats::dropped_jobs`](crate::ServeStats::dropped_jobs), and
    /// each discarded job's `Ticket` observes the dropped reply channel.
    pub(crate) fn close_discard(&self) -> usize {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.closed = true;
        let dropped = state.queued;
        state.lanes.clear();
        state.rotation.clear();
        state.queued = 0;
        drop(state);
        self.ready.notify_all();
        dropped
    }

    /// Jobs queued and not yet picked up by a worker.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").queued
    }

    /// Jobs queued for one tenant specifically.
    pub fn tenant_depth(&self, tenant: &TenantId) -> usize {
        self.state
            .lock()
            .expect("queue lock poisoned")
            .lanes
            .get(tenant)
            .map_or(0, |l| l.jobs.len())
    }

    /// Point-in-time view of every live tenant lane, in DRR rotation
    /// order. Empty when nothing is queued (lanes die when drained).
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        let state = self.state.lock().expect("queue lock poisoned");
        state
            .rotation
            .iter()
            .filter_map(|tenant| {
                state.lanes.get(tenant).map(|lane| LaneStats {
                    tenant: tenant.to_string(),
                    queued: lane.jobs.len(),
                    weight: lane.weight,
                    deficit: lane.deficit,
                })
            })
            .collect()
    }

    /// Jobs currently executing on workers.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Highest observed number of simultaneously executing jobs.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight.load(Ordering::SeqCst)
    }
}
